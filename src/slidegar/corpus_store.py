"""Document / query / qrel ingestion and the docno <-> doc-id mapping, plus
what every artifact loader shares: ``docnos.txt`` and size-checked u32 arrays.

The corpus is held as two parallel columns, ``docnos`` and ``texts``,
indexed by doc id, read from the file in one pass.

File formats:

- corpus: one record per line, either ``docno<TAB>text`` or a JSON object
  with fields ``docno`` and ``text``. JSON lines are auto-detected when the
  first non-empty line starts with ``{``. Lines are split on ``\\n`` only
  (``\\x85``, ``\\u2028`` and ``\\x1c`` stay inside a text), a trailing
  ``\\r`` is stripped and empty lines are skipped.
- queries: ``qid<TAB>text`` lines.
- qrels: whitespace-separated ``qid 0 docno grade`` (standard TREC layout).
  Queries and qrels are read one line at a time, split on ``\\n`` only;
  a trailing ``\\r`` is stripped and blank lines are skipped.
- dedup report: JSON lines ``{"dropped": docno, "kept": docno}``.

Docnos and qids may not contain whitespace: they become columns of
whitespace-separated run lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Query:
    qid: str
    text: str


_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Key used for duplicate detection: trimmed, whitespace runs collapsed.

    Deliberately no case folding, so differently-cased passages stay
    distinct.
    """
    return _WS_RUN.sub(" ", text.strip())


class CorpusStore:
    """Immutable document store: two parallel columns indexed by doc id.

    Doc ids are dense ints in corpus order so they can index directly into
    postings lists, embedding matrices, and graph rows. The store alone
    holds docnos and the docno -> id map; indexes, embedding matrices,
    graphs and rankings hold ids, and artifacts check their ``docnos.txt``
    against it. The map, ``id_of``, is built on the first lookup, so a step
    that only reads the columns, such as an index build, never holds it.
    Only set-up looks docnos up (qrels, embeddings); queries run on ids.
    """

    def __init__(self, docnos: list[str], texts: list[str], alias: dict[str, str] | None = None) -> None:
        if len(docnos) != len(texts):
            raise ValueError(f"{len(docnos)} docnos but {len(texts)} texts")
        self.docnos = docnos
        self.texts = texts
        self.alias = alias or {}  # dropped docno -> kept docno
        if len(set(docnos)) != len(docnos):  # a transient set: the map itself waits for a lookup
            first: dict[str, int] = {}
            docno = next(d for i, d in enumerate(docnos) if first.setdefault(d, i) != i)
            raise ValueError(f"duplicate docno {docno!r}")

    @cached_property
    def id_of(self) -> dict[str, int]:
        return dict(zip(self.docnos, range(len(self.docnos))))

    def __len__(self) -> int:
        return len(self.docnos)

    def __contains__(self, docno: str) -> bool:
        return docno in self.id_of

    def doc_id(self, docno: str) -> int:
        try:
            return self.id_of[docno]
        except KeyError:
            raise KeyError(f"unknown docno {docno!r}") from None

    def resolve(self, docno: str) -> int | None:
        """Doc id for ``docno``, following the dedup alias map; None if absent."""
        doc_id = self.id_of.get(docno)
        if doc_id is not None:
            return doc_id
        kept = self.alias.get(docno)
        if kept is not None:
            return self.id_of[kept]
        return None


def _invalid_utf8(path: str | Path, lineno: int, line: bytes) -> str:
    """The error for a line that does not decode, with the reason of decoding
    it without its ending: a sequence the line cuts short reads as such."""
    try:
        line.rstrip(b"\r\n").decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{path}:{lineno}: invalid UTF-8 ({exc.reason})"
    raise AssertionError("the line decodes")


def decode_utf8(path: str | Path, data: bytes) -> str:
    """The text of a file read as ``data``; an undecodable line fails as in every reader."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(_invalid_utf8(path, lineno, data.split(b"\n")[lineno - 1])) from None


def _read_corpus(path: str | Path) -> CorpusStore:
    """One read of a corpus file into a store.

    The checks run over whole columns and a line is searched for only once
    one fails, so every error names the first bad line, as a line-by-line
    read would: a record before a bad line is checked in full before that
    line's own error is raised.
    """
    data = Path(path).read_bytes()
    error = ""  # the error of the line the columns stop before
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        error = _invalid_utf8(path, data.count(b"\n", 0, exc.start) + 1, data[start:].split(b"\n", 1)[0])
        text = data[:start].decode("utf-8")  # the lines before it are valid
    del data  # the lines hold the text from here on
    lines = text.split("\n")  # not splitlines(): \x85, \u2028 and \x1c stay inside a line
    if "\r" in text:
        lines = [line.rstrip("\r") for line in lines]
    del text
    records = list(filter(None, lines))

    def lineno(j: int) -> int:
        return [n for n, line in enumerate(lines, start=1) if line][j]

    if records and records[0][0] == "{":
        docnos, texts = [], []
        for j, line in enumerate(records):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                error = f"{path}:{lineno(j)}: invalid JSON ({exc.msg})"
                break
            if not isinstance(obj, dict) or "docno" not in obj or "text" not in obj:
                error = f"{path}:{lineno(j)}: record must carry 'docno' and 'text'"
                break
            docnos.append(str(obj["docno"]).strip())
            texts.append(str(obj["text"]).strip())
    else:
        tabs = [line.find("\t") for line in records]
        if -1 in tabs:
            del tabs[tabs.index(-1) :]
            error = f"{path}:{lineno(len(tabs))}: expected 'docno<TAB>text'"
        docnos = [line[:i].strip() for line, i in zip(records, tabs)]
        texts = [line[i + 1 :].strip() for line, i in zip(records, tabs)]

    if not (all(docnos) and all(texts)):
        j, docno = next((j, d) for j, (d, t) in enumerate(zip(docnos, texts)) if not (d and t))
        raise ValueError(f"{path}:{lineno(j)}: " + (f"empty text for docno {docno!r}" if docno else "empty docno"))
    if error:
        raise ValueError(error)
    # one scan over all docnos: clean ones join into a single word
    if len("".join(docnos).split()) > 1:
        j, docno = next((j, d) for j, d in enumerate(docnos) if len(d.split()) > 1)
        raise ValueError(f"{path}:{lineno(j)}: docno {docno!r} contains whitespace")
    try:
        return CorpusStore(docnos, texts)
    except ValueError:  # a repeated docno: name the line that repeats it first
        first: dict[str, int] = {}
        j = next(j for j, docno in enumerate(docnos) if first.setdefault(docno, j) != j)
        raise ValueError(
            f"{path}:{lineno(j)}: duplicate docno {docnos[j]!r} (first at line {lineno(first[docnos[j]])})"
        ) from None


def ingest_corpus(path: str | Path, dedup: bool = False) -> tuple[CorpusStore, list[dict]]:
    """Build a CorpusStore from a corpus file.

    With ``dedup`` on, documents whose normalized texts are identical are
    merged: the lexicographically smallest docno survives (a deterministic,
    order-independent tie-break) and every dropped twin is reported as a
    ``{"dropped": ..., "kept": ...}`` entry. Doc ids follow the order in
    which each distinct text first appears in the stream.
    """
    store = _read_corpus(path)
    if not dedup:
        return store, []

    groups: dict[str, list[tuple[str, str]]] = {}  # in order of first appearance
    for docno, text in zip(store.docnos, store.texts):
        groups.setdefault(normalize_text(text), []).append((docno, text))
    docnos, texts = [], []
    alias: dict[str, str] = {}
    for members in groups.values():
        kept_docno, kept_text = min(members)
        docnos.append(kept_docno)
        texts.append(kept_text)
        alias.update((docno, kept_docno) for docno, _ in members if docno != kept_docno)
    report = [{"dropped": dropped, "kept": kept} for dropped, kept in sorted(alias.items())]
    return CorpusStore(docnos, texts, alias), report


def write_dedup_report(path: str | Path, report: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for entry in report:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


def _docnos_bytes(docnos: list[str]) -> bytes:
    return "\n".join([*docnos, ""]).encode("utf-8")


def write_docnos(path: str | Path, docnos: list[str]) -> None:
    """``docnos.txt``: one docno per line in doc-id order, written beside an
    artifact whose rows are doc ids."""
    Path(path).write_bytes(_docnos_bytes(docnos))


def check_docnos(path: str | Path, store: CorpusStore, artifact: str) -> None:
    """Reject an artifact whose ``docnos.txt`` is not ``store.docnos`` line
    for line; another corpus, another dedup setting or a reordering would
    make every doc id point at the wrong document. A file that differs from
    what ``write_docnos`` writes is read as the corpus is, so CRLF lines pass."""
    data = Path(path).read_bytes()
    if data == _docnos_bytes(store.docnos):
        return
    text = decode_utf8(path, data)
    docnos = text.removesuffix("\n").split("\n") if text else []
    if "\r" in text:
        docnos = [docno.rstrip("\r") for docno in docnos]
    if docnos != store.docnos:
        pairs = zip(docnos, store.docnos)
        line = next((i for i, (a, b) in enumerate(pairs, start=1) if a != b), min(len(docnos), len(store)) + 1)
        raise ValueError(
            f"{path}:{line}: docnos do not match the corpus in doc-id order; "
            f"rebuild the {artifact} from the same corpus with the same dedup setting"
        )


def read_u32(path: str | Path, count: int, offset: int = 0) -> np.ndarray:
    """The ``count`` little-endian u32 values in ``path`` from byte ``offset``
    to its end, read straight into one writable array. Any other size fails,
    naming the file: a short file or a ragged tail would otherwise go unseen."""
    found = Path(path).stat().st_size - offset
    if found != 4 * count:
        raise ValueError(f"{path}: expected {4 * count} bytes, found {found}")
    return np.fromfile(path, dtype="<u4", count=count, offset=offset)


def load_queries(path: str | Path) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, "rb") as f:  # lines end at \n only, as in the corpus
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise ValueError(_invalid_utf8(path, lineno, raw)) from None
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'qid<TAB>text'")
            qid, text = parts[0].strip(), parts[1].strip()
            if not qid or not text:
                raise ValueError(f"{path}:{lineno}: empty qid or query text")
            if _WS_RUN.search(qid):
                raise ValueError(f"{path}:{lineno}: qid {qid!r} contains whitespace")
            if qid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate qid {qid!r}")
            seen.add(qid)
            queries.append(Query(qid, text))
    return queries


def load_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """``qid -> docno -> grade`` from a qrels file, read one line at a time.

    Nothing is kept per judgment but its dict entry: every query that judges
    a docno shares one string for it.
    """
    qrels: dict[str, dict[str, int]] = {}
    docnos: dict[str, str] = {}
    with open(path, "rb") as f:  # lines end at \n only, as in the corpus
        for lineno, raw in enumerate(f, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise ValueError(_invalid_utf8(path, lineno, raw)) from None
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'qid 0 docno grade'")
            qid, _, docno, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from None
            if grade < 0:
                raise ValueError(f"{path}:{lineno}: negative grade for ({qid}, {docno})")
            judged = qrels.get(qid)
            if judged is None:  # setdefault(qid, {}) would build a dict per line
                judged = qrels[qid] = {}
            if docno in judged:
                raise ValueError(f"{path}:{lineno}: duplicate qrel for ({qid}, {docno})")
            judged[docnos.setdefault(docno, docno)] = grade
    return qrels


def map_qrels(
    qrels: dict[str, dict[str, int]], store: CorpusStore
) -> tuple[dict[str, dict[int, int]], list[tuple[str, str]]]:
    """Re-key judgments onto store doc ids, ``qid -> doc id -> grade``, the
    keys the in-process rankers read off their windows.

    Judgments on docnos dropped by dedup follow the alias to the kept
    representative; when both twins are judged, the larger grade wins.
    Docnos absent from the store are returned as ``(qid, docno)`` pairs,
    by query in order of first appearance and in file order within a query
    (file order for a file grouped by query, as TREC qrels are); a query
    none of whose docnos is in the store gets no entry.
    """
    grades: dict[str, dict[int, int]] = {}
    absent: list[tuple[str, str]] = []
    resolve = store.resolve
    for qid, judged in qrels.items():
        per_query: dict[int, int] = {}
        for docno, grade in judged.items():
            doc_id = resolve(docno)
            if doc_id is None:
                absent.append((qid, docno))
                continue
            if per_query.get(doc_id, -1) < grade:
                per_query[doc_id] = grade
        if per_query:
            grades[qid] = per_query
    return grades, absent
