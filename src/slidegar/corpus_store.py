"""Document / query / qrel ingestion and the docno <-> doc-id mapping.

File formats:

- corpus: one record per line, either ``docno<TAB>text`` or a JSON object
  with fields ``docno`` and ``text``. JSON lines are auto-detected when the
  file's first byte is ``{``.
- queries: ``qid<TAB>text`` lines.
- qrels: whitespace-separated ``qid 0 docno grade`` (standard TREC layout).
- dedup report: JSON lines ``{"dropped": docno, "kept": docno}``.

Docnos and qids may not contain whitespace: they become columns of
whitespace-separated run lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Document:
    docno: str
    text: str


@dataclass(frozen=True)
class Query:
    qid: str
    text: str


@dataclass(frozen=True)
class QrelEntry:
    qid: str
    docno: str
    grade: int


_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Key used for duplicate detection: trimmed, whitespace runs collapsed.

    Deliberately no case folding, so differently-cased passages stay
    distinct.
    """
    return _WS_RUN.sub(" ", text.strip())


class CorpusStore:
    """Write-once document store; immutable once ingestion finishes.

    Doc ids are dense ints assigned in ingestion order so they can index
    directly into postings lists, embedding matrices, and graph rows. The
    store holds the only docno -> id map; everything else works on ids.
    """

    def __init__(self) -> None:
        self.docs: list[Document] = []
        self.docnos: list[str] = []  # doc id -> docno; indexes, tables and graphs share this list
        self.alias: dict[str, str] = {}  # dropped docno -> kept docno
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, docno: str) -> bool:
        return docno in self._ids

    def add(self, doc: Document) -> int:
        if not doc.docno:
            raise ValueError("empty docno")
        if doc.docno in self._ids:
            raise ValueError(f"duplicate docno {doc.docno!r}")
        if not doc.text.strip():
            raise ValueError(f"empty text for docno {doc.docno!r}")
        self.docs.append(doc)
        self.docnos.append(doc.docno)
        doc_id = len(self.docs) - 1
        self._ids[doc.docno] = doc_id
        return doc_id

    def doc_id(self, docno: str) -> int:
        try:
            return self._ids[docno]
        except KeyError:
            raise KeyError(f"unknown docno {docno!r}") from None

    def resolve(self, docno: str) -> int | None:
        """Doc id for ``docno``, following the dedup alias map; None if absent."""
        doc_id = self._ids.get(docno)
        if doc_id is not None:
            return doc_id
        kept = self.alias.get(docno)
        if kept is not None:
            return self._ids[kept]
        return None


def _read_corpus_records(path: str | Path) -> list[tuple[int, str, str]]:
    """Parse a corpus file into (line_no, docno, text) triples.

    Lines are decoded individually so malformed input reports an exact
    line number.
    """
    records: list[tuple[int, str, str]] = []
    json_lines: bool | None = None
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.rstrip(b"\r\n")
            if not raw:
                continue
            if json_lines is None:
                json_lines = raw[:1] == b"{"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from None
            if json_lines:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
                if not isinstance(obj, dict) or "docno" not in obj or "text" not in obj:
                    raise ValueError(f"{path}:{lineno}: record must carry 'docno' and 'text'")
                docno, text = str(obj["docno"]), str(obj["text"])
            else:
                parts = line.split("\t", 1)
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'docno<TAB>text'")
                docno, text = parts
            docno = docno.strip()
            text = text.strip()
            if not docno:
                raise ValueError(f"{path}:{lineno}: empty docno")
            if not text:
                raise ValueError(f"{path}:{lineno}: empty text for docno {docno!r}")
            records.append((lineno, docno, text))
    # one scan over all docnos; the per-record search only finds the line
    if len("".join([docno for _, docno, _ in records]).split()) > 1:
        lineno, docno = next((n, d) for n, d, _ in records if len(d.split()) > 1)
        raise ValueError(f"{path}:{lineno}: docno {docno!r} contains whitespace")
    return records


def ingest_corpus(path: str | Path, dedup: bool = False) -> tuple[CorpusStore, list[dict]]:
    """Build a CorpusStore from a corpus file.

    With ``dedup`` on, documents whose normalized texts are identical are
    merged: the lexicographically smallest docno survives (a deterministic,
    order-independent tie-break) and every dropped twin is reported as a
    ``{"dropped": ..., "kept": ...}`` entry. Doc ids follow the order in
    which each distinct text first appears in the stream.
    """
    records = _read_corpus_records(path)
    seen: dict[str, int] = {}
    for lineno, docno, _ in records:
        if docno in seen:
            raise ValueError(f"{path}:{lineno}: duplicate docno {docno!r} (first at line {seen[docno]})")
        seen[docno] = lineno

    store = CorpusStore()
    if not dedup:
        for _, docno, text in records:
            store.add(Document(docno, text))
        return store, []

    groups: dict[str, list[tuple[str, str]]] = {}
    order: list[str] = []
    for _, docno, text in records:
        key = normalize_text(text)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((docno, text))
    alias: dict[str, str] = {}
    for key in order:
        members = groups[key]
        kept_docno, kept_text = min(members)
        store.add(Document(kept_docno, kept_text))
        for docno, _ in members:
            if docno != kept_docno:
                alias[docno] = kept_docno
    store.alias = alias
    report = [{"dropped": dropped, "kept": kept} for dropped, kept in sorted(alias.items())]
    return store, report


def write_dedup_report(path: str | Path, report: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for entry in report:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


def write_docnos(path: str | Path, docnos: list[str]) -> None:
    """``docnos.txt``: one docno per line in doc-id order, written beside an
    artifact whose rows are doc ids."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(docno + "\n" for docno in docnos)


def check_docnos(path: str | Path, store: CorpusStore, artifact: str) -> None:
    """Reject an artifact whose ``docnos.txt`` is not ``store.docnos`` line
    for line; another corpus, another dedup setting or a reordering would
    make every doc id point at the wrong document."""
    docnos = Path(path).read_text(encoding="utf-8").splitlines()
    if docnos != store.docnos:
        pairs = zip(docnos, store.docnos)
        line = next((i for i, (a, b) in enumerate(pairs, start=1) if a != b), min(len(docnos), len(store)) + 1)
        raise ValueError(
            f"{path}:{line}: docnos do not match the corpus in doc-id order; "
            f"rebuild the {artifact} from the same corpus with the same dedup setting"
        )


def load_queries(path: str | Path) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
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


def load_qrels(path: str | Path) -> list[QrelEntry]:
    entries: list[QrelEntry] = []
    seen: set[tuple[str, str]] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
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
            if (qid, docno) in seen:
                raise ValueError(f"{path}:{lineno}: duplicate qrel for ({qid}, {docno})")
            seen.add((qid, docno))
            entries.append(QrelEntry(qid, docno, grade))
    return entries


def map_qrels(
    entries: list[QrelEntry], store: CorpusStore
) -> tuple[dict[str, dict[int, int]], list[tuple[str, str]]]:
    """Resolve qrel docnos to store doc ids.

    Judgments on docnos dropped by dedup follow the alias to the kept
    representative; when both twins are judged, the larger grade wins.
    Docnos absent from the store are reported, never silently dropped.
    """
    table: dict[str, dict[int, int]] = {}
    absent: list[tuple[str, str]] = []
    for entry in entries:
        if entry.grade < 0:
            raise ValueError(f"negative grade for ({entry.qid}, {entry.docno})")
        doc_id = store.resolve(entry.docno)
        if doc_id is None:
            absent.append((entry.qid, entry.docno))
            continue
        per_query = table.setdefault(entry.qid, {})
        prev = per_query.get(doc_id)
        per_query[doc_id] = entry.grade if prev is None else max(prev, entry.grade)
    return table, absent


def grades_by_docno(table: dict[str, dict[int, int]], store: CorpusStore) -> dict[str, dict[str, int]]:
    """Re-key a mapped qrel table by docno, for rankers and evaluation."""
    return {
        qid: {store.docnos[doc_id]: grade for doc_id, grade in per_query.items()}
        for qid, per_query in table.items()
    }
