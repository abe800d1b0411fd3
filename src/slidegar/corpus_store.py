"""Document / query / qrel ingestion and the docno <-> doc-id mapping, plus
what every artifact loader shares: ``docnos.txt`` and size-checked u32 arrays.

Corpus, queries, qrels and run files are read by ``read_lines``, in blocks
of whole lines of about ``BLOCK_BYTES``, so a reader never holds the whole
file: ``Documents`` yields each document's text in doc-id order, and a step
that only tokenizes, such as an index build, keeps no text and keeps the
docnos as the bytes ``docnos.txt`` holds, not a ``str`` per document. The
store holds the corpus as two parallel columns, ``docnos`` and ``texts``,
indexed by doc id, and the one docno -> id map.

File formats:

- corpus: one ``docno<TAB>text`` record per line; the text may hold more
  tabs. No reader of a text sees its whitespace, so a corpus in another
  format converts to this one with each text's tabs and newlines as spaces.
- queries: ``qid<TAB>text`` lines.
- qrels: whitespace-separated ``qid 0 docno grade`` (standard TREC layout).
- dedup report: JSON lines ``{"dropped": docno, "kept": docno}``, written
  by ``dedup_corpus`` (``slidegar dedup``), the one reader that merges
  twins; every other reader reads each docno as one document.

Line rules, the same for every file ``read_lines`` reads: one leading UTF-8
byte-order mark is dropped, as the ``utf-8-sig`` codec drops it; lines are
split on ``\\n`` only (``\\x85``, ``\\u2028`` and ``\\x1c`` stay inside a
line), a trailing ``\\r`` is stripped, empty lines are skipped, and a line
that does not decode fails naming its number. Docnos and qids may not
contain whitespace: they become columns of whitespace-separated run lines.
"""

from __future__ import annotations

import codecs
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Query:
    qid: str
    text: str


_WS_RUN = re.compile(r"\s+")

BLOCK_BYTES = 1 << 19  # read_lines reads blocks of whole lines of at least this many bytes


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
    holds docnos and the one docno -> id map, ``id_of``. The docnos do not
    repeat: the corpus reader rejects a repeat. Indexes, embedding
    matrices, graphs and rankings hold ids, and artifacts check their
    ``docnos.txt`` against the store. Only set-up looks docnos up (qrels,
    embeddings); queries run on ids.
    """

    def __init__(self, docnos: list[str], texts: list[str]) -> None:
        if len(docnos) != len(texts):
            raise ValueError(f"{len(docnos)} docnos but {len(texts)} texts")
        self.docnos = docnos
        self.texts = texts
        self.id_of = dict(zip(docnos, range(len(docnos))))

    def __len__(self) -> int:
        return len(self.docnos)


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


def read_lines(path: str | Path) -> Iterator[tuple[Sequence[int], list[str]]]:
    """``(line numbers, lines)`` of the non-blank lines of each block of a file,
    ``BLOCK_BYTES`` read and then the rest of the line they end in, under the
    line rules above. A line that does not decode fails once the lines before
    it are yielded, so a consumer's error on an earlier line comes first."""
    size = BLOCK_BYTES
    with open(path, "rb") as f:
        if f.read(3) != codecs.BOM_UTF8:
            f.seek(0)
        first = 1  # the number of the block's first line
        while data := f.read(size):
            if not data.endswith(b"\n"):
                data += f.readline()
            error = ""  # the error of the line the block stops before
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                start = data.rfind(b"\n", 0, exc.start) + 1
                lineno = first + data.count(b"\n", 0, exc.start)
                error = _invalid_utf8(path, lineno, data[start:].split(b"\n", 1)[0])
                text = data[:start].decode("utf-8")  # the lines before it are valid
            del data  # the lines hold the text from here on
            lines = text.split("\n")
            if "\r" in text:
                lines = [line.rstrip("\r") for line in lines]
            del text
            records = list(filter(None, lines))
            if len(records) == len(lines) - 1 and not lines[-1]:  # no blank line but the end
                numbers: Sequence[int] = range(first, first + len(records))
            else:
                numbers = [n for n, line in enumerate(lines, start=first) if line]
            first += len(lines) - 1
            del lines
            yield numbers, records
            if error:
                raise ValueError(error)


def _parsed_blocks(path: str | Path) -> Iterator[tuple[Sequence[int], list[str], list[str]]]:
    """``(line numbers, docnos, texts)`` of the records of each block of a
    corpus file. The checks of a line on its own run over whole columns and
    a line is searched for only once one fails. The error raised is the first
    line that fails: invalid UTF-8, a missing tab, an empty docno or text."""
    for numbers, records in read_lines(path):
        error = ""  # the error of the line the columns stop before
        tabs = [line.find("\t") for line in records]
        if -1 in tabs:
            del tabs[tabs.index(-1) :]
            error = f"{path}:{numbers[len(tabs)]}: expected 'docno<TAB>text'"
        docnos = [line[:i].strip() for line, i in zip(records, tabs)]
        texts = [line[i + 1 :].strip() for line, i in zip(records, tabs)]
        records.clear()  # the reader holds the list until its next block: the lines go now

        if not (all(docnos) and all(texts)):
            j, docno = next((j, d) for j, (d, t) in enumerate(zip(docnos, texts)) if not (d and t))
            problem = f"empty text for docno {docno!r}" if docno else "empty docno"
            raise ValueError(f"{path}:{numbers[j]}: {problem}")
        if error:
            raise ValueError(error)
        yield numbers, docnos, texts


def _read_corpus(path: str | Path) -> Iterator[tuple[list[str], list[str]]]:
    """The records of a corpus file in file order, as the ``(docnos, texts)``
    columns of one block at a time, so no more of the file is held than a
    block: a consumer that lets each block go holds no text.

    The error raised is, in this order: the first line that fails on its
    own, then the first docno holding whitespace, then the first repeated
    docno, so ``a b<TAB>x`` followed by ``no tab`` names line 2. The last two
    are raised once the last block is read.
    """
    spaced = ""  # the error of the first docno holding whitespace
    # The one check that no docno repeats. Equal docnos hash alike, so distinct
    # hashes rule a repeat out; sorting 8 bytes per docno costs less than a set.
    hashes = [np.zeros(0, dtype=np.int64)]  # one array per block, after one for an empty file
    for numbers, docnos, texts in _parsed_blocks(path):
        # one scan over the block's docnos: clean ones join into a single word
        if not spaced and len("".join(docnos).split()) > 1:
            j, docno = next((j, d) for j, d in enumerate(docnos) if len(d.split()) > 1)
            spaced = f"{path}:{numbers[j]}: docno {docno!r} contains whitespace"
        hashes.append(np.fromiter(map(hash, docnos), dtype=np.int64, count=len(docnos)))
        yield docnos, texts
    if spaced:
        raise ValueError(spaced)
    keys = np.sort(np.concatenate(hashes))
    if (keys[1:] == keys[:-1]).any():  # a repeated docno, or hashes that collide: read again to tell
        first: dict[str, int] = {}
        for numbers, docnos, _ in _parsed_blocks(path):
            for line, docno in zip(numbers, docnos):
                if first.setdefault(docno, line) != line:
                    raise ValueError(f"{path}:{line}: duplicate docno {docno!r} (first at line {first[docno]})")


class Documents:
    """The documents of a corpus file in doc-id order, read in one pass.

    Iterating yields each document's text as the document gets its doc id,
    and appends its docno to ``docnos``, the bytes ``docnos.txt`` holds: one
    UTF-8 docno and a newline per document, so no ``str`` is kept per
    docno. It is read once: a second pass raises and changes nothing.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.docnos = bytearray()
        self.started = False

    def __iter__(self) -> Iterator[str]:
        if self.started:  # a second pass would append every docno again
            raise RuntimeError(f"{self.path}: Documents are read once; make a new one to read the file again")
        self.started = True
        for block_docnos, block_texts in _read_corpus(self.path):
            self.docnos += docnos_bytes(block_docnos)
            yield from block_texts


def ingest_corpus(path: str | Path) -> CorpusStore:
    """A CorpusStore of a corpus file's records in file order."""
    docnos: list[str] = []
    texts: list[str] = []
    for block_docnos, block_texts in _read_corpus(path):
        docnos += block_docnos
        texts += block_texts
    return CorpusStore(docnos, texts)


def dedup_corpus(path: str | Path, out: str | Path) -> dict[str, str]:
    """Write ``out``, the corpus file at ``path`` without twins, and return
    dropped docno -> kept docno.

    Twins are documents whose normalized texts are equal. A group is keyed by
    a 16-byte BLAKE2b digest of its normalized text, and texts are not
    compared. A group is written once, at its first record's position with
    that record's text, under its lexicographically smallest docno: twins differ
    only in whitespace, which the tokenizer splits on. The file is read, and
    checked, in full before ``out`` is opened.
    """
    import hashlib  # here, not at module level: it loads OpenSSL into every process

    def key(text: str) -> bytes:
        return hashlib.blake2b(normalize_text(text).encode(), digest_size=16).digest()

    kept: dict[bytes, str] = {}  # digest -> the group's smallest docno, groups in corpus order
    losers: dict[str, bytes] = {}  # dropped docno -> its group's digest
    for docnos, texts in _read_corpus(path):
        for docno, text in zip(docnos, texts):
            digest = key(text)
            other = kept.setdefault(digest, docno)
            if other != docno:
                kept[digest], loser = sorted((docno, other))
                losers[loser] = digest
    dropped = {docno: kept[digest] for docno, digest in losers.items()}
    with open(out, "wb") as f:
        for _, _, texts in _parsed_blocks(path):  # a group's first record takes its kept docno out of ``kept``
            f.write("".join(f"{kept.pop(d)}\t{text}\n" for text in texts if (d := key(text)) in kept).encode())
    return dropped


def write_dedup_report(path: str | Path, dropped: dict[str, str]) -> None:
    """One JSON line ``{"dropped": ..., "kept": ...}`` per entry of ``dropped``
    (dropped docno -> kept docno), sorted by dropped docno."""
    with open(path, "w", encoding="utf-8") as f:
        for docno, kept in sorted(dropped.items()):
            f.write(json.dumps({"dropped": docno, "kept": kept}) + "\n")


def docnos_bytes(docnos: list[str]) -> bytes:
    """``docnos.txt``: one docno per line in doc-id order, written beside an
    artifact whose rows are doc ids."""
    return "\n".join([*docnos, ""]).encode("utf-8")


def check_docnos(path: str | Path, store: CorpusStore, artifact: str) -> None:
    """Reject an artifact whose ``docnos.txt`` is not ``store.docnos`` line
    for line; another corpus or a reordering would make every doc id point
    at the wrong document. A file that differs from
    what ``docnos_bytes`` encodes is read as the corpus is, so CRLF lines pass."""
    data = Path(path).read_bytes()
    if data == docnos_bytes(store.docnos):
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
            f"rebuild the {artifact} from the same corpus"
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
    for numbers, lines in read_lines(path):
        for lineno, line in zip(numbers, lines):
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
    """``qid -> docno -> grade`` from a qrels file, read by ``read_lines``.

    Nothing is kept per judgment but its dict entry: every query that judges
    a docno shares one string for it.
    """
    qrels: dict[str, dict[str, int]] = {}
    docnos: dict[str, str] = {}
    for numbers, lines in read_lines(path):
        for lineno, line in zip(numbers, lines):
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

    Docnos absent from the store are returned as ``(qid, docno)`` pairs,
    by query in order of first appearance and in file order within a query
    (file order for a file grouped by query, as TREC qrels are); a query
    none of whose docnos is in the store gets no entry.
    """
    grades: dict[str, dict[int, int]] = {}
    absent: list[tuple[str, str]] = []
    doc_id_of = store.id_of.get
    for qid, judged in qrels.items():
        per_query: dict[int, int] = {}
        for docno, grade in judged.items():
            doc_id = doc_id_of(docno)
            if doc_id is None:
                absent.append((qid, docno))
                continue
            per_query[doc_id] = grade
        if per_query:
            grades[qid] = per_query
    return grades, absent
