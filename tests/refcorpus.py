"""Per-line reference readers for corpus and qrels files.

The corpus reader ``slidegar.corpus_store`` used before it read whole
columns: each line is decoded and checked on its own, so the first bad line
raises first. ``_read_corpus_records`` is kept verbatim, but that a corpus
is read as ``docno<TAB>text`` lines only; ``ingest`` is the old
``ingest_corpus`` with plain lists in place of the store.

The qrels path it used before it read judgments straight into one grade
table: ``load_qrels`` (one ``QrelEntry`` per judgment, read in text mode)
and ``map_qrels`` (onto doc ids, as the current one maps them), kept verbatim
but for the lookup, which reads ``store.id_of`` now that it maps dropped twins.

Used by the randomized-equivalence tests of the current readers.
"""

from dataclasses import dataclass

from slidegar.corpus_store import normalize_text


def _read_corpus_records(path):
    """Parse a corpus file into (line_no, docno, text) triples.

    Lines are decoded individually so malformed input reports an exact
    line number.
    """
    records: list[tuple[int, str, str]] = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            raw = raw.rstrip(b"\r\n")
            if not raw:
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from None
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


def ingest(path, dedup=False):
    """(docnos, texts, alias, report) in doc-id order, or the ValueError the
    old ``ingest_corpus`` raised."""
    records = _read_corpus_records(path)
    seen: dict[str, int] = {}
    for lineno, docno, _ in records:
        if docno in seen:
            raise ValueError(f"{path}:{lineno}: duplicate docno {docno!r} (first at line {seen[docno]})")
        seen[docno] = lineno

    if not dedup:
        return [docno for _, docno, _ in records], [text for _, _, text in records], {}, []

    groups: dict[str, list[tuple[str, str]]] = {}
    order: list[str] = []
    for _, docno, text in records:
        key = normalize_text(text)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((docno, text))
    docnos, texts = [], []
    alias: dict[str, str] = {}
    for key in order:
        members = groups[key]
        kept_docno, kept_text = min(members)
        docnos.append(kept_docno)
        texts.append(kept_text)
        for docno, _ in members:
            if docno != kept_docno:
                alias[docno] = kept_docno
    report = [{"dropped": dropped, "kept": kept} for dropped, kept in sorted(alias.items())]
    return docnos, texts, alias, report


@dataclass(frozen=True)
class QrelEntry:
    qid: str
    docno: str
    grade: int


def load_qrels(path):
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


def map_qrels(entries, store):
    table: dict[str, dict[int, int]] = {}
    absent: list[tuple[str, str]] = []
    for entry in entries:
        if entry.grade < 0:
            raise ValueError(f"negative grade for ({entry.qid}, {entry.docno})")
        doc_id = store.id_of.get(entry.docno)
        if doc_id is None:
            absent.append((entry.qid, entry.docno))
            continue
        per_query = table.setdefault(entry.qid, {})
        prev = per_query.get(doc_id)
        per_query[doc_id] = entry.grade if prev is None else max(prev, entry.grade)
    return table, absent
