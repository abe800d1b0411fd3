"""Per-line reference reader for corpus files.

The reader ``slidegar.corpus_store`` used before it read whole columns:
each line is decoded and checked on its own, so the first bad line raises
first. ``_read_corpus_records`` is kept verbatim; ``ingest`` is the old
``ingest_corpus`` with plain lists in place of the store. Used by the
randomized-equivalence test of the columnar reader.
"""

import json

from slidegar.corpus_store import normalize_text


def _read_corpus_records(path):
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
