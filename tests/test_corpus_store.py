import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refcorpus
from slidegar.corpus_store import (
    CorpusStore,
    QrelEntry,
    grades_by_docno,
    ingest_corpus,
    load_qrels,
    load_queries,
    map_qrels,
    normalize_text,
    write_dedup_report,
)


def write_tsv(path, rows):
    path.write_text("".join(f"{docno}\t{text}\n" for docno, text in rows), encoding="utf-8")
    return path


def test_dedup_on_drops_identical_text(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store, report = ingest_corpus(path, dedup=True)
    assert store.docnos == ["d1", "d3"]
    assert report == [{"dropped": "d2", "kept": "d1"}]
    assert store.alias == {"d2": "d1"}


def test_dedup_off_keeps_everything(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store, report = ingest_corpus(path, dedup=False)
    assert len(store) == 3
    assert report == []


def test_normalization_collapses_whitespace_but_not_case(tmp_path):
    rows = [("a", "cat  dog"), ("b", " cat dog "), ("c", "Cat dog")]
    store, report = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)
    # a and b normalize identically; c differs only by case and is kept
    assert store.docnos == ["a", "c"]
    assert report == [{"dropped": "b", "kept": "a"}]
    assert normalize_text("  x \t y\n") == "x y"


def test_dedup_tiebreak_is_order_independent(tmp_path):
    rows = [("z9", "twin text"), ("a1", "twin text"), ("m5", "twin text")]
    for perm_seed in range(3):
        rng = random.Random(perm_seed)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        store, report = ingest_corpus(write_tsv(tmp_path / f"c{perm_seed}.tsv", shuffled), dedup=True)
        assert store.docnos == ["a1"]
        assert {e["dropped"] for e in report} == {"m5", "z9"}


def test_planted_duplicates_counted_by_independent_hash(tmp_path):
    # 10,000 docs, 100 of them duplicating earlier texts under new docnos.
    rng = random.Random(42)
    rows = []
    for i in range(9900):
        rows.append((f"d{i:05d}", f"passage about topic {i} with filler {rng.randint(0, 10**6)}"))
    originals = rng.sample(range(9900), 100)
    for j, src in enumerate(originals):
        rows.append((f"x{j:05d}", rows[src][1]))
    rng.shuffle(rows)
    path = write_tsv(tmp_path / "big.tsv", rows)

    # independent one-pass oracle: count distinct normalized-text hashes
    hashes = set()
    for _, text in rows:
        hashes.add(hashlib.sha256(normalize_text(text).encode()).hexdigest())
    assert len(hashes) == 9900

    store, report = ingest_corpus(path, dedup=True)
    assert len(store) == 9900
    assert len(report) == 100
    assert len(store) + len(report) == len(rows)


def test_dedup_is_idempotent(tmp_path):
    rows = [("b", "one two"), ("a", "one  two"), ("c", "three")]
    store, _ = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)
    again = write_tsv(tmp_path / "c2.tsv", zip(store.docnos, store.texts))
    store2, report2 = ingest_corpus(again, dedup=True)
    assert store2.docnos == store.docnos
    assert report2 == []


def test_docno_roundtrip(tmp_path):
    rows = [("b", "one"), ("a", "two"), ("c", "three")]
    store, _ = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=False)
    for docno in ("a", "b", "c"):
        assert store.docnos[store.doc_id(docno)] == docno


def test_jsonl_autodetect(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"docno": "j1", "text": "hello world"}) + "\n"
        + json.dumps({"docno": "j2", "text": "goodbye"}) + "\n",
        encoding="utf-8",
    )
    store, _ = ingest_corpus(path)
    assert store.docnos == ["j1", "j2"]
    assert store.texts[store.doc_id("j1")] == "hello world"


def test_malformed_record_reports_line_number(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("d1\tok text\nbroken-line-no-tab\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2:"):
        ingest_corpus(path)


def test_whitespace_in_docno_or_qid_fatal(tmp_path):
    # a run line 'q1 Q0 d 1 1 1.0 tag' would have 7 columns
    path = tmp_path / "c.tsv"
    path.write_text("d1\tok text\nd 1\tcat dog\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: docno 'd 1' contains whitespace"):
        ingest_corpus(path)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"docno": "j\u00a01", "text": "cat"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: docno .* contains whitespace"):
        ingest_corpus(path)
    path = tmp_path / "q.tsv"
    path.write_text("q1\tcat\nq\t2\tdog\nq 3\tbird\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: qid 'q 3' contains whitespace"):
        load_queries(path)


def test_invalid_utf8_reports_line_number(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"d1\tok\nd2\t\xff\xfe bad\n")
    with pytest.raises(ValueError, match=r":2:.*UTF-8"):
        ingest_corpus(path)


def test_duplicate_docno_fatal(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d1", "one"), ("d1", "two")])
    with pytest.raises(ValueError, match="duplicate docno"):
        ingest_corpus(path)


def test_empty_text_fatal(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("d1\t   \n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty text"):
        ingest_corpus(path)


def test_missing_json_field_fatal(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno": "d1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r":1:"):
        ingest_corpus(path)


def test_store_columns_reject_duplicate_docno():
    store = CorpusStore(["a", "b"], ["cat", "dog"])
    assert store.doc_id("b") == 1 and "a" in store and len(store) == 2
    with pytest.raises(ValueError, match="duplicate docno 'a'"):
        CorpusStore(["a", "b", "a"], ["cat", "dog", "bird"])


def test_lines_split_on_newline_only(tmp_path):
    # \x85, \u2028 and \x1c end a line for str.splitlines but not here
    path = tmp_path / "c.tsv"
    path.write_bytes("d1\ta\x85b\u2028c\x1cd\r\n\r\n\nd2\tx\ty\r".encode())
    store, _ = ingest_corpus(path)
    assert store.docnos == ["d1", "d2"]
    assert store.texts == ["a\x85b\u2028c\x1cd", "x\ty"]
    path.write_bytes(b"d1\ta\r\n\r\n\nd2\r\n")
    with pytest.raises(ValueError, match=r":4: expected 'docno<TAB>text'"):
        ingest_corpus(path)


# Corpus lines from pieces: docnos clean, padded, holding whitespace or bad
# bytes, and texts with tabs, the characters str.splitlines would break on,
# whitespace that str.split sees, and invalid or truncated UTF-8.
_DOCNOS = [b"d1", b"d2", b"d3", b"d4", b"d5", b"d6", b" d7 ", b"d 8", "d\xa09".encode(), b"d\x1c0", b"", b"d\xff"]
_TEXT_PIECES = [
    b"cat", b"dog", b" ", b"\t", b"\r", "\x85".encode(), "\u2028".encode(), "\u2029".encode(), b"\x1c",
    "\xe9".encode(), b"\xe2\x82",
]
_texts = st.lists(st.sampled_from(_TEXT_PIECES), max_size=4).map(b"".join)
_tsv_lines = st.builds(
    lambda tab, docno, word, text: docno + b"\t" + word + text if tab else text,
    st.integers(0, 5), st.sampled_from(_DOCNOS), st.sampled_from([b"cat", b"dog", b""]), _texts,
)
_json_lines = st.one_of(
    st.builds(
        lambda docno, text, ascii_only: json.dumps({"docno": docno, "text": text}, ensure_ascii=ascii_only).encode(),
        st.sampled_from(["d1", "d2", "d3", " d4", "d 5", "", "d\x1c6"]),
        st.text(alphabet="ab \t\x1c\x85\u2028\u2029", max_size=4),
        st.booleans(),
    ),
    st.sampled_from([b'{"docno": "d1"}', b"[1, 2]", b"{", b'{"docno": 7, "text": 8}']),
    _tsv_lines,
)
# well-formed records under a few docnos, so that stores of
# several documents and dedup groups get built too
_clean_lines = st.builds(
    lambda docno, word, text: docno + b"\t" + word + text,
    st.sampled_from(_DOCNOS[:7]), st.sampled_from([b"cat", b"dog"]), _texts.filter(lambda t: b"\xe2" not in t),
)
_ENDINGS = [b"\n", b"\r\n", b"\r\r\n", b"\n\n", b"\n \n", b""]


@st.composite
def corpus_bytes(draw):
    lines = draw(st.lists(draw(st.sampled_from([_json_lines, _tsv_lines, _clean_lines])), max_size=8))
    return b"".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)


@settings(max_examples=400, deadline=None)
@given(corpus_bytes(), st.booleans())
# an earlier line's error comes first, whichever check finds it, and a
# sequence cut short by the line end is reported as such
@example(b"d1\ta\n\tb\nd2\t\xff\n", False)
@example(b"d1\ta\nd 2\tb\nd3\tc\xe2\x82\r\n", False)
@example(b'{"docno": "d1", "text": " "}\n{"docno": \n', False)
def test_reader_matches_per_line_reference(tmp_path_factory, data, dedup):
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(data)
    try:
        expected = refcorpus.ingest(path, dedup=dedup)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ingest_corpus(path, dedup=dedup)
        assert str(got.value) == str(exc)
        return
    store, report = ingest_corpus(path, dedup=dedup)
    assert (store.docnos, store.texts, store.alias, report) == expected


def test_dedup_report_jsonl_format(tmp_path):
    report = [{"dropped": "d2", "kept": "d1"}]
    out = tmp_path / "report.jsonl"
    write_dedup_report(out, report)
    lines = out.read_text().splitlines()
    assert [json.loads(line) for line in lines] == report


# --- qrels ---


def qrel_store(tmp_path):
    rows = [("kk", "twin text"), ("dd", "twin text"), ("zz", "unrelated")]
    return ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)[0]


def test_qrel_on_dropped_docno_remaps_to_kept(tmp_path):
    store = qrel_store(tmp_path)  # kk dropped? no: min("dd","kk") = "dd" keeps
    table, absent = map_qrels([QrelEntry("q1", "kk", 2)], store)
    assert absent == []
    assert table["q1"] == {store.doc_id("dd"): 2}


def test_qrel_max_grade_wins_for_twins(tmp_path):
    store = qrel_store(tmp_path)
    table, _ = map_qrels([QrelEntry("q1", "kk", 1), QrelEntry("q1", "dd", 3)], store)
    assert table["q1"] == {store.doc_id("dd"): 3}
    table, _ = map_qrels([QrelEntry("q1", "kk", 3), QrelEntry("q1", "dd", 1)], store)
    assert table["q1"] == {store.doc_id("dd"): 3}


def test_qrel_absent_docno_reported(tmp_path):
    store = qrel_store(tmp_path)
    entries = [
        QrelEntry("q1", "dd", 1),
        QrelEntry("q1", "zz", 2),
        QrelEntry("q1", "kk", 1),
        QrelEntry("q2", "dd", 0),
        QrelEntry("q1", "ghost", 3),
    ]
    table, absent = map_qrels(entries, store)
    assert absent == [("q1", "ghost")]
    assert len(table["q1"]) == 2 and len(table["q2"]) == 1


def test_qrel_negative_grade_fatal(tmp_path):
    store = qrel_store(tmp_path)
    with pytest.raises(ValueError, match="negative grade"):
        map_qrels([QrelEntry("q1", "dd", -1)], store)
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 dd -2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="negative grade"):
        load_qrels(qrels)


def test_load_qrels_trec_layout(tmp_path):
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n", encoding="utf-8")
    entries = load_qrels(qrels)
    assert entries == [QrelEntry("q1", "d1", 2), QrelEntry("q1", "d2", 0), QrelEntry("q2", "d1", 1)]


def test_load_qrels_duplicate_pair_fatal(tmp_path):
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 d1 2\nq1 0 d1 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate qrel"):
        load_qrels(qrels)


def test_grades_by_docno_rekeys(tmp_path):
    store = qrel_store(tmp_path)
    table, _ = map_qrels([QrelEntry("q1", "zz", 2)], store)
    assert grades_by_docno(table, store) == {"q1": {"zz": 2}}


def test_load_queries(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\twhat is bm25\nq2\tgraph retrieval\n", encoding="utf-8")
    queries = load_queries(path)
    assert [q.qid for q in queries] == ["q1", "q2"]
    path.write_text("q1\ta\nq1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate qid"):
        load_queries(path)
