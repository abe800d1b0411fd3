import hashlib
import json
import random

import pytest

from slidegar.corpus_store import (
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
    again = write_tsv(tmp_path / "c2.tsv", [(d.docno, d.text) for d in store.docs])
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
    assert store.docs[store.doc_id("j1")].text == "hello world"


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
