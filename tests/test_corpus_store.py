import codecs
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refcorpus
from conftest import BLOCK_SIZES, block_bytes, dropped_twins
from slidegar import corpus_store
from slidegar.cli import main
from slidegar.corpus_store import (
    CorpusStore,
    Documents,
    Query,
    ingest_corpus,
    load_qrels,
    load_queries,
    map_qrels,
    normalize_text,
    write_dedup_report,
)
from slidegar.eval import read_run


def write_tsv(path, rows):
    path.write_text("".join(f"{docno}\t{text}\n" for docno, text in rows), encoding="utf-8")
    return path


def test_dedup_on_drops_identical_text(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store = ingest_corpus(path, dedup=True)
    assert store.docnos == ["d1", "d3"]
    assert store.id_of == {"d1": 0, "d2": 0, "d3": 1}
    assert dropped_twins(store) == {"d2": "d1"}


def test_dedup_off_keeps_everything(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store = ingest_corpus(path, dedup=False)
    assert len(store) == 3
    assert dropped_twins(store) == {}


def test_normalization_collapses_whitespace_but_not_case(tmp_path):
    rows = [("a", "cat  dog"), ("b", " cat dog "), ("c", "Cat dog")]
    store = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)
    # a and b normalize identically; c differs only by case and is kept
    assert store.docnos == ["a", "c"]
    assert dropped_twins(store) == {"b": "a"}
    assert normalize_text("  x \t y\n") == "x y"


def test_dedup_tiebreak_is_order_independent(tmp_path):
    rows = [("z9", "twin text"), ("a1", "twin text"), ("m5", "twin text")]
    for perm_seed in range(3):
        rng = random.Random(perm_seed)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        store = ingest_corpus(write_tsv(tmp_path / f"c{perm_seed}.tsv", shuffled), dedup=True)
        assert store.docnos == ["a1"]
        assert set(dropped_twins(store)) == {"m5", "z9"}


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

    store = ingest_corpus(path, dedup=True)
    assert len(store) == 9900
    assert len(dropped_twins(store)) == 100
    assert len(store.id_of) == len(rows)


def test_dedup_is_idempotent(tmp_path):
    rows = [("b", "one two"), ("a", "one  two"), ("c", "three")]
    store = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)
    again = write_tsv(tmp_path / "c2.tsv", zip(store.docnos, store.texts))
    store2 = ingest_corpus(again, dedup=True)
    assert store2.docnos == store.docnos
    assert dropped_twins(store2) == {}


def test_docno_roundtrip(tmp_path):
    rows = [("b", "one"), ("a", "two"), ("c", "three")]
    store = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=False)
    for docno in ("a", "b", "c"):
        assert store.docnos[store.id_of[docno]] == docno


def test_jsonl_autodetect(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"docno": "j1", "text": "hello world"}) + "\n"
        + json.dumps({"docno": "j2", "text": "goodbye"}) + "\n",
        encoding="utf-8",
    )
    store = ingest_corpus(path)
    assert store.docnos == ["j1", "j2"]
    assert store.texts[store.id_of["j1"]] == "hello world"


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


def test_duplicate_docno_fatal(tmp_path, capsys):
    path = write_tsv(tmp_path / "c.tsv", [("d1", "one"), ("d1", "two")])
    with pytest.raises(ValueError, match="duplicate docno"):
        ingest_corpus(path)
    # the first line that repeats a docno, and the line it repeats; blank lines count
    path.write_text("d1\tone\n\nd2\ttwo\nd3\tthree\nd2\tfour\nd1\tfive\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":5: duplicate docno 'd2' \(first at line 3\)$"):
        ingest_corpus(path)
    # with dedup too, and in build-index, which builds no store: the raw file is
    # checked before merging, so dedup hides neither a repeat of a twin nor a
    # docno that would be both kept and dropped
    for data, message in [
        (b"a\tx\nd\tx\nd\tx\n", ":3: duplicate docno 'd' (first at line 2)"),
        (b"d1\tx\nd0\ty\nd1\ty\n", ":3: duplicate docno 'd1' (first at line 1)"),
    ]:
        path.write_bytes(data)
        for size, dedup in itertools.product(BLOCK_SIZES, (False, True)):
            with block_bytes(size), pytest.raises(ValueError) as raised:
                ingest_corpus(path, dedup=dedup)
            assert str(raised.value) == f"{path}{message}", (size, dedup)
            flags = ["--dedup"] if dedup else []
            with block_bytes(size):
                assert main(["build-index", "--corpus", str(path), "--out", str(tmp_path / "idx"), *flags]) == 2
            assert capsys.readouterr().err == f"error: {path}{message}\n", (size, dedup)


def test_docnos_whose_hashes_collide_are_read_again_not_rejected(tmp_path, monkeypatch):
    # every docno hashing alike sends the repeat check to its exact second read
    monkeypatch.setattr(corpus_store, "hash", lambda docno: 7, raising=False)
    path = write_tsv(tmp_path / "c.tsv", [("d1", "one"), ("d2", "two"), ("d3", "three")])
    assert ingest_corpus(path).docnos == ["d1", "d2", "d3"]
    path.write_text("d1\tone\nd2\ttwo\nd1\tthree\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: duplicate docno 'd1' \(first at line 1\)$"):
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


@pytest.mark.parametrize("record, field", [
    ('{"docno": "d3", "text": null}', "text"),
    ('{"docno": ["a"], "text": {"x": 1}}', "docno"),
    ('{"docno": "d3", "text": false}', "text"),
    ('{"docno": {"a": 1}, "text": "cat"}', "docno"),
], ids=["null", "array_and_object", "bool", "object"])
def test_json_field_of_another_type_fatal(tmp_path, record, field):
    # numbers keep their str() form; any other value fails on its line,
    # before an earlier docno holding whitespace
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno": 1, "text": 2.5}\n', encoding="utf-8")
    store = ingest_corpus(path)
    assert (store.docnos, store.texts) == (["1"], ["2.5"])
    path.write_text('{"docno": 1, "text": 2.5}\n{"docno": "d 2", "text": "dog"}\n' + record + "\n", encoding="utf-8")
    message = f"{path}:3: {field!r} must be a string or a number"
    with pytest.raises(ValueError) as exc:
        refcorpus.ingest(path)
    assert str(exc.value) == message
    for size in BLOCK_SIZES:
        with block_bytes(size), pytest.raises(ValueError) as got:
            ingest_corpus(path)
        assert str(got.value) == message, size


@pytest.mark.parametrize("record, message", [
    ('{"docno": "d\\ud800", "text": "dog"}', "docno 'd\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
    ('{"docno": "\\udc00d", "text": " "}', "empty text for docno '\\udc00d'"),
], ids=["surrogate", "and_empty_text"])
def test_docno_holding_a_lone_surrogate_fails_on_its_line(tmp_path, capsys, record, message):
    # a JSON escape is the one way to a lone surrogate, which docnos.txt and a run
    # file cannot hold; it fails on its line, before an earlier docno holding whitespace
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno": "d 1", "text": "cat"}\n\n' + record + "\n", encoding="utf-8")
    message = f"{path}:3: {message}"
    with pytest.raises(ValueError) as exc:
        refcorpus.ingest(path)
    assert str(exc.value) == message
    for size, dedup in itertools.product(BLOCK_SIZES, (False, True)):
        with block_bytes(size), pytest.raises(ValueError) as got:
            ingest_corpus(path, dedup=dedup)
        assert str(got.value) == message, (size, dedup)
        flags = ["--dedup"] if dedup else []
        with block_bytes(size):
            assert main(["build-index", "--corpus", str(path), "--out", str(tmp_path / "idx"), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n", (size, dedup)


def test_store_columns_must_have_equal_lengths():
    with pytest.raises(ValueError) as raised:
        CorpusStore(["a", "b"], ["cat"])
    assert str(raised.value) == "2 docnos but 1 texts"


def test_lines_split_on_newline_only(tmp_path):
    # \x85, \u2028 and \x1c end a line for str.splitlines but not here
    path = tmp_path / "c.tsv"
    for size in BLOCK_SIZES:
        path.write_bytes("d1\ta\x85b\u2028c\x1cd\r\n\r\n\nd2\tx\ty\r".encode())
        with block_bytes(size):
            store = ingest_corpus(path)
        assert store.docnos == ["d1", "d2"]
        assert store.texts == ["a\x85b\u2028c\x1cd", "x\ty"]
        path.write_bytes(b"d1\ta\r\n\r\n\nd2\r\n")
        with block_bytes(size), pytest.raises(ValueError, match=r":4: expected 'docno<TAB>text'"):
            ingest_corpus(path)


@pytest.mark.parametrize("tail, message", [
    (b"d 0\tx\nbad line\n", ":202: expected 'docno<TAB>text'"),
    (b"d 0\tx\nd0\t\xe2\x82\r\n", ":202: invalid UTF-8 (unexpected end of data)"),
    (b"d 0\tx\nd5\ty\n", ":201: docno 'd 0' contains whitespace"),
    (b"\r\n\nd0\t\n", ":203: empty text for docno 'd0'"),
    (b"\r\n\nd150\tagain\nd5\tagain\n", ":203: duplicate docno 'd150' (first at line 151)"),
], ids=["missing_tab", "cut_short", "spaced_docno", "empty_text", "duplicate"])
def test_errors_name_lines_past_the_first_block(tmp_path, tail, message):
    # 199 records and a blank line after the 40th, then a tail: a line's own
    # failure comes before an earlier docno holding whitespace, and that
    # before a repeated docno
    head = [b"d%d\ttext %d\n" % (i, i) for i in range(1, 200)]
    path = tmp_path / "c.tsv"
    path.write_bytes(b"".join(head[:40]) + b"\n" + b"".join(head[40:]) + tail)
    with pytest.raises(ValueError) as exc:
        refcorpus.ingest(path)
    assert str(exc.value) == f"{path}{message}"
    for size in BLOCK_SIZES:
        with block_bytes(size), pytest.raises(ValueError) as got:
            ingest_corpus(path)
        assert str(got.value) == str(exc.value), size


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
        # a lone surrogate is a JSON escape, or with ensure_ascii off bytes that are not UTF-8
        lambda docno, text, ascii_only: json.dumps(
            {"docno": docno, "text": text}, ensure_ascii=ascii_only
        ).encode("utf-8", "surrogatepass"),
        st.sampled_from(["d1", "d2", "d3", " d4", "d 5", "", "d\x1c6", "d\ud8007"]),
        st.text(alphabet="ab \t\x1c\x85\u2028\u2029", max_size=4),
        st.booleans(),
    ),
    st.sampled_from([
        b'{"docno": "d1"}', b"[1, 2]", b"{", b'{"docno": 7, "text": 8}', b'{"docno": "d1", "text": null}',
    ]),
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
# a repeat that dedup would merge into a twin, and one it would keep once and drop once
@example(b"a\tx\nd\tx\nd\tx\n", True)
@example(b"d1\tx\nd0\ty\nd1\ty\n", True)
def test_reader_matches_per_line_reference(tmp_path_factory, data, dedup):
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(data)
    try:
        docnos, texts, alias, _ = refcorpus.ingest(path, dedup=dedup)
    except ValueError as exc:
        for size in BLOCK_SIZES:
            with block_bytes(size), pytest.raises(ValueError) as got:
                ingest_corpus(path, dedup=dedup)
            assert str(got.value) == str(exc), size
        return
    # the one map: each docno to its id, a dropped one to its kept twin's
    id_of = {docno: doc_id for doc_id, docno in enumerate(docnos)}
    id_of.update((docno, id_of[kept]) for docno, kept in alias.items())
    for size in BLOCK_SIZES:
        with block_bytes(size):
            store = ingest_corpus(path, dedup=dedup)
        assert (store.docnos, store.texts, store.id_of) == (docnos, texts, id_of), size


# distinct docnos of several byte lengths, and texts that are twins in whitespace only
_TWIN_DOCNOS = ["z9", "a1", "m55", "b", "\xe91", "c", "d\xe9\xe9", "aa"]
_TWIN_TEXTS = ["cat dog", " cat  dog", "cat\tdog ", "Cat dog", "bird", "bird ", "eel"]


@st.composite
def twin_corpora(draw):
    docnos = draw(st.lists(st.sampled_from(_TWIN_DOCNOS), unique=True, max_size=8))
    return "".join(f"{docno}\t{draw(st.sampled_from(_TWIN_TEXTS))}\n" for docno in docnos).encode()


@settings(max_examples=200, deadline=None)
@given(st.one_of(twin_corpora(), corpus_bytes()), st.booleans())
# a later twin with a smaller docno replaces the survivor: in the survivor's
# own block at the default block size, in a later block at the others
@example(b"z9\tcat dog\nb2\tbird\na1\tcat  dog\n", True)
# replaced twice, by docnos of other byte lengths, with docnos after it
@example("z9\tcat dog\n\xe91\tbird\nm55\tcat dog\nb\tbird\na1\t cat dog\nq\teel\n".encode(), True)
def test_build_index_writes_the_reference_docnos_and_report(tmp_path_factory, data, dedup):
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(data)
    flags = ["--dedup"] if dedup else []
    try:
        docnos, _, _, report = refcorpus.ingest(path, dedup=dedup)
    except ValueError as exc:
        docnos, error = None, f"error: {exc}\n"
    for size in BLOCK_SIZES:
        out = path.parent / str(size)
        with block_bytes(size), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(["build-index", "--corpus", str(path), "--out", str(out), *flags])
        if docnos is None:
            assert (code, stderr.getvalue()) == (2, error), size
            continue
        assert code == 0, (size, stderr.getvalue())
        assert (out / "docnos.txt").read_text(encoding="utf-8") == "".join(d + "\n" for d in docnos), size
        if dedup:
            lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in report)
            assert (out / "dedup_report.jsonl").read_text(encoding="utf-8") == lines, size
        else:
            assert not (out / "dedup_report.jsonl").exists()


def test_documents_are_read_once(tmp_path):
    # a second pass would append every docno and text again
    path = write_tsv(tmp_path / "c.tsv", [("a", "cat"), ("b", "dog"), ("c", "bird")])
    texts: list[str] = []
    documents = Documents(path, texts=texts)
    assert list(documents) == ["cat", "dog", "bird"]
    for again in (list, lambda documents: list(documents.blocks())):
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: Documents are read once"):
            again(documents)
    assert documents.docnos == b"a\nb\nc\n" and texts == ["cat", "dog", "bird"]


def test_dedup_report_jsonl_format(tmp_path):
    out = tmp_path / "report.jsonl"
    write_dedup_report(out, {"d2": "d1", "b": "a"})  # written sorted by dropped docno
    lines = out.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [{"dropped": "b", "kept": "a"}, {"dropped": "d2", "kept": "d1"}]


# --- qrels ---


def qrel_store(tmp_path):
    rows = [("kk", "twin text"), ("dd", "twin text"), ("zz", "unrelated")]
    return ingest_corpus(write_tsv(tmp_path / "c.tsv", rows), dedup=True)


def test_qrel_on_dropped_docno_remaps_to_kept(tmp_path):
    store = qrel_store(tmp_path)  # min("dd", "kk") = "dd" is kept, "kk" dropped
    grades, absent = map_qrels({"q1": {"kk": 2}}, store)
    assert absent == []
    assert grades == {"q1": {store.id_of["dd"]: 2}}


def test_qrel_max_grade_wins_for_twins(tmp_path):
    store = qrel_store(tmp_path)
    grades, _ = map_qrels({"q1": {"kk": 1, "dd": 3}}, store)
    assert grades == {"q1": {store.id_of["dd"]: 3}}
    grades, _ = map_qrels({"q1": {"kk": 3, "dd": 1}}, store)
    assert grades == {"q1": {store.id_of["dd"]: 3}}


def test_qrel_absent_docno_reported(tmp_path):
    store = qrel_store(tmp_path)
    qrels = {"q1": {"dd": 1, "zz": 2, "kk": 1, "ghost": 3}, "q2": {"dd": 0}, "q3": {"nope": 1}}
    grades, absent = map_qrels(qrels, store)
    assert absent == [("q1", "ghost"), ("q3", "nope")]
    assert grades == {"q1": {store.id_of["dd"]: 1, store.id_of["zz"]: 2}, "q2": {store.id_of["dd"]: 0}}


def test_qrel_negative_grade_fatal(tmp_path):
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 dd 1\nq1 0 dd -2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: negative grade for \(q1, dd\)"):
        load_qrels(qrels)


def test_load_qrels_trec_layout(tmp_path):
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n", encoding="utf-8")
    loaded = load_qrels(qrels)
    assert loaded == {"q1": {"d1": 2, "d2": 0}, "q2": {"d1": 1}}
    # one string per distinct docno, shared by the queries that judge it
    assert next(iter(loaded["q1"])) is next(iter(loaded["q2"]))


def test_load_qrels_duplicate_pair_fatal(tmp_path):
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 d1 2\nq2 0 d1 2\nq1 0 d1 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: duplicate qrel for \(q1, d1\)"):
        load_qrels(qrels)


def test_map_qrels_keys_on_store_ids(tmp_path):
    store = qrel_store(tmp_path)
    qrels = tmp_path / "q.txt"
    qrels.write_text("q1 0 zz 2\nq2 0 kk 1\n", encoding="utf-8")
    grades, _ = map_qrels(load_qrels(qrels), store)
    assert grades == {"q1": {1: 2}, "q2": {0: 1}}
    assert [store.docnos[i] for per_query in grades.values() for i in per_query] == ["zz", "dd"]
    # the file's docno strings are not kept: every key is the store map's own id
    for per_query in grades.values():
        for doc_id in per_query:
            assert doc_id is store.id_of[store.docnos[doc_id]]


def test_qrels_invalid_utf8_and_lone_cr(tmp_path):
    qrels = tmp_path / "q.txt"
    for size in BLOCK_SIZES:
        with block_bytes(size):
            qrels.write_bytes(b"q1 0 d1 2\r\n\nq1 0 d\xff1 2\n")
            with pytest.raises(ValueError, match=r"q\.txt:3: invalid UTF-8 \(invalid start byte\)"):
                load_qrels(qrels)
            # a sequence cut short by the line end reads as such, as in the corpus
            qrels.write_bytes(b"q1 0 d1 2\nq1 0 d2 \xe2\x82\r\n")
            with pytest.raises(ValueError, match=r":2: invalid UTF-8 \(unexpected end of data\)"):
                load_qrels(qrels)
            # lines end at \n only: a lone \r is whitespace inside a line
            qrels.write_bytes(b"q1 0 d1 2\rq1 0 d2 1\n")
            with pytest.raises(ValueError, match=r":1: expected 'qid 0 docno grade'"):
                load_qrels(qrels)
            qrels.write_bytes(b"q1\r0 d1 2\n")
            assert load_qrels(qrels) == {"q1": {"d1": 2}}


# Qrels lines from pieces: judged, dedup-dropped and absent docnos, grades
# that are zero, negative or not integers, separators str.split sees, and
# invalid or truncated UTF-8. No piece holds a lone \r: the reference reads
# in text mode, where a lone \r ends a line (test_qrels_invalid_utf8_and_lone_cr).
_QRELS_CORPUS = [("kk", "twin text"), ("dd", "twin text"), ("zz", "unrelated"), ("aa", "other")]
_QIDS = [b"q1", b"q2", b"q3", b"q\xff"]
_QREL_DOCNOS = [b"dd", b"kk", b"zz", b"aa", b"ghost", b"nope", b"d\xe2\x82", "d\xe9".encode()]
_GRADES = [b"0", b"1", b"2", b"3", b"-1", b"x", b"1.5", b"+2", b"\xff"]
_SEPS = [b" ", b"\t", b"  ", "\x85".encode(), "\u2028".encode()]
_qrel_lines = st.one_of(
    st.lists(
        st.tuples(
            st.sampled_from(_SEPS),
            st.one_of(st.sampled_from(_QIDS), st.sampled_from(_QREL_DOCNOS), st.sampled_from(_GRADES)),
        ),
        max_size=5,
    ).map(lambda cols: b"".join(sep + col for sep, col in cols)),
    st.builds(
        lambda qid, it, docno, grade, sep: sep.join([qid, it, docno, grade]),
        st.sampled_from(_QIDS[:3]), st.sampled_from([b"0", b"Q0"]), st.sampled_from(_QREL_DOCNOS),
        st.sampled_from(_GRADES), st.sampled_from(_SEPS),
    ),
)
_QREL_ENDINGS = [b"\n", b"\r\n", b"\n\n", b"\n \n", b""]


@st.composite
def qrels_bytes(draw):
    # well-formed judgments on distinct pairs, so that tables of several
    # queries, twins and absent docnos get built, then a few lines of anything
    pairs = st.tuples(st.sampled_from(_QIDS[:3]), st.sampled_from(_QREL_DOCNOS[:6]))
    lines = [
        b" ".join([qid, b"0", docno, draw(st.sampled_from(_GRADES[:4]))])
        for qid, docno in draw(st.lists(pairs, unique=True, max_size=10))
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_qrel_lines))
    return b"".join(line + draw(st.sampled_from(_QREL_ENDINGS)) for line in lines)


@settings(max_examples=400, deadline=None)
@given(qrels_bytes())
# both twins judged: the larger grade wins, whichever line comes first
@example(b"q1 0 kk 1\nq1 0 dd 3\nq2 0 dd 2\r\nq2 0 kk 0\n")
# a bad line before invalid UTF-8 is reported first
@example(b"q1 0 dd\n\nq1 0 d\xff 1\n")
# absent pairs of interleaved queries
@example(b"q1 0 dd 1\nq1 0 ghost 2\nq2 0 nope 0\nq1 0 nope 1\nq1 0 kk 1\n")
def test_qrels_match_per_entry_reference(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("qrels")
    store = ingest_corpus(write_tsv(tmp / "c.tsv", _QRELS_CORPUS), dedup=True)
    path = tmp / "q.txt"
    path.write_bytes(data)
    try:
        entries = refcorpus.load_qrels(path)
    except UnicodeDecodeError:
        # the reference fails on the whole file; the first bad line wins
        lines = data.split(b"\n")
        bad = next(n for n, line in enumerate(lines) if not _decodes(line))
        (tmp / "prefix.txt").write_bytes(b"\n".join(lines[:bad]))
        try:
            refcorpus.load_qrels(tmp / "prefix.txt")
            message = f"{path}:{bad + 1}: invalid UTF-8 ({_reason(lines[bad])})"
        except ValueError as exc:
            message = str(exc).replace(str(tmp / "prefix.txt"), str(path))
        with pytest.raises(ValueError) as got:
            load_qrels(path)
        assert str(got.value) == message
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_qrels(path)
        assert str(got.value) == str(exc)
        return
    loaded = load_qrels(path)
    expected_table: dict[str, dict[str, int]] = {}
    for entry in entries:
        expected_table.setdefault(entry.qid, {})[entry.docno] = entry.grade
    assert [(q, list(j.items())) for q, j in loaded.items()] == [
        (q, list(j.items())) for q, j in expected_table.items()
    ]
    table, absent = refcorpus.map_qrels(entries, store)
    grades, got_absent = map_qrels(loaded, store)
    assert grades == table
    # absent pairs come by query (first appearance), in file order within one
    order = {qid: i for i, qid in enumerate(expected_table)}
    assert got_absent == sorted(absent, key=lambda pair: order[pair[0]])
    assert all(i is store.id_of[store.docnos[i]] for per_query in grades.values() for i in per_query)


def _decodes(line: bytes) -> bool:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _reason(line: bytes) -> str:
    """Why ``line``, without a CR ending, does not decode."""
    try:
        line.rstrip(b"\r").decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.reason
    raise AssertionError(line)


def test_qrels_memory_per_judgment(tmp_path):
    # 100 queries each judging the same 500 docnos, one docno at a time
    docnos = [f"doc{i:05d}" for i in range(500)]
    path = tmp_path / "q.txt"
    path.write_text(
        "".join(f"query{q:03d} 0 {d} {q % 3}\n" for d in docnos for q in range(100)), encoding="utf-8"
    )
    store = CorpusStore(docnos, ["text"] * len(docnos))
    tracemalloc.start()
    try:
        grades, absent = map_qrels(load_qrels(path), store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert absent == [] and sum(map(len, grades.values())) == 50_000
    assert peak / 50_000 <= 100, f"{peak / 50_000:.0f} B per judgment"


def test_load_queries(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\twhat is bm25\nq2\tgraph retrieval\n", encoding="utf-8")
    queries = load_queries(path)
    assert [q.qid for q in queries] == ["q1", "q2"]
    path.write_text("q1\ta\nq1\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate qid"):
        load_queries(path)


def test_load_queries_splits_on_newline_only(tmp_path):
    # a lone \r stays inside a query; a CRLF ending and blank lines do not count
    path = tmp_path / "q.tsv"
    path.write_bytes("q1\tcat\rdog\r\n\r\n\nq2\tbird\x85fish\r".encode())
    for size in BLOCK_SIZES:
        with block_bytes(size):
            assert load_queries(path) == [Query("q1", "cat\rdog"), Query("q2", "bird\x85fish")], size


def test_load_queries_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_bytes(b"q1\tcat\n\nq2\tdog \xff\n")
    for size in BLOCK_SIZES:
        with block_bytes(size), pytest.raises(ValueError, match=r"q\.tsv:3: invalid UTF-8 \(invalid start byte\)"):
            load_queries(path)


@pytest.mark.parametrize("data, message", [
    (b"q1\tcat\nq2 dog\n", "q.tsv:2: expected 'qid<TAB>text'"),
    (b"\n \tcat\n", "q.tsv:2: empty qid or query text"),
    (b"q1\t \r\n", "q.tsv:1: empty qid or query text"),
], ids=["missing_tab", "empty_qid", "empty_text"])
def test_load_queries_malformed_line_names_it(tmp_path, data, message):
    path = tmp_path / "q.tsv"
    path.write_bytes(data)
    for size in BLOCK_SIZES:
        with block_bytes(size), pytest.raises(ValueError) as raised:
            load_queries(path)
        assert str(raised.value) == f"{tmp_path}/{message}", size


def _columns(path):
    store = ingest_corpus(path)
    return store.docnos, store.texts


@pytest.mark.parametrize("read, data", [
    (load_queries, b"q1\tcat\nq2\tdog\n"),
    (_columns, b"d1\tcat\nd2\tdog\n"),
    (_columns, b'{"docno": "d1", "text": "cat"}\n{"docno": "d2", "text": "dog"}\n'),
    (load_qrels, b"q1 0 d1 1\nq1 0 d2 0\n"),
    (read_run, b"q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5 t\n"),
], ids=["queries", "corpus_tsv", "corpus_jsonl", "qrels", "run"])
def test_leading_byte_order_mark_is_dropped(tmp_path, read, data):
    # as the utf-8-sig codec does: the mark starts neither the first qid nor the first docno
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(codecs.BOM_UTF8 + data)
    for size in BLOCK_SIZES:
        with block_bytes(size):
            assert read(marked) == read(plain), size
