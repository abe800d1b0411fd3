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
from conftest import BLOCK_SIZES, block_bytes
from slidegar import corpus_store
from slidegar.cli import main
from slidegar.corpus_store import (
    CorpusStore,
    Documents,
    Query,
    dedup_corpus,
    ingest_corpus,
    load_qrels,
    load_queries,
    map_qrels,
    normalize_text,
    write_dedup_report,
)
from slidegar.dense_index import write_embeddings
from slidegar.eval import read_run
from slidegar.lexical_index import tokenize


def write_tsv(path, rows):
    path.write_text("".join(f"{docno}\t{text}\n" for docno, text in rows), encoding="utf-8")
    return path


def deduped(path):
    """The store of what ``dedup_corpus`` writes for the corpus at ``path``, and
    its dropped docno -> kept docno."""
    out = path.with_name(path.name + ".dedup")
    dropped = dedup_corpus(path, out)
    return ingest_corpus(out), dropped


def test_dedup_on_drops_identical_text(tmp_path):
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store, dropped = deduped(path)
    assert store.docnos == ["d1", "d3"]
    assert store.id_of == {"d1": 0, "d3": 1}
    assert dropped == {"d2": "d1"}


def test_dedup_off_keeps_everything(tmp_path):
    # without the dedup step, twins are documents of their own
    path = write_tsv(tmp_path / "c.tsv", [("d2", "same text"), ("d1", "same text"), ("d3", "other")])
    store = ingest_corpus(path)
    assert store.id_of == {"d2": 0, "d1": 1, "d3": 2}


def test_normalization_collapses_whitespace_but_not_case(tmp_path):
    rows = [("b", "cat  dog"), ("a", " cat dog "), ("c", "Cat dog")]
    store, dropped = deduped(write_tsv(tmp_path / "c.tsv", rows))
    # a and b normalize identically; c differs only by case and is kept. The
    # kept docno takes the group's first position and that record's text
    assert (store.docnos, store.texts) == (["a", "c"], ["cat  dog", "Cat dog"])
    assert dropped == {"b": "a"}
    assert normalize_text("  x \t y\n") == "x y"


def test_dedup_tiebreak_is_order_independent(tmp_path):
    rows = [("z9", "twin text"), ("a1", "twin text"), ("m5", "twin text")]
    for perm_seed in range(3):
        rng = random.Random(perm_seed)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        store, dropped = deduped(write_tsv(tmp_path / f"c{perm_seed}.tsv", shuffled))
        assert store.docnos == ["a1"]
        assert dropped == {"m5": "a1", "z9": "a1"}


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

    store, dropped = deduped(path)
    assert len(store) == 9900
    assert len(dropped) == 100
    assert set(store.docnos) | set(dropped) == {docno for docno, _ in rows}


def test_dedup_is_idempotent(tmp_path, capsys):
    # on its own output, dedup drops nothing and writes the same bytes
    rows = [("b", "one two"), ("a", " one  two"), ("c", "three"), ("d", "three\t")]
    (tmp_path / "in").mkdir()
    write_tsv(tmp_path / "in" / "corpus.tsv", rows)
    (tmp_path / "in" / "qrels.txt").write_text("q1 0 b 1\nq1 0 a 2\nq1 0 d 0\nq2 0 ghost 1\n", encoding="utf-8")
    write_embeddings(tmp_path / "in" / "embeddings.bin", 2, [(docno, [i, 1]) for i, (docno, _) in enumerate(rows)])
    for source, out in (("in", "dd"), ("dd", "dd2")):
        assert main([
            "dedup", "--corpus", str(tmp_path / source / "corpus.tsv"), "--qrels", str(tmp_path / source / "qrels.txt"),
            "--embeddings", str(tmp_path / source / "embeddings.bin"), "--out", str(tmp_path / out),
        ]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / 'dd'}: 2 dropped", f"wrote {tmp_path / 'dd2'}: 0 dropped"]
    assert (tmp_path / "dd" / "corpus.tsv").read_text(encoding="utf-8") == "a\tone two\nc\tthree\n"
    assert (tmp_path / "dd" / "qrels.txt").read_text(encoding="utf-8") == "q1 0 a 2\nq1 0 c 0\nq2 0 ghost 1\n"
    assert (tmp_path / "dd2" / "dedup_report.jsonl").read_bytes() == b""
    for name in ("corpus.tsv", "qrels.txt", "embeddings.bin"):
        assert (tmp_path / "dd2" / name).read_bytes() == (tmp_path / "dd" / name).read_bytes(), name


def test_docno_roundtrip(tmp_path):
    rows = [("b", "one"), ("a", "two"), ("c", "three")]
    store = ingest_corpus(write_tsv(tmp_path / "c.tsv", rows))
    for docno in ("a", "b", "c"):
        assert store.docnos[store.id_of[docno]] == docno


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
    path.write_text("j\u00a01\tcat\n", encoding="utf-8")  # NBSP is whitespace
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
    # in build-index, which builds no store, and in dedup, before it writes a
    # corpus: dedup hides neither a repeat of a twin nor a docno that would be
    # both kept and dropped
    for data, message in [
        (b"a\tx\nd\tx\nd\tx\n", ":3: duplicate docno 'd' (first at line 2)"),
        (b"d1\tx\nd0\ty\nd1\ty\n", ":3: duplicate docno 'd1' (first at line 1)"),
    ]:
        path.write_bytes(data)
        for size, command in itertools.product(BLOCK_SIZES, ("build-index", "dedup")):
            with block_bytes(size), pytest.raises(ValueError) as raised:
                ingest_corpus(path)
            assert str(raised.value) == f"{path}{message}", size
            with block_bytes(size):
                assert main([command, "--corpus", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == f"error: {path}{message}\n", (size, command)
            assert not (tmp_path / "out" / "corpus.tsv").exists()


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
    # a corpus is TSV only: a JSON-lines file fails at line 1, whatever its fields
    path = tmp_path / "c.jsonl"
    for data in ('{"docno": "d1"}\n', '{"docno": "d1", "text": "cat"}\n{"docno": "d2", "text": "dog"}\n'):
        path.write_text(data, encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            ingest_corpus(path)
        assert str(raised.value) == f"{path}:1: expected 'docno<TAB>text'"


def test_docno_starting_with_a_brace_is_a_tsv_docno(tmp_path):
    # in either line order: no record sets the format of the file
    path = tmp_path / "c.tsv"
    for data, docnos, texts in [
        ("{a\tcat dog\nb\tbird\n", ["{a", "b"], ["cat dog", "bird"]),
        ("b\tbird\n{a\tcat dog\n", ["b", "{a"], ["bird", "cat dog"]),
    ]:
        path.write_text(data, encoding="utf-8")
        store = ingest_corpus(path)
        assert (store.docnos, store.texts) == (docnos, texts)


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
# well-formed records under a few docnos, so that stores of
# several documents and twin groups get built too
_clean_lines = st.builds(
    lambda docno, word, text: docno + b"\t" + word + text,
    st.sampled_from(_DOCNOS[:7]), st.sampled_from([b"cat", b"dog"]), _texts.filter(lambda t: b"\xe2" not in t),
)
_ENDINGS = [b"\n", b"\r\n", b"\r\r\n", b"\n\n", b"\n \n", b""]


@st.composite
def corpus_bytes(draw):
    lines = draw(st.lists(draw(st.sampled_from([_tsv_lines, _clean_lines])), max_size=8))
    return b"".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)


@settings(max_examples=400, deadline=None)
@given(corpus_bytes())
# an earlier line's error comes first, whichever check finds it, and a
# sequence cut short by the line end is reported as such
@example(b"d1\ta\n\tb\nd2\t\xff\n")
@example(b"d1\ta\nd 2\tb\nd3\tc\xe2\x82\r\n")
# a repeat of a twin, and a repeat of a docno under another text
@example(b"a\tx\nd\tx\nd\tx\n")
@example(b"d1\tx\nd0\ty\nd1\ty\n")
def test_reader_matches_per_line_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(data)
    try:
        docnos, texts, _, _ = refcorpus.ingest(path)
    except ValueError as exc:
        for size in BLOCK_SIZES:
            with block_bytes(size), pytest.raises(ValueError) as got:
                ingest_corpus(path)
            assert str(got.value) == str(exc), size
        return
    for size in BLOCK_SIZES:
        with block_bytes(size):
            store = ingest_corpus(path)
        assert (store.docnos, store.texts) == (docnos, texts), size
        assert store.id_of == {docno: doc_id for doc_id, docno in enumerate(docnos)}, size


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
# a repeat that dedup would merge into a twin, and one it would keep once and drop once
@example(b"a\tx\nd\tx\nd\tx\n", True)
@example(b"d1\tx\nd0\ty\nd1\ty\n", True)
def test_build_index_writes_the_reference_docnos_and_report(tmp_path_factory, data, dedup):
    # with dedup, `slidegar dedup` and then `build-index` on its corpus: the
    # docnos, report and per-document tokens of the removed in-build dedup
    path = tmp_path_factory.mktemp("corpus") / "c.tsv"
    path.write_bytes(data)
    try:
        docnos, texts, _, report = refcorpus.ingest(path, dedup=dedup)
    except ValueError as exc:
        docnos, error = None, f"error: {exc}\n"
    for size in BLOCK_SIZES:
        out = path.parent / str(size)
        corpus = out / "dd" / "corpus.tsv" if dedup else path
        with block_bytes(size), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(["dedup", "--corpus", str(path), "--out", str(out / "dd")]) if dedup else 0
            if code == 0:
                code = main(["build-index", "--corpus", str(corpus), "--out", str(out / "index")])
        if docnos is None:
            assert (code, stderr.getvalue()) == (2, error), size
            assert not (out / "dd" / "corpus.tsv").exists()
            continue
        assert code == 0, (size, stderr.getvalue())
        assert (out / "index" / "docnos.txt").read_text(encoding="utf-8") == "".join(d + "\n" for d in docnos), size
        assert [tokenize(text) for text in ingest_corpus(corpus).texts] == list(map(tokenize, texts)), size
        assert not (out / "index" / "dedup_report.jsonl").exists()
        if dedup:
            lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in report)
            assert (out / "dd" / "dedup_report.jsonl").read_text(encoding="utf-8") == lines, size


def test_documents_are_read_once(tmp_path):
    # a second pass would append every docno again
    path = write_tsv(tmp_path / "c.tsv", [("a", "cat"), ("b", "dog"), ("c", "bird")])
    documents = Documents(path)
    assert list(documents) == ["cat", "dog", "bird"]
    with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: Documents are read once"):
        list(documents)
    assert documents.docnos == b"a\nb\nc\n"


def test_dedup_report_jsonl_format(tmp_path):
    out = tmp_path / "report.jsonl"
    write_dedup_report(out, {"d2": "d1", "b": "a"})  # written sorted by dropped docno
    lines = out.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [{"dropped": "b", "kept": "a"}, {"dropped": "d2", "kept": "d1"}]


# --- qrels ---


QREL_ROWS = [("kk", "twin text"), ("dd", "twin text"), ("zz", "unrelated")]


def qrel_store(tmp_path):
    return ingest_corpus(write_tsv(tmp_path / "c.tsv", QREL_ROWS))


def dedup_qrels(tmp_path, text):
    """The qrels ``slidegar dedup`` writes for ``text`` over ``QREL_ROWS``,
    where min("dd", "kk") = "dd" is kept and "kk" dropped."""
    (tmp_path / "q.txt").write_text(text, encoding="utf-8")
    argv = ["dedup", "--corpus", str(write_tsv(tmp_path / "c.tsv", QREL_ROWS)), "--qrels", str(tmp_path / "q.txt")]
    assert main([*argv, "--out", str(tmp_path / "dd")]) == 0
    return (tmp_path / "dd" / "qrels.txt").read_text(encoding="utf-8")


def test_qrel_on_dropped_docno_remaps_to_kept(tmp_path):
    assert dedup_qrels(tmp_path, "q1 0 kk 2\nq1 0 zz 1\n") == "q1 0 dd 2\nq1 0 zz 1\n"


def test_qrel_max_grade_wins_for_twins(tmp_path):
    # whichever twin is judged first and whichever is kept
    assert dedup_qrels(tmp_path, "q1 0 kk 1\nq1 0 dd 3\nq2 0 kk 2\n") == "q1 0 dd 3\nq2 0 dd 2\n"
    assert dedup_qrels(tmp_path, "q1 0 kk 3\nq1 0 dd 1\nq2 0 dd 0\nq2 0 kk 0\n") == "q1 0 dd 3\nq2 0 dd 0\n"


def test_qrel_absent_docno_reported(tmp_path):
    store = qrel_store(tmp_path)
    qrels = {"q1": {"dd": 1, "zz": 2, "kk": 1, "ghost": 3}, "q2": {"dd": 0}, "q3": {"nope": 1}}
    grades, absent = map_qrels(qrels, store)
    assert absent == [("q1", "ghost"), ("q3", "nope")]
    ids = store.id_of
    assert grades == {"q1": {ids["dd"]: 1, ids["zz"]: 2, ids["kk"]: 1}, "q2": {ids["dd"]: 0}}
    # dedup passes a judgment on an absent docno through as written
    assert dedup_qrels(tmp_path, "q1 0 ghost 3\nq1 0 kk 1\nq3 0 nope 1\n") == "q1 0 ghost 3\nq1 0 dd 1\nq3 0 nope 1\n"


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
    assert grades == {"q1": {2: 2}, "q2": {0: 1}}
    assert [store.docnos[i] for per_query in grades.values() for i in per_query] == ["zz", "kk"]
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


# Qrels lines from pieces: judged and absent docnos, grades
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
# both twins judged: each is a document of its own and keeps its grade
@example(b"q1 0 kk 1\nq1 0 dd 3\nq2 0 dd 2\r\nq2 0 kk 0\n")
# a bad line before invalid UTF-8 is reported first
@example(b"q1 0 dd\n\nq1 0 d\xff 1\n")
# absent pairs of interleaved queries
@example(b"q1 0 dd 1\nq1 0 ghost 2\nq2 0 nope 0\nq1 0 nope 1\nq1 0 kk 1\n")
def test_qrels_match_per_entry_reference(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("qrels")
    store = ingest_corpus(write_tsv(tmp / "c.tsv", _QRELS_CORPUS))
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
    (load_qrels, b"q1 0 d1 1\nq1 0 d2 0\n"),
    (read_run, b"q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5 t\n"),
], ids=["queries", "corpus_tsv", "qrels", "run"])
def test_leading_byte_order_mark_is_dropped(tmp_path, read, data):
    # as the utf-8-sig codec does: the mark starts neither the first qid nor the first docno
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(codecs.BOM_UTF8 + data)
    for size in BLOCK_SIZES:
        with block_bytes(size):
            assert read(marked) == read(plain), size
