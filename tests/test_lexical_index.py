import json
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refindex
from conftest import block_bytes, make_store
from slidegar.cli import main
from slidegar.corpus_graph import build_graph_lexical
from slidegar.corpus_store import Query, docnos_bytes, ingest_corpus
from slidegar.lexical_index import (
    B_LEN,
    K1,
    SLICE,
    _regroup,
    _stable_order,
    bm25_retrieve,
    build_index,
    load_index,
    retrieve_expanded,
    rm3_expand,
    save_index,
    score_weighted_terms,
    tokenize,
)

CSR_FIELDS = ("offsets", "doc_ids", "tfs", "doc_lengths", "norm")
FORWARD_FIELDS = ("doc_offsets", "doc_term_ids", "doc_tfs")  # index.forward, in order

TWO_DOCS = {"d1": "cat cat dog", "d2": "dog dog dog"}


def two_doc_index():
    store = make_store(TWO_DOCS)
    return store, build_index(store.texts)


# --- tokenize ---


def test_tokenize_stopwords_and_lowercase():
    assert tokenize("The cat sat.") == ["cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_non_alnum():
    assert tokenize("BM25-based re-ranking") == ["bm25", "based", "re", "ranking"]


def test_tokenize_drops_overlong_tokens():
    assert tokenize("x" * 65 + " ok") == ["ok"]
    assert tokenize("y" * 64) == ["y" * 64]


def test_tokenize_underscore_is_a_boundary():
    assert tokenize("snake_case") == ["snake", "case"]


# --- bm25 ---


def test_bm25_worked_example():
    store, index = two_doc_index()
    result = bm25_retrieve(index, Query("q", "cat"), 10)
    # independent scalar evaluation of the scoring formula
    expected = math.log(1 + (2 - 1 + 0.5) / (1 + 0.5)) * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.75 * 3 / 3))
    assert [store.docnos[i] for i in result] == ["d1"]
    ids, [score] = score_weighted_terms(index, {"cat": 1})
    assert ids.tolist() == result
    assert score == pytest.approx(expected, abs=1e-12)
    assert score == pytest.approx(0.9530773732699248, abs=1e-12)


def test_bm25_unknown_terms_empty():
    _, index = two_doc_index()
    assert bm25_retrieve(index, Query("q", "zebra"), 5) == []
    assert bm25_retrieve(index, Query("q", ""), 5) == []


def test_bm25_truncates_to_k():
    store = make_store({"a": "fish one", "b": "fish two", "c": "fish three"})
    index = build_index(store.texts)
    result = bm25_retrieve(index, Query("q", "fish"), 1)
    assert len(result) == 1


def test_bm25_k_validation():
    _, index = two_doc_index()
    with pytest.raises(ValueError):
        bm25_retrieve(index, Query("q", "cat"), 0)


def test_bm25_scores_non_increasing_no_duplicates():
    rng = random.Random(3)
    vocab = [f"t{i}" for i in range(30)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=12)) for i in range(40)}
    index = build_index(docs.values())
    for _ in range(20):
        query = Query("q", " ".join(rng.choices(vocab, k=3)))
        result = bm25_retrieve(index, query, 15)
        ids, all_scores = score_weighted_terms(index, Counter(tokenize(query.text)))
        score_of = dict(zip(ids.tolist(), all_scores.tolist()))
        scores = [score_of[doc_id] for doc_id in result]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert len(set(result)) == len(result)


def test_bm25_prefix_monotonicity():
    rng = random.Random(4)
    vocab = [f"t{i}" for i in range(20)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=10)) for i in range(30)}
    index = build_index(docs.values())
    query = Query("q", "t1 t2 t3")
    for k in range(1, 12):
        smaller = bm25_retrieve(index, query, k)
        larger = bm25_retrieve(index, query, k + 1)
        assert larger[: len(smaller)] == smaller


# --- rm3 ---


def test_rm3_worked_example():
    _, index = two_doc_index()
    weights = rm3_expand(index, Query("q", "cat"), [0], fb_docs=10, fb_terms=2, orig_weight=0.6)
    assert weights["cat"] == pytest.approx(0.6 + 0.4 * (2 / 3), abs=1e-12)
    assert weights["dog"] == pytest.approx(0.4 * (1 / 3), abs=1e-12)


def test_rm3_orig_weight_one_is_query_only():
    _, index = two_doc_index()
    weights = rm3_expand(index, Query("q", "cat dog"), [1], fb_docs=10, fb_terms=10, orig_weight=1.0)
    assert weights == {"cat": pytest.approx(0.5), "dog": pytest.approx(0.5)}


def test_rm3_orig_weight_zero_is_feedback_distribution():
    _, index = two_doc_index()
    weights = rm3_expand(index, Query("q", "cat"), [0], fb_docs=10, fb_terms=10, orig_weight=0.0)
    assert weights["cat"] == pytest.approx(2 / 3)
    assert weights["dog"] == pytest.approx(1 / 3)
    # reciprocal-rank doc weights 1/1.5 and 0.5/1.5: 2/3 * {cat 2/3, dog 1/3} + 1/3 * {dog 1}
    weights = rm3_expand(index, Query("q", "cat"), [0, 1], fb_docs=10, fb_terms=10, orig_weight=0.0)
    assert weights == {"cat": pytest.approx(4 / 9, abs=1e-12), "dog": pytest.approx(5 / 9, abs=1e-12)}
    assert rm3_expand(index, Query("q", "cat"), [0, 1], fb_docs=1, fb_terms=10, orig_weight=0.0) == rm3_expand(
        index, Query("q", "cat"), [0], fb_docs=10, fb_terms=10, orig_weight=0.0
    )


def test_rm3_weights_sum_to_one():
    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(25)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=15)) for i in range(20)}
    index = build_index(docs.values())
    for trial in range(25):
        n_fb = rng.randint(1, 8)
        weights = rm3_expand(
            index,
            Query("q", " ".join(rng.choices(vocab, k=2))),
            rng.sample(range(20), n_fb),
            fb_docs=rng.randint(1, 10),
            fb_terms=rng.randint(1, 12),
            orig_weight=rng.random(),
        )
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_rm3_validation():
    _, index = two_doc_index()
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [], fb_docs=10, fb_terms=10, orig_weight=0.6)
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [0], fb_docs=10, fb_terms=10, orig_weight=1.5)
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [0], fb_docs=10, fb_terms=0, orig_weight=0.6)


def test_rm3_without_usable_terms_is_empty():
    index = build_index(["the of", "cat"])
    assert rm3_expand(index, Query("q", "the"), [0], fb_docs=10, fb_terms=10, orig_weight=0.6) == {}
    # a query term weighted 0 and a token-free feedback doc leave nothing either
    assert rm3_expand(index, Query("q", "cat"), [0], fb_docs=10, fb_terms=10, orig_weight=0.0) == {}
    assert retrieve_expanded(index, {}, 5) == []


def test_rm3_feedback_without_tokens_leaves_the_query_share_renormalized():
    # every feedback doc holds only stopwords, so it has length 0 and adds no term:
    # the query's share, orig_weight, is scaled up to sum 1
    index = build_index(["the of and", "cat dog", "of the"])
    weights = rm3_expand(index, Query("q", "cat cat dog"), [0, 2], fb_docs=10, fb_terms=10, orig_weight=0.4)
    assert weights == {"cat": pytest.approx(2 / 3, abs=1e-12), "dog": pytest.approx(1 / 3, abs=1e-12)}
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_rm3_all_stopword_query_uses_expansion_only():
    _, index = two_doc_index()
    weights = rm3_expand(index, Query("q", "the and of"), [0], fb_docs=10, fb_terms=10, orig_weight=0.6)
    assert weights["cat"] == pytest.approx(2 / 3)
    assert weights["dog"] == pytest.approx(1 / 3)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)


# --- retrieve_expanded ---


def test_expanded_single_term_matches_bm25():
    _, index = two_doc_index()
    expanded = retrieve_expanded(index, {"dog": 0.37}, 10)
    plain = bm25_retrieve(index, Query("q", "dog"), 10)
    assert expanded == plain


def test_expanded_weighted_hand_computation():
    store, index = two_doc_index()
    weights = {"cat": 0.8667, "dog": 0.1333}
    result = retrieve_expanded(index, weights, 10)
    ids, scores = score_weighted_terms(index, weights)
    idf_cat = math.log(1 + (2 - 1 + 0.5) / (1 + 0.5))
    idf_dog = math.log(1 + (2 - 2 + 0.5) / (2 + 0.5))
    d1 = 0.8667 * idf_cat * 2 * 2.2 / (2 + 1.2) + 0.1333 * idf_dog * 1 * 2.2 / (1 + 1.2)
    d2 = 0.1333 * idf_dog * 3 * 2.2 / (3 + 1.2)
    assert [store.docnos[i] for i in result] == ["d1", "d2"]
    assert ids.tolist() == result
    assert scores[0] == pytest.approx(d1, abs=1e-12)
    assert scores[1] == pytest.approx(d2, abs=1e-12)


def test_expanded_scaling_invariance():
    rng = random.Random(6)
    vocab = [f"t{i}" for i in range(15)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=8)) for i in range(25)}
    index = build_index(docs.values())
    weights = {t: rng.random() + 0.01 for t in rng.sample(vocab, 5)}
    base = retrieve_expanded(index, weights, 25)
    scaled = retrieve_expanded(index, {t: 7.3 * w for t, w in weights.items()}, 25)
    assert base == scaled


# --- persistence ---


def test_index_save_load_roundtrip(tmp_path):
    rng = random.Random(7)
    vocab = [f"t{i}" for i in range(20)]
    docs = {f"d{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(3, 14))) for i in range(30)}
    store = make_store(docs)
    index = build_index(store.texts)
    save_index(index, tmp_path / "idx", docnos_bytes(store.docnos))
    loaded = load_index(tmp_path / "idx", store)
    assert_same_index(loaded, index)
    assert loaded.avg_doc_length == index.avg_doc_length
    query = Query("q", "t1 t2 t3 t4")
    assert bm25_retrieve(loaded, query, 10) == bm25_retrieve(index, query, 10)


def test_index_files_exact_bytes(tmp_path):
    # two docs, tiny vocabulary: the on-disk layout is checked by hand
    store = make_store({"a": "cat cat dog", "b": "dog"})
    index = build_index(store.texts)
    save_index(index, tmp_path / "idx", docnos_bytes(store.docnos))
    doclens = (tmp_path / "idx" / "doclens.bin").read_bytes()
    assert doclens == (3).to_bytes(4, "little") + (1).to_bytes(4, "little")
    assert (tmp_path / "idx" / "terms.txt").read_bytes() == b"cat\ndog\n"
    assert (tmp_path / "idx" / "dfs.bin").read_bytes() == u32(1, 2)
    # cat: doc 0 tf 2; dog: doc 0 tf 1, doc 1 tf 1
    assert (tmp_path / "idx" / "docids.bin").read_bytes() == u32(0, 0, 1)
    assert (tmp_path / "idx" / "tfs.bin").read_bytes() == u32(2, 1, 1)
    assert json.loads((tmp_path / "idx" / "meta.json").read_text())["version"] == 4
    assert (tmp_path / "idx" / "docnos.txt").read_text() == "a\nb\n"


def test_index_of_format_v3_fails_to_load_with_a_hint_to_rebuild(tmp_path):
    # a version-3 directory: interleaved (doc id, tf) postings in postings.bin
    (tmp_path / "c.tsv").write_text("a\tcat cat dog\nb\tdog\n", encoding="utf-8")
    store = ingest_corpus(tmp_path / "c.tsv")
    idx = tmp_path / "idx"
    save_index(build_index(store.texts), idx, docnos_bytes(store.docnos))
    columns = [np.fromfile(idx / name, dtype="<u4") for name in ("docids.bin", "tfs.bin")]
    np.stack(columns, axis=1).tofile(idx / "postings.bin")
    for name in ("docids.bin", "tfs.bin"):
        (idx / name).unlink()
    meta = json.loads((idx / "meta.json").read_text())
    (idx / "meta.json").write_text(json.dumps({**meta, "version": 3}))
    with pytest.raises(ValueError, match="rebuild"):
        load_index(idx, store)


def test_index_loads_docnos_with_crlf_endings(tmp_path):
    store = make_store({"a": "cat", "b": "dog"})
    save_index(build_index(store.texts), tmp_path, docnos_bytes(store.docnos))
    (tmp_path / "docnos.txt").write_bytes(b"a\r\nb\r\n")
    assert load_index(tmp_path, store).doc_count == 2


def test_index_load_rejects_store_mismatch(tmp_path):
    store = make_store({"a": "cat", "b": "dog"})
    index = build_index(store.texts)
    save_index(index, tmp_path / "idx", docnos_bytes(store.docnos))
    bigger = make_store({"a": "cat", "b": "dog", "c": "bird"})
    with pytest.raises(ValueError, match="rebuild the index from the same corpus$"):
        load_index(tmp_path / "idx", bigger)


def assert_same_index(loaded, index):
    assert loaded.terms == index.terms
    assert loaded.term_ids == index.term_ids
    for field in CSR_FIELDS:
        a, b = getattr(loaded, field), getattr(index, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    for field, a, b in zip(FORWARD_FIELDS, loaded.forward, index.forward, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert loaded.avg_doc_length == index.avg_doc_length


def test_forward_index_is_built_on_first_use_only(tmp_path):
    store = make_store({"a": "cat cat dog", "b": "dog bird", "c": "bird cat"})
    index = build_index(store.texts)
    build_graph_lexical(index, store, 1)
    save_index(index, tmp_path, docnos_bytes(store.docnos))
    loaded = load_index(tmp_path, store)
    bm25_retrieve(loaded, Query("q", "cat"), 2)
    assert "forward" not in vars(index) and "forward" not in vars(loaded)
    rm3_expand(loaded, Query("q", "cat"), [0], fb_docs=10, fb_terms=10, orig_weight=0.6)
    assert "forward" in vars(loaded)
    doc_offsets, term_ids, tfs = loaded.forward  # terms bird, cat, dog
    assert doc_offsets.tolist() == [0, 2, 4, 6]
    assert term_ids.tolist() == [1, 2, 0, 2, 0, 1] and tfs.tolist() == [2, 1, 1, 1, 1, 1]


def test_term_map_is_built_on_first_lookup_only(tmp_path):
    store = make_store({"a": "cat cat dog", "b": "dog bird", "c": "cat cat dog"})
    index = build_index(store.texts)
    save_index(index, tmp_path / "idx", docnos_bytes(store.docnos))
    loaded = load_index(tmp_path / "idx", store)
    assert "term_ids" not in vars(index) and "term_ids" not in vars(loaded)
    assert bm25_retrieve(loaded, Query("q", "bird"), 2) == [1]
    assert loaded.term_ids == {"bird": 0, "cat": 1, "dog": 2} and "term_ids" not in vars(index)


def test_loaded_norm_is_bit_identical_to_the_built_one(tmp_path):
    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(30)] + ["the"]
    store = make_store({f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(1, 40))) for i in range(300)})
    index = build_index(store.texts)
    save_index(index, tmp_path, docnos_bytes(store.docnos))
    loaded = load_index(tmp_path, store)
    assert loaded.norm.tobytes() == index.norm.tobytes()
    assert loaded.avg_doc_length == index.avg_doc_length
    # the formula over the float64 list of lengths and their Python sum
    lengths = index.doc_lengths.tolist()
    avgdl = sum(lengths) / len(lengths)
    assert index.avg_doc_length == avgdl
    expected = K1 * (1.0 - B_LEN + B_LEN * np.asarray(lengths, dtype=np.float64) / avgdl)
    assert index.norm.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def synth_2000(tmp_path_factory):
    """A generated corpus of 2,000 documents."""
    out = tmp_path_factory.mktemp("synth2000")
    assert main([
        "synth", "--out", str(out), "--seed", "3", "--clusters", "8", "--docs-per-cluster", "250",
        "--vocab-per-cluster", "60", "--queries", "8", "--relevant-per-query", "20", "--dim", "16",
    ]) == 0
    return out / "corpus.tsv"


def traced(make):
    """(made, peak, retained): ``make()`` and the bytes it allocated at its
    peak and on return, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        made = make()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, peak - base, current - base


def test_index_memory_stays_near_what_it_keeps(tmp_path, synth_2000):
    """Traced allocations of a build and a load peak at a bounded multiple of
    the index they return, so no dead copy or unused structure is held."""
    store = ingest_corpus(synth_2000)
    assert len(store) == 2000

    def with_term_ids(index):
        index.term_ids  # built on first access: measured with the arrays, as a run holds them
        return index

    index, build_peak, build_kept = traced(lambda: with_term_ids(build_index(store.texts)))
    postings = len(index.doc_ids)
    save_index(index, tmp_path / "idx", docnos_bytes(store.docnos))
    del index
    _, load_peak, load_kept = traced(lambda: with_term_ids(load_index(tmp_path / "idx", store)))
    assert build_peak <= 2.0 * build_kept, (build_peak, build_kept)
    # beyond the index, the postings sort holds one int64 key per posting
    # plus fixed-size slices: 3.1 B a posting over these 21,920 postings,
    # where an argsort and a corpus-long doc-id column took 6.3 B
    assert (build_peak - build_kept) / postings <= 5.0, (build_peak, build_kept, postings)
    assert load_peak <= 1.4 * load_kept, (load_peak, load_kept)


def test_build_index_command_holds_no_text_past_its_block(tmp_path, capsys, synth_2000):
    """``build-index`` peaks at what an in-memory build of the same texts
    allocates, plus the bytes of the ``docnos.txt`` it writes, plus about
    one block of text: a command that held every text, or a ``str`` per
    docno, would exceed it. Blocks of 4 KiB make the 150 KB corpus many
    blocks long."""
    store = ingest_corpus(synth_2000)
    texts = sum(map(sys.getsizeof, store.texts))
    _, build_peak, _ = traced(lambda: build_index(store.texts))
    del store
    with block_bytes(4096):
        code, peak, _ = traced(lambda: main(["build-index", "--corpus", str(synth_2000), "--out", str(tmp_path)]))
    assert code == 0
    docnos = (tmp_path / "docnos.txt").stat().st_size
    held = (peak - build_peak - docnos) / texts  # texts held at the peak, as a share of all of them
    assert held <= 0.5, (peak, build_peak, docnos, texts)


WORDS = st.sampled_from(["ant", "bee", "cat", "the", "dog", "eel"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(WORDS, max_size=8), min_size=1, max_size=12))
def test_index_codec_roundtrip_property(tmp_path_factory, docs):
    # docs may be all stopwords, so zero lengths and an empty index occur
    store = make_store({f"d{i}": " ".join(words) or "the" for i, words in enumerate(docs)})
    index = build_index(store.texts)
    out = tmp_path_factory.mktemp("idx")
    save_index(index, out, docnos_bytes(store.docnos))
    assert_same_index(load_index(out, store), index)


# --- the CSR engine against the dict-of-tuples reference ---


def tie_corpus():
    """Random docs plus twin blocks: twins score equal for every query, so
    many cut-offs fall inside a run of tied scores."""
    rng = random.Random(12)
    vocab = [f"t{i}" for i in range(14)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(2, 9))) for _ in range(70)]
    texts += ["t1 t2 t2 t5"] * 6 + ["t3 t4"] * 5
    rng.shuffle(texts)
    store = make_store({f"d{i:03d}": text for i, text in enumerate(texts)})
    return rng, vocab, store, texts


def assert_scores_match_reference(index, ref, weights):
    """The CSR ids and scores equal the reference's, float for float."""
    ids, scores = score_weighted_terms(index, weights)
    expected = refindex.score_weighted_terms(ref, weights)
    assert ids.tolist() == sorted(expected), weights
    assert scores.tolist() == [expected[d] for d in sorted(expected)], weights
    return expected


def test_csr_engine_matches_dict_reference():
    rng, vocab, store, texts = tie_corpus()
    index = build_index(store.texts)
    ref = refindex.RefIndex(texts)
    straddled = 0
    queries = ["t1 t2 t5", "t3 t4", "t2", "t4 t4 t9"] + [" ".join(rng.choices(vocab, k=3)) for _ in range(20)]
    for text in queries:
        weights = Counter(tokenize(text))
        full = refindex.cut(assert_scores_match_reference(index, ref, weights), len(texts))
        for k in range(1, len(full) + 2):
            assert retrieve_expanded(index, weights, k) == [d for d, _ in full[:k]], (text, k)
            assert bm25_retrieve(index, Query("q", text), k) == [d for d, _ in full[:k]], (text, k)
            straddled += 0 < k < len(full) and full[k - 1][1] == full[k][1]
    assert straddled >= 10  # ties really do straddle the k-th place

    for _ in range(40):
        ranked = rng.sample(range(len(texts)), rng.randint(1, 12))
        query = " ".join(rng.choices(vocab, k=rng.randint(0, 3)))
        fb_terms = rng.randint(1, 12)
        expanded = rm3_expand(index, Query("q", query), ranked, fb_docs=10, fb_terms=fb_terms, orig_weight=0.6)
        reference = refindex.rm3_weights(ref, query, ranked, fb_terms=fb_terms)
        assert list(expanded.items()) == list(reference.items())
        scores = assert_scores_match_reference(index, ref, expanded)
        for k in (1, 3, 7, 20):
            assert retrieve_expanded(index, expanded, k) == [d for d, _ in refindex.cut(scores, k)]


def assert_forward_matches_reference(texts):
    index = build_index(texts)
    doc_offsets, term_ids, tfs = index.forward
    assert (doc_offsets.dtype, term_ids.dtype, tfs.dtype) == (np.int64, np.int32, np.uint32)
    ref = refindex.RefIndex(texts)
    assert len(doc_offsets) == len(ref.forward) + 1 and doc_offsets[0] == 0
    assert doc_offsets[-1] == len(term_ids) == len(tfs) == len(index.doc_ids)
    for doc_id, counts in enumerate(ref.forward):  # each doc's {term: tf}, in term order
        span = slice(doc_offsets[doc_id], doc_offsets[doc_id + 1])
        assert [index.terms[t] for t in term_ids[span].tolist()] == list(counts), doc_id
        assert tfs[span].tolist() == list(counts.values()), doc_id


def test_forward_index_matches_dict_reference():
    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(30)] + ["the", "of", "and"]
    for _ in range(20):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 25))) for _ in range(rng.randint(1, 60))]
        assert_forward_matches_reference(texts + ["the of and"])  # a doc of stopwords only
    assert_forward_matches_reference(["cat dog cat bird"])  # a single doc
    assert_forward_matches_reference(["the of", "and"])  # zero postings


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 2 * SLICE + 7),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.int32, np.uint32]),
)
@example(n_used=1, spread=1, n=0, seed=0, dtype=np.uint32)  # empty input
@example(n_used=1, spread=1, n=SLICE + 1, seed=0, dtype=np.int32)  # a single group, longer than a slice
@example(n_used=3, spread=3, n=SLICE - 1, seed=1, dtype=np.uint32)  # empty groups between and after
def test_regroup_is_the_stable_argsort(n_used, spread, n, seed, dtype):
    """``_regroup`` of i32 term ids (a build) or u32 doc ids (``forward``)
    against numpy's stable argsort; ``spread`` leaves groups empty."""
    groups = (np.random.default_rng(seed).integers(0, n_used, n) * spread).astype(dtype)
    n_groups = n_used * spread
    offsets, order = _regroup(groups, n_groups)
    assert offsets.dtype == order.dtype == np.int64
    assert np.array_equal(order, np.argsort(groups, kind="stable"))
    assert np.array_equal(offsets, np.concatenate([[0], np.cumsum(np.bincount(groups, minlength=n_groups))]))
    # offsets for 2**32 groups would take 32 GiB, so with the largest id
    # moved to 2**32 - 1 only the order is checked
    top = groups.astype(np.uint32) + np.uint32(2**32 - 1 - int(groups.max(initial=0)))
    assert np.array_equal(_stable_order(top.astype(np.int64)), np.argsort(top, kind="stable"))


# --- load-time validation ---


def u32(*values):
    return b"".join(v.to_bytes(4, "little") for v in values)


# built from {"a": "cat cat dog", "b": "dog", "c": "bird cat"}: terms bird, cat, dog;
# dfs 1, 2, 2; doc ids bird [2], cat [0, 2], dog [0, 1]; tfs bird [1], cat [2, 1], dog [1, 1]
CORRUPTIONS = {
    # the version that stored the postings as interleaved (doc_id, tf) pairs
    "old_version": ("meta.json", b'{"avgdl": 2.0, "dedup": false, "doc_count": 3, "version": 3}',
                    r"meta\.json: unsupported index format version 3 \(expected 4\); rebuild the index"),
    "meta_not_json": ("meta.json", b"not json", r"meta\.json: invalid index metadata \(Expecting value"),
    "meta_not_object": ("meta.json", b"[1, 2]", r"meta\.json: invalid index metadata \(not a JSON object\)"),
    "meta_no_doc_count": ("meta.json", b'{"avgdl": 2.0, "version": 4}', r"meta\.json: missing doc_count$"),
    "meta_no_counts": ("meta.json", b'{"version": 4}', r"meta\.json: missing doc_count, avgdl"),
    "meta_null_doc_count": ("meta.json", b'{"avgdl": 2.0, "doc_count": null, "version": 4}',
                            r"meta\.json: doc_count must be an integer, got None$"),
    "meta_float_doc_count": ("meta.json", b'{"avgdl": 2.0, "doc_count": 3.0, "version": 4}',
                             r"meta\.json: doc_count must be an integer, got 3\.0$"),
    "meta_bool_doc_count": ("meta.json", b'{"avgdl": 2.0, "doc_count": true, "version": 4}',
                            r"meta\.json: doc_count must be an integer, got True$"),
    "meta_string_avgdl": ("meta.json", b'{"avgdl": "x", "doc_count": 3, "version": 4}',
                          r"meta\.json: avgdl must be a number, got 'x'$"),
    "meta_null_avgdl": ("meta.json", b'{"avgdl": null, "doc_count": 3, "version": 4}',
                        r"meta\.json: avgdl must be a number, got None$"),
    # the docs hold 3 + 1 + 2 tokens, so the saved avgdl is 2.0
    "meta_wrong_avgdl": ("meta.json", b'{"avgdl": 2.5, "doc_count": 3, "version": 4}',
                         r"avgdl mismatch between meta\.json and doclens\.bin"),
    "meta_nan_avgdl": ("meta.json", b'{"avgdl": NaN, "doc_count": 3, "version": 4}',
                       r"avgdl mismatch between meta\.json and doclens\.bin"),
    "foreign_docnos": ("docnos.txt", b"b\na\nc\n", r"docnos\.txt:1: docnos do not match"),
    "lone_cr_in_docnos": ("docnos.txt", b"a\rb\nc\n", r"docnos\.txt:1: docnos do not match"),
    "invalid_utf8_docno": ("docnos.txt", b"a\nb\nc\n\xff\n", r"docnos\.txt:4: invalid UTF-8 \(invalid start byte\)$"),
    "short_doclens": ("doclens.bin", u32(3, 1), r"doclens\.bin: expected 12 bytes, found 8"),
    "no_terms": ("terms.txt", b"", r"dfs\.bin: expected 0 bytes, found 12"),
    "unsorted_terms": ("terms.txt", b"cat\nbird\ndog\n", r"terms\.txt:2: term 'bird' is not after 'cat'"),
    "duplicate_term": ("terms.txt", b"bird\nbird\ndog\n", r"terms\.txt:2: term 'bird' is not after"),
    "blank_term_line": ("terms.txt", b"bird\n\ncat\ndog\n", r"terms\.txt:2: term '' is empty or contains whitespace"),
    "crlf_term_line": ("terms.txt", b"bird\r\ncat\r\ndog\r\n", r"terms\.txt:1: term 'bird\\r' is empty or contains"),
    "whitespace_only_term": ("terms.txt", b" \n", r"terms\.txt:1: term ' ' is empty or contains whitespace"),
    "leading_space_term": ("terms.txt", b"bird\n cat\ndog\n", r"terms\.txt:2: term ' cat' is empty or contains"),
    "space_in_term": ("terms.txt", b"bird\ncat\ndo g\n", r"terms\.txt:3: term 'do g' is empty or contains"),
    "no_final_newline": ("terms.txt", b"bird\ncat\ndog", r"terms\.txt:3: no newline at the end of the file"),
    "invalid_utf8_term": ("terms.txt", b"bird\ncat\nd\xffg\n", r"terms\.txt:3: invalid UTF-8"),
    # the reason is the line's own, as in every reader: the newline does not continue the sequence
    "truncated_utf8_term": ("terms.txt", b"bird\ncat\nab\xe2\x82\n",
                            r"terms\.txt:3: invalid UTF-8 \(unexpected end of data\)$"),
    "short_dfs": ("dfs.bin", u32(1, 2), r"dfs\.bin: expected 12 bytes, found 8"),
    "dfs_sum_mismatch": ("dfs.bin", u32(1, 2, 1), r"docids\.bin: expected 16 bytes, found 20"),
    "ragged_postings": ("docids.bin", u32(2, 0, 2, 0, 1, 7), r"docids\.bin: expected 20 bytes, found 24"),
    # half a u32 past the column: a u32 read would drop it unseen, so the file's byte count must catch it
    "half_u32_past_postings": ("tfs.bin", u32(1, 2, 1, 1, 1) + b"\x07\x00", r"tfs\.bin: expected 20 bytes, found 22"),
    "ids_not_increasing": ("docids.bin", u32(2, 0, 0, 0, 1),
                           r"docids\.bin: term 'cat': doc ids do not strictly increase"),
    "id_out_of_range": ("docids.bin", u32(3, 0, 2, 0, 1), r"docids\.bin: term 'bird': doc id is not below doc_count 3"),
    "zero_tf": ("tfs.bin", u32(1, 2, 1, 1, 0), r"tfs\.bin: term 'dog': tf is 0"),
}


def test_term_with_an_empty_postings_list_matches_nothing(tmp_path):
    # load_index accepts a dfs.bin entry of 0: a query holding that term ranks as it would without it
    store = make_store({"a": "cat cat dog", "b": "dog", "c": "bird cat"})
    save_index(build_index(store.texts), tmp_path, docnos_bytes(store.docnos))
    (tmp_path / "terms.txt").write_bytes(b"bird\ncat\ncow\ndog\n")
    (tmp_path / "dfs.bin").write_bytes(u32(1, 2, 0, 2))
    index = load_index(tmp_path, store)
    assert "cow" in index.term_ids
    for weights in ({"cow": 1.0}, {"cat": 1.0, "cow": 1.0}, {"cow": 2.0, "dog": 1.0, "bird": 0.5}):
        ids, scores = score_weighted_terms(index, weights)
        kept_ids, kept_scores = score_weighted_terms(index, {t: w for t, w in weights.items() if t != "cow"})
        assert (ids.tolist(), scores.tolist()) == (kept_ids.tolist(), kept_scores.tolist()), weights
    assert bm25_retrieve(index, Query("q", "cow cat"), 3) == bm25_retrieve(index, Query("q", "cat"), 3) == [0, 2]


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_index_load_rejects_corruption(tmp_path, case):
    store = make_store({"a": "cat cat dog", "b": "dog", "c": "bird cat"})
    save_index(build_index(store.texts), tmp_path, docnos_bytes(store.docnos))
    load_index(tmp_path, store)  # the intact directory loads
    name, data, message = CORRUPTIONS[case]
    (tmp_path / name).write_bytes(data)
    with pytest.raises(ValueError, match=message):
        load_index(tmp_path, store)
