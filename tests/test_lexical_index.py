import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refindex
from conftest import make_store
from slidegar.corpus_store import Query
from slidegar.lexical_index import (
    ExpandedQuery,
    bm25_retrieve,
    build_index,
    load_index,
    retrieve_expanded,
    rm3_expand,
    save_index,
    tokenize,
)

CSR_FIELDS = ("offsets", "doc_ids", "tfs", "norm", "doc_offsets", "doc_term_ids", "doc_tfs")

TWO_DOCS = {"d1": "cat cat dog", "d2": "dog dog dog"}


def two_doc_index():
    store = make_store(TWO_DOCS)
    return store, build_index(store)


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
    assert [sd.docno for sd in result] == ["d1"]
    assert result[0].score == pytest.approx(expected, abs=1e-12)
    assert result[0].score == pytest.approx(0.9530773732699248, abs=1e-12)


def test_bm25_unknown_terms_empty():
    _, index = two_doc_index()
    assert bm25_retrieve(index, Query("q", "zebra"), 5) == []
    assert bm25_retrieve(index, Query("q", ""), 5) == []


def test_bm25_truncates_to_k():
    store = make_store({"a": "fish one", "b": "fish two", "c": "fish three"})
    index = build_index(store)
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
    index = build_index(make_store(docs))
    for _ in range(20):
        query = Query("q", " ".join(rng.choices(vocab, k=3)))
        result = bm25_retrieve(index, query, 15)
        scores = [sd.score for sd in result]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        names = [sd.docno for sd in result]
        assert len(set(names)) == len(names)


def test_bm25_prefix_monotonicity():
    rng = random.Random(4)
    vocab = [f"t{i}" for i in range(20)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=10)) for i in range(30)}
    index = build_index(make_store(docs))
    query = Query("q", "t1 t2 t3")
    for k in range(1, 12):
        smaller = bm25_retrieve(index, query, k)
        larger = bm25_retrieve(index, query, k + 1)
        assert larger[: len(smaller)] == smaller


# --- rm3 ---


def test_rm3_worked_example():
    _, index = two_doc_index()
    feedback = [(0, 1.0)]
    eq = rm3_expand(index, Query("q", "cat"), feedback, fb_docs=10, fb_terms=2, orig_weight=0.6)
    assert eq.weights["cat"] == pytest.approx(0.6 + 0.4 * (2 / 3), abs=1e-12)
    assert eq.weights["dog"] == pytest.approx(0.4 * (1 / 3), abs=1e-12)


def test_rm3_orig_weight_one_is_query_only():
    _, index = two_doc_index()
    eq = rm3_expand(index, Query("q", "cat dog"), [(1, 1.0)], orig_weight=1.0)
    assert eq.weights == {"cat": pytest.approx(0.5), "dog": pytest.approx(0.5)}


def test_rm3_orig_weight_zero_is_feedback_distribution():
    _, index = two_doc_index()
    eq = rm3_expand(index, Query("q", "cat"), [(0, 1.0)], orig_weight=0.0)
    assert eq.weights["cat"] == pytest.approx(2 / 3)
    assert eq.weights["dog"] == pytest.approx(1 / 3)


def test_rm3_weights_sum_to_one():
    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(25)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=15)) for i in range(20)}
    index = build_index(make_store(docs))
    for trial in range(25):
        n_fb = rng.randint(1, 8)
        feedback = [(i, 1.0 / (r + 1)) for r, i in enumerate(rng.sample(range(20), n_fb))]
        eq = rm3_expand(
            index,
            Query("q", " ".join(rng.choices(vocab, k=2))),
            feedback,
            fb_docs=rng.randint(1, 10),
            fb_terms=rng.randint(1, 12),
            orig_weight=rng.random(),
        )
        assert sum(eq.weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_rm3_all_zero_scores_fall_back_to_uniform():
    _, index = two_doc_index()
    feedback = [(0, 0.0), (1, 0.0)]
    eq = rm3_expand(index, Query("q", "cat"), feedback, orig_weight=0.0)
    # uniform doc weights: 0.5 * {cat 2/3, dog 1/3} + 0.5 * {dog 1}
    assert eq.weights["cat"] == pytest.approx(0.5 * 2 / 3)
    assert eq.weights["dog"] == pytest.approx(0.5 * 1 / 3 + 0.5)


def test_rm3_validation():
    _, index = two_doc_index()
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [])
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [(0, 1.0)], orig_weight=1.5)
    with pytest.raises(ValueError):
        rm3_expand(index, Query("q", "cat"), [(0, 1.0)], fb_terms=0)


def test_rm3_all_stopword_query_uses_expansion_only():
    _, index = two_doc_index()
    eq = rm3_expand(index, Query("q", "the and of"), [(0, 1.0)], orig_weight=0.6)
    assert eq.weights["cat"] == pytest.approx(2 / 3)
    assert eq.weights["dog"] == pytest.approx(1 / 3)
    assert sum(eq.weights.values()) == pytest.approx(1.0, abs=1e-9)


# --- retrieve_expanded ---


def test_expanded_single_term_matches_bm25():
    _, index = two_doc_index()
    eq = ExpandedQuery({"dog": 0.37})
    expanded = retrieve_expanded(index, eq, 10)
    plain = bm25_retrieve(index, Query("q", "dog"), 10)
    assert [sd.docno for sd in expanded] == [sd.docno for sd in plain]


def test_expanded_exclude_everything():
    _, index = two_doc_index()
    eq = ExpandedQuery({"dog": 1.0})
    assert retrieve_expanded(index, eq, 10, exclude={0, 1}) == []


def test_expanded_weighted_hand_computation():
    _, index = two_doc_index()
    eq = ExpandedQuery({"cat": 0.8667, "dog": 0.1333})
    result = retrieve_expanded(index, eq, 10)
    idf_cat = math.log(1 + (2 - 1 + 0.5) / (1 + 0.5))
    idf_dog = math.log(1 + (2 - 2 + 0.5) / (2 + 0.5))
    d1 = 0.8667 * idf_cat * 2 * 2.2 / (2 + 1.2) + 0.1333 * idf_dog * 1 * 2.2 / (1 + 1.2)
    d2 = 0.1333 * idf_dog * 3 * 2.2 / (3 + 1.2)
    assert [sd.docno for sd in result] == ["d1", "d2"]
    assert result[0].score == pytest.approx(d1, abs=1e-12)
    assert result[1].score == pytest.approx(d2, abs=1e-12)


def test_expanded_scaling_invariance():
    rng = random.Random(6)
    vocab = [f"t{i}" for i in range(15)]
    docs = {f"d{i}": " ".join(rng.choices(vocab, k=8)) for i in range(25)}
    index = build_index(make_store(docs))
    weights = {t: rng.random() + 0.01 for t in rng.sample(vocab, 5)}
    base = retrieve_expanded(index, ExpandedQuery(weights), 25)
    scaled = retrieve_expanded(index, ExpandedQuery({t: 7.3 * w for t, w in weights.items()}), 25)
    assert [sd.docno for sd in base] == [sd.docno for sd in scaled]


# --- persistence ---


def test_index_save_load_roundtrip(tmp_path):
    rng = random.Random(7)
    vocab = [f"t{i}" for i in range(20)]
    docs = {f"d{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(3, 14))) for i in range(30)}
    store = make_store(docs)
    index = build_index(store)
    save_index(index, tmp_path / "idx", dedup=False)
    loaded = load_index(tmp_path / "idx", store)
    assert_same_index(loaded, index)
    assert loaded.avg_doc_length == index.avg_doc_length
    query = Query("q", "t1 t2 t3 t4")
    assert bm25_retrieve(loaded, query, 10) == bm25_retrieve(index, query, 10)


def test_index_files_exact_bytes(tmp_path):
    # two docs, tiny vocabulary: the on-disk layout is checked by hand
    store = make_store({"a": "cat cat dog", "b": "dog"})
    index = build_index(store)
    save_index(index, tmp_path / "idx")
    doclens = (tmp_path / "idx" / "doclens.bin").read_bytes()
    assert doclens == (3).to_bytes(4, "little") + (1).to_bytes(4, "little")
    terms = (tmp_path / "idx" / "terms.dict").read_text().splitlines()
    assert terms == ["cat\t0", "dog\t8"]
    postings = (tmp_path / "idx" / "postings.bin").read_bytes()
    expected = b"".join(
        v.to_bytes(4, "little")
        for v in [0, 2,  # cat: doc 0 tf 2
                  0, 1, 1, 1]  # dog: doc 0 tf 1, delta 1 -> doc 1 tf 1
    )
    assert postings == expected
    assert json.loads((tmp_path / "idx" / "meta.json").read_text())["version"] == 2
    assert (tmp_path / "idx" / "docnos.txt").read_text() == "a\nb\n"


def test_index_load_rejects_store_mismatch(tmp_path):
    store = make_store({"a": "cat", "b": "dog"})
    index = build_index(store)
    save_index(index, tmp_path / "idx")
    bigger = make_store({"a": "cat", "b": "dog", "c": "bird"})
    with pytest.raises(ValueError, match="dedup"):
        load_index(tmp_path / "idx", bigger)


def assert_same_index(loaded, index):
    assert loaded.terms == index.terms
    assert loaded.term_ids == index.term_ids
    for field in CSR_FIELDS:
        a, b = getattr(loaded, field), getattr(index, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.avg_doc_length == index.avg_doc_length


WORDS = st.sampled_from(["ant", "bee", "cat", "the", "dog", "eel"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(WORDS, max_size=8), min_size=1, max_size=12))
def test_index_codec_roundtrip_property(tmp_path_factory, docs):
    # docs may be all stopwords, so zero lengths and an empty index occur
    store = make_store({f"d{i}": " ".join(words) or "the" for i, words in enumerate(docs)})
    index = build_index(store)
    out = tmp_path_factory.mktemp("idx")
    save_index(index, out)
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


def test_csr_engine_matches_dict_reference():
    rng, vocab, store, texts = tie_corpus()
    index = build_index(store)
    ref = refindex.RefIndex(texts)
    straddled = 0
    queries = ["t1 t2 t5", "t3 t4", "t2", "t4 t4 t9"] + [" ".join(rng.choices(vocab, k=3)) for _ in range(20)]
    for text in queries:
        full = refindex.cut(refindex.score_weighted_terms(ref, Counter(tokenize(text))), len(texts))
        for k in range(1, len(full) + 2):
            expected = [(store.docnos[d], s) for d, s in full[:k]]
            got = [(sd.docno, sd.score) for sd in bm25_retrieve(index, Query("q", text), k)]
            assert got == expected, (text, k)
            straddled += 0 < k < len(full) and full[k - 1][1] == full[k][1]
    assert straddled >= 10  # ties really do straddle the k-th place

    for _ in range(40):
        feedback = [(d, 1.0 / (r + 1)) for r, d in enumerate(rng.sample(range(len(texts)), rng.randint(1, 12)))]
        query = " ".join(rng.choices(vocab, k=rng.randint(0, 3)))
        fb_terms = rng.randint(1, 12)
        expanded = rm3_expand(index, Query("q", query), feedback, fb_terms=fb_terms)
        reference = refindex.rm3_weights(ref, query, feedback, fb_terms=fb_terms)
        assert list(expanded.weights.items()) == list(reference.items())
        exclude = set(rng.sample(range(len(texts)), rng.randint(1, 30)))
        scores = refindex.score_weighted_terms(ref, reference)
        for k in (1, 3, 7, 20):
            expected = [(store.docnos[d], s) for d, s in refindex.cut(scores, k, exclude)]
            got = [(sd.docno, sd.score) for sd in retrieve_expanded(index, expanded, k, exclude=exclude)]
            assert got == expected


# --- load-time validation ---


def u32(*values):
    return b"".join(v.to_bytes(4, "little") for v in values)


# built from {"a": "cat cat dog", "b": "dog", "c": "bird cat"}:
# bird -> [(2, 1)], cat -> [(0, 2), (2, 1)], dog -> [(0, 1), (1, 1)]
CORRUPTIONS = {
    "old_version": ("meta.json", b'{"avgdl": 2.0, "dedup": false, "doc_count": 3, "version": 1}',
                    r"meta\.json: unsupported index format version 1 \(expected 2\); rebuild the index"),
    "foreign_docnos": ("docnos.txt", b"b\na\nc\n", r"docnos\.txt:1: docnos do not match"),
    "short_doclens": ("doclens.bin", u32(3, 1), r"doclens\.bin: expected 12 bytes, found 8"),
    "ragged_postings": ("postings.bin", u32(2, 1, 0, 2, 2, 1, 0, 1, 1, 1, 7), r"postings\.bin: 44 bytes"),
    "no_terms": ("terms.dict", b"", r"terms\.dict: no terms, but postings\.bin holds 40 bytes"),
    "no_tab": ("terms.dict", b"bird 0\ncat\t8\ndog\t24\n", r"terms\.dict:1: expected 'term<TAB>offset'"),
    "first_offset": ("terms.dict", b"bird\t8\ncat\t8\ndog\t24\n", r"terms\.dict:1: offset 8 of term 'bird'"),
    "offset_decreases": ("terms.dict", b"bird\t0\ncat\t24\ndog\t8\n", r"terms\.dict:3: offset 8 of term 'dog'"),
    "offset_unaligned": ("terms.dict", b"bird\t0\ncat\t12\ndog\t24\n", r"terms\.dict:2: offset 12 of term 'cat'"),
    "offset_past_end": ("terms.dict", b"bird\t0\ncat\t8\ndog\t48\n", r"terms\.dict:3: offset 48 of term 'dog'"),
    "unsorted_terms": ("terms.dict", b"cat\t0\nbird\t8\ndog\t24\n", r"terms\.dict:2: term 'bird' is not after 'cat'"),
    "duplicate_term": ("terms.dict", b"bird\t0\nbird\t8\ndog\t24\n", r"terms\.dict:2: term 'bird' is not after"),
    "ids_not_increasing": ("postings.bin", u32(2, 1, 0, 2, 0, 1, 0, 1, 1, 1),
                           r"postings\.bin: term 'cat': doc ids do not strictly increase"),
    "id_out_of_range": ("postings.bin", u32(3, 1, 0, 2, 2, 1, 0, 1, 1, 1),
                        r"postings\.bin: term 'bird': doc id is not below doc_count 3"),
    "zero_tf": ("postings.bin", u32(2, 1, 0, 2, 2, 1, 0, 1, 1, 0), r"postings\.bin: term 'dog': tf is 0"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_index_load_rejects_corruption(tmp_path, case):
    store = make_store({"a": "cat cat dog", "b": "dog", "c": "bird cat"})
    save_index(build_index(store), tmp_path)
    load_index(tmp_path, store)  # the intact directory loads
    name, data, message = CORRUPTIONS[case]
    (tmp_path / name).write_bytes(data)
    with pytest.raises(ValueError, match=message):
        load_index(tmp_path, store)
