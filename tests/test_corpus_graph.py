import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import graph_from_dict, make_store
from slidegar.corpus_graph import (
    BLOCK_BYTES,
    SENTINEL,
    build_graph_dense,
    build_graph_lexical,
    load_graph,
    neighbours,
    save_graph,
)
from slidegar.lexical_index import build_index, tokenize


def dense_matrix(vectors):
    return np.asarray(vectors, dtype=np.float32)


def brute_force_dense(matrix, k):
    """Independent oracle: python loops over every pair."""
    n = len(matrix)
    rows = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            sim = float(np.dot(matrix[i], matrix[j]))
            scored.append((-sim, j))
        scored.sort()
        rows.append([j for _, j in scored[:k]])
    return rows


def full_matrix_dense(matrix, k):
    """The build before row blocks: one N x N product, a stable sort of every row."""
    sims = matrix @ matrix.T
    np.fill_diagonal(sims, -np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def permuted_rows(n, seed):
    """Rows that permute a few base rows of non-dyadic values: many inner
    products are equal in exact arithmetic but round differently, so a
    product summed in another order (gemv instead of gemm) reorders them."""
    rng = np.random.default_rng(seed)
    base = rng.choice(np.array([0.1, 0.2, 0.3, 0.7, 1.1], dtype=np.float32), size=(8, 32))
    return np.stack([base[i % 8][rng.permutation(32)] for i in range(n)])


def brute_force_lexical(texts, k):
    """Independent oracle: direct BM25 formula over token lists for all pairs."""
    tokens = [tokenize(t) for t in texts]
    n = len(tokens)
    avgdl = sum(len(t) for t in tokens) / n
    df = Counter(term for toks in tokens for term in set(toks))
    rows = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            tf = Counter(tokens[j])
            score = 0.0
            for term in tokens[i]:  # query-token multiset, weight via multiplicity
                if term not in tf:
                    continue
                idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
                norm = 1.2 * (1 - 0.75 + 0.75 * len(tokens[j]) / avgdl)
                score += idf * tf[term] * 2.2 / (tf[term] + norm)
            if score > 0:
                scored.append((-score, j))
        scored.sort()
        rows.append([j for _, j in scored[:k]])
    return rows


def adjacency_rows(graph):
    return [[x for x in row if x != SENTINEL] for row in graph.tolist()]


# --- builders ---


def test_lexical_near_identical_docs_point_at_each_other():
    store = make_store({
        "a": "cat dog bird stone",
        "b": "cat dog bird river",
        "c": "cat dog bird cloud",
    })
    graph = build_graph_lexical(build_index(store.texts), store, 2)
    for i in range(3):
        assert set(graph[i].tolist()) == {0, 1, 2} - {i}


def test_lexical_isolated_doc_gets_sentinels():
    store = make_store({
        "a": "cat dog",
        "b": "cat dog bird",
        "c": "zebra quux",
    })
    graph = build_graph_lexical(build_index(store.texts), store, 2)
    assert graph[2].tolist() == [SENTINEL, SENTINEL]


def test_lexical_matches_exhaustive_oracle():
    rng = random.Random(21)
    vocab = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(50)]
    store = make_store({f"d{i:02d}": t for i, t in enumerate(texts)})
    graph = build_graph_lexical(build_index(store.texts), store, 4)
    assert adjacency_rows(graph) == brute_force_lexical(texts, 4)


def test_dense_two_separated_clusters():
    rng = np.random.default_rng(22)
    cluster_a = rng.normal(0, 0.05, size=(5, 2)) + np.array([10.0, 0.0])
    cluster_b = rng.normal(0, 0.05, size=(5, 2)) + np.array([0.0, 10.0])
    graph = build_graph_dense(dense_matrix(np.vstack([cluster_a, cluster_b])), 4)
    for i in range(5):
        assert set(graph[i].tolist()) == {0, 1, 2, 3, 4} - {i}
    for i in range(5, 10):
        assert set(graph[i].tolist()) == {5, 6, 7, 8, 9} - {i}


def test_dense_k_equals_n_minus_one_is_full_sort():
    matrix = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5]], dtype=np.float32)
    graph = build_graph_dense(dense_matrix(matrix), 3)
    assert adjacency_rows(graph) == brute_force_dense(matrix, 3)
    assert not (graph == SENTINEL).any()


def test_dense_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    matrix = rng.normal(size=(64, 6)).astype(np.float32)
    graph = build_graph_dense(dense_matrix(matrix), 8)
    assert adjacency_rows(graph) == brute_force_dense(matrix, 8)


def test_blocked_dense_matches_full_matrix_with_ties_at_the_cut():
    rng = np.random.default_rng(27)
    matrix = np.repeat(rng.normal(size=(60, 6)).astype(np.float32), 5, axis=0)[rng.permutation(300)]
    expected = full_matrix_dense(matrix, 8)
    keys = -(matrix @ matrix.T)
    np.fill_diagonal(keys, np.inf)
    keys.sort(axis=1)
    assert (keys[:, 7] == keys[:, 8]).sum() > 100  # ties straddle the k-th place
    assert np.array_equal(build_graph_dense(dense_matrix(matrix), 8), expected)


def test_blocked_dense_matches_full_matrix_over_several_blocks():
    matrix = permuted_rows(2500, 28)
    assert 2500 // (BLOCK_BYTES // (4 * 2500)) >= 4
    assert np.array_equal(build_graph_dense(dense_matrix(matrix), 16), full_matrix_dense(matrix, 16))


def test_blocked_dense_never_builds_a_one_row_block():
    n = next(n for n in range(1500, 4000) if n % (BLOCK_BYTES // (4 * n)) == 1)
    matrix = permuted_rows(n, 29)
    # The tail row scores every permutation of a base row equally in exact
    # arithmetic, so its top k is decided by the rounding of each sum.
    matrix[-1] = np.float32(0.1)
    assert np.array_equal(build_graph_dense(dense_matrix(matrix), 16), full_matrix_dense(matrix, 16))


def test_builders_reject_k_not_below_corpus_size():
    store = make_store({"a": "cat", "b": "cat", "c": "cat"})
    index = build_index(store.texts)
    with pytest.raises(ValueError):
        build_graph_lexical(index, store, 3)
    with pytest.raises(ValueError):
        build_graph_dense(dense_matrix(np.eye(3)), 3)
    with pytest.raises(ValueError):
        build_graph_dense(dense_matrix(np.eye(3)), 0)


def test_build_invariant_under_insertion_order():
    rng = np.random.default_rng(24)
    names = [f"d{i}" for i in range(20)]
    vectors = rng.normal(size=(20, 4)).astype(np.float32)
    graph_a = build_graph_dense(dense_matrix(vectors), 5)

    perm = list(range(20))
    random.Random(1).shuffle(perm)
    names_b = [names[i] for i in perm]
    graph_b = build_graph_dense(dense_matrix(vectors[perm]), 5)

    def as_docnos(graph, docnos):
        return {
            docnos[i]: [docnos[j] for j in row if j != SENTINEL]
            for i, row in enumerate(graph.tolist())
        }

    assert as_docnos(graph_a, names) == as_docnos(graph_b, names_b)


# --- neighbours ---


def test_neighbours_two_source_example():
    names = ["d2", "d4", "d7", "d8", "d9"]
    graph = graph_from_dict({"d4": ["d7", "d9"], "d2": ["d9", "d8"]}, names, 2)
    order = [names.index("d4"), names.index("d2")]
    result = [names[i] for i in neighbours(graph, order, 2)]
    assert result == ["d7", "d9", "d8"]


def test_neighbours_empty_batch():
    graph = graph_from_dict({}, ["a", "b"], 1)
    assert neighbours(graph, [], 1) == []


def test_neighbours_truncation_one_per_source():
    names = ["s1", "s2", "s3", "n1", "n2", "n3", "n4"]
    graph = graph_from_dict(
        {"s1": ["n1", "n4"], "s2": ["n2", "n4"], "s3": ["n3", "n4"]}, names, 2
    )
    order = [names.index(s) for s in ["s1", "s2", "s3"]]
    result = [names[i] for i in neighbours(graph, order, 1)]
    assert result == ["n1", "n2", "n3"]
    assert len(result) <= 3


def test_neighbours_keeps_batch_members_and_deduplicates():
    names = ["a", "b", "c", "d"]
    graph = graph_from_dict({"a": ["b", "c"], "b": ["c", "d"]}, names, 2)
    order = [names.index("a"), names.index("b")]
    result = [names[i] for i in neighbours(graph, order, 2)]
    assert result == ["b", "c", "d"]  # b kept (the window loop drops ranked ids), c deduplicated


def test_neighbours_truncation_monotone():
    # Deepening the truncation never loses a candidate. The stronger
    # subsequence form conflicts with the earliest-slot dedup rule when a
    # candidate is shared across sources at different depths, so exact
    # order preservation is only asserted on dedup-free batches below.
    rng = random.Random(25)
    names = [f"d{i}" for i in range(15)]
    adjacency = {
        n: rng.sample([m for m in names if m != n], 6) for n in names
    }
    graph = graph_from_dict(adjacency, names, 6)
    for _ in range(20):
        sources = rng.sample(names, rng.randint(1, 5))
        order = [names.index(s) for s in sources]
        for tk in range(0, 6):
            shallow = neighbours(graph, order, tk)
            deeper = neighbours(graph, order, tk + 1)
            assert set(shallow) <= set(deeper)
            assert len(set(shallow)) == len(shallow)
            assert set(shallow) == set(graph[order, :tk].ravel().tolist()) - {SENTINEL}


def test_neighbours_truncate_subsequence_when_sources_disjoint():
    names = ["s1", "s2", "a", "b", "c", "d", "e", "f"]
    graph = graph_from_dict({"s1": ["a", "b", "c"], "s2": ["d", "e", "f"]}, names, 3)
    order = [names.index("s1"), names.index("s2")]
    deep = neighbours(graph, order, 3)
    for tk in range(0, 4):
        shallow = neighbours(graph, order, tk)
        it = iter(deep)
        assert all(x in it for x in shallow)  # subsequence of the deeper output


def test_neighbours_truncate_k_validation():
    graph = graph_from_dict({}, ["a", "b"], 2)
    with pytest.raises(ValueError):
        neighbours(graph, [0], 3)
    assert neighbours(graph, [0], 0) == []


# --- persistence ---


def test_graph_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(26)
    names = [f"doc{i:02d}" for i in range(12)]
    graph = build_graph_dense(dense_matrix(rng.normal(size=(12, 3)).astype(np.float32)), 4)
    store = make_store({n: "text" for n in names})
    save_graph(tmp_path / "graph.bin", graph, "dense", store)
    loaded = load_graph(tmp_path / "graph.bin", store)
    assert loaded.dtype == np.uint32 and loaded.shape == (len(names), 4)
    assert (loaded == graph).all()
    docnos_txt = (tmp_path / "docnos.txt").read_text().splitlines()
    assert docnos_txt == names


def test_graph_header_fields(tmp_path):
    import json

    store = make_store({"a": "cat dog", "b": "cat dog", "c": "zebra foo"})
    graph = build_graph_lexical(build_index(store.texts), store, 2)
    save_graph(tmp_path / "g.bin", graph, "lexical", store)
    with open(tmp_path / "g.bin", "rb") as f:
        header = json.loads(f.readline())
    assert header == {"version": 1, "k": 2, "count": 3, "source": "lexical", "sentinel": 4294967295}
    loaded = load_graph(tmp_path / "g.bin", store)
    assert loaded[2].tolist() == [SENTINEL, SENTINEL]


def test_graph_load_rejects_bad_sizes(tmp_path):
    store = make_store({"a": "cat dog", "b": "cat dog"})
    graph = build_graph_lexical(build_index(store.texts), store, 1)
    save_graph(tmp_path / "g.bin", graph, "lexical", store)
    data = (tmp_path / "g.bin").read_bytes()
    (tmp_path / "g.bin").write_bytes(data[:-4])
    with pytest.raises(ValueError, match=r"g\.bin: expected 8 bytes, found 4$"):
        load_graph(tmp_path / "g.bin", store)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"not json", r"g\.bin: invalid graph header \("),
        (b"[1, 2]", r"g\.bin: invalid graph header \(not a JSON object\)"),
        (b'{"count": 2, "version": 1}', r"g\.bin: invalid graph header \('k'\)"),
        (
            b'{"count": 2, "k": 1, "sentinel": 4294967295, "source": "bogus", "version": 1}',
            r"g\.bin: invalid graph header \(unknown similarity source 'bogus'\)$",
        ),
        (
            b'{"count": 2, "k": 1.9, "sentinel": 4294967295, "source": "lexical", "version": 1}',
            r"g\.bin: invalid graph header \(k must be a non-negative integer, got 1\.9\)$",
        ),
        (
            b'{"count": 2, "k": true, "sentinel": 4294967295, "source": "lexical", "version": 1}',
            r"g\.bin: invalid graph header \(k must be a non-negative integer, got True\)$",
        ),
        (
            b'{"count": "2", "k": 1, "sentinel": 4294967295, "source": "lexical", "version": 1}',
            r"g\.bin: invalid graph header \(count must be a non-negative integer, got '2'\)$",
        ),
        (
            b'{"count": -2, "k": -1, "sentinel": 4294967295, "source": "lexical", "version": 1}',
            r"g\.bin: invalid graph header \(k must be a non-negative integer, got -1\)$",
        ),
    ],
)
def test_graph_load_rejects_malformed_header(tmp_path, header, message):
    store = make_store({"a": "cat dog", "b": "cat dog"})
    save_graph(tmp_path / "g.bin", build_graph_lexical(build_index(store.texts), store, 1), "lexical", store)
    body = (tmp_path / "g.bin").read_bytes().split(b"\n", 1)[1]
    (tmp_path / "g.bin").write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=message):
        load_graph(tmp_path / "g.bin", store)


def test_graph_save_rejects_an_unknown_source(tmp_path):
    store = make_store({"a": "cat dog", "b": "cat dog"})
    graph = build_graph_lexical(build_index(store.texts), store, 1)
    with pytest.raises(ValueError, match="^unknown similarity source 'bm25'$"):
        save_graph(tmp_path / "g.bin", graph, "bm25", store)
    assert not (tmp_path / "g.bin").exists()


def test_graph_load_rejects_neighbour_ids_out_of_range(tmp_path):
    store = make_store({"a": "cat dog", "b": "cat bird", "c": "dog bird"})
    graph = build_graph_lexical(build_index(store.texts), store, 2)
    graph[1, 1] = 3  # == count: not a doc id and not the sentinel
    graph[2, 0] = 7
    save_graph(tmp_path / "g.bin", graph, "lexical", store)
    with pytest.raises(ValueError, match=r"g\.bin: row 1: neighbour id 3 is not below count 3"):
        load_graph(tmp_path / "g.bin", store)
    graph[1:, :] = SENTINEL  # sentinels are not ids
    save_graph(tmp_path / "g.bin", graph, "lexical", store)
    assert load_graph(tmp_path / "g.bin", store)[1:].tolist() == [[SENTINEL] * 2] * 2


def test_graph_load_holds_one_copy_of_the_adjacency(tmp_path):
    """Traced allocations of a load peak near the one matrix it returns: the
    body is read straight into it and the id check copies nothing."""
    n, k = 20_000, 16
    rng = np.random.default_rng(3)
    graph = rng.integers(0, n, size=(n, k), dtype=np.uint32)
    graph[rng.random((n, k)) < 0.05] = SENTINEL
    store = make_store({f"d{i}": "text" for i in range(n)})
    save_graph(tmp_path / "g.bin", graph, "dense", store)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_graph(tmp_path / "g.bin", store)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded, graph) and loaded.flags.writeable
    assert peak <= 1.5 * loaded.nbytes, peak / loaded.nbytes


def test_graph_load_rejects_docnos_of_another_corpus(tmp_path):
    store = make_store({"a": "cat dog", "b": "cat bird", "c": "dog bird"})
    save_graph(tmp_path / "g.bin", build_graph_lexical(build_index(store.texts), store, 1), "lexical", store)
    reordered = make_store({"a": "cat dog", "c": "dog bird", "b": "cat bird"})
    with pytest.raises(ValueError, match=r"docnos\.txt:2: docnos do not match"):
        load_graph(tmp_path / "g.bin", reordered)
    assert len(load_graph(tmp_path / "g.bin", store)) == 3
