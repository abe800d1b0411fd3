import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_store
from slidegar import dense_index
from slidegar.cli import main
from slidegar.corpus_store import Query
from slidegar.dense_index import (
    copy_embeddings,
    dense_retrieve,
    load_embeddings,
    load_query_embeddings,
    top_k_ids,
    write_embeddings,
)


def write_table(path, dim, rows):
    write_embeddings(path, dim, rows)
    return path


def store_for(names):
    return make_store({n: f"text of {n}" for n in names})


def test_load_three_docs(tmp_path):
    store = store_for(["a", "b", "c"])
    path = write_table(tmp_path / "e.bin", 4, [(n, [i, 0, 0, 1]) for i, n in enumerate(["a", "b", "c"])])
    matrix = load_embeddings(path, store)
    assert matrix.shape == (3, 4) and matrix.dtype == np.float32
    assert matrix[store.id_of["b"]].tolist() == [1, 0, 0, 1]


def test_records_of_dedup_dropped_twins_are_skipped(tmp_path):
    # copy_embeddings, as dedup writes them: the dropped twin's record is left out
    rows = [("a", [1, 0]), ("b", [5, 5]), ("c", [0, 1])]
    assert copy_embeddings(write_table(tmp_path / "e.bin", 2, rows), tmp_path / "out.bin", {"b", "ghost"}) == 2
    assert (tmp_path / "out.bin").read_bytes() == write_table(tmp_path / "kept.bin", 2, [rows[0], rows[2]]).read_bytes()
    # the kept twin's row comes from its own record, and a store never maps a dropped twin
    store = make_store({"a": "cat dog", "c": "dog bird"})
    assert load_embeddings(tmp_path / "out.bin", store).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="record 2: docno 'b' not in store"):
        load_embeddings(tmp_path / "e.bin", store)


def test_nan_vector_fatal(tmp_path):
    store = store_for(["a", "b"])
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [float("nan"), 1])])
    with pytest.raises(ValueError, match="record 2.*non-finite"):
        load_embeddings(path, store)


def test_missing_store_doc_fatal_names_docno(tmp_path):
    store = store_for(["a", "b", "c"])
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("c", [0, 1])])
    with pytest.raises(ValueError, match="'b'"):
        load_embeddings(path, store)


def test_unknown_docno_fatal_with_record_index(tmp_path):
    store = store_for(["a"])
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("ghost", [0, 1])])
    with pytest.raises(ValueError, match="record 2"):
        load_embeddings(path, store)


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_unknown_docno_error_closes_the_file(tmp_path, monkeypatch):
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    store = store_for(["a"])
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("ghost", [0, 1]), ("b", [1, 1])])
    monkeypatch.setattr(dense_index, "open", tracking_open, raising=False)
    with pytest.raises(ValueError, match="record 2") as excinfo:
        load_embeddings(path, store)
    # the traceback still holds load_embeddings' frame; the file is closed anyway
    assert excinfo.value.__traceback__ is not None
    assert len(opened) == 1 and opened[0].closed


def test_truncated_file_fatal(tmp_path):
    store = store_for(["a", "b"])
    path = write_table(tmp_path / "e.bin", 3, [("a", [1, 0, 0]), ("b", [0, 1, 0])])
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_embeddings(path, store)


@pytest.mark.parametrize("count, tail, message", [
    (3, b"", "record 3: truncated file"),  # the file ends where a length field starts
    (3, b"\x01\x00", "record 3: truncated file"),  # and within one
    (2, b"\x00", "trailing bytes after 2 records"),
], ids=["length_missing", "length_cut", "trailing_byte"])
def test_record_count_must_match_the_body(tmp_path, count, tail, message):
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [0, 1])])
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(json.dumps({"count": count, "dim": 2}).encode() + b"\n" + body + tail)
    with pytest.raises(ValueError) as raised:
        load_embeddings(path, store_for(["a", "b"]))
    assert str(raised.value) == f"{path}: {message}"


def test_duplicate_docno_fatal_with_record_index(tmp_path):
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("a", [0, 1])])
    with pytest.raises(ValueError) as raised:
        load_embeddings(path, store_for(["a"]))
    assert str(raised.value) == f"{path}: record 2: duplicate docno 'a'"


def test_write_rejects_a_vector_of_the_wrong_shape(tmp_path):
    with pytest.raises(ValueError) as raised:
        write_embeddings(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [0, 1, 0])])
    assert str(raised.value) == "vector for 'b' has shape (3,), expected (2,)"


@pytest.mark.parametrize(
    "header, message",
    [
        (b"not json", r"e\.bin: invalid embedding header \("),
        (b'{"count": 2, "dim": "2"}', r"e\.bin: invalid embedding header \(dim must be an integer, got '2'\)"),
        (b'{"count": 2, "dim": 2.7}', r"e\.bin: invalid embedding header \(dim must be an integer, got 2\.7\)"),
        (b'{"count": 2.5, "dim": 2}', r"e\.bin: invalid embedding header \(count must be an integer, got 2\.5\)"),
        (b'{"count": 2, "dim": 0}', r"e\.bin: invalid embedding header values dim=0 count=2$"),
        (b'{"count": -1, "dim": 2}', r"e\.bin: invalid embedding header values dim=2 count=-1$"),
    ],
    ids=["not-json", "dim-str", "dim-float", "count-float", "dim-0", "count-negative"],
)
def test_header_validation(tmp_path, header, message):
    # the records are a valid dim-2 body, so only the header can fail
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [0, 1])])
    body = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=message):
        load_embeddings(path, store_for(["a", "b"]))


def test_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "e.bin"
    path.write_bytes(b"[1, 2]\n")
    with pytest.raises(ValueError, match=r"e\.bin: invalid embedding header \("):
        load_embeddings(path, store_for(["a"]))


def test_vectors_are_read_as_written(tmp_path):
    # no transform at load: a vector of any length, zero included, is its row
    path = write_table(tmp_path / "e.bin", 2, [("a", [3.0, 4.0]), ("b", [0, 0])])
    assert load_embeddings(path, store_for(["a", "b"])).tolist() == [[3.0, 4.0], [0, 0]]


def test_dense_retrieve_orthogonal(tmp_path):
    store = store_for(["d0", "d1"])
    path = write_table(tmp_path / "e.bin", 2, [("d0", [1, 0]), ("d1", [0, 1])])
    matrix = load_embeddings(path, store)
    assert dense_retrieve(matrix, np.array([1.0, 0.0]), 1) == [store.id_of["d0"]]


def test_dense_retrieve_k_past_corpus_returns_all_sorted(tmp_path):
    store = store_for(["a", "b", "c"])
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [3, 0]), ("c", [2, 0])])
    matrix = load_embeddings(path, store)
    result = dense_retrieve(matrix, np.array([1.0, 0.0]), 99)
    assert [store.docnos[i] for i in result] == ["b", "c", "a"]


def test_dense_retrieve_k_validation(tmp_path):
    store = store_for(["a"])
    matrix = load_embeddings(write_table(tmp_path / "e.bin", 2, [("a", [1, 0])]), store)
    with pytest.raises(ValueError):
        dense_retrieve(matrix, np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError):
        dense_retrieve(matrix, np.array([1.0, 0.0, 0.0]), 1)


def test_dense_retrieve_matches_full_sort_oracle(tmp_path):
    rng = np.random.default_rng(11)
    names = [f"d{i:03d}" for i in range(100)]
    vectors = rng.normal(size=(100, 8)).astype(np.float32)
    store = store_for(names)
    matrix = load_embeddings(
        write_table(tmp_path / "e.bin", 8, list(zip(names, vectors))), store
    )
    query = rng.normal(size=8).astype(np.float32)
    got = [store.docnos[i] for i in dense_retrieve(matrix, query, 10)]
    # independent oracle: full python sort over explicitly computed dot products
    scored = [(-float(np.dot(v, query)), i) for i, v in enumerate(vectors)]
    scored.sort()
    expected = [names[i] for _, i in scored[:10]]
    assert got == expected


def test_dense_retrieve_prefix_property(tmp_path):
    rng = np.random.default_rng(12)
    names = [f"d{i}" for i in range(40)]
    vectors = rng.normal(size=(40, 6)).astype(np.float32)
    matrix = load_embeddings(
        write_table(tmp_path / "e.bin", 6, list(zip(names, vectors))), store_for(names)
    )
    query = rng.normal(size=6)
    for k in range(1, 15):
        assert dense_retrieve(matrix, query, k) == dense_retrieve(matrix, query, k + 1)[:k]


def test_insertion_order_determinism(tmp_path):
    rng = np.random.default_rng(13)
    names = [f"d{i}" for i in range(25)]
    vectors = rng.normal(size=(25, 5)).astype(np.float32)
    rows = list(zip(names, vectors))
    matrix_a = load_embeddings(write_table(tmp_path / "a.bin", 5, rows), store_for(names))
    shuffled_names = names[:]
    random.Random(0).shuffle(shuffled_names)
    by_name = dict(rows)
    matrix_b = load_embeddings(
        write_table(tmp_path / "b.bin", 5, [(n, by_name[n]) for n in shuffled_names]),
        store_for(shuffled_names),
    )
    query = rng.normal(size=5)
    assert [names[i] for i in dense_retrieve(matrix_a, query, 10)] == [
        shuffled_names[i] for i in dense_retrieve(matrix_b, query, 10)
    ]


def test_write_format_exact_bytes(tmp_path):
    path = write_table(tmp_path / "e.bin", 2, [("ab", [1.0, 2.0])])
    raw = path.read_bytes()
    header, _, body = raw.partition(b"\n")
    assert json.loads(header) == {"dim": 2, "count": 1, "normalized": False}
    assert body == struct.pack("<I", 2) + b"ab" + struct.pack("<2f", 1.0, 2.0)


def test_load_query_embeddings(tmp_path):
    path = write_table(tmp_path / "q.bin", 3, [("q1", [1, 0, 0]), ("q2", [0, 1, 0])])
    vectors = load_query_embeddings(path, [Query("q1", "x"), Query("q2", "y")])
    assert set(vectors) == {"q1", "q2"}
    with pytest.raises(ValueError, match="'q3'"):
        load_query_embeddings(path, [Query("q3", "z")])


def test_duplicate_qid_fatal_with_record_index(tmp_path):
    path = write_table(tmp_path / "q.bin", 2, [("q1", [1, 0]), ("q2", [0, 1]), ("q1", [1, 1])])
    with pytest.raises(ValueError, match=r"q\.bin: record 3: duplicate qid 'q1'"):
        load_query_embeddings(path, [Query("q1", "x"), Query("q2", "y")])


def test_non_utf8_docno_fatal_with_record_index(tmp_path, capsys):
    path = write_table(tmp_path / "e.bin", 2, [("a", [1, 0]), ("b", [0, 1])])
    data = path.read_bytes()
    # the second record's one-byte docno 'b' becomes a lone continuation byte
    at = data.index(struct.pack("<I", 1) + b"b") + 4
    path.write_bytes(data[:at] + b"\x80" + data[at + 1 :])
    with pytest.raises(ValueError, match=r"e\.bin: record 2: docno is not valid UTF-8"):
        load_embeddings(path, store_for(["a", "b"]))
    (tmp_path / "c.tsv").write_text("a\ttext a\nb\ttext b\n", encoding="utf-8")
    args = ["build-graph", "--corpus", str(tmp_path / "c.tsv"), "--source", "dense", "--embeddings", str(path)]
    assert main(args + ["--k", "1", "--out", str(tmp_path / "graph.bin")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "record 2" in err[0]


# few distinct values, so most rows hold ties at the k-th place
KEYS = st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0, np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.data())
def test_top_k_ids_is_a_stable_sort_prefix(n_rows, n_cols, data):
    row = st.lists(KEYS, min_size=n_cols, max_size=n_cols)
    keys = np.array(data.draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    k = data.draw(st.integers(1, n_cols + 1))
    assert np.array_equal(top_k_ids(keys, k), np.argsort(keys, axis=1, kind="stable")[:, :k])
