"""Precomputed-embedding loading and exact inner-product retrieval.

Embedding file format: one JSON header line
``{"dim": D, "count": N, "normalized": false}`` followed by N binary records
``u32 docno_length | docno utf-8 bytes | D little-endian f32``. The
``normalized`` field is fixed and never read.

Vectors are ingested as written, never computed or transformed here:
``load_embeddings`` returns a ``(n_docs, D)`` float32 matrix whose row i
belongs to store doc id i, and similarity is the inner product. For cosine
similarity, write unit vectors.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Container, Iterable, Iterator

import numpy as np

from .corpus_store import CorpusStore, Query


def write_embeddings(path: str | Path, dim: int, records: Iterable[tuple[str, Iterable[float]]]) -> int:
    """Write records to the binary embedding format; returns the count."""
    rows = [(docno, np.asarray(vec, dtype="<f4")) for docno, vec in records]
    for docno, vec in rows:
        if vec.shape != (dim,):
            raise ValueError(f"vector for {docno!r} has shape {vec.shape}, expected ({dim},)")
    with open(path, "wb") as f:
        _write(f, dim, len(rows), rows)
    return len(rows)


def _write(f: BinaryIO, dim: int, count: int, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    """The header, then the ``count`` rows of ``(docno, <f4 vector of dim)``."""
    f.write(json.dumps({"dim": dim, "count": count, "normalized": False}, sort_keys=True).encode("utf-8") + b"\n")
    for docno, vec in rows:
        encoded = docno.encode("utf-8")
        f.write(struct.pack("<I", len(encoded)))
        f.write(encoded)
        f.write(vec.tobytes())


def _records(f: BinaryIO, path: str | Path, dim: int, count: int) -> Iterator[tuple[int, str, np.ndarray]]:
    vec_bytes = 4 * dim
    for record_idx in range(1, count + 1):
        len_raw = f.read(4)
        if len(len_raw) != 4:
            raise ValueError(f"{path}: record {record_idx}: truncated file")
        (docno_len,) = struct.unpack("<I", len_raw)
        docno_raw = f.read(docno_len)
        vec_raw = f.read(vec_bytes)
        if len(docno_raw) != docno_len or len(vec_raw) != vec_bytes:
            raise ValueError(f"{path}: record {record_idx}: truncated file")
        try:
            docno = docno_raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: record {record_idx}: docno is not valid UTF-8 ({exc.reason})") from None
        vector = np.frombuffer(vec_raw, dtype="<f4")
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"{path}: record {record_idx}: non-finite value for docno {docno!r}")
        yield record_idx, docno, vector
    if f.read(1):
        raise ValueError(f"{path}: trailing bytes after {count} records")


@contextmanager
def _open_records(path: str | Path) -> Iterator[tuple[dict, Iterator[tuple[int, str, np.ndarray]]]]:
    """Header and (record index, docno, vector) iterator of an embedding
    file. The file is closed when the ``with`` block exits, also when the
    caller stops iterating early or raises."""
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
            dim, count = header["dim"], header["count"]
            for name, value in (("dim", dim), ("count", count)):
                if type(value) is not int:  # bool is an int subclass and is rejected too
                    raise ValueError(f"{name} must be an integer, got {value!r}")
        except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
            raise ValueError(f"{path}: invalid embedding header ({exc})") from None
        if dim < 1 or count < 0:
            raise ValueError(f"{path}: invalid embedding header values dim={dim} count={count}")
        yield header, _records(f, path, dim, count)


def load_embeddings(path: str | Path, store: CorpusStore) -> np.ndarray:
    """The ``(len(store), dim)`` float32 matrix of every store document's
    vector, row i for doc id i.

    Fatal on: a record whose docno is not UTF-8 or unknown to the store, a
    duplicate record, a non-finite component (all reported with the record
    index), and on any store document the file does not cover (reported by
    docno).
    """
    with _open_records(path) as (header, records):
        matrix = np.zeros((len(store), header["dim"]), dtype=np.float32)
        filled = np.zeros(len(store), dtype=bool)
        for record_idx, docno, vector in records:
            doc_id = store.id_of.get(docno)
            if doc_id is None:
                raise ValueError(f"{path}: record {record_idx}: docno {docno!r} not in store")
            if filled[doc_id]:
                raise ValueError(f"{path}: record {record_idx}: duplicate docno {docno!r}")
            matrix[doc_id] = vector
            filled[doc_id] = True
    if not filled.all():
        missing = store.docnos[int(np.flatnonzero(~filled)[0])]
        raise ValueError(f"{path}: no vector for store docno {missing!r}")
    return matrix


def copy_embeddings(path: str | Path, out: str | Path, skipped: Container[str]) -> int:
    """Write the records of the embedding file at ``path`` to ``out``, but
    those of the docnos in ``skipped``; returns the count written. A first
    pass checks the file and counts the kept records for the header, so the
    copy holds no record and a bad file leaves ``out`` unopened."""
    with _open_records(path) as (_, records):
        count = sum(docno not in skipped for _, docno, _ in records)
    with _open_records(path) as (header, records), open(out, "wb") as f:
        _write(f, header["dim"], count, ((docno, vec) for _, docno, vec in records if docno not in skipped))
    return count


def load_query_embeddings(path: str | Path, queries: list[Query]) -> dict[str, np.ndarray]:
    """Load query vectors (qid stored in the docno slot); every query must be
    covered, and a qid may have only one record."""
    vectors: dict[str, np.ndarray] = {}
    with _open_records(path) as (_, records):
        for record_idx, qid, vector in records:
            if qid in vectors:
                raise ValueError(f"{path}: record {record_idx}: duplicate qid {qid!r}")
            vectors[qid] = vector
    for query in queries:
        if query.qid not in vectors:
            raise ValueError(f"{path}: no vector for qid {query.qid!r}")
    return vectors


def top_k_ids(keys: np.ndarray, k: int) -> np.ndarray:
    """Per row of the 2-D ``keys``, the column ids of its k smallest values
    ordered by (value, column id): ``np.argsort(keys, axis=1,
    kind="stable")[:, :k]`` without sorting whole rows. Rank scores by
    passing them negated."""
    if k >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")
    part = np.argpartition(keys, k - 1, axis=1)[:, :k]
    values = np.take_along_axis(keys, part, axis=1)
    top = np.take_along_axis(part, np.lexsort((part, values), axis=1), axis=1)
    # A row with more than k columns at or below its k-th value has a tie
    # straddling the cut, and argpartition kept an arbitrary part of it:
    # take the lowest ids among all of them. ``~(keys > kth)`` rather than
    # ``keys <= kth``, so that a NaN k-th value keeps every column.
    at_or_below = ~(keys > values.max(axis=1)[:, None])
    for row in np.flatnonzero(np.count_nonzero(at_or_below, axis=1) > k):
        cols = np.flatnonzero(at_or_below[row])
        top[row] = cols[np.argsort(keys[row, cols], kind="stable")[:k]]
    return top


def dense_retrieve(matrix: np.ndarray, query_vector: np.ndarray, k: int) -> list[int]:
    """Exact top-k doc ids of the embedding ``matrix`` by inner product,
    best first; ties by doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query_vector, dtype=np.float32)
    if query.shape != matrix.shape[1:]:
        raise ValueError(f"query vector has shape {query.shape}, embedding dim is {matrix.shape[1]}")
    scores = matrix @ query
    return top_k_ids(-scores[None, :], k)[0].tolist()
