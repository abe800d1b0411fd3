"""Fixed-degree document-similarity graph with constant-time neighbour lookup.

Graph file: one JSON header line
``{"version": 1, "k": K, "count": N, "source": "lexical"|"dense", "sentinel": 4294967295}``
followed by N fixed-width rows of K little-endian u32 neighbour ids; row i
belongs to doc id i and the sentinel value marks an unused slot. A companion
``docnos.txt`` in the same directory lists the store's docnos, one per line
in doc-id order. The graph holds store ids only, so it loads only against a
store whose docnos match ``docnos.txt`` line for line.

Graphs are built once at full depth (k=16 by default) and shallower depths
are realized at query time by truncating each neighbour list, never by
rebuilding. The dense build is exact and blocked: a block of rows is
scored against the whole corpus at a time, so its memory is O(block x N),
never N x N.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from .corpus_store import CorpusStore, check_docnos, write_docnos
from .dense_index import top_k_ids
from .lexical_index import InvertedIndex, tokenize, top_docs

SENTINEL = 0xFFFF_FFFF
GRAPH_FORMAT_VERSION = 1
BLOCK_BYTES = 4 << 20  # float32 similarities per row block of the dense build


class CorpusGraph:
    """Adjacency rows of exactly k neighbour ids, similarity-descending."""

    def __init__(self, k: int, adjacency: np.ndarray, source: str) -> None:
        if adjacency.ndim != 2 or adjacency.shape[1] != k:
            raise ValueError(f"adjacency must be (n_docs, {k}), got {adjacency.shape}")
        if source not in ("lexical", "dense"):
            raise ValueError(f"unknown similarity source {source!r}")
        self.k = k
        self.adjacency = adjacency.astype(np.uint32, copy=False)
        self.source = source

    def __len__(self) -> int:
        return len(self.adjacency)


def _check_k(k: int, n_docs: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n_docs:
        raise ValueError(f"k={k} must be smaller than the corpus size {n_docs}")


def build_graph_lexical(index: InvertedIndex, store: CorpusStore, k: int) -> CorpusGraph:
    """Each document's text queries the BM25 index; top-k hits become its
    neighbours. Scoring walks only postings of the document's own terms, so
    zero-overlap documents are never considered -- they could not enter the
    top k anyway. Slots beyond the matching documents stay sentinel."""
    _check_k(k, len(store))
    adjacency = np.full((len(store), k), SENTINEL, dtype=np.uint32)
    for doc_id, text in enumerate(store.texts):
        top = top_docs(index, Counter(tokenize(text)), k, exclude={doc_id})
        adjacency[doc_id, : len(top)] = [other for other, _ in top]
    return CorpusGraph(k, adjacency, "lexical")


def build_graph_dense(matrix: np.ndarray, k: int) -> CorpusGraph:
    """Exact inner-product k-NN graph over the rows of the embedding
    ``matrix``, ties by doc id; every other document is a candidate, so
    rows are full unless the corpus itself is smaller than k. Rows are
    scored in blocks of about ``BLOCK_BYTES`` of similarities against the
    whole corpus, so memory is O(block x N)."""
    n = len(matrix)
    _check_k(k, n)
    rows = max(2, BLOCK_BYTES // (4 * n))
    adjacency = np.empty((n, k), dtype=np.uint32)
    # Starts stop short of n - 1, so a single leftover row joins the last
    # block: a 1-row product runs through gemv, whose sums can differ in the
    # last bit from the gemm rows of every other block.
    starts = range(0, n - 1, rows)
    for start, stop in zip(starts, [*starts[1:], n]):
        keys = matrix[start:stop] @ matrix.T
        np.negative(keys, out=keys)
        keys[np.arange(stop - start), np.arange(start, stop)] = np.inf
        adjacency[start:stop] = top_k_ids(keys, k)
    if n - 1 < k:
        adjacency[:, n - 1 :] = SENTINEL
    return CorpusGraph(k, adjacency, "dense")


def neighbours(graph: CorpusGraph, order: list[int], truncate_k: int) -> list[int]:
    """Ordered candidate expansion for one ranked batch.

    The batch's doc ids are visited in ``order``, best first, each
    contributing its first ``truncate_k`` neighbours; a candidate reachable
    from several sources keeps its earliest slot, batch members and
    sentinels are skipped.
    """
    if truncate_k < 0 or truncate_k > graph.k:
        raise ValueError(f"truncate_k must be in [0, {graph.k}], got {truncate_k}")
    candidates = dict.fromkeys(graph.adjacency[order, :truncate_k].ravel().tolist())
    for skipped in (SENTINEL, *order):
        candidates.pop(skipped, None)
    return list(candidates)


def save_graph(path: str | Path, graph: CorpusGraph, store: CorpusStore) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "version": GRAPH_FORMAT_VERSION,
        "k": graph.k,
        "count": len(graph),
        "source": graph.source,
        "sentinel": SENTINEL,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(graph.adjacency.astype("<u4").tobytes())
    write_docnos(path.parent / "docnos.txt", store.docnos)


def load_graph(path: str | Path, store: CorpusStore) -> CorpusGraph:
    """Load a graph whose rows are ``store``'s doc ids.

    ``docnos.txt`` must list exactly ``store.docnos`` in id order; anything
    else (another corpus, another dedup setting, a reordering) would make
    every neighbour id point at the wrong document.
    """
    path = Path(path)
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("not a JSON object")
            k, count = int(header["k"]), int(header["count"])
            if header["source"] not in ("lexical", "dense"):
                raise ValueError(f"unknown similarity source {header['source']!r}")
        except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
            raise ValueError(f"{path}: invalid graph header ({exc})") from None
        if header.get("version") != GRAPH_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported graph format version {header.get('version')!r}")
        if header.get("sentinel") != SENTINEL:
            raise ValueError(f"{path}: unexpected sentinel {header.get('sentinel')!r}")
        blob = f.read()
    expected = count * k * 4
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} adjacency bytes, found {len(blob)}")
    adjacency = np.frombuffer(blob, dtype="<u4").reshape(count, k)
    bad = (adjacency >= count) & (adjacency != SENTINEL)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"{path}: row {row}: neighbour id {int(adjacency[row][bad[row]][0])} is not below count {count}")
    check_docnos(path.parent / "docnos.txt", store, "graph")
    if count != len(store):
        raise ValueError(f"{path}: header count {count} does not match the {len(store)} docnos")
    return CorpusGraph(k, adjacency.copy(), header["source"])
