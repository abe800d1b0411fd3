"""Fixed-degree document-similarity graph with constant-time neighbour lookup.

In memory a graph is its ``(n_docs, k)`` u32 adjacency matrix: row i holds
doc id i's neighbour ids, similarity-descending, and ``SENTINEL`` marks an
unused slot.

Graph file: one JSON header line
``{"version": 1, "k": K, "count": N, "source": "lexical"|"dense", "sentinel": 4294967295}``
followed by the N rows of K little-endian u32 neighbour ids. A companion
``docnos.txt`` in the same directory lists the store's docnos, one per line
in doc-id order. The graph holds store ids only, so it loads only against a
store whose docnos match ``docnos.txt`` line for line. A load reads the rows
straight into the one array it returns and checks them in place.

Graphs are built once at full depth (k=16 by default) and shallower depths
are realized at query time by truncating each neighbour list, never by
rebuilding. The lexical build queries the BM25 index with each document's
text; the dense build is exact and blocked: a block of rows is scored
against the whole corpus at a time, so its memory is O(block x N), never
N x N.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from .corpus_store import CorpusStore, check_docnos, docnos_bytes, read_u32
from .dense_index import top_k_ids
from .lexical_index import InvertedIndex, retrieve_expanded, tokenize

SENTINEL = 0xFFFF_FFFF
GRAPH_FORMAT_VERSION = 1
BLOCK_BYTES = 4 << 20  # float32 similarities per row block of the dense build
SOURCES = ("lexical", "dense")


def _check_k(k: int, n_docs: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n_docs:
        raise ValueError(f"k={k} must be smaller than the corpus size {n_docs}")


def build_graph_lexical(index: InvertedIndex, store: CorpusStore, k: int) -> np.ndarray:
    """Each document's text queries the BM25 index; top-k hits become its
    neighbours. Scoring walks only postings of the document's own terms, so
    zero-overlap documents are never considered -- they could not enter the
    top k anyway. Slots beyond the matching documents stay sentinel."""
    _check_k(k, len(store))
    adjacency = np.full((len(store), k), SENTINEL, dtype=np.uint32)
    for doc_id, text in enumerate(store.texts):
        hits = retrieve_expanded(index, Counter(tokenize(text)), k + 1)
        top = [other for other in hits if other != doc_id][:k]
        adjacency[doc_id, : len(top)] = top
    return adjacency


def build_graph_dense(matrix: np.ndarray, k: int) -> np.ndarray:
    """Exact inner-product k-NN graph over the rows of the embedding
    ``matrix``, ties by doc id; every other document is a candidate and
    ``k`` is below the corpus size, so every row is full. Rows are
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
    return adjacency


def neighbours(graph: np.ndarray, order: list[int], truncate_k: int) -> list[int]:
    """Ordered candidate expansion for one ranked batch.

    The batch's doc ids are visited in ``order``, best first, each
    contributing its first ``truncate_k`` neighbours; a candidate reachable
    from several sources keeps its earliest slot and sentinels are skipped.
    Batch members stay in: the window loop alone drops R0 and ranked ids.
    """
    k = graph.shape[1]
    if truncate_k < 0 or truncate_k > k:
        raise ValueError(f"truncate_k must be in [0, {k}], got {truncate_k}")
    candidates = dict.fromkeys(graph[order, :truncate_k].ravel().tolist())
    candidates.pop(SENTINEL, None)
    return list(candidates)


def save_graph(path: str | Path, graph: np.ndarray, source: str, store: CorpusStore) -> None:
    """Write ``graph``, built from ``source`` similarities, and ``docnos.txt`` beside it."""
    if source not in SOURCES:
        raise ValueError(f"unknown similarity source {source!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "version": GRAPH_FORMAT_VERSION,
        "k": graph.shape[1],
        "count": len(graph),
        "source": source,
        "sentinel": SENTINEL,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(graph.astype("<u4").tobytes())
    (path.parent / "docnos.txt").write_bytes(docnos_bytes(store.docnos))


def load_graph(path: str | Path, store: CorpusStore) -> np.ndarray:
    """Load the adjacency matrix of a graph whose rows are ``store``'s doc ids.

    ``docnos.txt`` must list exactly ``store.docnos`` in id order; anything
    else (another corpus, a reordering) would make
    every neighbour id point at the wrong document.
    """
    path = Path(path)
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("not a JSON object")
            k, count = header["k"], header["count"]
            for name, value in (("k", k), ("count", count)):
                if type(value) is not int or value < 0:  # bool is an int subclass and is rejected too
                    raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            if header["source"] not in SOURCES:
                raise ValueError(f"unknown similarity source {header['source']!r}")
        except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
            raise ValueError(f"{path}: invalid graph header ({exc})") from None
        if header.get("version") != GRAPH_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported graph format version {header.get('version')!r}")
        if header.get("sentinel") != SENTINEL:
            raise ValueError(f"{path}: unexpected sentinel {header.get('sentinel')!r}")
        body = f.tell()
    adjacency = read_u32(path, count * k, offset=body).reshape(count, k)
    # +1 wraps SENTINEL to 0, so a slot is a doc id or the sentinel exactly when
    # its shifted value is at most count; shifted in place and back, nothing is copied
    adjacency += 1
    if adjacency.max(initial=0) > count:
        row = int(np.argmax((adjacency > count).any(axis=1)))
        neighbour = int(adjacency[row][adjacency[row] > count][0]) - 1
        raise ValueError(f"{path}: row {row}: neighbour id {neighbour} is not below count {count}")
    adjacency -= 1
    check_docnos(path.parent / "docnos.txt", store, "graph")
    if count != len(store):
        raise ValueError(f"{path}: header count {count} does not match the {len(store)} docnos")
    return adjacency
