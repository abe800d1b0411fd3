"""Fixed-degree document-similarity graph with constant-time neighbour lookup.

Graph file: one JSON header line
``{"version": 1, "k": K, "count": N, "source": "lexical"|"dense", "sentinel": 4294967295}``
followed by N fixed-width rows of K little-endian u32 neighbour ids; row i
belongs to doc id i and the sentinel value marks an unused slot. A companion
``docnos.txt`` in the same directory lists one docno per line in doc-id
order. Graph ids are corpus-store ids, so a graph only loads against a
store whose docnos match ``docnos.txt`` line for line.

Graphs are built once at full depth (k=16 by default) and shallower depths
are realized at query time by truncating each neighbour list, never by
rebuilding.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

from .corpus_store import CorpusStore, check_docnos, write_docnos
from .dense_index import EmbeddingTable
from .lexical_index import InvertedIndex, tokenize, top_docs

SENTINEL = 0xFFFF_FFFF
GRAPH_FORMAT_VERSION = 1


class CorpusGraph:
    """Adjacency rows of exactly k neighbour ids, similarity-descending."""

    def __init__(self, k: int, adjacency: np.ndarray, docnos: list[str], source: str) -> None:
        if adjacency.ndim != 2 or adjacency.shape != (len(docnos), k):
            raise ValueError(f"adjacency must be ({len(docnos)}, {k}), got {adjacency.shape}")
        if source not in ("lexical", "dense"):
            raise ValueError(f"unknown similarity source {source!r}")
        self.k = k
        self.adjacency = adjacency.astype(np.uint32, copy=False)
        self.docnos = docnos
        self.source = source

    def __len__(self) -> int:
        return len(self.docnos)


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
    for doc_id, doc in enumerate(store.docs):
        top = top_docs(index, Counter(tokenize(doc.text)), k, exclude={doc_id})
        adjacency[doc_id, : len(top)] = [other for other, _ in top]
    return CorpusGraph(k, adjacency, store.docnos, "lexical")


def build_graph_dense(table: EmbeddingTable, k: int) -> CorpusGraph:
    """Exhaustive pairwise inner products; every other document is a
    candidate, so rows are full unless the corpus itself is smaller than k."""
    n = len(table)
    _check_k(k, n)
    sims = table.matrix @ table.matrix.T
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    adjacency = order.astype(np.uint32)
    if n - 1 < k:
        adjacency[:, n - 1 :] = SENTINEL
    return CorpusGraph(k, adjacency, table.docnos, "dense")


def neighbours(graph: CorpusGraph, batch: list[tuple[int, float]], truncate_k: int) -> list[int]:
    """Ordered candidate expansion for one ranked batch.

    Sources are visited by pseudo-score descending, each contributing its
    first ``truncate_k`` neighbours; a candidate reachable from several
    sources keeps its earliest slot, batch members and sentinels are
    skipped.
    """
    if truncate_k < 0 or truncate_k > graph.k:
        raise ValueError(f"truncate_k must be in [0, {graph.k}], got {truncate_k}")
    if truncate_k == 0 or not batch:
        return []
    emitted: set[int] = {doc_id for doc_id, _ in batch}
    out: list[int] = []
    for doc_id, _ in sorted(batch, key=lambda pair: -pair[1]):
        for neighbour in graph.adjacency[doc_id, :truncate_k].tolist():
            if neighbour == SENTINEL or neighbour in emitted:
                continue
            emitted.add(neighbour)
            out.append(neighbour)
    return out


def save_graph(path: str | Path, graph: CorpusGraph) -> None:
    path = Path(path)
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
    write_docnos(path.parent / "docnos.txt", graph.docnos)


def load_graph(path: str | Path, store: CorpusStore) -> CorpusGraph:
    """Load a graph whose rows are ``store``'s doc ids.

    ``docnos.txt`` must list exactly ``store.docnos`` in id order; anything
    else (another corpus, another dedup setting, a reordering) would make
    every neighbour id point at the wrong document.
    """
    path = Path(path)
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        if header.get("version") != GRAPH_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported graph format version {header.get('version')!r}")
        if header.get("sentinel") != SENTINEL:
            raise ValueError(f"{path}: unexpected sentinel {header.get('sentinel')!r}")
        k, count = int(header["k"]), int(header["count"])
        blob = f.read()
    expected = count * k * 4
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} adjacency bytes, found {len(blob)}")
    adjacency = np.frombuffer(blob, dtype="<u4").reshape(count, k)
    check_docnos(path.parent / "docnos.txt", store, "graph")
    if count != len(store):
        raise ValueError(f"{path}: header count {count} does not match the {len(store)} docnos")
    return CorpusGraph(k, adjacency.copy(), store.docnos, str(header["source"]))
