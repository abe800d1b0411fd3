"""Sliding-window reranking strategies over score-free listwise rankers.

Three strategies share one windowed loop:

- ``sliding_window_baseline`` reranks the initial pool in place, tail first,
  and can never surface a document outside that pool.
- ``slidegar`` alternates the fresh half of each window between the initial
  ranking and a corpus-graph frontier fed by the ranker's own feedback, so
  documents the first stage missed can still reach the final list.
- ``slidegar_rm3`` draws fresh candidates from BM25 retrieval with an
  RM3-expanded query instead of the graph; the ranker always sees the
  original query.

Each window keeps its top ``b`` documents for the next round and dumps the
rest to the result accumulator; a dumped document is final. The loop ends
once ``c - b`` documents are accumulated (or every candidate source is
exhausted), and the last carried top-``b`` goes on top of the output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .corpus_graph import CorpusGraph, neighbours
from .corpus_store import CorpusStore, Query
from .lexical_index import InvertedIndex, retrieve_expanded, rm3_expand
from .rankers import ListwiseRanker, Window
from .ranking import Ranking, ScoredDoc

T = TypeVar("T")


@dataclass(frozen=True)
class RerankConfig:
    """Window size w, step size b, budget c, and the graph depth to use.

    The carried half of every window holds b documents, so window sizes
    beyond the first are 2b; with the default b = w/2 that equals w.
    """

    w: int = 20
    b: int = 10
    c: int = 50
    truncate_k: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.b < self.w <= self.c:
            raise ValueError(
                f"invalid config: need 1 <= b < w <= c, got w={self.w} b={self.b} c={self.c}"
            )
        if self.truncate_k < 0:
            raise ValueError("truncate_k must be >= 0")


@dataclass(frozen=True)
class RerankResult:
    """What every strategy returns for one query.

    ``ranking`` has at most c entries; ``ranker_s`` is the wall time spent
    inside the ranker's ``calls`` calls and ``bookkeeping_s`` everything else
    the strategy spent.
    """

    ranking: Ranking
    calls: int
    ranker_s: float
    bookkeeping_s: float


def pseudo_scores(ordering: Sequence[T]) -> list[tuple[T, float]]:
    """Reciprocal-rank surrogate scores for a score-free ordering."""
    return [(item, 1.0 / rank) for rank, item in enumerate(ordering, start=1)]


def expected_llm_calls(cfg: RerankConfig) -> int:
    """Closed-form ranker-call count for a full-budget run: ceil((c-w)/b) + 1."""
    return (cfg.c - cfg.w + cfg.b - 1) // cfg.b + 1


class _QueryRun:
    """One query's ranker access on store ids; the only place ranker calls
    are counted and timed."""

    def __init__(self, query: Query, r0: Ranking, ranker: ListwiseRanker, store: CorpusStore) -> None:
        if not r0:
            raise ValueError("initial ranking must be non-empty")
        self.started = time.perf_counter()
        self.query = query
        self.ranker = ranker
        self.store = store
        self.calls = 0
        self.ranker_s = 0.0
        self.pool = [store.doc_id(sd.docno) for sd in r0]

    def rank(self, ids: list[int]) -> list[int]:
        docs = self.store.docs
        window = Window(query=self.query, docs=tuple((docs[i].docno, docs[i].text) for i in ids))
        t0 = time.perf_counter()
        batch = self.ranker.rank(window)
        self.ranker_s += time.perf_counter() - t0
        self.calls += 1
        return [self.store.doc_id(docno) for docno in batch.ordering]

    def result(self, ids: list[int]) -> RerankResult:
        docnos = self.store.docnos
        ranking = [ScoredDoc(docnos[i], 1.0 / position) for position, i in enumerate(ids, start=1)]
        bookkeeping_s = time.perf_counter() - self.started - self.ranker_s
        return RerankResult(ranking, self.calls, self.ranker_s, bookkeeping_s)


def _run_window_loop(
    query: Query,
    r0: Ranking,
    ranker: ListwiseRanker,
    cfg: RerankConfig,
    store: CorpusStore,
    propose: Callable[[list[int], set[int], list[int]], list[int]],
) -> RerankResult:
    """Shared do-while loop over store doc ids.

    ``propose(batch_order, seen, rest)`` returns the ordered pool the next
    window's fresh half is drawn from; an empty pool ends the run. ``rest``
    is the not-yet-ranked remainder of the initial pool, handed to propose
    for fallback use.
    """
    run = _QueryRun(query, r0, ranker, store)
    rest = run.pool
    rest_set = set(rest)
    dumped: list[tuple[int, int, int]] = []  # (doc id, iteration, window rank)
    seen: set[int] = set()
    l1: list[int] = []
    window = rest[: cfg.w]
    iteration = 0

    while True:
        iteration += 1
        order = run.rank(window)
        seen.update(order)
        ranked_from_rest = rest_set.intersection(order)
        if ranked_from_rest:
            rest = [i for i in rest if i not in ranked_from_rest]
            rest_set -= ranked_from_rest
        l1 = order[: cfg.b]
        for rank, doc_id in enumerate(order[cfg.b :], start=cfg.b + 1):
            dumped.append((doc_id, iteration, rank))

        l2 = propose(order, seen, rest)[: cfg.b]
        if not l2 or len(dumped) >= cfg.c - cfg.b:
            break
        window = l1 + l2

    # Last carried champions on top, then dumps: later iterations competed
    # against stronger carried documents, so they outrank earlier ones.
    final = l1 + [doc_id for doc_id, _, _ in sorted(dumped, key=lambda t: (-t[1], t[2]))]
    return run.result(final[: cfg.c])


def slidegar(
    query: Query,
    r0: Ranking,
    ranker: ListwiseRanker,
    graph: CorpusGraph,
    cfg: RerankConfig,
    store: CorpusStore,
    accumulate_frontier: bool = False,
) -> RerankResult:
    """Graph-adaptive sliding-window rerank.

    After each window the frontier is rebuilt from the batch's graph
    neighbours (prioritized by reciprocal-rank pseudo-scores) minus
    everything already ranked; the fresh half of the next window then
    alternates between the remaining initial pool and that frontier,
    falling back to whichever is non-empty. ``accumulate_frontier=True``
    additionally carries over unconsumed frontier candidates from earlier
    rounds instead of discarding them. Graph ids must be ``store`` ids.
    """
    frontier: list[int] = []
    take_frontier = False  # flipped before each selection; the first fresh half comes from the frontier

    def propose(order: list[int], seen: set[int], rest: list[int]) -> list[int]:
        nonlocal frontier, take_frontier
        fresh = [i for i in neighbours(graph, pseudo_scores(order), cfg.truncate_k) if i not in seen]
        if accumulate_frontier:
            new = set(fresh)
            fresh += [i for i in frontier if i not in seen and i not in new]
        frontier = fresh
        take_frontier = not take_frontier
        pool = frontier if take_frontier else rest
        if not pool:
            pool = rest if take_frontier else frontier
        return pool

    return _run_window_loop(query, r0, ranker, cfg, store, propose)


def slidegar_rm3(
    query: Query,
    r0: Ranking,
    ranker: ListwiseRanker,
    index: InvertedIndex,
    cfg: RerankConfig,
    store: CorpusStore,
    fb_docs: int = 10,
    fb_terms: int = 10,
    orig_weight: float = 0.6,
) -> RerankResult:
    """Feedback variant: fresh candidates come from the lexical index.

    After each window the query is expanded from the top-b of the batch
    (pseudo-scored by reciprocal rank) and the next b candidates are
    retrieved with that expanded query, excluding everything already seen.
    The expanded query never reaches the ranker. When expansion retrieves
    nothing, the remaining initial pool fills the window instead.
    """

    def propose(order: list[int], seen: set[int], rest: list[int]) -> list[int]:
        try:
            expanded = rm3_expand(
                index, query, pseudo_scores(order[: cfg.b]),
                fb_docs=fb_docs, fb_terms=fb_terms, orig_weight=orig_weight,
            )
        except ValueError:  # no usable expansion terms
            return rest
        hits = retrieve_expanded(index, expanded, cfg.b, exclude=seen)
        return [store.doc_id(sd.docno) for sd in hits] or rest

    return _run_window_loop(query, r0, ranker, cfg, store, propose)


def sliding_window_baseline(
    query: Query,
    r0: Ranking,
    ranker: ListwiseRanker,
    cfg: RerankConfig,
    store: CorpusStore,
) -> RerankResult:
    """Standard tail-to-head sliding-window rerank of the initial pool.

    The pool is truncated to the budget, then windows of w documents are
    reranked in place from the back of the list towards the front with
    stride b (the last window clamps to the list head).
    """
    run = _QueryRun(query, r0[: cfg.c], ranker, store)
    items = run.pool
    n = len(items)
    if n <= cfg.w:
        starts = [0]
    else:
        starts = []
        start = n - cfg.w
        while True:
            starts.append(start)
            if start == 0:
                break
            start = max(0, start - cfg.b)
    for start in starts:
        items[start : start + cfg.w] = run.rank(items[start : start + cfg.w])
    return run.result(items)


def telemetry_record(qid: str, r0: Ranking, result: RerankResult) -> dict:
    """Per-query telemetry: call count, split timings, and how many output
    documents were not in the initial pool."""
    initial = {sd.docno for sd in r0}
    escaped = sum(1 for sd in result.ranking if sd.docno not in initial)
    return {
        "qid": qid,
        "llm_calls": result.calls,
        "bookkeeping_ms": round(result.bookkeeping_s * 1000.0, 3),
        "ranker_ms": round(result.ranker_s * 1000.0, 3),
        "escaped_docs": escaped,
    }
