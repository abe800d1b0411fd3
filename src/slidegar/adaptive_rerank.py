"""Sliding-window reranking strategies over score-free listwise rankers.

Three strategies share one windowed loop:

- ``sliding_window_baseline`` reranks the initial pool in place, tail first,
  and can never surface a document outside that pool.
- ``slidegar`` takes feedback documents from a corpus-graph frontier of
  the batch the ranker just ordered, so documents the first stage missed
  can still reach the final list.
- ``slidegar_rm3`` takes them from BM25 retrieval with an RM3-expanded
  query instead of the graph; the ranker always sees the original query.

Each window keeps its top ``b`` documents for the next round and dumps the
rest to the result accumulator; a dumped document is final. The fresh half
of the next window alternates between feedback and the initial ranking R0,
feedback first. Feedback never returns an R0 document or one already
ranked, and a half that one source leaves short is topped up from the
other, so every window after the first holds ``2b`` documents until both
run dry. The loop ends once ``c - b`` documents are dumped, once it has
made ``ceil((c - w) / b) + 1`` ranker calls (a hard cap: short windows dump
fewer documents), or once no fresh document is left; the last carried
top-``b`` goes on top of the output. Rankings, R0, the result and every
ranker ``Window`` included, are lists of store doc ids; docnos appear only
where a ranker reads them off its window and in the run file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .corpus_graph import neighbours
from .corpus_store import CorpusStore, Query
from .lexical_index import InvertedIndex, check_rm3, retrieve_expanded, rm3_expand
from .rankers import ListwiseRanker, Window


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

    ``ranking`` holds at most c store doc ids, best first; ``ranker_s`` is
    the wall time spent inside the ranker's ``calls`` calls and
    ``bookkeeping_s`` everything else the strategy spent. Those calls took
    ``attempts`` attempts in all, and ``degraded`` of them fell back to the
    window's input order.
    """

    ranking: list[int]
    calls: int
    ranker_s: float
    bookkeeping_s: float
    attempts: int
    degraded: int


def expected_llm_calls(cfg: RerankConfig) -> int:
    """Closed-form ranker-call count for a full-budget run: ceil((c-w)/b) + 1."""
    return (cfg.c - cfg.w + cfg.b - 1) // cfg.b + 1


class _QueryRun:
    """One query's ranker access on store ids; the only place ranker calls
    are counted and timed, and their attempts and degradations summed."""

    def __init__(self, query: Query, r0: list[int], ranker: ListwiseRanker, store: CorpusStore) -> None:
        if not r0:
            raise ValueError("initial ranking must be non-empty")
        self.started = time.perf_counter()
        self.query = query
        self.ranker = ranker
        self.store = store
        self.calls = 0
        self.ranker_s = 0.0
        self.attempts = 0
        self.degraded = 0
        self.pool = list(r0)

    def rank(self, ids: list[int]) -> list[int]:
        window = Window(self.query, ids, self.store)
        t0 = time.perf_counter()
        ordering = self.ranker.rank(window)
        self.ranker_s += time.perf_counter() - t0
        self.calls += 1
        self.attempts += window.attempts
        self.degraded += window.degraded
        return ordering

    def result(self, ids: list[int]) -> RerankResult:
        bookkeeping_s = time.perf_counter() - self.started - self.ranker_s
        return RerankResult(ids, self.calls, self.ranker_s, bookkeeping_s, self.attempts, self.degraded)


def _run_window_loop(
    query: Query,
    r0: list[int],
    ranker: ListwiseRanker,
    cfg: RerankConfig,
    store: CorpusStore,
    feedback: Callable[[list[int], set[int], int], list[int]],
) -> RerankResult:
    """Shared do-while loop over store doc ids, and the only owner of the
    fresh-half policy the module docstring describes.

    ``feedback(order, blocked, n)`` returns at most ``n`` ids outside
    ``blocked`` (R0 plus everything ranked), best first, for the batch
    ``order`` just ranked; R0 itself is consumed in order through a cursor.
    The budget, in dumps and in calls, is checked before feedback is asked.
    """
    run = _QueryRun(query, r0, ranker, store)
    max_calls = expected_llm_calls(cfg)
    pool = run.pool
    blocked = set(pool)
    dumps: list[list[int]] = []  # per window, the docs it dumped, best first
    dumped = 0
    window = pool[: cfg.w]
    cursor = len(window)

    while True:
        order = run.rank(window)
        blocked.update(order)
        l1 = order[: cfg.b]
        dumps.append(order[cfg.b :])
        dumped += len(dumps[-1])
        if dumped >= cfg.c - cfg.b or run.calls == max_calls:
            break

        # R0 fills its own turn and tops up a short feedback half; feedback
        # tops up a short R0 half
        feedback_turn = run.calls % 2 == 1
        fresh = feedback(order, blocked, cfg.b) if feedback_turn else []
        from_r0 = pool[cursor : cursor + cfg.b - len(fresh)]
        cursor += len(from_r0)
        fresh += from_r0
        if len(fresh) < cfg.b and not feedback_turn:
            fresh += feedback(order, blocked, cfg.b - len(fresh))
        if not fresh:
            break
        window = l1 + fresh

    # Last carried champions on top, then dumps newest window first: later
    # windows competed against stronger carried documents, so they outrank earlier ones.
    final = l1 + [doc_id for batch in reversed(dumps) for doc_id in batch]
    return run.result(final[: cfg.c])


def slidegar(
    query: Query,
    r0: list[int],
    ranker: ListwiseRanker,
    graph: np.ndarray,
    cfg: RerankConfig,
    store: CorpusStore,
) -> RerankResult:
    """Graph-adaptive sliding-window rerank.

    Feedback is the frontier of the batch's graph neighbours, visited in
    the batch's order, minus R0 and everything already ranked. ``graph`` is
    the adjacency matrix of ``corpus_graph``, whose ids must be ``store``
    ids.
    """
    return _run_window_loop(query, r0, ranker, cfg, store, partial(fresh_neighbours, graph, cfg.truncate_k))


def fresh_neighbours(graph: np.ndarray, truncate_k: int, order: list[int], blocked: set[int], n: int) -> list[int]:
    """The first ``n >= 1`` ids of the batch's frontier outside ``blocked``;
    the scan of the frontier stops once it has them."""
    fresh: list[int] = []
    for i in neighbours(graph, order, truncate_k):
        if i not in blocked:
            fresh.append(i)
            if len(fresh) == n:
                break
    return fresh


def slidegar_rm3(
    query: Query,
    r0: list[int],
    ranker: ListwiseRanker,
    index: InvertedIndex,
    cfg: RerankConfig,
    store: CorpusStore,
    fb_docs: int = 10,
    fb_terms: int = 10,
    orig_weight: float = 0.6,
) -> RerankResult:
    """Feedback variant: fresh candidates come from the lexical index.

    Feedback expands the query (RM3) from the top-b of the batch, weighted
    by reciprocal rank, and retrieves with the expanded query outside R0
    and everything already ranked. The expanded query never reaches the
    ranker; an expansion without usable terms yields nothing, and invalid
    RM3 parameters raise before the first ranker call.

    The expansion reads only the batch's head, its first ``min(b, fb_docs)``
    ids, so expansion and retrieval run once per distinct head in a query;
    a ranker that keeps the carried head in place reuses them. Each
    retrieval keeps ``depth = len(r0) + expected_llm_calls(cfg) * b`` hits
    and each call filters them. That is exact: ``blocked`` never holds more
    than ``len(r0) + (calls - 1) * b`` ids and a call asks for at most
    ``b``, so the first ``n`` unblocked hits lie within the first ``depth``.
    """
    check_rm3(fb_docs, fb_terms, orig_weight)
    depth = len(r0) + expected_llm_calls(cfg) * cfg.b
    hits_of: dict[tuple[int, ...], list[int]] = {}  # one query's, so --jobs threads share none

    def feedback(order: list[int], blocked: set[int], n: int) -> list[int]:
        head = order[: min(cfg.b, fb_docs)]
        hits = hits_of.get(tuple(head))
        if hits is None:
            weights = rm3_expand(index, query, head, fb_docs=fb_docs, fb_terms=fb_terms, orig_weight=orig_weight)
            hits = hits_of[tuple(head)] = retrieve_expanded(index, weights, depth)
        return [i for i in hits if i not in blocked][:n]

    return _run_window_loop(query, r0, ranker, cfg, store, feedback)


def sliding_window_baseline(
    query: Query,
    r0: list[int],
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
    for start in [*range(len(items) - cfg.w, 0, -cfg.b), 0]:
        items[start : start + cfg.w] = run.rank(items[start : start + cfg.w])
    return run.result(items)


def telemetry_record(qid: str, r0: list[int], result: RerankResult) -> dict:
    """Per-query telemetry: call and attempt counts, degraded windows, split
    timings, and how many output documents were not in the initial pool."""
    return {
        "qid": qid,
        "llm_calls": result.calls,
        "ranker_attempts": result.attempts,
        "degraded_windows": result.degraded,
        "bookkeeping_ms": round(result.bookkeeping_s * 1000.0, 3),
        "ranker_ms": round(result.ranker_s * 1000.0, 3),
        "escaped_docs": len(set(result.ranking).difference(r0)),
    }
