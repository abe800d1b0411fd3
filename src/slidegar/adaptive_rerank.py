"""Sliding-window reranking strategies over score-free listwise rankers.

Two strategies rerank in windows, each returning one ``RerankResult``:

- ``sliding_window_baseline`` reranks the initial pool in place, tail first,
  and can never surface a document outside that pool.
- ``slidegar`` takes feedback documents from a feedback source, a callable
  over the batch the ranker just ordered, so documents the first stage
  missed can still reach the final list. Two sources are built here:
  ``graph_feedback``, a corpus-graph frontier of the batch, and
  ``rm3_feedback``, BM25 retrieval with an RM3-expanded query; the ranker
  always sees the original query.

In ``slidegar`` each window keeps its top ``b`` documents for the next
round and dumps the rest to the result accumulator; a dumped document is
final. The fresh half of the next window alternates between feedback and
the initial ranking R0, feedback first. The loop takes from a feedback
source's candidates only documents outside R0 that are not yet ranked, and
a half that one source leaves short is topped up from the other, so every
window after the first holds ``2b`` documents until both run dry. The loop
ends once it has made ``ceil((c - w) / b) + 1`` ranker calls, the cap that
spends the budget of ``c`` documents when every window is full (a short
window dumps fewer documents, and the run then holds fewer than ``c``), or
once no fresh document is left; the last carried top-``b`` goes on top of
the output. Rankings, R0, the result and every ranker ``Window`` included,
are lists of store doc ids, so no strategy takes the store; docnos appear
only inside the rankers that read them and in the run file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import filterfalse, islice
from typing import Callable

import numpy as np

from .corpus_graph import neighbours
from .corpus_store import Query
from .lexical_index import InvertedIndex, check_rm3, retrieve_expanded, rm3_expand
from .rankers import ListwiseRanker, Window


@dataclass(frozen=True)
class RerankConfig:
    """Every strategy setting and its one default: window size w, step size b,
    budget c, the graph source's depth and the RM3 source's settings.

    The carried half of every window holds b documents, so window sizes
    beyond the first are 2b; with the default b = w/2 that equals w.
    """

    w: int = 20
    b: int = 10
    c: int = 50
    truncate_k: int = 16
    fb_docs: int = 10
    fb_terms: int = 10
    orig_weight: float = 0.6

    def __post_init__(self) -> None:
        for key in ("w", "b", "c", "truncate_k"):
            if type(getattr(self, key)) is not int:  # bool is an int subclass and is rejected too
                raise ValueError(f"config {key!r} must be an integer, got {getattr(self, key)!r}")
        if not 1 <= self.b < self.w <= self.c:
            raise ValueError(
                f"invalid config: need 1 <= b < w <= c, got w={self.w} b={self.b} c={self.c}"
            )
        if self.truncate_k < 0:
            raise ValueError("truncate_k must be >= 0")
        check_rm3(self.fb_docs, self.fb_terms, self.orig_weight)


class RerankResult:
    """What every strategy returns for one query, and the only place its
    ranker calls are counted and timed. Building one starts its clock;
    ``finish(ranking)`` stops it.

    ``ranking`` holds at most c store doc ids, best first; ``ranker_s`` is
    the wall time spent inside the ranker's ``calls`` calls and
    ``bookkeeping_s`` everything else the strategy spent. Those calls took
    ``attempts`` attempts in all, and ``degraded`` of them fell back to the
    window's input order.
    """

    def __init__(self, query: Query, ranker: ListwiseRanker) -> None:
        self._started = time.perf_counter()
        self._query = query
        self._ranker = ranker
        self.ranking: list[int] = []
        self.calls = 0
        self.ranker_s = 0.0
        self.bookkeeping_s = 0.0
        self.attempts = 0
        self.degraded = 0

    def rank(self, ids: list[int]) -> list[int]:
        window = Window(self._query, ids)
        t0 = time.perf_counter()
        ordering = self._ranker.rank(window)
        self.ranker_s += time.perf_counter() - t0
        self.calls += 1
        self.attempts += window.attempts
        self.degraded += window.degraded
        return ordering

    def finish(self, ranking: list[int]) -> RerankResult:
        self.ranking = ranking
        self.bookkeeping_s = time.perf_counter() - self._started - self.ranker_s
        return self


def expected_llm_calls(cfg: RerankConfig) -> int:
    """Closed-form ranker-call count for a full-budget run: ceil((c-w)/b) + 1."""
    return (cfg.c - cfg.w + cfg.b - 1) // cfg.b + 1


def slidegar(
    query: Query,
    r0: list[int],
    ranker: ListwiseRanker,
    feedback: Callable[[list[int]], list[int]],
    cfg: RerankConfig,
) -> RerankResult:
    """Adaptive sliding-window rerank over a feedback source, and the only
    owner of the fresh-half policy the module docstring describes.

    ``feedback(order)`` returns distinct candidate ids, best first, for the
    batch ``order`` just ranked; the loop takes the first of them outside
    ``blocked`` (R0 plus everything ranked) and stops reading once it has
    enough. R0 itself is consumed in order through a cursor. The call cap,
    the only budget, is checked before feedback is asked.
    """
    run = RerankResult(query, ranker)
    max_calls = expected_llm_calls(cfg)
    blocked = set(r0)
    dumps: list[list[int]] = []  # per window, the docs it dumped, best first
    window = r0[: cfg.w]
    cursor = len(window)

    def fresh_feedback(order: list[int], n: int) -> list[int]:
        return list(islice(filterfalse(blocked.__contains__, feedback(order)), n))

    while True:
        order = run.rank(window)
        blocked.update(order)
        l1 = order[: cfg.b]
        dumps.append(order[cfg.b :])
        if run.calls == max_calls:
            break

        # R0 fills its own turn and tops up a short feedback half; feedback
        # tops up a short R0 half
        feedback_turn = run.calls % 2 == 1
        fresh = fresh_feedback(order, cfg.b) if feedback_turn else []
        from_r0 = r0[cursor : cursor + cfg.b - len(fresh)]
        cursor += len(from_r0)
        fresh += from_r0
        if len(fresh) < cfg.b and not feedback_turn:
            fresh += fresh_feedback(order, cfg.b - len(fresh))
        if not fresh:
            break
        window = l1 + fresh

    # Last carried champions on top, then dumps newest window first: later
    # windows competed against stronger carried documents, so they outrank earlier ones.
    final = l1 + [doc_id for batch in reversed(dumps) for doc_id in batch]
    return run.finish(final[: cfg.c])


# perfbench/tracer.py wraps this name as well as slidegar; it goes when the tracer goes
slidegar_rm3 = slidegar


def graph_feedback(graph: np.ndarray, truncate_k: int) -> Callable[[list[int]], list[int]]:
    """The graph source: the frontier of the batch's first ``truncate_k``
    graph neighbours each, visited in the batch's order. ``graph`` is the
    adjacency matrix of ``corpus_graph``, over the same doc ids as R0."""
    return lambda order: neighbours(graph, order, truncate_k)


def rm3_feedback(
    index: InvertedIndex, query: Query, r0: list[int], cfg: RerankConfig
) -> Callable[[list[int]], list[int]]:
    """The RM3 source: BM25 retrieval from the lexical index with an expanded query.

    Feedback expands the query (RM3, with ``cfg``'s ``fb_docs``, ``fb_terms``
    and ``orig_weight``) from the top-b of the batch, weighted by reciprocal
    rank, and retrieves with the expanded query. The expanded query never
    reaches the ranker; an expansion without usable terms yields nothing.

    The expansion reads only the batch's head, its first ``min(b, fb_docs)``
    ids, so expansion and retrieval run once per distinct head in a query;
    a ranker that keeps the carried head in place reuses them. Each
    retrieval keeps ``depth = len(r0) + expected_llm_calls(cfg) * b`` hits,
    of which the loop takes the first outside R0 and the ranked ids.
    That is exact: those never number more than ``len(r0) + (calls - 1) * b``
    and a window takes at most ``b``, so what it takes lies within the
    first ``depth``.
    """
    depth = len(r0) + expected_llm_calls(cfg) * cfg.b
    hits_of: dict[tuple[int, ...], list[int]] = {}  # one query's, so --jobs threads share none

    def feedback(order: list[int]) -> list[int]:
        head = order[: min(cfg.b, cfg.fb_docs)]
        hits = hits_of.get(tuple(head))
        if hits is None:
            weights = rm3_expand(index, query, head, cfg.fb_docs, cfg.fb_terms, cfg.orig_weight)
            hits = hits_of[tuple(head)] = retrieve_expanded(index, weights, depth)
        return hits

    return feedback


def sliding_window_baseline(
    query: Query,
    r0: list[int],
    ranker: ListwiseRanker,
    cfg: RerankConfig,
) -> RerankResult:
    """Standard tail-to-head sliding-window rerank of the initial pool.

    The pool is truncated to the budget, then windows of w documents are
    reranked in place from the back of the list towards the front with
    stride b (the last window clamps to the list head).
    """
    run = RerankResult(query, ranker)
    items = r0[: cfg.c]
    for start in [*range(len(items) - cfg.w, 0, -cfg.b), 0]:
        items[start : start + cfg.w] = run.rank(items[start : start + cfg.w])
    return run.finish(items)


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
