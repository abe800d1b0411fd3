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
top-``b`` goes on top of the output.
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
        docnos, texts = self.store.docnos, self.store.texts
        window = Window(query=self.query, docs=tuple((docnos[i], texts[i]) for i in ids))
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
    dumped: list[tuple[int, int, int]] = []  # (doc id, iteration, window rank)
    window = pool[: cfg.w]
    cursor = len(window)
    iteration = 0

    while True:
        iteration += 1
        order = run.rank(window)
        blocked.update(order)
        l1 = order[: cfg.b]
        for rank, doc_id in enumerate(order[cfg.b :], start=cfg.b + 1):
            dumped.append((doc_id, iteration, rank))
        if len(dumped) >= cfg.c - cfg.b or run.calls == max_calls:
            break

        # R0 fills its own turn and tops up a short feedback half; feedback
        # tops up a short R0 half
        feedback_turn = iteration % 2 == 1
        fresh = feedback(order, blocked, cfg.b) if feedback_turn else []
        from_r0 = pool[cursor : cursor + cfg.b - len(fresh)]
        cursor += len(from_r0)
        fresh += from_r0
        if len(fresh) < cfg.b and not feedback_turn:
            fresh += feedback(order, blocked, cfg.b - len(fresh))
        if not fresh:
            break
        window = l1 + fresh

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
) -> RerankResult:
    """Graph-adaptive sliding-window rerank.

    Feedback is the frontier of the batch's graph neighbours, prioritized
    by reciprocal-rank pseudo-scores, minus R0 and everything already
    ranked. Graph ids must be ``store`` ids.
    """

    def feedback(order: list[int], blocked: set[int], n: int) -> list[int]:
        frontier = neighbours(graph, pseudo_scores(order), cfg.truncate_k)
        return [i for i in frontier if i not in blocked][:n]

    return _run_window_loop(query, r0, ranker, cfg, store, feedback)


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

    Feedback expands the query (RM3) from the top-b of the batch,
    pseudo-scored by reciprocal rank, and retrieves with the expanded query
    outside R0 and everything already ranked. The expanded query never
    reaches the ranker; an expansion without usable terms yields nothing.
    """

    def feedback(order: list[int], blocked: set[int], n: int) -> list[int]:
        try:
            expanded = rm3_expand(
                index, query, pseudo_scores(order[: cfg.b]),
                fb_docs=fb_docs, fb_terms=fb_terms, orig_weight=orig_weight,
            )
        except ValueError:  # no usable expansion terms
            return []
        return [store.doc_id(sd.docno) for sd in retrieve_expanded(index, expanded, n, exclude=blocked)]

    return _run_window_loop(query, r0, ranker, cfg, store, feedback)


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
    for start in [*range(len(items) - cfg.w, 0, -cfg.b), 0]:
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
