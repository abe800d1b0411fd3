"""Sliding-window adaptive retrieval for listwise rerankers.

Listwise rankers emit orderings, not scores; this package uses those
orderings -- via a corpus graph or RM3 expansion -- to pull documents the
first stage missed into the reranked list, at a fixed ranker-call budget.
Rankings are lists of corpus-store doc ids, best first.
"""

from .adaptive_rerank import (
    RerankConfig,
    RerankResult,
    expected_llm_calls,
    graph_feedback,
    rm3_feedback,
    slidegar,
    sliding_window_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "RerankConfig",
    "RerankResult",
    "expected_llm_calls",
    "graph_feedback",
    "rm3_feedback",
    "slidegar",
    "sliding_window_baseline",
    "__version__",
]
