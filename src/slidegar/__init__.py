"""Sliding-window adaptive retrieval for listwise rerankers.

Listwise rankers emit orderings, not scores; this package uses those
orderings -- via reciprocal-rank pseudo-scores, a corpus graph, or RM3
expansion -- to pull documents the first stage missed into the reranked
list, at a fixed ranker-call budget.
"""

from .adaptive_rerank import (
    RerankConfig,
    RerankResult,
    expected_llm_calls,
    pseudo_scores,
    slidegar,
    slidegar_rm3,
    sliding_window_baseline,
)
from .ranking import Ranking, ScoredDoc

__version__ = "0.1.0"

__all__ = [
    "Ranking",
    "RerankConfig",
    "RerankResult",
    "ScoredDoc",
    "expected_llm_calls",
    "pseudo_scores",
    "slidegar",
    "slidegar_rm3",
    "sliding_window_baseline",
    "__version__",
]
