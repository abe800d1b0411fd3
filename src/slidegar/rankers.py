"""Listwise-ranker contract plus test doubles and a remote HTTP client.

A listwise ranker sees a window of documents for one query and returns an
ordering (a permutation of the window's docnos), never scores. A
``Window(query, docnos, texts)`` holds the candidates as two parallel
tuples, in the order the ranker sees them, and is checked once when it is
built: non-empty, equal lengths, no repeated docno. ``ListwiseRanker.rank``
is the only entry point. It verifies every response to be a permutation:
local rankers raise on violation, the remote client retries and finally
degrades to the window's input order so long experiments survive a
misbehaving model endpoint.

Wire protocol: ``POST {endpoint}/rerank`` with JSON body
``{"qid": ..., "query": ..., "candidates": [{"docno": ..., "text": ...}, ...]}``;
the endpoint answers HTTP 200 with ``{"ordering": [docno, ...]}``. Any other
status, a malformed body, or a non-permutation takes the retry path.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import time
from typing import Sequence

from .corpus_store import Query

log = logging.getLogger(__name__)

# Per-document text cap (whitespace tokens) sent to remote rankers, keeping
# a full window inside a few thousand model tokens.
MAX_DOC_TOKENS = 512


class Window:
    """One query plus its candidates as parallel ``docnos`` and ``texts``
    tuples, in the order the ranker sees them."""

    __slots__ = ("query", "docnos", "texts")

    def __init__(self, query: Query, docnos: tuple[str, ...], texts: tuple[str, ...]) -> None:
        if not docnos:
            raise ValueError("window must contain at least one document")
        if len(docnos) != len(texts):
            raise ValueError(f"window has {len(docnos)} docnos but {len(texts)} texts")
        if len(set(docnos)) != len(docnos):
            raise ValueError("window contains duplicate docnos")
        self.query = query
        self.docnos = tuple(docnos)
        self.texts = tuple(texts)


def is_permutation(ordering: Sequence[str], docnos: tuple[str, ...]) -> bool:
    return len(ordering) == len(docnos) and set(ordering) == set(docnos)


class ListwiseRanker:
    """Base contract; subclasses implement _order()."""

    name = "listwise"

    def rank(self, window: Window) -> tuple[str, ...]:
        """The window's docnos, best first, checked to be a permutation."""
        ordering = tuple(map(str, self._order(window)))
        if not is_permutation(ordering, window.docnos):
            raise ValueError(f"{self.name}: response is not a permutation of the window")
        return ordering

    def _order(self, window: Window) -> list[str]:
        raise NotImplementedError


class IdentityRanker(ListwiseRanker):
    name = "identity"

    def _order(self, window: Window) -> list[str]:
        return list(window.docnos)


class OracleRanker(ListwiseRanker):
    """Orders by qrel grade descending; unjudged docs count as grade 0 and
    ties keep the window order (stable sort)."""

    name = "oracle"

    def __init__(self, grades: dict[str, dict[str, int]]) -> None:
        self.grades = grades

    def _order(self, window: Window) -> list[str]:
        per_query = self.grades.get(window.query.qid, {})
        return sorted(window.docnos, key=lambda docno: -per_query.get(docno, 0))


def _window_rng(seed: int, window: Window) -> random.Random:
    # Derived from (seed, qid, window content) so the same window always gets
    # the same perturbation, regardless of call order or threading.
    digest = hashlib.sha256()
    digest.update(str(seed).encode("utf-8"))
    digest.update(b"\x00" + window.query.qid.encode("utf-8"))
    for docno in window.docnos:
        digest.update(b"\x00" + docno.encode("utf-8"))
    return random.Random(int.from_bytes(digest.digest()[:8], "little"))


class NoisyOracleRanker(OracleRanker):
    """Oracle ordering with each adjacent pair independently swapped with
    probability swap_prob, under a deterministic per-window generator."""

    name = "noisy_oracle"

    def __init__(self, grades: dict[str, dict[str, int]], swap_prob: float, seed: int) -> None:
        super().__init__(grades)
        if not 0.0 <= swap_prob <= 1.0:
            raise ValueError("swap_prob must be in [0, 1]")
        self.swap_prob = swap_prob
        self.seed = seed

    def _order(self, window: Window) -> list[str]:
        order = super()._order(window)
        rng = _window_rng(self.seed, window)
        for i in range(len(order) - 1):
            if rng.random() < self.swap_prob:
                order[i], order[i + 1] = order[i + 1], order[i]
        return order


def truncate_doc_text(text: str, max_tokens: int = MAX_DOC_TOKENS) -> str:
    return " ".join(text.split()[:max_tokens])


class RemoteRanker(ListwiseRanker):
    """HTTP client for a real listwise model behind the wire protocol above.

    Failures (timeouts, non-200 statuses, malformed bodies, non-permutation
    orderings) are retried with exponential backoff; once attempts are
    exhausted the window's input order is used and the degradation is
    logged, so a flaky endpoint degrades quality instead of crashing runs.
    One logical rank() counts once no matter how many attempts it took.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.5,
        auth: str | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if not timeout > 0:  # also rejects NaN
            raise ValueError("timeout must be > 0")
        self.url = endpoint.rstrip("/") + "/rerank"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.headers = {"Content-Type": "application/json"}
        if auth:
            self.headers["Authorization"] = auth

    def _order(self, window: Window) -> list[str]:
        import urllib.error  # here, not at module level: it costs every CLI process about 20 ms
        import urllib.request

        payload = {
            "qid": window.query.qid,
            "query": window.query.text,
            "candidates": [
                {"docno": docno, "text": truncate_doc_text(text)}
                for docno, text in zip(window.docnos, window.texts)
            ],
        }
        body = json.dumps(payload).encode("utf-8")
        attempts = self.retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                request = urllib.request.Request(self.url, data=body, headers=self.headers, method="POST")
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    data = json.loads(response.read().decode("utf-8"))
                ordering = [str(d) for d in data["ordering"]]
            except (urllib.error.URLError, OSError, ValueError, KeyError, TypeError) as exc:
                log.warning(
                    "remote ranker request failed (attempt %d/%d, qid=%s): %s",
                    attempt + 1, attempts, window.query.qid, exc,
                )
                continue
            if is_permutation(ordering, window.docnos):
                return ordering
            log.warning(
                "remote ranker returned a non-permutation (attempt %d/%d, qid=%s)",
                attempt + 1, attempts, window.query.qid,
            )
        log.warning("remote ranker degraded for qid=%s: using window input order", window.query.qid)
        return list(window.docnos)
