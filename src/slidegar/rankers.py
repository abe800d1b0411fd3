"""Listwise-ranker contract plus test doubles and a remote HTTP client.

A listwise ranker sees a window of documents for one query and returns an
ordering (a permutation of the window's store doc ids), never scores. A
``Window(query, ids, store)`` holds the candidates' ids in the order the
ranker sees them and is checked once when it is built: non-empty, no
repeated id. Its ``docnos`` and ``texts`` are read from the store on
access, so only a ranker that sends text out of the process pays for them.
``ListwiseRanker.rank`` is the only entry point. It verifies every
response to be a permutation: local rankers raise on violation, the remote
client retries and finally degrades to the window's input order so long
experiments survive a misbehaving model endpoint. The ranker reports on
the window how many attempts the call took and whether it degraded.

Wire protocol: ``POST {endpoint}/rerank`` with JSON body
``{"qid": ..., "query": ..., "candidates": [{"docno": ..., "text": ...}, ...]}``;
the endpoint answers HTTP 200 with ``{"ordering": [docno, ...]}``, a JSON
object whose ``ordering`` is a list of strings. Any other status, a
malformed response or body, or a non-permutation takes the retry path.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from typing import Sequence

from .corpus_store import CorpusStore, Query

log = logging.getLogger(__name__)

# Per-document text cap (whitespace tokens) sent to remote rankers, keeping
# a full window inside a few thousand model tokens.
MAX_DOC_TOKENS = 512


class Window:
    """One query plus the store ids of its candidates, in the order the
    ranker sees them, and the call's outcome: ``attempts`` made and whether
    it ``degraded`` to the input order. Every call gets a window of its own,
    so concurrent calls share no counter."""

    __slots__ = ("query", "ids", "store", "attempts", "degraded")

    def __init__(self, query: Query, ids: Sequence[int], store: CorpusStore) -> None:
        ids = tuple(ids)
        if not ids:
            raise ValueError("window must contain at least one document")
        if len(set(ids)) != len(ids):
            raise ValueError("window contains duplicate ids")
        self.query = query
        self.ids = ids
        self.store = store
        self.attempts = 1
        self.degraded = False

    @property
    def docnos(self) -> tuple[str, ...]:
        docnos = self.store.docnos
        return tuple([docnos[i] for i in self.ids])

    @property
    def texts(self) -> tuple[str, ...]:
        texts = self.store.texts
        return tuple([texts[i] for i in self.ids])


def is_permutation(ordering: Sequence, items: tuple) -> bool:
    return len(ordering) == len(items) and set(ordering) == set(items)


class ListwiseRanker:
    """Base contract; subclasses implement _order()."""

    name = "listwise"

    def rank(self, window: Window) -> list[int]:
        """The window's ids, best first, checked to be a permutation."""
        ordering = list(self._order(window))
        if not is_permutation(ordering, window.ids):
            raise ValueError(f"{self.name}: response is not a permutation of the window")
        return ordering

    def _order(self, window: Window) -> list[int]:
        raise NotImplementedError


class IdentityRanker(ListwiseRanker):
    name = "identity"

    def _order(self, window: Window) -> list[int]:
        return list(window.ids)


class OracleRanker(ListwiseRanker):
    """Orders by qrel grade descending; unjudged docs count as grade 0 and
    ties keep the window order (stable sort)."""

    name = "oracle"

    def __init__(self, grades: dict[str, dict[int, int]]) -> None:
        self.grades = grades  # qid -> doc id -> grade, as corpus_store.map_qrels returns them

    def _order(self, window: Window) -> list[int]:
        per_query = self.grades.get(window.query.qid, {})
        return sorted(window.ids, key=lambda doc_id: -per_query.get(doc_id, 0))


def _window_rng(seed: int, window: Window) -> random.Random:
    # Derived from (seed, qid, the window's docnos) so the same window always
    # gets the same perturbation, regardless of call order, threading or the
    # ids a corpus with other documents would give it.
    import hashlib  # here, not at module level: it loads OpenSSL, about 3 ms of every CLI process

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

    def __init__(self, grades: dict[str, dict[int, int]], swap_prob: float, seed: int) -> None:
        super().__init__(grades)
        if not 0.0 <= swap_prob <= 1.0:
            raise ValueError("swap_prob must be in [0, 1]")
        self.swap_prob = swap_prob
        self.seed = seed

    def _order(self, window: Window) -> list[int]:
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

    Failures (timeouts, non-200 statuses, malformed responses or bodies,
    non-permutation orderings) are retried with exponential backoff; once
    attempts are exhausted the window's input order is used and the
    degradation is logged and marked on the window, so a flaky endpoint
    degrades quality instead of crashing runs. One logical rank() counts
    once as a call, and the window records how many attempts it took. The
    checks run on docnos, as the endpoint answers them; an accepted answer
    is mapped back to the window's ids.
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
        if timeout > threading.TIMEOUT_MAX:  # the socket layer overflows above it
            raise ValueError(f"timeout must be <= {threading.TIMEOUT_MAX}")
        self.url = endpoint.rstrip("/") + "/rerank"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.headers = {"Content-Type": "application/json"}
        if auth:
            self.headers["Authorization"] = auth

    def _order(self, window: Window) -> list[int]:
        import urllib.request  # here, not at module level: it costs every CLI process about 20 ms
        from http.client import HTTPException  # a malformed response: a bad status line, a short body

        docnos = window.docnos
        payload = {
            "qid": window.query.qid,
            "query": window.query.text,
            "candidates": [
                {"docno": docno, "text": truncate_doc_text(text)} for docno, text in zip(docnos, window.texts)
            ],
        }
        body = json.dumps(payload).encode("utf-8")
        attempts = self.retries + 1
        for attempt in range(attempts):
            window.attempts = attempt + 1
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                request = urllib.request.Request(self.url, data=body, headers=self.headers, method="POST")
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    data = json.loads(response.read().decode("utf-8"))
                ordering = data["ordering"]  # KeyError, or TypeError unless data is a JSON object
                if not (isinstance(ordering, list) and all(isinstance(d, str) for d in ordering)):
                    raise TypeError("'ordering' is not a list of strings")
            except (HTTPException, OSError, ValueError, KeyError, TypeError) as exc:
                log.warning(
                    "remote ranker request failed (attempt %d/%d, qid=%s): %s",
                    attempt + 1, attempts, window.query.qid, exc,
                )
                continue
            if is_permutation(ordering, docnos):
                id_by_docno = dict(zip(docnos, window.ids))
                return [id_by_docno[docno] for docno in ordering]
            log.warning(
                "remote ranker returned a non-permutation (attempt %d/%d, qid=%s)",
                attempt + 1, attempts, window.query.qid,
            )
        log.warning("remote ranker degraded for qid=%s: using window input order", window.query.qid)
        window.degraded = True
        return list(window.ids)
