"""Listwise-ranker contract, the one in-process ranker and a remote HTTP client.

A listwise ranker sees a window of documents for one query and returns an
ordering (a permutation of the window's store doc ids), never scores. A
``Window(query, ids)`` holds the candidates' ids in the order the ranker
sees them and is checked once when it is built: non-empty, no repeated
id. A ranker that reads more of a document than its id is given what it
reads when it is built: the swapping oracle the store's docno column, the
remote client the store itself, so the window loop deals only in ids.
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
import math
import random
import threading
import time
from typing import Sequence

from .corpus_store import CorpusStore, Query

log = logging.getLogger(__name__)

# Per-document text cap (whitespace tokens) sent to remote rankers, keeping
# a full window inside a few thousand model tokens.
MAX_DOC_TOKENS = 512

# Seconds before a remote ranker's first retry; each later retry waits twice as long.
BACKOFF_S = 0.5


class Window:
    """One query plus the store ids of its candidates, in the order the
    ranker sees them, and the call's outcome: ``attempts`` made and whether
    it ``degraded`` to the input order. Every call gets a window of its own,
    so concurrent calls share no counter."""

    __slots__ = ("query", "ids", "attempts", "degraded")

    def __init__(self, query: Query, ids: Sequence[int]) -> None:
        ids = tuple(ids)
        if not ids:
            raise ValueError("window must contain at least one document")
        if len(set(ids)) != len(ids):
            raise ValueError("window contains duplicate ids")
        self.query = query
        self.ids = ids
        self.attempts = 1
        self.degraded = False


def is_permutation(ordering: Sequence, items: Sequence) -> bool:
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


def _window_rng(seed: int, qid: str, docnos: Sequence[str]) -> random.Random:
    # Derived from (seed, qid, the window's docnos) so the same window always
    # gets the same perturbation, regardless of call order, threading or the
    # ids a corpus with other documents would give it.
    import hashlib  # here, not at module level: it loads OpenSSL, about 3 ms of every CLI process

    digest = hashlib.sha256("\x00".join([str(seed), qid, *docnos]).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


class OracleRanker(ListwiseRanker):
    """The in-process ranker: by qrel grade descending, unjudged docs at 0 and
    ties in window order (stable sort), so without grades it is the identity.
    With ``swap_prob > 0`` each adjacent pair is then swapped with that
    probability, under a generator seeded from ``seed``, the qid and the
    window's docnos, read from ``docnos`` (the store's column)."""

    name = "oracle"

    def __init__(self, grades: dict[str, dict[int, int]], docnos: Sequence[str] | None = None,
                 swap_prob: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= swap_prob <= 1.0:
            raise ValueError("swap_prob must be in [0, 1]")
        if swap_prob > 0 and docnos is None:  # an empty corpus's docnos are fine: it has no window
            raise ValueError("swap_prob > 0 requires the store's docnos")
        self.grades = grades  # qid -> doc id -> grade, as corpus_store.map_qrels returns them
        self.docnos = docnos
        self.swap_prob = swap_prob
        self.seed = seed

    def _order(self, window: Window) -> list[int]:
        per_query = self.grades.get(window.query.qid, {})
        order = sorted(window.ids, key=lambda doc_id: -per_query.get(doc_id, 0))
        if self.swap_prob:
            rng = _window_rng(self.seed, window.query.qid, [self.docnos[i] for i in window.ids])
            for i in range(len(order) - 1):
                if rng.random() < self.swap_prob:
                    order[i], order[i + 1] = order[i + 1], order[i]
        return order


def check_remote(timeout: float, retries: int) -> None:
    """Reject remote-ranker settings: ``retries`` below 0, a ``timeout``
    outside ``(0, threading.TIMEOUT_MAX]``, and a last sleep,
    ``BACKOFF_S * 2 ** (retries - 1)`` seconds, above ``threading.TIMEOUT_MAX``;
    beyond it the socket and the sleep overflow."""
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if not timeout > 0:  # also rejects NaN
        raise ValueError(f"timeout must be > 0, got {timeout!r}")
    if timeout > threading.TIMEOUT_MAX:
        raise ValueError(f"timeout must be <= {threading.TIMEOUT_MAX}, got {timeout!r}")
    if retries > 0 and math.log2(BACKOFF_S) + retries - 1 > math.log2(threading.TIMEOUT_MAX):
        raise ValueError(f"retries {retries} with backoff {BACKOFF_S} s would sleep more than {threading.TIMEOUT_MAX} s")


def truncate_doc_text(text: str) -> str:
    return " ".join(text.split()[:MAX_DOC_TOKENS])


class RemoteRanker(ListwiseRanker):
    """HTTP client for a real listwise model behind the wire protocol above;
    it reads the candidates' docnos and texts from ``store``.

    Failures (timeouts, non-200 statuses, malformed responses or bodies,
    non-permutation orderings) are retried with exponential backoff from
    ``BACKOFF_S``; once attempts are exhausted the window's input order is
    used and the degradation is logged and marked on the window, so a flaky
    endpoint degrades quality instead of crashing runs. One logical rank() counts
    once as a call, and the window records how many attempts it took. The
    checks run on docnos, as the endpoint answers them; an accepted answer
    is mapped back to the window's ids.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str,
        store: CorpusStore,
        timeout: float = 30.0,
        retries: int = 3,
        auth: str | None = None,
    ) -> None:
        check_remote(timeout, retries)
        self.url = endpoint.rstrip("/") + "/rerank"
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.headers = {"Content-Type": "application/json"}
        if auth:
            self.headers["Authorization"] = auth

    def _order(self, window: Window) -> list[int]:
        import urllib.request  # here, not at module level: it costs every CLI process about 20 ms
        from http.client import HTTPException  # a malformed response: a bad status line, a short body

        docnos = [self.store.docnos[i] for i in window.ids]
        payload = {
            "qid": window.query.qid,
            "query": window.query.text,
            "candidates": [
                {"docno": docno, "text": truncate_doc_text(self.store.texts[i])} for docno, i in zip(docnos, window.ids)
            ],
        }
        body = json.dumps(payload).encode("utf-8")
        attempts = self.retries + 1
        for attempt in range(attempts):
            window.attempts = attempt + 1
            if attempt:
                time.sleep(math.ldexp(BACKOFF_S, attempt - 1))  # BACKOFF_S * 2 ** (attempt - 1), never an int
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
