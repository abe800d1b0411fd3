"""The inter-stage currency: an ordered list of (docno, score) pairs."""

from __future__ import annotations

from typing import NamedTuple


class ScoredDoc(NamedTuple):
    docno: str
    score: float


# Rankings are plain lists of ScoredDoc, best first.
Ranking = list[ScoredDoc]

