"""Tokenization, inverted index, BM25 retrieval, and RM3 query expansion.

Index directory layout (format version 1):

- ``meta.json``    -- ``{"version": 1, "doc_count": N, "avgdl": ..., "dedup": ...}``
- ``doclens.bin``  -- N little-endian u32 token counts in doc-id order
- ``terms.dict``   -- ``term<TAB>offset`` lines, terms sorted; the offset
  points into postings.bin and an entry's byte length is inferred from the
  next term's offset (or end of file)
- ``postings.bin`` -- per term: df pairs of little-endian u32
  ``(doc_id_delta, tf)``; the first doc id of each list is absolute,
  subsequent ids are deltas from the previous one
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .corpus_store import CorpusStore, Query
from .ranking import Ranking, ScoredDoc

K1 = 1.2
B_LEN = 0.75

# Classic minimal English stopword list (the Lucene/Terrier default), frozen
# here so tokenization is reproducible without configuration.
STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

MAX_TOKEN_LEN = 64

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens, stopwords and over-long tokens dropped."""
    out = []
    for match in _TOKEN.finditer(text.lower()):
        token = match.group()
        if len(token) > MAX_TOKEN_LEN or token in STOPWORDS:
            continue
        out.append(token)
    return out


class InvertedIndex:
    """Immutable term -> postings map plus the stats BM25 needs.

    Postings lists hold (doc_id, tf) pairs sorted by doc id. ``docnos`` is
    the corpus store's list, so retrieval can emit external ids directly.
    """

    def __init__(
        self,
        postings: dict[str, list[tuple[int, int]]],
        doc_lengths: list[int],
        docnos: list[str],
        meta: dict | None = None,
    ) -> None:
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count if doc_lengths else 0.0
        self.docnos = docnos
        self.meta = meta or {}
        self._forward: list[dict[str, int]] | None = None

    def doc_terms(self, doc_id: int) -> dict[str, int]:
        """Term frequencies of one document, recovered from the postings."""
        if self._forward is None:
            forward: list[dict[str, int]] = [{} for _ in range(self.doc_count)]
            for term, plist in self.postings.items():
                for did, tf in plist:
                    forward[did][term] = tf
            self._forward = forward
        return self._forward[doc_id]


def build_index(store: CorpusStore) -> InvertedIndex:
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc_id, doc in enumerate(store.docs):
        tokens = tokenize(doc.text)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((doc_id, tf))
    return InvertedIndex(postings, doc_lengths, store.docnos)


def _idf(doc_count: int, df: int) -> float:
    # +1 inside the log keeps idf positive, so matching docs never score 0.
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def score_weighted_terms(index: InvertedIndex, term_weights: Mapping[str, float]) -> dict[int, float]:
    """Accumulate BM25 contributions, each term scaled by its query weight."""
    scores: dict[int, float] = {}
    if index.avg_doc_length == 0:
        return scores
    k1_plus1 = K1 + 1.0
    for term, weight in term_weights.items():
        if weight <= 0:
            continue
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = _idf(index.doc_count, len(plist))
        for doc_id, tf in plist:
            norm = K1 * (1.0 - B_LEN + B_LEN * index.doc_lengths[doc_id] / index.avg_doc_length)
            contrib = weight * idf * tf * k1_plus1 / (tf + norm)
            scores[doc_id] = scores.get(doc_id, 0.0) + contrib
    return scores


def _cut(index: InvertedIndex, scores: dict[int, float], k: int, exclude: set[int] | None = None) -> Ranking:
    """Top-k positive scores, ordered score desc then doc id asc."""
    items = [
        (doc_id, score)
        for doc_id, score in scores.items()
        if score > 0.0 and (exclude is None or doc_id not in exclude)
    ]
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    return [ScoredDoc(index.docnos[doc_id], score) for doc_id, score in items[:k]]


def bm25_retrieve(index: InvertedIndex, query: Query, k: int) -> Ranking:
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = Counter(tokenize(query.text))
    return _cut(index, score_weighted_terms(index, weights), k)


@dataclass(frozen=True)
class ExpandedQuery:
    """Weighted query terms; weights are finite, non-negative, sum to 1."""

    weights: dict[str, float]

    def __post_init__(self) -> None:
        if not self.weights or not any(w > 0 for w in self.weights.values()):
            raise ValueError("expanded query needs at least one positive-weight term")
        for term, weight in self.weights.items():
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"invalid weight {weight!r} for term {term!r}")


def rm3_expand(
    index: InvertedIndex,
    query: Query,
    feedback: list[tuple[int, float]],
    fb_docs: int = 10,
    fb_terms: int = 10,
    orig_weight: float = 0.6,
) -> ExpandedQuery:
    """Relevance-model expansion from ranked feedback documents.

    ``feedback`` carries (doc_id, score) pairs, best first; listwise rankers
    emit no scores, so callers supply reciprocal ranks. Document language
    models are maximum-likelihood (tf / doc length), unsmoothed. Feedback
    scores are shifted to be non-negative and normalized to sum 1; if
    every score collapses to zero the documents are weighted uniformly.
    """
    if not feedback:
        raise ValueError("feedback must be non-empty")
    if fb_docs < 1 or fb_terms < 1:
        raise ValueError("fb_docs and fb_terms must be >= 1")
    if not 0.0 <= orig_weight <= 1.0:
        raise ValueError("orig_weight must be in [0, 1]")

    top = feedback[: min(fb_docs, len(feedback))]
    raw = [score for _, score in top]
    low = min(raw)
    shifted = [score - low for score in raw] if low < 0 else list(raw)
    total = sum(shifted)
    if total <= 0:
        shifted = [1.0] * len(top)
        total = float(len(top))

    relevance_model: dict[str, float] = {}
    for (doc_id, _), shifted_score in zip(top, shifted):
        doc_weight = shifted_score / total
        length = index.doc_lengths[doc_id]
        if length == 0:
            continue
        for term, tf in index.doc_terms(doc_id).items():
            relevance_model[term] = relevance_model.get(term, 0.0) + doc_weight * tf / length

    kept = sorted(relevance_model.items(), key=lambda pair: (-pair[1], pair[0]))[:fb_terms]
    kept_total = sum(weight for _, weight in kept)
    expansion = {term: weight / kept_total for term, weight in kept} if kept_total > 0 else {}

    query_tokens = tokenize(query.text)
    weights: dict[str, float] = {}
    if query_tokens:
        unit = orig_weight / len(query_tokens)
        for token in query_tokens:
            weights[token] = weights.get(token, 0.0) + unit
        mix = 1.0 - orig_weight
    else:
        mix = 1.0  # nothing survives tokenization: expansion terms only
    for term, weight in expansion.items():
        weights[term] = weights.get(term, 0.0) + mix * weight

    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise ValueError("expansion produced no usable terms")
    if abs(total_weight - 1.0) > 1e-12:  # degenerate inputs (e.g. empty expansion)
        weights = {term: weight / total_weight for term, weight in weights.items()}
    return ExpandedQuery(weights)


def retrieve_expanded(
    index: InvertedIndex, expanded: ExpandedQuery, k: int, exclude: set[int] | None = None
) -> Ranking:
    """BM25 with per-term contributions scaled by the expanded-query weights."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _cut(index, score_weighted_terms(index, expanded.weights), k, exclude=exclude)


INDEX_FORMAT_VERSION = 1


def save_index(index: InvertedIndex, out_dir: str | Path, dedup: bool = False) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "doclens.bin", "wb") as f:
        f.write(struct.pack(f"<{index.doc_count}I", *index.doc_lengths))
    dict_lines: list[str] = []
    with open(out / "postings.bin", "wb") as f:
        offset = 0
        for term in sorted(index.postings):
            dict_lines.append(f"{term}\t{offset}\n")
            values: list[int] = []
            prev = 0
            for i, (doc_id, tf) in enumerate(index.postings[term]):
                values.append(doc_id if i == 0 else doc_id - prev)
                values.append(tf)
                prev = doc_id
            payload = struct.pack(f"<{len(values)}I", *values)
            f.write(payload)
            offset += len(payload)
    with open(out / "terms.dict", "w", encoding="utf-8") as f:
        f.writelines(dict_lines)
    meta = {
        "version": INDEX_FORMAT_VERSION,
        "doc_count": index.doc_count,
        "avgdl": index.avg_doc_length,
        "dedup": dedup,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
        f.write("\n")


def load_index(in_dir: str | Path, store: CorpusStore) -> InvertedIndex:
    src = Path(in_dir)
    with open(src / "meta.json", "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("version") != INDEX_FORMAT_VERSION:
        raise ValueError(f"{src}: unsupported index format version {meta.get('version')!r}")
    if meta["doc_count"] != len(store):
        raise ValueError(
            f"{src}: index has {meta['doc_count']} docs but store has {len(store)}; "
            "was the corpus ingested with the same dedup setting?"
        )
    raw_lens = (src / "doclens.bin").read_bytes()
    doc_lengths = list(struct.unpack(f"<{meta['doc_count']}I", raw_lens))
    blob = (src / "postings.bin").read_bytes()
    entries: list[tuple[str, int]] = []
    with open(src / "terms.dict", "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            term, _, offset_str = line.partition("\t")
            if not offset_str:
                raise ValueError(f"{src / 'terms.dict'}:{lineno}: expected 'term<TAB>offset'")
            entries.append((term, int(offset_str)))
    postings: dict[str, list[tuple[int, int]]] = {}
    for i, (term, offset) in enumerate(entries):
        end = entries[i + 1][1] if i + 1 < len(entries) else len(blob)
        values = struct.unpack(f"<{(end - offset) // 4}I", blob[offset:end])
        plist: list[tuple[int, int]] = []
        doc_id = 0
        for j in range(0, len(values), 2):
            doc_id = values[j] if j == 0 else doc_id + values[j]
            plist.append((doc_id, values[j + 1]))
        postings[term] = plist
    index = InvertedIndex(postings, doc_lengths, store.docnos, meta=meta)
    # avgdl is derived from doclens on load; check it agrees with what was saved
    if abs(index.avg_doc_length - meta["avgdl"]) > 1e-9:
        raise ValueError(f"{src}: avgdl mismatch between meta.json and doclens.bin")
    return index
