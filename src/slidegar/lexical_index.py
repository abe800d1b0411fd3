"""Tokenization, inverted index, BM25 retrieval, and RM3 query expansion.

In memory the index is compressed-sparse-row (CSR) arrays:

- ``terms`` (sorted) and ``term_ids`` (term -> position in ``terms``), so
  term ids follow sorted-term order;
- postings: term t owns ``doc_ids[offsets[t]:offsets[t + 1]]`` (ascending)
  and the matching ``tfs``;
- ``doc_lengths`` (a list of ints) and the per-doc BM25 length ``norm``;
- a forward index: doc d owns ``doc_term_ids[doc_offsets[d]:doc_offsets[d + 1]]``
  (ascending) and the matching ``doc_tfs``. It is built with the index,
  so nothing is computed lazily and threads share only read-only arrays.

Index directory layout (format version 2):

- ``meta.json``    -- ``{"version": 2, "doc_count": N, "avgdl": ..., "dedup": ...}``
- ``docnos.txt``   -- one docno per line in doc-id order; the index only
  loads against a corpus store with exactly these docnos
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
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus_store import CorpusStore, Query, check_docnos, write_docnos
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
    """Immutable CSR postings and forward index plus the stats BM25 needs.

    ``docnos`` is the corpus store's list, so retrieval can emit external
    ids directly. The layout is described in the module docstring.
    """

    def __init__(
        self,
        terms: list[str],
        offsets: np.ndarray,
        doc_ids: np.ndarray,
        tfs: np.ndarray,
        doc_lengths: list[int],
        docnos: list[str],
        meta: dict | None = None,
    ) -> None:
        self.terms = terms
        self.term_ids = dict(zip(terms, range(len(terms))))
        self.offsets = offsets
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count if doc_lengths else 0.0
        self.docnos = docnos
        self.meta = meta or {}
        lengths = np.asarray(doc_lengths, dtype=np.float64)
        if self.avg_doc_length > 0:
            self.norm = K1 * (1.0 - B_LEN + B_LEN * lengths / self.avg_doc_length)
        else:
            self.norm = np.zeros_like(lengths)
        # forward index: a stable sort by doc id keeps each doc's terms in id order
        order = np.argsort(doc_ids, kind="stable")
        posting_terms = np.repeat(np.arange(len(terms), dtype=np.int32), np.diff(offsets))
        self.doc_term_ids = posting_terms[order]
        self.doc_tfs = tfs[order]
        self.doc_offsets = np.zeros(self.doc_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(doc_ids, minlength=self.doc_count), out=self.doc_offsets[1:])


def build_index(store: CorpusStore) -> InvertedIndex:
    # one (first-seen term id, tf) entry per distinct term of each doc, in doc order
    first_seen: dict[str, int] = {}
    entry_terms = array("i")
    entry_tfs = array("I")
    doc_lengths: list[int] = []
    distinct: list[int] = []
    for doc in store.docs:
        tokens = tokenize(doc.text)
        doc_lengths.append(len(tokens))
        counts = Counter(tokens)
        distinct.append(len(counts))
        for term, tf in counts.items():
            entry_terms.append(first_seen.setdefault(term, len(first_seen)))
            entry_tfs.append(tf)
    terms = sorted(first_seen)
    sorted_id = np.empty(len(terms), dtype=np.int64)
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms))
    entry_term_ids = sorted_id[np.frombuffer(entry_terms, dtype=np.intc)]
    entry_docs = np.repeat(np.arange(len(doc_lengths), dtype=np.int64), distinct)
    # entries are in doc order, so a stable sort by term leaves each list ascending
    order = np.argsort(entry_term_ids, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_term_ids, minlength=len(terms)), out=offsets[1:])
    tfs = np.frombuffer(entry_tfs, dtype=np.uintc)[order]
    return InvertedIndex(terms, offsets, entry_docs[order], tfs, doc_lengths, store.docnos)


def _idf(doc_count: int, df: int) -> float:
    # +1 inside the log keeps idf positive, so matching docs never score 0.
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def score_weighted_terms(index: InvertedIndex, term_weights: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """BM25 with each term's contributions scaled by its query weight.

    Returns the matching doc ids (ascending) and their scores. Every
    contribution is ``weight * idf * tf * (K1 + 1) / (tf + norm)``, and a
    document's contributions are summed in ``term_weights`` order, so the
    float sums do not depend on how the postings are laid out.
    """
    lists: list[slice] = []
    scales: list[float] = []
    for term, weight in term_weights.items():
        term_id = index.term_ids.get(term)
        if weight <= 0 or term_id is None:
            continue
        start, end = int(index.offsets[term_id]), int(index.offsets[term_id + 1])
        if start == end:
            continue
        lists.append(slice(start, end))
        scales.append(weight * _idf(index.doc_count, end - start))
    if not lists or index.avg_doc_length == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    ids = np.concatenate([index.doc_ids[span] for span in lists])
    tf = np.concatenate([index.tfs[span] for span in lists]).astype(np.float64)
    scale = np.repeat(scales, [span.stop - span.start for span in lists])
    contrib = scale * tf * (K1 + 1.0) / (tf + index.norm[ids])
    if len(lists) == 1:
        return ids, contrib
    # bincount adds each bin's weights in input order, i.e. in term order
    docs, inverse = np.unique(ids, return_inverse=True)
    return docs, np.bincount(inverse, weights=contrib)


def _cut(
    docs: np.ndarray, scores: np.ndarray, k: int, exclude: set[int] | None = None
) -> list[tuple[int, float]]:
    """Top-k (doc id, score) pairs of positive score outside ``exclude``,
    ordered score desc then doc id asc. ``docs`` must be ascending."""
    keep = scores > 0.0
    docs, scores = docs[keep], scores[keep]
    # at most len(exclude) excluded docs can precede the k-th kept one
    depth = k + (len(exclude) if exclude else 0)
    if len(scores) > depth:
        # every doc tied with the depth-th best score stays, for the id tie-break
        floor = np.partition(scores, len(scores) - depth)[len(scores) - depth]
        keep = scores >= floor
        docs, scores = docs[keep], scores[keep]
    order = np.argsort(-scores, kind="stable")[:depth]  # stable on ascending ids
    out: list[tuple[int, float]] = []
    for doc_id, score in zip(docs[order].tolist(), scores[order].tolist()):
        if exclude is None or doc_id not in exclude:
            out.append((doc_id, score))
            if len(out) == k:
                break
    return out


def top_docs(
    index: InvertedIndex, term_weights: Mapping[str, float], k: int, exclude: set[int] | None = None
) -> list[tuple[int, float]]:
    """The k best (doc id, score) pairs for a weighted query, ties by doc id."""
    return _cut(*score_weighted_terms(index, term_weights), k, exclude)


def bm25_retrieve(index: InvertedIndex, query: Query, k: int) -> Ranking:
    if k < 1:
        raise ValueError("k must be >= 1")
    weights = Counter(tokenize(query.text))
    return [ScoredDoc(index.docnos[doc_id], score) for doc_id, score in top_docs(index, weights, k)]


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

    # keyed by term id; ids follow sorted-term order, so ties still break by term
    relevance_model: dict[int, float] = {}
    for (doc_id, _), shifted_score in zip(top, shifted):
        doc_weight = shifted_score / total
        length = index.doc_lengths[doc_id]
        if length == 0:
            continue
        span = slice(index.doc_offsets[doc_id], index.doc_offsets[doc_id + 1])
        for term_id, tf in zip(index.doc_term_ids[span].tolist(), index.doc_tfs[span].tolist()):
            relevance_model[term_id] = relevance_model.get(term_id, 0.0) + doc_weight * tf / length

    kept = sorted(relevance_model.items(), key=lambda pair: (-pair[1], pair[0]))[:fb_terms]
    kept_total = sum(weight for _, weight in kept)
    expansion = {index.terms[term_id]: weight / kept_total for term_id, weight in kept} if kept_total > 0 else {}

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
    hits = top_docs(index, expanded.weights, k, exclude)
    return [ScoredDoc(index.docnos[doc_id], score) for doc_id, score in hits]


INDEX_FORMAT_VERSION = 2


def save_index(index: InvertedIndex, out_dir: str | Path, dedup: bool = False) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_docnos(out / "docnos.txt", index.docnos)
    np.asarray(index.doc_lengths, dtype="<u4").tofile(out / "doclens.bin")
    deltas = np.diff(index.doc_ids, prepend=0)
    starts = index.offsets[:-1][np.diff(index.offsets) > 0]
    deltas[starts] = index.doc_ids[starts]  # each list starts with an absolute id
    pairs = np.empty((len(deltas), 2), dtype="<u4")
    pairs[:, 0] = deltas
    pairs[:, 1] = index.tfs
    pairs.tofile(out / "postings.bin")
    with open(out / "terms.dict", "w", encoding="utf-8") as f:
        f.writelines(f"{term}\t{8 * offset}\n" for term, offset in zip(index.terms, index.offsets.tolist()))
    meta = {
        "version": INDEX_FORMAT_VERSION,
        "doc_count": index.doc_count,
        "avgdl": index.avg_doc_length,
        "dedup": dedup,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
        f.write("\n")


def _read_terms(path: Path, postings_bytes: int) -> tuple[list[str], list[int]]:
    """Sorted unique terms and their byte offsets, each checked against the
    postings file: offsets start at 0, never decrease, are multiples of 8
    and stay within the file."""
    terms: list[str] = []
    offsets: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            term, _, offset_str = line.partition("\t")
            try:
                offset = int(offset_str)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'term<TAB>offset'") from None
            if terms and term <= terms[-1]:
                raise ValueError(
                    f"{path}:{lineno}: term {term!r} is not after {terms[-1]!r}; terms must be sorted and unique"
                )
            previous = offsets[-1] if offsets else 0
            if offset % 8 or offset < previous or offset > postings_bytes or (not offsets and offset != 0):
                raise ValueError(
                    f"{path}:{lineno}: offset {offset} of term {term!r} is not a multiple of 8 in "
                    f"[{previous}, {postings_bytes}] (offsets start at 0 and never decrease)"
                )
            terms.append(term)
            offsets.append(offset)
    if not terms and postings_bytes:
        raise ValueError(f"{path}: no terms, but postings.bin holds {postings_bytes} bytes")
    return terms, offsets


def load_index(in_dir: str | Path, store: CorpusStore) -> InvertedIndex:
    src = Path(in_dir)
    with open(src / "meta.json", "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("version") != INDEX_FORMAT_VERSION:
        raise ValueError(
            f"{src / 'meta.json'}: unsupported index format version {meta.get('version')!r} "
            f"(expected {INDEX_FORMAT_VERSION}); rebuild the index with 'slidegar build-index'"
        )
    doc_count = meta["doc_count"]
    if doc_count != len(store):
        raise ValueError(
            f"{src}: index has {doc_count} docs but store has {len(store)}; "
            "was the corpus ingested with the same dedup setting?"
        )
    check_docnos(src / "docnos.txt", store, "index")
    raw_lens = (src / "doclens.bin").read_bytes()
    if len(raw_lens) != 4 * doc_count:
        raise ValueError(f"{src / 'doclens.bin'}: expected {4 * doc_count} bytes, found {len(raw_lens)}")
    doc_lengths = np.frombuffer(raw_lens, dtype="<u4").tolist()

    postings_path = src / "postings.bin"
    blob = postings_path.read_bytes()
    if len(blob) % 8:
        raise ValueError(f"{postings_path}: {len(blob)} bytes is not a whole number of 8-byte postings")
    terms, byte_offsets = _read_terms(src / "terms.dict", len(blob))
    pairs = np.frombuffer(blob, dtype="<u4").reshape(-1, 2)
    offsets = np.array(byte_offsets + [len(blob)], dtype=np.int64) // 8
    lengths = np.diff(offsets)
    deltas = pairs[:, 0].astype(np.int64)
    tfs = pairs[:, 1].copy()
    # per-list cumsum: a list's ids are the running sum minus the sum before it
    running = np.cumsum(deltas)
    before = np.concatenate(([0], running))[offsets[:-1]]
    doc_ids = running - np.repeat(before, lengths)

    first = np.zeros(len(deltas), dtype=bool)
    first[offsets[:-1][lengths > 0]] = True
    for bad, problem in (
        ((deltas == 0) & ~first, "doc ids do not strictly increase"),
        (doc_ids >= doc_count, f"doc id is not below doc_count {doc_count}"),
        (tfs == 0, "tf is 0"),
    ):
        if bad.any():
            posting = int(np.argmax(bad))
            term = terms[int(np.searchsorted(offsets, posting, side="right")) - 1]
            raise ValueError(f"{postings_path}: term {term!r}: {problem} (posting {posting})")

    index = InvertedIndex(terms, offsets, doc_ids, tfs, doc_lengths, store.docnos, meta=meta)
    # avgdl is derived from doclens on load; check it agrees with what was saved
    if abs(index.avg_doc_length - meta["avgdl"]) > 1e-9:
        raise ValueError(f"{src}: avgdl mismatch between meta.json and doclens.bin")
    return index
