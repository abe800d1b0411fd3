"""Tokenization, inverted index, BM25 retrieval, and RM3 query expansion.

In memory the index is compressed-sparse-row (CSR) arrays:

- ``terms`` (sorted), so term ids follow sorted-term order;
- postings: term t owns ``doc_ids[offsets[t]:offsets[t + 1]]`` (ascending
  u32 doc ids) and the matching u32 ``tfs``, the same widths as on disk;
- ``doc_lengths``, each doc's u32 token count as on disk, and the per-doc
  BM25 length ``norm``.

Two more structures are built on first access and then kept, so a step
that never reads one never pays its memory; a run reads the ones it needs
once during set-up, before any thread does:

- ``term_ids`` (term -> position in ``terms``), which retrieval reads and
  an index build or save does not;
- ``forward``, the forward index only RM3 reads: doc d owns
  ``term_ids[doc_offsets[d]:doc_offsets[d + 1]]`` (ascending) and the
  matching ``tfs``, so index builds, graph builds and BM25 runs skip it.

Both directions of the transpose, a build's doc-major entries into
term-major postings and the postings into ``forward``'s doc-major rows, are
one stable regroup, ``_regroup``, which holds one int64 key per entry.

Index directory layout (format version 4), every array as numpy holds it,
written with one ``tofile`` and read back with one size-checked
``read_u32``:

- ``meta.json``    -- ``{"version": 4, "doc_count": N, "avgdl": ...}``
- ``docnos.txt``   -- the store's docnos, one per line in doc-id order; the
  index only loads against a corpus store with exactly these docnos
- ``doclens.bin``  -- N little-endian u32 token counts in doc-id order
- ``terms.txt``    -- one term per line, sorted; a term's id is its line index
- ``dfs.bin``      -- one little-endian u32 per term: its postings count, so
  ``offsets`` is their cumulative sum
- ``docids.bin``   -- the postings' little-endian u32 doc ids, term after
  term, ascending within a term
- ``tfs.bin``      -- the matching little-endian u32 term frequencies
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .corpus_store import CorpusStore, Query, check_docnos, decode_utf8, read_u32

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
    return [
        token for token in _TOKEN.findall(text.lower()) if len(token) <= MAX_TOKEN_LEN and token not in STOPWORDS
    ]


class InvertedIndex:
    """Immutable CSR postings plus the stats BM25 needs, and RM3's forward
    index on demand.

    Ids are corpus-store doc ids, and retrieval returns them; only the
    store holds docnos. The layout is described in the module docstring.
    """

    def __init__(
        self,
        terms: list[str],
        offsets: np.ndarray,
        doc_ids: np.ndarray,
        tfs: np.ndarray,
        lengths: np.ndarray,
    ) -> None:
        """``lengths`` holds the u32 token count of each doc."""
        self.terms = terms
        self.offsets = offsets
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.doc_lengths = lengths
        self.doc_count = len(lengths)
        # the exact integer sum, as summing the lengths as Python ints would give
        self.avg_doc_length = int(lengths.sum(dtype=np.uint64)) / self.doc_count if self.doc_count else 0.0
        lengths = lengths.astype(np.float64)
        if self.avg_doc_length > 0:
            self.norm = K1 * (1.0 - B_LEN + B_LEN * lengths / self.avg_doc_length)
        else:
            self.norm = np.zeros_like(lengths)

    @cached_property
    def term_ids(self) -> dict[str, int]:
        """term -> id, its position in ``terms``."""
        return dict(zip(self.terms, range(len(self.terms))))

    @cached_property
    def forward(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(doc_offsets, term_ids, tfs)``: the postings regrouped by doc
        with ``_regroup``, each doc's terms in id order."""
        doc_offsets, order = _regroup(self.doc_ids, self.doc_count)
        posting_terms = np.repeat(np.arange(len(self.terms), dtype=np.int32), np.diff(self.offsets))
        term_ids = posting_terms[order]
        del posting_terms
        tfs = self.tfs[order]
        return doc_offsets, term_ids, tfs


# Entries per slice where a regroup adds positions to its keys and a build
# gathers doc ids: each slice's temporary takes 16 KiB, so neither step
# makes a second array as long as the postings.
SLICE = 2048


def _regroup(groups: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, order)``: ``order`` is the stable argsort of ``groups``
    (ids below ``n_groups``), so group g's entries are
    ``order[offsets[g]:offsets[g + 1]]``, ascending. Beyond ``groups`` it
    holds one int64 per entry."""
    keys = groups.astype(np.int64)
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    # counted from the int64 copy, which bincount reads without casting the ids
    np.cumsum(np.bincount(keys, minlength=n_groups), out=offsets[1:])
    return offsets, _stable_order(keys)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of the int64 group ids ``keys``, written over them.

    The keys group * n + position are unique, so one in-place value sort,
    faster than argsort and without its merge buffer, finds that order, and
    % n turns the keys back into positions. Keys stay below 2**32 * n <
    2**63: groups are i32 term ids or u32 doc ids, and n < 2**31 since that
    many postings would already hold 16 GiB.
    """
    n = len(keys)
    keys *= n
    for start in range(0, n, SLICE):
        chunk = keys[start : start + SLICE]
        chunk += np.arange(start, start + len(chunk), dtype=np.int64)
    keys.sort()
    keys %= n  # an empty input has n = 0 and nothing to divide
    return keys


def build_index(texts: Iterable[str]) -> InvertedIndex:
    """The index of ``texts``, doc id i for the i-th; each text is read once,
    so an iterator that lets each text go holds none of them."""
    # one (first-seen term id, tf) entry per distinct term of each doc, in doc order
    first_seen: dict[str, int] = {}
    entry_terms = array("i")
    entry_tfs = array("I")
    doc_lengths = array("I")
    distinct = array("I")
    for text in texts:
        tokens = tokenize(text)
        doc_lengths.append(len(tokens))
        counts = Counter(tokens)
        distinct.append(len(counts))
        for term, tf in counts.items():
            entry_terms.append(first_seen.setdefault(term, len(first_seen)))
            entry_tfs.append(tf)
    # each temporary is dropped as soon as it is consumed, so the peak stays
    # close to the index itself
    terms = sorted(first_seen)
    sorted_id = np.empty(len(terms), dtype=np.int32)
    sorted_id[[first_seen[term] for term in terms]] = np.arange(len(terms), dtype=np.int32)
    del first_seen
    entry_term_ids = sorted_id[np.frombuffer(entry_terms, dtype=np.intc)]
    del entry_terms, sorted_id
    # entries are in doc order, so a stable regroup by term leaves each list ascending
    offsets, order = _regroup(entry_term_ids, len(terms))
    del entry_term_ids
    tfs = np.frombuffer(entry_tfs, dtype=np.uintc)[order]
    del entry_tfs
    # entry p belongs to the first doc whose entries end after p
    ends = np.cumsum(np.frombuffer(distinct, dtype=np.uintc), dtype=np.int64)
    del distinct
    doc_ids = np.empty(len(order), dtype=np.uint32)
    for start in range(0, len(order), SLICE):
        doc_ids[start : start + SLICE] = np.searchsorted(ends, order[start : start + SLICE], side="right")
    del order, ends
    return InvertedIndex(terms, offsets, doc_ids, tfs, np.frombuffer(doc_lengths, dtype=np.uintc))


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
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    # widened once here: u32 ids would cost a conversion in every index below
    ids = np.concatenate([index.doc_ids[span] for span in lists], dtype=np.intp)
    tf = np.concatenate([index.tfs[span] for span in lists]).astype(np.float64)
    scale = np.repeat(scales, [span.stop - span.start for span in lists])
    contrib = scale * tf * (K1 + 1.0) / (tf + index.norm[ids])
    if len(lists) == 1:
        return ids, contrib
    # np.unique(ids, return_inverse=True) by hand: ids are one ascending run
    # per term, which a stable argsort sorts faster than unique's quicksort.
    # bincount adds each bin's weights in input order, i.e. in term order.
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.empty(len(ids), dtype=bool)
    first[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    inverse = np.empty(len(ids), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return sorted_ids[first], np.bincount(inverse, weights=contrib)


# Not routed through dense_index.top_k_ids: on RM3 calls of ~130 scores that took ~43 us a call against ~16 us here.
def retrieve_expanded(index: InvertedIndex, weights: Mapping[str, float], k: int) -> list[int]:
    """BM25 with per-term contributions scaled by the expanded-query
    weights: the first ``k`` doc ids of positive score, ordered score desc
    then doc id asc."""
    if k < 1:
        raise ValueError("k must be >= 1")
    docs, scores = score_weighted_terms(index, weights)
    keep = scores > 0.0
    docs, scores = docs[keep], scores[keep]
    if len(scores) > k:
        # every doc tied with the k-th best score stays, for the id tie-break
        floor = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= floor
        docs, scores = docs[keep], scores[keep]
    order = np.argsort(-scores, kind="stable")[:k]  # stable on ascending ids
    return docs[order].tolist()


def bm25_retrieve(index: InvertedIndex, query: Query, k: int) -> list[int]:
    return retrieve_expanded(index, Counter(tokenize(query.text)), k)


def check_rm3(fb_docs: int, fb_terms: int, orig_weight: float) -> None:
    """Reject RM3 parameters no expansion can use, naming the parameter."""
    for name, value in (("fb_docs", fb_docs), ("fb_terms", fb_terms)):
        if type(value) is not int or value < 1:  # bool is an int subclass and is rejected too
            raise ValueError(f"rm3 {name} must be an integer >= 1, got {value!r}")
    if type(orig_weight) not in (int, float) or not 0.0 <= orig_weight <= 1.0:
        raise ValueError(f"rm3 orig_weight must be a number in [0, 1], got {orig_weight!r}")


def rm3_expand(
    index: InvertedIndex,
    query: Query,
    ranked: list[int],
    fb_docs: int,
    fb_terms: int,
    orig_weight: float,
) -> dict[str, float]:
    """Relevance-model (RM3) term weights from ranked feedback documents.

    ``ranked`` holds doc ids, best first. Listwise rankers emit no scores,
    so the first ``fb_docs`` of them are weighted by reciprocal rank,
    normalized to sum 1. Document language models are maximum-likelihood
    (tf / doc length), unsmoothed. The ``fb_terms`` heaviest feedback terms
    are mixed in at ``1 - orig_weight``; the weights sum to 1, and are empty
    when neither query nor feedback left a usable term.
    """
    if not ranked:
        raise ValueError("feedback must be non-empty")
    check_rm3(fb_docs, fb_terms, orig_weight)

    top = ranked[:fb_docs]
    rank_weights = [1.0 / rank for rank in range(1, len(top) + 1)]
    total = sum(rank_weights)

    # keyed by term id; ids follow sorted-term order, so ties still break by term
    doc_offsets, doc_term_ids, doc_tfs = index.forward
    relevance_model: dict[int, float] = {}
    for doc_id, rank_weight in zip(top, rank_weights):
        doc_weight = rank_weight / total
        length = int(index.doc_lengths[doc_id])
        if length == 0:
            continue
        span = slice(doc_offsets[doc_id], doc_offsets[doc_id + 1])
        for term_id, tf in zip(doc_term_ids[span].tolist(), doc_tfs[span].tolist()):
            relevance_model[term_id] = relevance_model.get(term_id, 0.0) + doc_weight * tf / length

    kept = sorted(relevance_model.items(), key=lambda pair: (-pair[1], pair[0]))[:fb_terms]
    kept_total = sum(weight for _, weight in kept)
    expansion = {index.terms[term_id]: weight / kept_total for term_id, weight in kept}

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
    if total_weight <= 0:  # no feedback doc has a token, and no query term is weighted
        return {}
    if abs(total_weight - 1.0) > 1e-12:  # an empty expansion leaves only the query's share
        weights = {term: weight / total_weight for term, weight in weights.items()}
    return weights


INDEX_FORMAT_VERSION = 4


def save_index(index: InvertedIndex, out_dir: str | Path, docnos: bytes) -> None:
    """Write ``index`` to ``out_dir`` beside ``docnos``, the bytes of
    ``docnos.txt`` as ``Documents.docnos`` holds them: each doc id's docno
    and a newline, in doc-id order. They are written as they are."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "docnos.txt").write_bytes(docnos)
    index.doc_lengths.astype("<u4", copy=False).tofile(out / "doclens.bin")
    (out / "terms.txt").write_text("".join(term + "\n" for term in index.terms), encoding="utf-8")
    np.diff(index.offsets).astype("<u4").tofile(out / "dfs.bin")
    index.doc_ids.astype("<u4", copy=False).tofile(out / "docids.bin")
    index.tfs.astype("<u4", copy=False).tofile(out / "tfs.bin")
    meta = {
        "version": INDEX_FORMAT_VERSION,
        "doc_count": index.doc_count,
        "avgdl": index.avg_doc_length,
    }
    with open(out / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
        f.write("\n")


def _read_terms(path: Path) -> list[str]:
    """Sorted unique terms, one per line, each ended by a newline. The
    checks scan the whole text; a line is searched for only once one fails."""
    terms = decode_utf8(path, path.read_bytes()).split("\n")
    if terms.pop():
        raise ValueError(f"{path}:{len(terms) + 1}: no newline at the end of the file")
    # one scan over all terms, as for docnos: clean terms join into a single word
    joined = "".join(terms)
    if terms and not (all(terms) and joined.split() == [joined]):
        lineno, term = next((n, t) for n, t in enumerate(terms, start=1) if t.split() != [t])
        raise ValueError(f"{path}:{lineno}: term {term!r} is empty or contains whitespace")
    if not all(map(str.__lt__, terms, terms[1:])):
        lineno = next(n for n, (a, b) in enumerate(zip(terms, terms[1:]), start=2) if not a < b)
        raise ValueError(
            f"{path}:{lineno}: term {terms[lineno - 1]!r} is not after {terms[lineno - 2]!r}; "
            "terms must be sorted and unique"
        )
    return terms


def load_index(in_dir: str | Path, store: CorpusStore) -> InvertedIndex:
    src = Path(in_dir)
    meta_path = src / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{meta_path}: invalid index metadata ({exc})") from None
    if meta.get("version") != INDEX_FORMAT_VERSION:
        raise ValueError(
            f"{meta_path}: unsupported index format version {meta.get('version')!r} "
            f"(expected {INDEX_FORMAT_VERSION}); rebuild the index with 'slidegar build-index'"
        )
    missing = [key for key in ("doc_count", "avgdl") if key not in meta]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    doc_count = meta["doc_count"]
    if type(doc_count) is not int:  # bool is an int subclass and is rejected too
        raise ValueError(f"{meta_path}: doc_count must be an integer, got {doc_count!r}")
    if type(meta["avgdl"]) not in (int, float):
        raise ValueError(f"{meta_path}: avgdl must be a number, got {meta['avgdl']!r}")
    check_docnos(src / "docnos.txt", store, "index")
    lengths = read_u32(src / "doclens.bin", doc_count)
    terms = _read_terms(src / "terms.txt")
    dfs = read_u32(src / "dfs.bin", len(terms))
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(dfs, dtype=np.int64, out=offsets[1:])
    doc_ids = read_u32(src / "docids.bin", int(offsets[-1]))
    tfs = read_u32(src / "tfs.bin", int(offsets[-1]))

    falls = np.zeros(len(doc_ids), dtype=bool)
    np.less_equal(doc_ids[1:], doc_ids[:-1], out=falls[1:])
    falls[offsets[:-1][dfs > 0]] = False  # a list may start below where the previous one ended
    for name, bad, problem in (
        ("docids.bin", falls, "doc ids do not strictly increase"),
        ("docids.bin", doc_ids >= doc_count, f"doc id is not below doc_count {doc_count}"),
        ("tfs.bin", tfs == 0, "tf is 0"),
    ):
        if bad.any():
            posting = int(np.argmax(bad))
            term = terms[int(np.searchsorted(offsets, posting, side="right")) - 1]
            raise ValueError(f"{src / name}: term {term!r}: {problem} (posting {posting})")
    del falls

    index = InvertedIndex(terms, offsets, doc_ids, tfs, lengths)
    # avgdl is derived from doclens on load; check it agrees with what was saved
    if not abs(index.avg_doc_length - meta["avgdl"]) <= 1e-9:  # a NaN avgdl fails too
        raise ValueError(f"{src}: avgdl mismatch between meta.json and doclens.bin")
    return index
