"""Dict-of-tuples reference for BM25 scoring, the top-k cut and RM3.

A plain transcription of the scoring rules over ``{term: [(doc_id, tf)]}``
postings and ``[{term: tf}]`` forward dicts, kept free of numpy so it
shares no layout with the CSR engine it checks. Scores are summed per
document in query-term order, which is the order the engine promises.
"""

import math
from collections import Counter

from slidegar.lexical_index import B_LEN, K1, tokenize


class RefIndex:
    def __init__(self, texts):
        self.postings = {}
        self.forward = []
        self.doc_lengths = []
        for doc_id, text in enumerate(texts):
            tokens = tokenize(text)
            self.doc_lengths.append(len(tokens))
            counts = dict(sorted(Counter(tokens).items()))
            self.forward.append(counts)
            for term, tf in counts.items():
                self.postings.setdefault(term, []).append((doc_id, tf))
        self.doc_count = len(self.doc_lengths)
        self.avg_doc_length = sum(self.doc_lengths) / self.doc_count if self.doc_count else 0.0


def score_weighted_terms(index, term_weights):
    scores = {}
    if index.avg_doc_length == 0:
        return scores
    for term, weight in term_weights.items():
        if weight <= 0:
            continue
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        for doc_id, tf in plist:
            norm = K1 * (1.0 - B_LEN + B_LEN * index.doc_lengths[doc_id] / index.avg_doc_length)
            contrib = weight * idf * tf * (K1 + 1.0) / (tf + norm)
            scores[doc_id] = scores.get(doc_id, 0.0) + contrib
    return scores


def cut(scores, k, exclude=None):
    """Top-k (doc_id, score) of positive score, score desc then doc id asc."""
    items = [
        (doc_id, score)
        for doc_id, score in scores.items()
        if score > 0.0 and (exclude is None or doc_id not in exclude)
    ]
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    return items[:k]


def rm3_weights(index, query_text, ranked, fb_docs=10, fb_terms=10, orig_weight=0.6):
    """RM3 weights from ranked doc ids, each feedback doc weighted by 1 / rank."""
    top = [(doc_id, 1.0 / rank) for rank, doc_id in enumerate(ranked[:fb_docs], start=1)]
    total = sum(score for _, score in top)
    relevance_model = {}
    for doc_id, score in top:
        doc_weight = score / total
        length = index.doc_lengths[doc_id]
        if length == 0:
            continue
        for term, tf in index.forward[doc_id].items():
            relevance_model[term] = relevance_model.get(term, 0.0) + doc_weight * tf / length
    kept = sorted(relevance_model.items(), key=lambda pair: (-pair[1], pair[0]))[:fb_terms]
    kept_total = sum(weight for _, weight in kept)
    expansion = {term: weight / kept_total for term, weight in kept} if kept_total > 0 else {}
    query_tokens = tokenize(query_text)
    weights = {}
    if query_tokens:
        unit = orig_weight / len(query_tokens)
        for token in query_tokens:
            weights[token] = weights.get(token, 0.0) + unit
        mix = 1.0 - orig_weight
    else:
        mix = 1.0
    for term, weight in expansion.items():
        weights[term] = weights.get(term, 0.0) + mix * weight
    total_weight = sum(weights.values())
    if abs(total_weight - 1.0) > 1e-12:
        weights = {term: weight / total_weight for term, weight in weights.items()}
    return weights
