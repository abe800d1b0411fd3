from contextlib import contextmanager

import numpy as np
import pytest

from slidegar import corpus_store, rankers
from slidegar.corpus_graph import SENTINEL, build_graph_dense
from slidegar.corpus_store import CorpusStore, ingest_corpus, load_qrels, load_queries, map_qrels
from slidegar.dense_index import load_embeddings
from slidegar.lexical_index import build_index
from slidegar.synth import SynthSpec, generate


def make_store(docs: dict[str, str]) -> CorpusStore:
    return CorpusStore(list(docs), list(docs.values()))


def dropped_twins(store: CorpusStore) -> dict[str, str]:
    """Dropped docno -> kept docno: the docnos ``store.id_of`` maps to a twin's id."""
    return {docno: store.docnos[i] for docno, i in store.id_of.items() if store.docnos[i] != docno}


# a few bytes: every record, CRLF pair, multi-byte character, cut-short
# sequence and byte-order mark falls across where a block's read stops
BLOCK_SIZES = (corpus_store.BLOCK_BYTES, 1, 2, 5)


@pytest.fixture
def short_backoff(monkeypatch):
    """Remote rankers wait 0.01 s before their first retry, not ``rankers.BACKOFF_S``."""
    monkeypatch.setattr(rankers, "BACKOFF_S", 0.01)


@contextmanager
def block_bytes(size: int):
    """Line-oriented files (corpus, queries, qrels, run files) read in blocks
    of ``size`` bytes, then the rest of the line, within the block."""
    saved, corpus_store.BLOCK_BYTES = corpus_store.BLOCK_BYTES, size
    try:
        yield
    finally:
        corpus_store.BLOCK_BYTES = saved


def graph_from_dict(adjacency: dict[str, list[str]], names: list[str], k: int) -> np.ndarray:
    """Hand-built adjacency matrix over docnos; absent slots stay sentinel."""
    ids = {name: i for i, name in enumerate(names)}
    rows = np.full((len(names), k), SENTINEL, dtype=np.uint32)
    for name, nbs in adjacency.items():
        for slot, nb in enumerate(nbs):
            rows[ids[name], slot] = ids[nb]
    return rows


class SynthBundle:
    """Everything the quantitative tests need, built once per session."""

    def __init__(self, out_dir):
        self.dir = out_dir
        self.spec = SynthSpec(seed=7)
        self.manifest = generate(self.spec, out_dir)
        self.store = ingest_corpus(out_dir / "corpus.tsv")
        self.index = build_index(self.store.texts)
        self.embeddings = load_embeddings(out_dir / "embeddings.bin", self.store)
        self.graph = build_graph_dense(self.embeddings, 16)
        self.queries = load_queries(out_dir / "queries.tsv")
        self.grades, absent = map_qrels(load_qrels(out_dir / "qrels.txt"), self.store)
        assert not absent
        self.by_qid = {info["qid"]: info for info in self.manifest["queries"]}

    def grades_by_docno(self, qid):
        """One query's grades keyed by docno, as the run-file metrics read them."""
        return {self.store.docnos[doc_id]: grade for doc_id, grade in self.grades[qid].items()}


@pytest.fixture(scope="session")
def synth_bundle(tmp_path_factory) -> SynthBundle:
    return SynthBundle(tmp_path_factory.mktemp("synthdata"))
