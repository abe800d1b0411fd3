import hashlib

import pytest

from slidegar.corpus_graph import SENTINEL
from slidegar.corpus_store import Query, ingest_corpus, load_qrels, load_queries
from slidegar.dense_index import load_embeddings
from slidegar.lexical_index import bm25_retrieve, build_index, tokenize
from slidegar.synth import SynthSpec, generate

SMALL = dict(
    n_clusters=3,
    docs_per_cluster=25,
    vocab_per_cluster=12,
    shared_vocab=4,
    dim=8,
    n_queries=3,
    relevant_per_query=6,
)


def file_hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_spec_validation():
    with pytest.raises(ValueError, match="^n_clusters must be >= 1, got 0$"):
        SynthSpec(n_clusters=0)
    with pytest.raises(ValueError, match="retrieval_gap"):
        SynthSpec(retrieval_gap=1.0)
    with pytest.raises(ValueError, match="n_queries"):
        SynthSpec(n_clusters=2, n_queries=3)
    with pytest.raises(ValueError, match="dim"):
        SynthSpec(dim=4)
    with pytest.raises(ValueError, match="vocabulary too small"):
        SynthSpec(**{**SMALL, "vocab_per_cluster": 5})
    with pytest.raises(ValueError, match="relevant_per_query"):
        SynthSpec(**{**SMALL, "docs_per_cluster": 4})


def test_gap_zero_gives_perfect_bm25_recall(tmp_path):
    spec = SynthSpec(**SMALL, retrieval_gap=0.0, seed=3)
    manifest = generate(spec, tmp_path)
    store = ingest_corpus(tmp_path / "corpus.tsv")
    index = build_index(store.texts)
    for info in manifest["queries"]:
        assert info["hidden"] == []
        relevant = set(info["visible"])
        result = bm25_retrieve(index, Query(info["qid"], " ".join(info["query_terms"])), len(relevant))
        assert {store.docnos[i] for i in result} == relevant  # Recall@|relevant| = 1.0


def test_gap_half_hides_exactly_half(tmp_path):
    spec = SynthSpec(**{**SMALL, "relevant_per_query": 10, "docs_per_cluster": 30}, retrieval_gap=0.5, seed=4)
    manifest = generate(spec, tmp_path)
    for info in manifest["queries"]:
        assert len(info["hidden"]) == 5 and len(info["visible"]) == 5
    store = ingest_corpus(tmp_path / "corpus.tsv")
    for info in manifest["queries"]:
        qterms = set(info["query_terms"])
        for docno in info["hidden"]:
            assert not qterms & set(tokenize(store.texts[store.id_of[docno]]))


def test_same_seed_is_byte_identical(tmp_path):
    spec = SynthSpec(**SMALL, seed=7)
    generate(spec, tmp_path / "a")
    generate(spec, tmp_path / "b")
    assert file_hashes(tmp_path / "a") == file_hashes(tmp_path / "b")
    generate(SynthSpec(**SMALL, seed=8), tmp_path / "c")
    assert file_hashes(tmp_path / "a") != file_hashes(tmp_path / "c")


def test_bm25_never_retrieves_hidden_docs(synth_bundle):
    for info in synth_bundle.manifest["queries"]:
        query = Query(info["qid"], " ".join(info["query_terms"]))
        result = bm25_retrieve(synth_bundle.index, query, len(synth_bundle.store))
        assert not {synth_bundle.store.docnos[i] for i in result} & set(info["hidden"])


def test_initial_pool_is_full_budget(synth_bundle):
    # distractor construction: BM25 must fill well past the visible docs
    for info in synth_bundle.manifest["queries"]:
        query = Query(info["qid"], " ".join(info["query_terms"]))
        result = [synth_bundle.store.docnos[i] for i in bm25_retrieve(synth_bundle.index, query, 50)]
        assert len(result) >= 20
        assert result[:5] == sorted(info["visible"]) or set(result[: len(info["visible"])]) == set(info["visible"])


def test_dense_graph_connects_hidden_docs(synth_bundle):
    graph = synth_bundle.graph
    total = connected = 0
    for info in synth_bundle.manifest["queries"]:
        visible = set(info["visible"])
        for docno in info["hidden"]:
            total += 1
            row = graph[synth_bundle.store.id_of[docno]].tolist()
            neighbours = {synth_bundle.store.docnos[i] for i in row if i != SENTINEL}
            if neighbours & visible:
                connected += 1
    assert total > 0
    assert connected / total >= 0.9


def test_qrels_grades(tmp_path):
    spec = SynthSpec(**SMALL, seed=5)
    manifest = generate(spec, tmp_path)
    info = manifest["queries"][0]
    grades = load_qrels(tmp_path / "qrels.txt")[info["qid"]]
    for docno in info["visible"] + info["hidden"]:
        assert grades[docno] == 2
    for docno in info["near_misses"]:
        assert grades[docno] == 1


def test_embeddings_and_queries_load(tmp_path):
    spec = SynthSpec(**SMALL, seed=6)
    generate(spec, tmp_path)
    store = ingest_corpus(tmp_path / "corpus.tsv")
    embeddings = load_embeddings(tmp_path / "embeddings.bin", store)
    assert embeddings.shape == (len(store), spec.dim)
    queries = load_queries(tmp_path / "queries.tsv")
    assert len(queries) == spec.n_queries


def test_distractors_are_disjoint_across_queries(synth_bundle):
    seen = set()
    for info in synth_bundle.manifest["queries"]:
        distractors = set(info["distractors"])
        assert not distractors & seen
        seen |= distractors
        assert len(distractors) == synth_bundle.spec.relevant_per_query + 10
