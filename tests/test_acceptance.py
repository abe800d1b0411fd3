"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import graph_from_dict, make_store
from mockserver import scripted_server
from refsim import graph_feedback, simulate_baseline, simulate_window_loop
from slidegar.adaptive_rerank import (
    RerankConfig,
    expected_llm_calls,
    slidegar,
    slidegar_rm3,
    sliding_window_baseline,
    telemetry_record,
)
from slidegar.cli import main
from slidegar.corpus_graph import build_graph_dense, build_graph_lexical, save_graph
from slidegar.corpus_store import CorpusStore, Query
from slidegar.eval import ndcg_at, recall_at
from slidegar.lexical_index import bm25_retrieve, build_index
from slidegar.rankers import (
    IdentityRanker,
    ListwiseRanker,
    OracleRanker,
    RemoteRanker,
    Window,
)
from test_adaptive_rerank import (
    RecordingRanker,
    ReverseRanker,
    by_id,
    docnos_of,
    ids_of,
    make_pair,
    names_store,
    random_instance,
    sim_rank,
)
from test_corpus_graph import adjacency_rows, brute_force_dense, brute_force_lexical

Q = Query("q1", "query text")


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    else:
        print(f"PASS: {name}")


# ---------------------------------------------------------------------------


def test_call_count_exactness(synth_bundle):
    with criterion(
        "call-count exactness: ceil((c-w)/b)+1, defaults 4 and 9, 200 random configs, "
        "short frontiers of a synth dense graph"
    ):
        started = time.perf_counter()
        names = [f"d{i:03d}" for i in range(420)]
        store = names_store(names)
        graph = graph_from_dict({}, names, 1)

        for c, expected in ((50, 4), (100, 9)):
            cfg = RerankConfig(w=20, b=10, c=c, truncate_k=1)
            result = slidegar(Q, ids_of(store, names[: c + 40]), IdentityRanker(), graph, cfg, store)
            assert result.calls == expected == expected_llm_calls(cfg)

        rng = random.Random(2024)
        for _ in range(200):
            w = rng.randint(2, 40)
            b = rng.randint(1, w - 1)
            c = rng.randint(w, min(w + 150, 380))
            cfg = RerankConfig(w=w, b=b, c=c, truncate_k=1)
            pool = names[: c + b + w]  # adequate |R0|: never exhausted mid-run
            result = slidegar(Q, ids_of(store, pool), IdentityRanker(), graph, cfg, store)
            assert result.calls == expected_llm_calls(cfg), (w, b, c)

        # A real dense graph with short frontiers: R0 is the BM25 pool padded
        # with the rest of the corpus in id order, and truncated neighbour
        # lists offer fewer than b unblocked documents in many windows.
        oracle = OracleRanker(synth_bundle.grades)
        every_id = list(range(len(synth_bundle.store)))
        mixed = 0
        for c, truncate_k in ((50, 2), (50, 16), (100, 4), (100, 16)):
            cfg = RerankConfig(w=20, b=10, c=c, truncate_k=truncate_k)
            for query in synth_bundle.queries:
                hits = bm25_retrieve(synth_bundle.index, query, c)
                r0 = list(dict.fromkeys(hits + every_id))[: c + cfg.w]
                recorder = RecordingRanker(oracle)
                result = slidegar(query, r0, recorder, synth_bundle.graph, cfg, synth_bundle.store)
                assert result.calls == expected_llm_calls(cfg), (query.qid, c, truncate_k)
                in_r0 = set(docnos_of(synth_bundle.store, r0))
                for window, _ in recorder.seen[1:]:
                    assert len(window) == 2 * cfg.b
                    mixed += 0 < sum(d in in_r0 for d in window[cfg.b :]) < cfg.b
        assert mixed > 0  # some fresh half held both frontier and R0 documents
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_hand_trace_and_randomized_oracle_equivalence():
    with criterion("hand-trace reproduction + 1000-instance reference-simulator equivalence"):
        # worked adaptive example: w=2 b=1 c=4, graph d2->[d9], d1->[d8]
        names = ["d1", "d2", "d3", "d4", "d8", "d9"]
        store = names_store(names)
        graph = graph_from_dict({"d2": ["d9"], "d1": ["d8"]}, names, 1)
        ranker = OracleRanker(by_id(store, {"q1": {"d2": 3, "d9": 2, "d1": 1}}))
        cfg = RerankConfig(w=2, b=1, c=4, truncate_k=1)
        result = slidegar(Q, ids_of(store, ["d1", "d2", "d3", "d4"]), ranker, graph, cfg, store)
        assert docnos_of(store, result.ranking) == ["d2", "d3", "d9", "d1"]
        assert result.calls == 3

        # worked baseline example: reversal ranker slides tail-to-head
        base_store = names_store(["d1", "d2", "d3", "d4"])
        base_cfg = RerankConfig(w=2, b=1, c=4)
        base = sliding_window_baseline(
            Q, ids_of(base_store, ["d1", "d2", "d3", "d4"]), ReverseRanker(), base_cfg, base_store
        )
        assert docnos_of(base_store, base.ranking) == ["d4", "d1", "d2", "d3"]
        assert base.calls == 3

        rng = random.Random(777)
        for _ in range(1000):
            names, adjacency, k, r0, cfg, grades, kind = random_instance(rng)
            store = names_store(names)
            graph = graph_from_dict(adjacency, names, k)
            engine_ranker, sim_ranker = make_pair(kind, grades, 777, store)

            def rank_fn(docnos):
                return sim_rank(sim_ranker, Q, store, docnos)

            result = slidegar(Q, ids_of(store, r0), engine_ranker, graph, cfg, store)
            feedback_fn = graph_feedback(lambda d: adjacency.get(d, []), cfg.truncate_k)
            expected, calls, offered = simulate_window_loop(r0, rank_fn, feedback_fn, cfg.w, cfg.b, cfg.c)
            got = docnos_of(store, result.ranking)
            assert got == expected and result.calls == calls
            assert len(set(got)) == len(got) <= cfg.c
            assert set(got) <= set(r0) | offered

            engine_b, sim_b = make_pair(kind, grades, 777, store)

            def rank_fn_b(docnos):
                return sim_rank(sim_b, Q, store, docnos)

            base = sliding_window_baseline(Q, ids_of(store, r0), engine_b, cfg, store)
            base_expected, base_calls = simulate_baseline(r0, rank_fn_b, cfg.w, cfg.b, cfg.c)
            assert docnos_of(store, base.ranking) == base_expected
            assert base.calls == base_calls


def test_permutation_safety():
    with criterion("permutation safety: validation everywhere, malformed responses degrade"):
        class Broken(ListwiseRanker):
            def _order(self, window):
                return [window.ids[0]] * len(window.ids)

        with pytest.raises(ValueError, match="permutation"):
            Broken().rank(Window(Q, [0, 1], names_store(["a", "b"])))

        # a remote endpoint that keeps violating the contract: every window
        # degrades to its input order, so the run must equal the identity run
        names = [f"d{i:02d}" for i in range(20)]
        store = names_store(names)
        graph = graph_from_dict({names[0]: names[5:8]}, names, 3)
        cfg = RerankConfig(w=4, b=2, c=10, truncate_k=3)
        for behavior in ("duplicate", "drop_one", "foreign", "garbage", "status:500"):
            with scripted_server([behavior]) as endpoint:
                remote = RemoteRanker(endpoint, timeout=2, retries=1, backoff=0.01)
                degraded = slidegar(Q, ids_of(store, names), remote, graph, cfg, store)
            clean = slidegar(Q, ids_of(store, names), IdentityRanker(), graph, cfg, store)
            assert degraded.ranking == clean.ranking, behavior
            assert len(set(degraded.ranking)) == len(degraded.ranking)
            assert degraded.calls == clean.calls  # a retried window counts once
            # but every attempt is counted, and every window degraded
            assert (degraded.attempts, degraded.degraded) == (2 * clean.calls, clean.calls), behavior
            assert (clean.attempts, clean.degraded) == (clean.calls, 0)


def _escape_numbers(bundle):
    cfg = RerankConfig(w=20, b=10, c=50, truncate_k=16)
    oracle = OracleRanker(bundle.grades)
    rows = []
    for info in bundle.manifest["queries"]:
        query = Query(info["qid"], " ".join(info["query_terms"]))
        grades = bundle.grades_by_docno(info["qid"])
        r0 = bm25_retrieve(bundle.index, query, cfg.c)
        base = docnos_of(bundle.store, sliding_window_baseline(query, r0, oracle, cfg, bundle.store).ranking)
        adaptive = docnos_of(bundle.store, slidegar(query, r0, oracle, bundle.graph, cfg, bundle.store).ranking)
        rows.append(
            {
                "recall_base": recall_at(base, grades, 50, rel_threshold=2),
                "recall_adaptive": recall_at(adaptive, grades, 50, rel_threshold=2),
                "ndcg_base": ndcg_at(base, grades, 10),
                "ndcg_adaptive": ndcg_at(adaptive, grades, 10),
            }
        )
    return rows


def test_bounded_recall_escape(synth_bundle):
    with criterion("bounded-recall escape: slidegar recall@50 beats baseline by >= 0.20"):
        started = time.perf_counter()
        rows = _escape_numbers(synth_bundle)
        mean = lambda key: sum(r[key] for r in rows) / len(rows)
        recall_base, recall_adaptive = mean("recall_base"), mean("recall_adaptive")
        assert recall_base <= 0.5 + 1e-9  # hidden docs are outside R0 by construction
        assert recall_adaptive - recall_base >= 0.20
        assert mean("ndcg_adaptive") >= mean("ndcg_base") - 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        print(
            f"  [recall@50 baseline={recall_base:.3f} slidegar={recall_adaptive:.3f} "
            f"ndcg@10 baseline={mean('ndcg_base'):.3f} slidegar={mean('ndcg_adaptive'):.3f}]"
        )


def test_graph_depth_monotone_trend(synth_bundle):
    with criterion("graph-depth trend: recall@50 at k=16 >= k=2, dips bounded by 0.01"):
        oracle = OracleRanker(synth_bundle.grades)
        means = []
        for tk in (2, 4, 6, 8, 10, 12, 14, 16):
            cfg = RerankConfig(w=20, b=10, c=50, truncate_k=tk)
            values = []
            for info in synth_bundle.manifest["queries"]:
                query = Query(info["qid"], " ".join(info["query_terms"]))
                r0 = bm25_retrieve(synth_bundle.index, query, cfg.c)
                adaptive = slidegar(query, r0, oracle, synth_bundle.graph, cfg, synth_bundle.store).ranking
                adaptive = docnos_of(synth_bundle.store, adaptive)
                values.append(recall_at(adaptive, synth_bundle.grades_by_docno(info["qid"]), 50, rel_threshold=2))
            means.append(sum(values) / len(values))
        assert means[-1] >= means[0]
        assert all(later >= earlier - 0.01 for earlier, later in zip(means, means[1:]))
        print(f"  [recall@50 by k: {', '.join(f'{m:.3f}' for m in means)}]")


def test_rm3_variant_recall_gain(synth_bundle):
    with criterion("RM3 variant: slidegar_rm3 recall@50 strictly beats the baseline, every query escapes R0"):
        cfg = RerankConfig(w=20, b=10, c=50)
        oracle = OracleRanker(synth_bundle.grades)
        base_vals, rm3_vals, escaped = [], [], []
        for info in synth_bundle.manifest["queries"]:
            query = Query(info["qid"], " ".join(info["query_terms"]))
            grades = synth_bundle.grades_by_docno(info["qid"])
            r0 = bm25_retrieve(synth_bundle.index, query, cfg.c)
            base = sliding_window_baseline(query, r0, oracle, cfg, synth_bundle.store).ranking
            base = docnos_of(synth_bundle.store, base)
            adaptive = slidegar_rm3(query, r0, oracle, synth_bundle.index, cfg, synth_bundle.store)
            base_vals.append(recall_at(base, grades, 50, rel_threshold=2))
            rm3_vals.append(recall_at(docnos_of(synth_bundle.store, adaptive.ranking), grades, 50, rel_threshold=2))
            escaped.append(telemetry_record(query.qid, r0, adaptive)["escaped_docs"])
        mean_base = sum(base_vals) / len(base_vals)
        mean_rm3 = sum(rm3_vals) / len(rm3_vals)
        assert mean_rm3 > mean_base
        assert all(count > 0 for count in escaped), escaped  # the gain comes from outside R0
        print(f"  [recall@50 baseline={mean_base:.3f} rm3={mean_rm3:.3f} escaped docs/query={escaped}]")


def test_graph_build_correctness():
    with criterion("graph builders match exhaustive pairwise oracles on 64 docs, k in {2,4,8}"):
        rng = random.Random(64)
        vocab = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(64)]
        store = make_store({f"d{i:02d}": t for i, t in enumerate(texts)})
        index = build_index(store)
        np_rng = np.random.default_rng(64)
        matrix = np_rng.normal(size=(64, 7)).astype(np.float32)
        for k in (2, 4, 8):
            lexical = build_graph_lexical(index, store, k)
            assert adjacency_rows(lexical) == brute_force_lexical(texts, k)
            dense = build_graph_dense(matrix, k)
            assert adjacency_rows(dense) == brute_force_dense(matrix, k)


def test_metric_correctness():
    with criterion("metrics match hand-computed values on 13 fixtures to 1e-9"):
        lg = math.log2
        ndcg_cases = [
            (["a"], {"a": 1}, 10, False, 1.0),
            (["x", "y", "z"], {"a": 2}, 3, False, 0.0),
            (["a", "b", "c"], {"a": 2, "b": 3, "c": 0}, 10, False,
             (2 + 3 / lg(3)) / (3 + 2 / lg(3))),  # the ~0.9134 example
            (["c", "b", "a"], {"a": 3, "b": 2, "c": 1}, 3, False,
             (1 + 2 / lg(3) + 3 / lg(4)) / (3 + 2 / lg(3) + 1 / lg(4))),
            (["a", "b"], {"a": 1, "b": 3}, 1, False, 1.0 / 3.0),
            (["b", "a"], {"a": 3, "b": 1}, 2, False, (1 + 3 / lg(3)) / (3 + 1 / lg(3))),
            (["a", "x", "b"], {"a": 2, "b": 2, "c": 2}, 10, False,
             (2 + 2 / lg(4)) / (2 + 2 / lg(3) + 2 / lg(4))),
            (["a"], {"a": 2, "b": 1}, 10, True, 3.0 / (3 + 1 / lg(3))),
        ]
        for docnos, grades, cutoff, exponential, expected in ndcg_cases:
            got = ndcg_at(docnos, grades, cutoff, exponential=exponential)
            assert abs(got - expected) < 1e-9, (docnos, grades)
        assert round(ndcg_at(["a", "b", "c"], {"a": 2, "b": 3, "c": 0}, 10), 4) == 0.9134

        five = {f"r{i}": 1 for i in range(5)}
        recall_cases = [
            ([f"r{i}" for i in range(5)], five, 50, 1, 1.0),
            (["x", "y"], five, 50, 1, 0.0),
            (["r0", "x", "r1", "y", "r2"], five, 50, 1, 3 / 5),
            (["a", "b", "c"], {"a": 2, "b": 1, "c": 2}, 3, 2, 1.0),
            (["b", "a"], {"a": 2, "b": 1, "c": 1}, 1, 1, 1 / 3),
        ]
        for docnos, grades, cutoff, threshold, expected in recall_cases:
            got = recall_at(docnos, grades, cutoff, rel_threshold=threshold)
            assert abs(got - expected) < 1e-9, (docnos, grades)


def test_bookkeeping_overhead_on_100k_graph():
    with criterion("bookkeeping overhead < 50 ms/query at c=100 on a 100k-doc graph (warn-only)"):
        n = 100_000
        store = CorpusStore([f"d{i:06d}" for i in range(n)], [f"synthetic passage body {i}" for i in range(n)])
        rng = np.random.default_rng(5)
        adjacency = rng.integers(0, n, size=(n, 16), dtype=np.uint32)
        rows = np.arange(n, dtype=np.uint32)[:, None]
        graph = np.where(adjacency == rows, (adjacency + 1) % n, adjacency)
        cfg = RerankConfig(w=20, b=10, c=100, truncate_k=16)
        r0 = list(range(0, n, n // 140))[:140]
        timings = []
        for _ in range(3):
            result = slidegar(Q, r0, IdentityRanker(), graph, cfg, store)
            assert result.calls == expected_llm_calls(cfg)
            timings.append(result.bookkeeping_s)
        best = min(timings)
        print(f"  [bookkeeping {best * 1000:.2f} ms/query]")
        if best >= 0.050:
            warnings.warn(f"bookkeeping overhead {best * 1000:.1f} ms/query exceeds the 50 ms target")


def test_run_determinism(synth_bundle, tmp_path):
    with criterion("determinism: identical config + seeds give byte-identical run files"):
        graph_path = tmp_path / "graph.bin"
        save_graph(graph_path, synth_bundle.graph, "dense", synth_bundle.store)
        outs = []
        for name in ("one", "two"):
            cfg = {
                "corpus": str(synth_bundle.dir / "corpus.tsv"),
                "queries": str(synth_bundle.dir / "queries.tsv"),
                "qrels": str(synth_bundle.dir / "qrels.txt"),
                "graph": str(graph_path),
                "strategy": "slidegar",
                "ranker": "noisy_oracle",
                "swap_prob": 0.25,
                "seed": 123,
                "run_out": str(tmp_path / f"{name}.trec"),
                "telemetry_out": str(tmp_path / f"{name}.tel.jsonl"),
            }
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["run", "--config", str(cfg_path)]) == 0
            outs.append((tmp_path / f"{name}.trec").read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0]) > 0
