import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path

import pytest

import slidegar
from conftest import BLOCK_SIZES, block_bytes
from mockserver import ScriptedHandler, scripted_server
from slidegar import adaptive_rerank, cli, corpus_store
from slidegar.adaptive_rerank import RerankConfig
from slidegar.cli import main
from slidegar.corpus_store import Query, docnos_bytes, ingest_corpus, load_qrels, load_queries, map_qrels
from slidegar.dense_index import dense_retrieve, load_embeddings, load_query_embeddings, write_embeddings
from slidegar.eval import read_run
from slidegar.lexical_index import bm25_retrieve, build_index, load_index, save_index
from slidegar.rankers import OracleRanker


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus built artifacts, via the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert main([
        "synth", "--out", str(data), "--seed", "11",
        "--clusters", "3", "--docs-per-cluster", "30", "--vocab-per-cluster", "12",
        "--shared-vocab", "4", "--dim", "8", "--queries", "3",
        "--relevant-per-query", "6", "--gap", "0.5",
    ]) == 0
    assert main(["build-index", "--corpus", str(data / "corpus.tsv"), "--out", str(root / "index")]) == 0
    assert main([
        "build-graph", "--corpus", str(data / "corpus.tsv"), "--source", "dense",
        "--embeddings", str(data / "embeddings.bin"), "--k", "8", "--out", str(root / "graph.bin"),
    ]) == 0
    return root


def base_config(root, **overrides):
    data = root / "data"
    cfg = {
        "corpus": str(data / "corpus.tsv"),
        "queries": str(data / "queries.tsv"),
        "qrels": str(data / "qrels.txt"),
        "graph": str(root / "graph.bin"),
        "index_dir": str(root / "index"),
        "strategy": "slidegar",
        "ranker": "oracle",
        "w": 6,
        "b": 3,
        "c": 12,
        "truncate_k": 8,
        "rel_threshold": 2,
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


def test_baseline_identity_run_equals_bm25_order(workspace, tmp_path):
    # the oracle without qrels keeps each window's order; with them it would pass
    # too, since BM25 already ranks this corpus by grade
    run_out = tmp_path / "run.trec"
    cfg = base_config(
        workspace, strategy="baseline", qrels=None,
        run_out=str(run_out), graph=None,
    )
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    run = read_run(run_out)
    assert {line.split()[5] for line in run_out.read_text().splitlines()} == {"baseline"}
    store = ingest_corpus(workspace / "data" / "corpus.tsv")
    index = build_index(store.texts)
    manifest = json.loads((workspace / "data" / "spec.json").read_text())
    for info in manifest["queries"]:
        expected = bm25_retrieve(index, Query(info["qid"], " ".join(info["query_terms"])), 12)
        assert run[info["qid"]] == [store.docnos[i] for i in expected]


def test_oracle_without_qrels_keeps_the_first_stage_order(workspace, tmp_path):
    # dense retrieval does not rank this corpus by grade, so the qrels' oracle reorders what this one keeps
    data = workspace / "data"
    runs = {}
    for name, qrels in (("plain", None), ("graded", str(data / "qrels.txt"))):
        runs[name] = tmp_path / f"{name}.trec"
        cfg = base_config(
            workspace, strategy="baseline", qrels=qrels, graph=None, index_dir=None, retriever="dense",
            embeddings=str(data / "embeddings.bin"), query_embeddings=str(data / "query_embeddings.bin"),
            run_out=str(runs[name]),
        )
        assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
    store = ingest_corpus(data / "corpus.tsv")
    matrix = load_embeddings(data / "embeddings.bin", store)
    queries = load_queries(data / "queries.tsv")
    vectors = load_query_embeddings(data / "query_embeddings.bin", queries)
    first_stage = {q.qid: [store.docnos[i] for i in dense_retrieve(matrix, vectors[q.qid], 12)] for q in queries}
    assert read_run(runs["plain"]) == first_stage != read_run(runs["graded"])


def test_slidegar_at_truncate_k_0_is_the_feedback_free_control(workspace, tmp_path):
    # an empty graph frontier leaves the loop R0 alone, as the control `lambda order: []` does
    run_out, tel = tmp_path / "r.trec", tmp_path / "t.jsonl"
    cfg = base_config(workspace, truncate_k=0, swap_prob=0.3, seed=1, run_out=str(run_out), telemetry_out=str(tel))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    run = read_run(run_out)
    records = {r["qid"]: r for r in map(json.loads, tel.read_text().splitlines()) if r["type"] == "query"}
    data = workspace / "data"
    store = ingest_corpus(data / "corpus.tsv")
    index = load_index(workspace / "index", store)
    grades, _ = map_qrels(load_qrels(data / "qrels.txt"), store)
    ranker = OracleRanker(grades, store.docnos, swap_prob=0.3, seed=1)
    rcfg = RerankConfig(w=cfg["w"], b=cfg["b"], c=cfg["c"], truncate_k=0)
    queries = load_queries(data / "queries.tsv")
    assert sorted(run) == sorted(records) == sorted(q.qid for q in queries)
    for query in queries:
        control = adaptive_rerank.slidegar(query, bm25_retrieve(index, query, rcfg.c), ranker, lambda order: [], rcfg)
        assert run[query.qid] == [store.docnos[i] for i in control.ranking], query.qid
        assert (records[query.qid]["llm_calls"], records[query.qid]["escaped_docs"]) == (control.calls, 0), query.qid


def test_run_is_byte_identical_across_invocations(workspace, tmp_path):
    for name in ("one", "two"):
        cfg = base_config(
            workspace, swap_prob=0.3, seed=42,
            run_out=str(tmp_path / f"{name}.trec"),
            telemetry_out=str(tmp_path / f"{name}.telemetry.jsonl"),
        )
        assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
    assert (tmp_path / "one.trec").read_bytes() == (tmp_path / "two.trec").read_bytes()


def test_jobs_flag_does_not_change_output(workspace, tmp_path):
    for strategy in ("slidegar", "slidegar_rm3"):
        outputs = []
        for jobs in (1, 3):
            name = f"{strategy}-j{jobs}"
            cfg = base_config(
                workspace, strategy=strategy, jobs=jobs, run_out=str(tmp_path / f"{name}.trec"),
                telemetry_out=str(tmp_path / f"{name}.telemetry.jsonl"),
            )
            assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
            outputs.append((tmp_path / f"{name}.trec").read_bytes())
        assert outputs[0] == outputs[1], strategy


def test_pipeline_builds_the_forward_index_for_rm3_runs_only(workspace, tmp_path):
    for strategy, built in (("slidegar", False), ("slidegar_rm3", True)):
        cfg = cli.load_config(write_config(tmp_path / "cfg.json", base_config(workspace, strategy=strategy)))
        # in set-up, so neither the first query nor a --jobs thread builds it
        pipeline = cli._Pipeline(cfg)
        assert ("forward" in vars(pipeline.index)) is built, strategy
        assert "term_ids" in vars(pipeline.index), strategy
        # and timed on its own, outside index_load_s
        assert (type(pipeline.setup["forward_index_s"]) is float) is built, strategy


class _UnreadableMap(Mapping):
    """Stands in for the docno map: any read fails."""

    def __getitem__(self, docno):
        raise AssertionError(f"a query looked up {docno!r}")

    def __iter__(self):
        raise AssertionError("a query iterated the docno map")

    def __len__(self):
        raise AssertionError("a query sized the docno map")


def test_query_phase_reads_no_docno_map(workspace, tmp_path):
    # windows carry store ids, so only set-up looks docnos up (qrels,
    # embeddings), and no query, on any --jobs thread, reads the map
    for strategy in ("baseline", "slidegar", "slidegar_rm3"):
        cfg = cli.load_config(write_config(tmp_path / "cfg.json", base_config(
            workspace, qrels=None, strategy=strategy, jobs=2,
        )))
        pipeline = cli._Pipeline(cfg)
        pipeline.store.id_of = _UnreadableMap()
        run, _ = pipeline.execute()
        assert run, strategy


def test_jobs_byte_identical_under_racing_ranker(workspace, tmp_path, monkeypatch):
    # every query is ranked by a thread of its own while the others read the
    # store's columns; a ranker that yields between reading its window and
    # answering shuffles the interleaving
    class RacingOracle(cli.OracleRanker):
        def _order(self, window):
            order = super()._order(window)
            time.sleep(random.uniform(0.0, 0.004))
            return order

    monkeypatch.setattr(cli, "OracleRanker", RacingOracle)
    data = workspace / "data"
    queries = [line.split("\t", 1) for line in (data / "queries.tsv").read_text().splitlines()]
    qrels = [line.split() for line in (data / "qrels.txt").read_text().splitlines()]
    (tmp_path / "q.tsv").write_text("".join(f"{qid}-{r}\t{text}\n" for r in range(4) for qid, text in queries))
    (tmp_path / "qrels.txt").write_text(
        "".join(f"{qid}-{r} 0 {docno} {grade}\n" for r in range(4) for qid, _, docno, grade in qrels)
    )
    # each run loads a fresh index, whose lazy maps no earlier run built
    for strategy in ("slidegar", "slidegar_rm3"):
        outputs = []
        for jobs in (1, 4):
            name = f"{strategy}-j{jobs}"
            cfg = base_config(
                workspace, strategy=strategy, jobs=jobs, queries=str(tmp_path / "q.tsv"),
                qrels=str(tmp_path / "qrels.txt"), run_out=str(tmp_path / f"{name}.trec"),
            )
            assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
            outputs.append((tmp_path / f"{name}.trec").read_bytes())
        assert outputs[0] == outputs[1], strategy
        assert len({line.split()[0] for line in outputs[0].splitlines()}) == 12


def test_cli_import_leaves_http_client_unloaded():
    # the remote ranker imports urllib on its first request, the noisy oracle
    # hashlib, synth and --jobs > 1 theirs; no other command needs them
    lazy = {"urllib.request", "http.client", "hashlib", "slidegar.synth", "concurrent.futures"}
    code = f"import sys, slidegar.cli; print(sorted({lazy!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(slidegar.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_console_entry_exit_codes(workspace, tmp_path):
    """``python -m slidegar.cli`` enters through ``run()``, as the console
    script does: exit 0 with complete outputs, 1 on a usage error, and 2
    with a single error line on a bad config."""
    env = {**os.environ, "PYTHONPATH": str(Path(slidegar.__file__).resolve().parents[1])}

    def console(*args):
        return subprocess.run([sys.executable, "-m", "slidegar.cli", *args], env=env, capture_output=True,
                              text=True, timeout=120)

    run_out = tmp_path / "run.trec"
    cfg = base_config(workspace, strategy="baseline", qrels=None, graph=None, run_out=str(run_out))
    done = console("run", "--config", write_config(tmp_path / "cfg.json", cfg))
    assert done.returncode == 0, done.stderr
    qids = sorted(q.qid for q in load_queries(workspace / "data" / "queries.tsv"))
    run = read_run(run_out)
    assert sorted(run) == qids and all(run.values())
    assert {line.split()[5] for line in run_out.read_text().splitlines()} == {"baseline"}
    records = [json.loads(line) for line in Path(f"{run_out}.telemetry.jsonl").read_text().splitlines()]
    assert [r["type"] for r in records] == ["config", "setup"] + ["query"] * len(qids)

    usage = console("run")
    assert usage.returncode == 1 and usage.stderr.endswith("error: the following arguments are required: --config\n")

    bad = console("run", "--config", write_config(tmp_path / "bad.json", {**cfg, "w": "x"}))
    assert (bad.returncode, bad.stderr) == (2, "error: config 'w' must be an integer, got 'x'\n")


def test_telemetry_config_reruns_verbatim(workspace, tmp_path):
    run_out = tmp_path / "orig.trec"
    cfg = base_config(workspace, run_out=str(run_out), telemetry_out=str(tmp_path / "orig.tel.jsonl"))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    first = json.loads((tmp_path / "orig.tel.jsonl").read_text().splitlines()[0])
    assert first["type"] == "config"
    echoed = first["config"]
    assert echoed["w"] == 6
    # rerun from the echoed config; only the output paths move
    echoed["run_out"] = str(tmp_path / "again.trec")
    echoed["telemetry_out"] = str(tmp_path / "again.tel.jsonl")
    assert main(["run", "--config", write_config(tmp_path / "again.json", echoed)]) == 0
    orig = run_out.read_text().replace("orig", "")
    again = (tmp_path / "again.trec").read_text().replace("again", "")
    assert orig == again


def test_telemetry_per_query_fields(workspace, tmp_path):
    tel = tmp_path / "t.jsonl"
    cfg = base_config(workspace, run_out=str(tmp_path / "r.trec"), telemetry_out=str(tel))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    records = [json.loads(line) for line in tel.read_text().splitlines()]
    assert [r["type"] for r in records] == ["config", "setup", "query", "query", "query"]
    setup = records[1]
    assert sorted(setup) == [
        "embeddings_load_s", "forward_index_s", "graph_load_s", "index_load_s", "ingest_s", "qrels_absent",
        "qrels_s", "type", "vm_hwm_mb",
    ]
    if sys.platform == "linux":  # the process's own peak RSS, read from /proc/self/status
        assert type(setup["vm_hwm_mb"]) is float and setup["vm_hwm_mb"] > 0
    assert all(setup[key] >= 0.0 for key in ("graph_load_s", "index_load_s", "ingest_s", "qrels_s"))
    assert setup["qrels_absent"] == 0 and setup["embeddings_load_s"] is None  # bm25 loads no embeddings
    for record in records[2:]:
        for key in ("qid", "llm_calls", "first_stage_ms", "bookkeeping_ms", "ranker_ms", "escaped_docs"):
            assert key in record
        assert record["first_stage_ms"] >= 0.0
        # an in-process ranker answers every call at its first attempt
        assert (record["ranker_attempts"], record["degraded_windows"]) == (record["llm_calls"], 0)


def test_telemetry_timings_bound_a_ranker_of_known_latency(workspace, tmp_path, monkeypatch):
    # lower bounds only, so a slow host cannot fail it: the ranker time holds
    # every sleep, the loop's own time is less, and every step that ran took time
    sleep_s = 0.005

    class SleepingOracle(cli.OracleRanker):
        def _order(self, window):
            time.sleep(sleep_s)
            return super()._order(window)

    monkeypatch.setattr(cli, "OracleRanker", SleepingOracle)
    tel = tmp_path / "t.jsonl"
    cfg = base_config(workspace, strategy="slidegar_rm3", run_out=str(tmp_path / "r.trec"), telemetry_out=str(tel))
    t0 = time.perf_counter()
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    wall_s = time.perf_counter() - t0
    records = [json.loads(line) for line in tel.read_text().splitlines()]
    laps = {key: value for key, value in records[1].items() if key.endswith("_s") and value is not None}
    assert sorted(laps) == ["forward_index_s", "index_load_s", "ingest_s", "qrels_s"]
    assert all(value > 0 for value in laps.values()), laps
    assert sum(laps.values()) <= wall_s
    for record in records[2:]:
        assert record["llm_calls"] > 0 and record["first_stage_ms"] > 0, record
        assert record["ranker_ms"] >= sleep_s * 1000.0 * record["llm_calls"], record
        assert record["bookkeeping_ms"] < record["ranker_ms"], record


def test_query_without_first_stage_hits_is_left_out_of_the_run(workspace, tmp_path):
    # a stopword-only query retrieves nothing, so no strategy runs for it:
    # the run file leaves it out, and its record has every other query
    # record's keys, with counts of 0, plus a note
    queries = (workspace / "data" / "queries.tsv").read_text()
    (tmp_path / "q.tsv").write_text(queries + "qempty\tthe and of\n")
    for strategy in ("baseline", "slidegar", "slidegar_rm3"):
        tel = tmp_path / f"{strategy}.jsonl"
        cfg = base_config(
            workspace, strategy=strategy, queries=str(tmp_path / "q.tsv"),
            run_out=str(tmp_path / f"{strategy}.trec"), telemetry_out=str(tel),
        )
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
        run = read_run(tmp_path / f"{strategy}.trec")
        records = {r["qid"]: r for r in map(json.loads, tel.read_text().splitlines()) if r["type"] == "query"}
        assert len(records) == 4 and sorted(run) == sorted(set(records) - {"qempty"}), strategy
        empty = records.pop("qempty")
        assert empty.pop("note") == "empty initial ranking"
        assert all(sorted(record) == sorted(empty) for record in records.values()), strategy
        counts = ("llm_calls", "ranker_attempts", "degraded_windows", "bookkeeping_ms", "ranker_ms", "escaped_docs")
        assert [empty[key] for key in counts] == [0] * len(counts)


def test_telemetry_counts_remote_attempts_and_degraded_windows(workspace, tmp_path, short_backoff):
    # one query, three windows: a timeout then an answer, two garbage bodies
    # (the window degrades), then an answer at the first attempt
    query = (workspace / "data" / "queries.tsv").read_text().splitlines()[0]
    (tmp_path / "q.tsv").write_text(query + "\n")
    tel = tmp_path / "t.jsonl"
    with scripted_server(["sleep:1.0", "reverse", "garbage", "garbage", "identity"]) as endpoint:
        cfg = base_config(
            workspace, queries=str(tmp_path / "q.tsv"), qrels=None, strategy="baseline", ranker="remote",
            endpoint=endpoint, timeout=0.3, retries=1, run_out=str(tmp_path / "r.trec"), telemetry_out=str(tel),
        )
        assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
        assert len(ScriptedHandler.requests_seen) == 5
    [record] = [json.loads(line) for line in tel.read_text().splitlines()][2:]
    assert (record["llm_calls"], record["ranker_attempts"], record["degraded_windows"]) == (3, 5, 1)


def test_escaped_docs_count_run_docnos_outside_bm25_top_c(workspace, tmp_path):
    run_out, tel = tmp_path / "r.trec", tmp_path / "t.jsonl"
    cfg = base_config(workspace, run_out=str(run_out), telemetry_out=str(tel))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    run = read_run(run_out)
    records = {r["qid"]: r for r in map(json.loads, tel.read_text().splitlines()) if r["type"] == "query"}
    store = ingest_corpus(workspace / "data" / "corpus.tsv")
    index = build_index(store.texts)
    queries = load_queries(workspace / "data" / "queries.tsv")
    assert sorted(records) == sorted(run) == sorted(q.qid for q in queries)
    for query in queries:
        top_c = {store.docnos[i] for i in bm25_retrieve(index, query, cfg["c"])}
        assert records[query.qid]["escaped_docs"] == len(set(run[query.qid]) - top_c), query.qid
    assert sum(r["escaped_docs"] for r in records.values()) > 0


def test_telemetry_marks_skipped_setup_steps(workspace, tmp_path):
    # no qrels, no graph: the grade-free oracle's baseline still loads the corpus and the index
    tel = tmp_path / "t.jsonl"
    cfg = base_config(
        workspace, strategy="baseline", qrels=None, graph=None,
        run_out=str(tmp_path / "r.trec"), telemetry_out=str(tel),
    )
    defaults = asdict(RerankConfig())  # no strategy setting either: the config record echoes these
    cfg = {key: value for key, value in cfg.items() if key not in defaults}
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    echoed, setup = (json.loads(line) for line in tel.read_text().splitlines()[:2])
    assert {key: echoed["config"][key] for key in defaults} == defaults
    assert setup["qrels_s"] is None and setup["qrels_absent"] is None and setup["graph_load_s"] is None
    assert setup["ingest_s"] >= 0.0 and setup["index_load_s"] >= 0.0


def test_telemetry_times_dense_embedding_loading(workspace, tmp_path):
    tel = tmp_path / "t.jsonl"
    data = workspace / "data"
    cfg = base_config(
        workspace, retriever="dense", embeddings=str(data / "embeddings.bin"),
        query_embeddings=str(data / "query_embeddings.bin"), index_dir=None,
        run_out=str(tmp_path / "r.trec"), telemetry_out=str(tel),
    )
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    setup = json.loads(tel.read_text().splitlines()[1])
    assert setup["embeddings_load_s"] >= 0.0
    assert setup["index_load_s"] is None and setup["graph_load_s"] >= 0.0


def test_query_vectors_of_another_dim_fail_before_any_query(workspace, tmp_path, capsys, monkeypatch):
    data = workspace / "data"
    queries = corpus_store.load_queries(data / "queries.tsv")
    write_embeddings(tmp_path / "q.bin", 5, [(q.qid, [1.0] * 5) for q in queries])  # the corpus vectors have dim 8

    def no_query(*args):
        raise AssertionError("a query ran")

    monkeypatch.setattr(cli.dense_index, "dense_retrieve", no_query)
    run_out = tmp_path / "r.trec"
    cfg = base_config(
        workspace, retriever="dense", embeddings=str(data / "embeddings.bin"),
        query_embeddings=str(tmp_path / "q.bin"), index_dir=None, run_out=str(run_out),
    )
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    message = f"{tmp_path / 'q.bin'}: query vectors have dim 5, embeddings {data / 'embeddings.bin'} have dim 8"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not run_out.exists()


def test_only_slidegar_loads_the_graph(workspace, tmp_path):
    # the config names a graph file that does not exist: no other strategy reads it
    for strategy in ("baseline", "slidegar_rm3"):
        tel = tmp_path / f"{strategy}.jsonl"
        cfg = base_config(
            workspace, strategy=strategy, graph=str(tmp_path / "missing.bin"),
            run_out=str(tmp_path / f"{strategy}.trec"), telemetry_out=str(tel),
        )
        assert main(["run", "--config", write_config(tmp_path / f"{strategy}.json", cfg)]) == 0, strategy
        assert json.loads(tel.read_text().splitlines()[1])["graph_load_s"] is None, strategy


def test_absent_judgments_are_counted_not_ranked(workspace, tmp_path, caplog):
    # a judgment on a docno the corpus lacks changes no byte of the run
    qrels = tmp_path / "qrels.txt"
    text = (workspace / "data" / "qrels.txt").read_text(encoding="utf-8")
    qid = text.split()[0]
    qrels.write_text(text + f"{qid} 0 ghost-1 2\n{qid} 0 ghost-2 0\n", encoding="utf-8")
    # dedup passes them through: the corpus has no twins, so it writes the corpus as it was
    corpus = workspace / "data" / "corpus.tsv"
    assert main(["dedup", "--corpus", str(corpus), "--qrels", str(qrels), "--out", str(tmp_path / "dd")]) == 0
    assert (tmp_path / "dd" / "corpus.tsv").read_bytes() == corpus.read_bytes()
    runs = {}
    for name, path in (("plain", workspace / "data" / "qrels.txt"), ("ghost", qrels), ("dedup", tmp_path / "dd" / "qrels.txt")):
        cfg = base_config(
            workspace, qrels=str(path),
            run_out=str(tmp_path / f"{name}.trec"), telemetry_out=str(tmp_path / f"{name}.jsonl"),
        )
        with caplog.at_level("WARNING", logger="slidegar.cli"):
            assert main(["run", "--config", write_config(tmp_path / f"{name}.json", cfg)]) == 0
        runs[name] = (tmp_path / f"{name}.trec").read_bytes()
        setup = json.loads((tmp_path / f"{name}.jsonl").read_text().splitlines()[1])
        assert setup["qrels_absent"] == (0 if name == "plain" else 2)
    assert runs["plain"] == runs["ghost"] == runs["dedup"]
    warnings = [r.getMessage() for r in caplog.records if r.name == "slidegar.cli"]
    assert len(warnings) == 2 and all(
        f"2 judgments name docnos absent from the corpus, first ({qid}, ghost-1)" in warning for warning in warnings)


def test_eval_ideal_run_scores_one(workspace, tmp_path, capsys):
    # build an ideal run: qrels order, grade-descending
    manifest = json.loads((workspace / "data" / "spec.json").read_text())
    run_path = tmp_path / "ideal.trec"
    with open(run_path, "w") as f:
        for info in manifest["queries"]:
            docs = info["visible"] + info["hidden"] + info["near_misses"]
            for rank, docno in enumerate(docs, start=1):
                f.write(f"{info['qid']} Q0 {docno} {rank} {1.0 / rank} ideal\n")
    assert main([
        "eval", "--run", str(run_path), "--qrels", str(workspace / "data" / "qrels.txt"),
        "--metrics", "ndcg@10,recall@12", "--rel-threshold", "2", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    for qid, value in payload["per_query"]["ndcg@10"].items():
        assert value == 1.0
    for qid, value in payload["per_query"]["recall@12"].items():
        assert value == 1.0


def test_eval_text_table(workspace, tmp_path, capsys):
    run_path = tmp_path / "r.trec"
    cfg = base_config(workspace, run_out=str(run_path), telemetry_out=str(tmp_path / "t.jsonl"))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    capsys.readouterr()
    assert main([
        "eval", "--run", str(run_path), "--qrels", str(workspace / "data" / "qrels.txt"),
        "--metrics", "ndcg@10,recall@12", "--rel-threshold", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "mean" in out and "ndcg@10" in out


def test_usage_error_exits_1(capsys):
    assert main(["run"]) == 1  # missing --config
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["no-such-command"]) == 1


def test_runtime_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_validation_errors(workspace, tmp_path, capsys):
    cfg = base_config(workspace, graph=None)  # slidegar without graph
    assert main(["run", "--config", write_config(tmp_path / "bad.json", cfg)]) == 2
    assert "requires a graph" in capsys.readouterr().err
    cfg = base_config(workspace)
    cfg["mystery_knob"] = 1
    assert main(["run", "--config", write_config(tmp_path / "bad2.json", cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


# (id number, overrides, message): each id is fixed, so deleting a case renames no
# other; the first 37 keep the names their positions once gave them
CONFIG_TYPE_CASES = [
    (0, {"jobs": "2"}, "config 'jobs' must be an integer, got '2'"),
    (1, {"w": "2"}, "config 'w' must be an integer, got '2'"),
    (2, {"c": 3.5}, "config 'c' must be an integer, got 3.5"),
    (3, {"seed": True}, "config 'seed' must be an integer, got True"),
    (4, {"timeout": "30"}, "config 'timeout' must be a number, got '30'"),
    (5, {"w": 6, "b": 6}, "invalid config: need 1 <= b < w <= c, got w=6 b=6 c=12"),
    (6, {"retries": -1}, "retries must be >= 0, got -1"),
    (7, {"timeout": 0}, "timeout must be > 0, got 0"),
    (8, {"timeout": -1.5}, "timeout must be > 0, got -1.5"),
    (9, {"swap_prob": 1.5}, "config 'swap_prob' must be in [0, 1], got 1.5"),
    (10, {"swap_prob": -0.1}, "config 'swap_prob' must be in [0, 1], got -0.1"),
    (11, {"timeout": 1e300}, f"timeout must be <= {threading.TIMEOUT_MAX}, got 1e+300"),
    (12, {"timeout": float("inf")}, f"timeout must be <= {threading.TIMEOUT_MAX}, got inf"),  # JSON Infinity
    (13, {"fb_docs": 2.5}, "rm3 fb_docs must be an integer >= 1, got 2.5"),
    (14, {"orig_weight": "0.5"}, "rm3 orig_weight must be a number in [0, 1], got '0.5'"),
    (15, {"orig_weight": None}, "rm3 orig_weight must be a number in [0, 1], got None"),
    (18, {"corpus": 5}, "config 'corpus' must be a non-empty string, got 5"),
    (19, {"endpoint": 5}, "config 'endpoint' must be a non-empty string, got 5"),
    (22, {"telemetry_out": ""}, "config 'telemetry_out' must be a non-empty string, got ''"),
    (23, {"truncate_k": -1}, "truncate_k must be >= 0"),
    (24, {"corpus": None}, "config requires 'corpus'"),
    (25, {"queries": None}, "config requires 'queries'"),
    (26, {"run_out": None}, "config requires 'run_out'"),
    (27, {"retriever": "splade"}, "unknown retriever 'splade'"),
    (28, {"strategy": "rrf"}, "unknown strategy 'rrf'"),
    (29, {"ranker": "gpt"}, "unknown ranker 'gpt'"),
    (32, {"retriever": "dense", "query_embeddings": "q.bin"}, "retriever 'dense' requires embeddings and query_embeddings"),
    (33, {"jobs": 0}, "jobs must be >= 1"),
    # the remote ranker's last backoff, 0.5 * 2 ** (retries - 1) s, must stay within threading.TIMEOUT_MAX
    (34, {"retries": 36}, f"retries 36 with backoff 0.5 s would sleep more than {threading.TIMEOUT_MAX} s"),
    (35, {"retries": 1100}, f"retries 1100 with backoff 0.5 s would sleep more than {threading.TIMEOUT_MAX} s"),
    (37, {"b": True}, "config 'b' must be an integer, got True"),
    # a run reads the index build-index wrote, and builds none
    (38, {"strategy": "baseline", "index_dir": None}, "retriever 'bm25' requires an index_dir"),
    (39, {"retriever": "dense", "embeddings": "e.bin", "query_embeddings": "q.bin", "strategy": "slidegar_rm3",
          "index_dir": None}, "strategy 'slidegar_rm3' requires an index_dir"),
    # the oracle is one kind: its noise is swap_prob, and without qrels it keeps the window order
    (40, {"ranker": "identity"}, "unknown ranker 'identity'"),
    (41, {"ranker": "noisy_oracle"}, "unknown ranker 'noisy_oracle'"),
]


@pytest.mark.parametrize("overrides, message", [case[1:] for case in CONFIG_TYPE_CASES],
                         ids=[f"overrides{n}-{message}" for n, _, message in CONFIG_TYPE_CASES])
def test_config_value_types_fail_at_load(workspace, tmp_path, capsys, overrides, message):
    run_out = tmp_path / "r.trec"
    # the corpus does not exist, so an error that names the key came before ingest
    cfg = base_config(workspace, **{"corpus": str(tmp_path / "missing.tsv"), "run_out": str(run_out), **overrides})
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    with pytest.raises(ValueError) as raised:  # at load time, before any set-up
        cli.load_config(cfg_path)
    assert str(raised.value) == message
    assert main(["run", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not run_out.exists()


@pytest.mark.parametrize("key, value", [
    ("fb_docs", 0), ("fb_terms", -3), ("orig_weight", 1.5),
    ("fb_docs", True), ("fb_terms", True), ("orig_weight", True),
])
def test_invalid_rm3_value_fails_config(workspace, tmp_path, capsys, key, value):
    run_out = tmp_path / "r.trec"
    cfg_path = write_config(tmp_path / "cfg.json", base_config(
        workspace, strategy="slidegar_rm3", run_out=str(run_out), **{key: value},
    ))
    with pytest.raises(ValueError, match=f"rm3 {key} must be"):  # at load time, before any set-up
        cli.load_config(cfg_path)
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: rm3 {key} must be {'a number in [0, 1]' if key == 'orig_weight' else 'an integer >= 1'}, "
                   f"got {value!r}"]
    assert not run_out.exists()


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object"),
    ('{"rm3": {"fb_docs": 5}}', "unknown config keys: rm3"),  # the RM3 settings are top-level keys
    ('{"run_tag": "t"}', "unknown config keys: run_tag"),  # the strategy tags every run-file line
    ("{bad", "invalid JSON config (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
], ids=["not_an_object", "unknown_rm3_key", "unknown_run_tag_key", "not_json"])
def test_malformed_config_fails_naming_its_file(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        cli.load_config(str(cfg_path))
    assert str(raised.value) == f"{cfg_path}: {message}"
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"


def test_config_is_read_like_a_data_file(workspace, tmp_path, capsys):
    # one leading byte-order mark is dropped, as the data readers drop it
    run_out = tmp_path / "run.trec"
    cfg_path = Path(write_config(tmp_path / "cfg.json", base_config(workspace, run_out=str(run_out))))
    plain = cli.load_config(str(cfg_path))
    cfg_path.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes())
    assert cli.load_config(str(cfg_path)) == plain
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert run_out.exists()
    # invalid UTF-8 names the file and the line
    cfg_path.write_bytes(b'{"corpus":\n "c\xff"}\n')
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}:2: invalid UTF-8 (invalid start byte)\n"


def test_dense_graph_requires_embeddings(workspace, tmp_path, capsys):
    out = tmp_path / "graph.bin"
    corpus = str(workspace / "data" / "corpus.tsv")
    assert main(["build-graph", "--corpus", corpus, "--source", "dense", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --source dense requires --embeddings\n"
    assert not out.exists()


def test_dense_graph_flag_is_checked_before_the_corpus_is_read(tmp_path, capsys):
    out = tmp_path / "graph.bin"
    corpus = str(tmp_path / "missing.tsv")
    assert main(["build-graph", "--corpus", corpus, "--source", "dense", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --source dense requires --embeddings\n"
    assert not out.exists()


@pytest.mark.parametrize("telemetry_out", ["out/r.trec", "out/./r.trec", "link/r.trec"],
                         ids=["same_path", "same_file_spelled_apart", "through_a_symlink"])
def test_telemetry_out_naming_the_run_file_fails_at_load(workspace, tmp_path, capsys, telemetry_out):
    (tmp_path / "out").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "out", target_is_directory=True)
    run_out = tmp_path / "out" / "r.trec"
    # the corpus does not exist, so the error comes before ingest
    cfg = base_config(workspace, corpus=str(tmp_path / "missing.tsv"), run_out=str(run_out),
                      telemetry_out=str(tmp_path / telemetry_out))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    message = f"config 'telemetry_out' and 'run_out' name the same file, {str(run_out)!r}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_eval_invalid_utf8_names_line(workspace, tmp_path, capsys):
    run_path = tmp_path / "r.trec"
    run_path.write_bytes(b"q1 Q0 d\xff1 1 1.0 t\n")
    for size in BLOCK_SIZES:
        with block_bytes(size):
            assert main(["eval", "--run", str(run_path), "--qrels", str(workspace / "data" / "qrels.txt")]) == 2
        assert capsys.readouterr().err == f"error: {run_path}:1: invalid UTF-8 (invalid start byte)\n", size


def test_invalid_utf8_in_index_docnos_fails_at_load(workspace, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(workspace / "index", index_dir)
    docnos = index_dir / "docnos.txt"
    data = docnos.read_bytes()
    docnos.write_bytes(data + b"d\xff\n")
    run_out = tmp_path / "r.trec"
    cfg = base_config(workspace, index_dir=str(index_dir), run_out=str(run_out))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    line = data.count(b"\n") + 1
    assert capsys.readouterr().err == f"error: {docnos}:{line}: invalid UTF-8 (invalid start byte)\n"
    assert not run_out.exists()


def test_build_index_with_dedup_writes_report(tmp_path, capsys):
    # dedup writes the report; build-index on its corpus writes only the index
    corpus = tmp_path / "c.tsv"
    corpus.write_text("b\tsame text\na\tsame text\nc\tother\n", encoding="utf-8")
    assert main(["dedup", "--corpus", str(corpus), "--out", str(tmp_path / "dd")]) == 0
    report = [json.loads(line) for line in (tmp_path / "dd" / "dedup_report.jsonl").read_text().splitlines()]
    assert report == [{"dropped": "b", "kept": "a"}]
    assert sorted(path.name for path in (tmp_path / "dd").iterdir()) == ["corpus.tsv", "dedup_report.jsonl"]
    assert main(["build-index", "--corpus", str(tmp_path / "dd" / "corpus.tsv"), "--out", str(tmp_path / "idx")]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [f"wrote {tmp_path / 'dd'}: 1 dropped", f"wrote {tmp_path / 'idx'}: 2 docs, 3 terms"]
    assert json.loads((tmp_path / "idx" / "meta.json").read_text()) == {"avgdl": 1.5, "doc_count": 2, "version": 4}
    assert not (tmp_path / "idx" / "dedup_report.jsonl").exists()


def test_dedup_flags_and_config_key_are_gone(workspace, tmp_path, capsys):
    corpus = str(workspace / "data" / "corpus.tsv")
    for argv in (["build-index", "--corpus", corpus, "--out", str(tmp_path / "idx")],
                 ["build-graph", "--corpus", corpus, "--source", "lexical", "--out", str(tmp_path / "g" / "graph.bin")]):
        assert main([*argv, "--dedup"]) == 1
        assert "unrecognized arguments: --dedup" in capsys.readouterr().err
    assert not (tmp_path / "idx").exists() and not (tmp_path / "g").exists()
    cfg_path = write_config(tmp_path / "cfg.json", base_config(workspace, dedup=False, run_out=str(tmp_path / "r.trec")))
    assert main(["run", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: unknown config keys: dedup\n"


def test_dedup_fails_before_it_writes(tmp_path, capsys):
    # an --out whose corpus.tsv is the input would truncate it before the second read
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("b\tsame text\na\tsame text\n", encoding="utf-8")
    assert main(["dedup", "--corpus", str(corpus), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --out {tmp_path} would overwrite --corpus {corpus}\n"
    assert corpus.read_text(encoding="utf-8") == "b\tsame text\na\tsame text\n"
    # the qrels are read before anything is written
    (tmp_path / "q.txt").write_text("q1 0 b 2\nq1 0 a\n", encoding="utf-8")
    assert main(["dedup", "--corpus", str(corpus), "--qrels", str(tmp_path / "q.txt"), "--out", str(tmp_path / "dd")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'q.txt'}:2: expected 'qid 0 docno grade'\n"
    assert not (tmp_path / "dd").exists()
    # the embeddings stream into --out too: an --out whose embeddings.bin is the input fails alike
    (tmp_path / "dd").mkdir()
    write_embeddings(tmp_path / "dd" / "embeddings.bin", 1, [("a", [1.0]), ("b", [2.0])])
    before = (tmp_path / "dd" / "embeddings.bin").read_bytes()
    link = tmp_path / "link.bin"
    link.symlink_to(tmp_path / "dd" / "embeddings.bin")
    assert main(["dedup", "--corpus", str(corpus), "--embeddings", str(link), "--out", str(tmp_path / "dd")]) == 2
    assert capsys.readouterr().err == f"error: --out {tmp_path / 'dd'} would overwrite --embeddings {link}\n"
    assert [path.name for path in (tmp_path / "dd").iterdir()] == ["embeddings.bin"]
    assert (tmp_path / "dd" / "embeddings.bin").read_bytes() == before


def test_dedup_leaves_no_file_of_an_earlier_run(tmp_path):
    # --out is dedup's own directory: a run without --qrels or --embeddings removes an earlier run's copies
    corpus = tmp_path / "c.tsv"
    corpus.write_text("b\tsame text\na\tsame text\n", encoding="utf-8")
    (tmp_path / "q.txt").write_text("q1 0 b 2\n", encoding="utf-8")
    write_embeddings(tmp_path / "e.bin", 1, [("a", [1.0]), ("b", [2.0])])
    dd = tmp_path / "dd"
    flags = ["--qrels", str(tmp_path / "q.txt"), "--embeddings", str(tmp_path / "e.bin")]
    assert main(["dedup", "--corpus", str(corpus), *flags, "--out", str(dd)]) == 0
    assert sorted(path.name for path in dd.iterdir()) == ["corpus.tsv", "dedup_report.jsonl", "embeddings.bin", "qrels.txt"]
    assert main(["dedup", "--corpus", str(corpus), "--out", str(dd)]) == 0
    assert sorted(path.name for path in dd.iterdir()) == ["corpus.tsv", "dedup_report.jsonl"]


CORPORA = {
    "tsv": b"d2\tThe cat sat\nd1\tdog  days\n\nd3\tcat dog bird\n",
    "crlf": b"d2\tThe cat sat\r\n\r\nd1\tdog days\r\nd3\tcat\xc3\xa9 dog\r\n",
    # twins in whitespace only; a later twin with a smaller docno survives
    "twins": "z9\t cat\u2028 dog\nb2\tbird\na1\tcat dog \nm5\tcat\t dog\nb1\tbird\nc3\tCat dog\n".encode(),
}


@pytest.mark.parametrize("name, dedup", [
    ("tsv", False), ("crlf", False), ("twins", True), ("twins", False),
])
def test_build_index_writes_what_save_index_writes_of_the_ingested_texts(tmp_path, capsys, name, dedup):
    corpus = tmp_path / "corpus"
    corpus.write_bytes(CORPORA[name])
    if dedup:  # the deduplicated corpus: every other command reads it as any corpus
        assert main(["dedup", "--corpus", str(corpus), "--out", str(tmp_path / "dd")]) == 0
        corpus = tmp_path / "dd" / "corpus.tsv"
        assert corpus.read_text(encoding="utf-8") == "a1\tcat\u2028 dog\nb1\tbird\nc3\tCat dog\n"
    for size in (corpus_store.BLOCK_BYTES, 3):
        with block_bytes(size):
            assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / f"cli{size}")]) == 0
    store = ingest_corpus(corpus)
    save_index(build_index(store.texts), tmp_path / "api", docnos_bytes(store.docnos))
    api = sorted(path.name for path in (tmp_path / "api").iterdir())
    for size in (corpus_store.BLOCK_BYTES, 3):
        built = tmp_path / f"cli{size}"
        assert sorted(path.name for path in built.iterdir()) == api
        for file in api:
            assert (built / file).read_bytes() == (tmp_path / "api" / file).read_bytes(), (size, file)


def test_builds_end_their_output_with_a_build_record(workspace, tmp_path, capsys):
    corpus = str(workspace / "data" / "corpus.tsv")
    commands = {
        "index": (["build-index", "--corpus", corpus, "--out", str(tmp_path / "index")],
                  {"index_build_s", "index_save_s"}),
        "lexical": (["build-graph", "--corpus", corpus, "--source", "lexical", "--k", "2",
                     "--out", str(tmp_path / "lexical" / "graph.bin")],
                    {"ingest_s", "index_build_s", "graph_build_s", "graph_save_s"}),
        "dense": (["build-graph", "--corpus", corpus, "--source", "dense", "--embeddings",
                   str(workspace / "data" / "embeddings.bin"), "--k", "2", "--out", str(tmp_path / "dense" / "graph.bin")],
                  {"ingest_s", "embeddings_load_s", "graph_build_s", "graph_save_s"}),
    }
    steps = {"index_build_s", "index_save_s", "ingest_s", "embeddings_load_s", "graph_build_s", "graph_save_s"}
    for name, (argv, timed) in commands.items():
        capsys.readouterr()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("wrote "), name
        record = json.loads(lines[1])
        assert record.pop("type") == "build"
        assert record.pop("vm_hwm_mb") > 0
        assert set(record) == (timed if name == "index" else steps - {"index_save_s"}), name
        assert all(type(record[key]) is float and record[key] >= 0 for key in timed), name
        assert all(record[key] is None for key in set(record) - timed), name
    # the record goes to standard output only: the artifacts are as before
    assert sorted(path.name for path in (tmp_path / "index").iterdir()) == sorted(
        path.name for path in (workspace / "index").iterdir())
    assert sorted(path.name for path in (tmp_path / "lexical").iterdir()) == ["docnos.txt", "graph.bin"]


def test_dense_dedup_skips_vectors_of_dropped_twins(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("b\tcat dog\na\tcat  dog\nc\tdog bird\nd\tbird fish\n", encoding="utf-8")
    vectors = {"b": [5, 5], "c": [1, 1], "d": [0, 1], "a": [1, 0]}
    write_embeddings(tmp_path / "e.bin", 2, vectors.items())
    assert main(["dedup", "--corpus", str(corpus), "--embeddings", str(tmp_path / "e.bin"), "--out", str(tmp_path / "dd")]) == 0
    corpus, embeddings = tmp_path / "dd" / "corpus.tsv", tmp_path / "dd" / "embeddings.bin"
    # the dropped twin's record is left out; the rest are copied as they were
    write_embeddings(tmp_path / "kept.bin", 2, list(vectors.items())[1:])
    assert embeddings.read_bytes() == (tmp_path / "kept.bin").read_bytes()
    store = ingest_corpus(corpus)
    assert store.docnos == ["a", "c", "d"]
    assert load_embeddings(embeddings, store).tolist() == [[1, 0], [1, 1], [0, 1]]  # the kept twin's own vector
    graph = tmp_path / "graph.bin"
    capsys.readouterr()
    assert main([
        "build-graph", "--corpus", str(corpus), "--source", "dense", "--embeddings", str(embeddings),
        "--k", "1", "--out", str(graph),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"wrote {graph}: 3 nodes, k=1, source=dense"
    assert json.loads(out[1])["type"] == "build"
    write_embeddings(tmp_path / "q.bin", 2, [("q1", [0, 1])])
    (tmp_path / "q.tsv").write_text("q1\tbird\n", encoding="utf-8")
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "retriever": "dense",
        "embeddings": str(embeddings), "query_embeddings": str(tmp_path / "q.bin"),
        "graph": str(graph), "ranker": "oracle", "w": 2, "b": 1, "c": 3, "truncate_k": 1,
        "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    assert sorted(read_run(run_out)["q1"]) == ["a", "c", "d"]  # the dropped twin "b" is never ranked
    # the file with the dropped twin's record does not load against the deduplicated corpus
    with pytest.raises(ValueError, match="record 1: docno 'b' not in store"):
        load_embeddings(tmp_path / "e.bin", store)


def test_outputs_go_into_missing_directories(workspace, tmp_path):
    data = workspace / "data"
    graph = tmp_path / "g" / "graph.bin"
    assert main([
        "build-graph", "--corpus", str(data / "corpus.tsv"), "--source", "lexical", "--k", "8", "--out", str(graph),
    ]) == 0
    assert graph.exists() and (graph.parent / "docnos.txt").exists()
    run_out = tmp_path / "runs" / "r.trec"
    telemetry = tmp_path / "tele" / "t.jsonl"
    cfg = base_config(workspace, graph=str(graph), run_out=str(run_out), telemetry_out=str(telemetry))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    assert run_out.exists() and telemetry.exists()


def test_remote_ranker_requires_endpoint(workspace, tmp_path, capsys):
    cfg = base_config(workspace, ranker="remote")
    assert main(["run", "--config", write_config(tmp_path / "r.json", cfg)]) == 2
    assert "endpoint" in capsys.readouterr().err


def test_foreign_graph_fails_at_load(tmp_path, capsys):
    # built from the deduplicated corpus, the graph lacks the dropped twin "b" that a plain run keeps
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tcat dog\nb\tcat dog\nc\tdog bird\nd\tbird fish\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    graph = tmp_path / "g" / "graph.bin"
    graph.parent.mkdir()
    assert main(["dedup", "--corpus", str(corpus), "--out", str(tmp_path / "dd")]) == 0
    assert main([
        "build-graph", "--corpus", str(tmp_path / "dd" / "corpus.tsv"), "--source", "lexical", "--k", "1",
        "--out", str(graph),
    ]) == 0
    assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")]) == 0  # a plain one
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "graph": str(graph), "ranker": "oracle", "w": 2, "b": 1, "c": 3, "truncate_k": 1, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "docnos.txt" in err[0]
    assert not run_out.exists()


def test_graph_shallower_than_truncate_k_fails_at_load(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tcat dog\nb\tcat bird\nc\tdog bird\nd\tbird fish\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    graph = tmp_path / "g" / "graph.bin"
    graph.parent.mkdir()
    assert main(["build-graph", "--corpus", str(corpus), "--source", "lexical", "--k", "1", "--out", str(graph)]) == 0
    assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")]) == 0
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {  # truncate_k left at its default, 16
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "graph": str(graph), "ranker": "oracle", "w": 2, "b": 1, "c": 3, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert capsys.readouterr().err == f"error: truncate_k 16 exceeds the depth k=1 of graph {graph}\n"
    assert not run_out.exists()


def test_foreign_index_fails_at_load(tmp_path, capsys):
    # same size, so only the docnos tell the two corpora apart
    built = tmp_path / "built.tsv"
    built.write_text("a\tcat dog\nb\tbird fish\n", encoding="utf-8")
    assert main(["build-index", "--corpus", str(built), "--out", str(tmp_path / "idx")]) == 0
    corpus = tmp_path / "c.tsv"
    corpus.write_text("x\tzebra lion\ny\tcat dog\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "strategy": "baseline", "ranker": "oracle", "w": 2, "b": 1, "c": 2, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "docnos.txt" in err[0]
    assert not run_out.exists()


CORPUS_WITH_TWIN = "a\tcat dog\nb\tcat dog\nc\tdog bird\n"


@pytest.mark.parametrize("built, dedup, line", [
    (CORPUS_WITH_TWIN + "d\tbird fish\n", False, 4),
    ("a\tcat dog\nb\tcat dog\n", False, 3),
    (CORPUS_WITH_TWIN, True, 2),  # the index lacks the dropped twin "b" that a plain run keeps
], ids=["one_doc_longer", "one_doc_shorter", "dedup_index_plain_run"])
def test_index_of_another_size_fails_at_load_naming_its_line(tmp_path, capsys, built, dedup, line):
    # docnos.txt is the only rule that ties an index to the store, whatever the doc counts
    built_corpus = tmp_path / "built.tsv"
    built_corpus.write_text(built, encoding="utf-8")
    if dedup:
        assert main(["dedup", "--corpus", str(built_corpus), "--out", str(tmp_path / "dd")]) == 0
        built_corpus = tmp_path / "dd" / "corpus.tsv"
    assert main(["build-index", "--corpus", str(built_corpus), "--out", str(tmp_path / "idx")]) == 0
    (tmp_path / "c.tsv").write_text(CORPUS_WITH_TWIN, encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(tmp_path / "c.tsv"), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "strategy": "baseline", "ranker": "oracle", "w": 2, "b": 1, "c": 2, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'idx' / 'docnos.txt'}:{line}: docnos do not match the corpus in doc-id order; "
        "rebuild the index from the same corpus\n"
    )
    assert not run_out.exists()


def test_index_of_format_v2_fails_at_load(tmp_path, capsys):
    # the directory format version 2 wrote: text offsets and delta-coded ids
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tcat dog\nb\tbird fish\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    idx = tmp_path / "idx"
    idx.mkdir()
    (idx / "meta.json").write_text('{"avgdl": 2.0, "dedup": false, "doc_count": 2, "version": 2}\n')
    (idx / "docnos.txt").write_text("a\nb\n")
    (idx / "doclens.bin").write_bytes(b"".join(v.to_bytes(4, "little") for v in (2, 2)))
    (idx / "terms.dict").write_text("bird\t0\ncat\t8\ndog\t16\nfish\t24\n")
    (idx / "postings.bin").write_bytes(b"".join(v.to_bytes(4, "little") for v in (1, 1, 0, 1, 0, 1, 1, 1)))
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(idx),
        "strategy": "baseline", "ranker": "oracle", "w": 2, "b": 1, "c": 2, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "version 2" in err[0]
    assert "rebuild the index with 'slidegar build-index'" in err[0]
    assert not run_out.exists()


def test_docno_with_whitespace_fails_at_load(tmp_path, capsys):
    # the run line 'q1 Q0 d 1 1 1.0 baseline' would not parse back
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tbird fish\nd 1\tcat dog\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    run_out = tmp_path / "run.trec"
    cfg = {  # the corpus fails before the index, which does not exist, is read
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "strategy": "baseline", "ranker": "oracle", "w": 2, "b": 1, "c": 2, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "c.tsv:2: docno 'd 1' contains whitespace" in err[0]
    assert not run_out.exists()


SENTINEL_U32 = (0xFFFF_FFFF).to_bytes(4, "little")


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("g/graph.bin",
         b'{"count": 3, "k": 1, "sentinel": 4294967295, "source": "lexical", "version": 1}\n'
         + (1).to_bytes(4, "little") + (9).to_bytes(4, "little") + SENTINEL_U32,
         "graph.bin: row 1: neighbour id 9 is not below count 3"),
        ("g/graph.bin", b"[1, 2]\n", "graph.bin: invalid graph header (not a JSON object)"),
        ("g/graph.bin",
         b'{"count": 3, "k": 1, "sentinel": 4294967295, "source": "lexical", "version": 2}\n' + SENTINEL_U32 * 3,
         "graph.bin: unsupported graph format version 2"),
        ("g/graph.bin",
         b'{"count": 3, "k": 1, "sentinel": 0, "source": "lexical", "version": 1}\n' + SENTINEL_U32 * 3,
         "graph.bin: unexpected sentinel 0"),
        ("g/graph.bin",
         b'{"count": 2, "k": 1, "sentinel": 4294967295, "source": "lexical", "version": 1}\n' + SENTINEL_U32 * 2,
         "graph.bin: header count 2 does not match the 3 docnos"),
        ("idx/meta.json", b"not json", "meta.json: invalid index metadata (Expecting value"),
        ("idx/meta.json", b'{"version": 4}', "meta.json: missing doc_count, avgdl"),
    ],
    ids=["graph_id_out_of_range", "graph_header_not_object", "graph_version_2", "graph_sentinel_0",
         "graph_count_short", "meta_not_json", "meta_no_counts"],
)
def test_malformed_artifact_fails_with_its_path(tmp_path, capsys, name, data, message):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tcat dog\nb\tcat bird\nc\tdog bird\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    (tmp_path / "g").mkdir()
    assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")]) == 0
    assert main([
        "build-graph", "--corpus", str(corpus), "--source", "lexical", "--k", "1",
        "--out", str(tmp_path / "g" / "graph.bin"),
    ]) == 0
    (tmp_path / name).write_bytes(data)
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "index_dir": str(tmp_path / "idx"),
        "graph": str(tmp_path / "g" / "graph.bin"), "ranker": "oracle", "w": 2, "b": 1, "c": 3,
        "truncate_k": 1, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path / name) in err[0], err
    assert message in err[0]
    assert not run_out.exists()
