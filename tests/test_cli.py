import json

import pytest

from slidegar.cli import main
from slidegar.corpus_store import Query, ingest_corpus
from slidegar.eval import read_run
from slidegar.lexical_index import bm25_retrieve, build_index


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
    run_out = tmp_path / "run.trec"
    cfg = base_config(
        workspace, strategy="baseline", ranker="identity",
        run_out=str(run_out), graph=None,
    )
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    run, tag = read_run(run_out)
    assert tag == "baseline"
    store, _ = ingest_corpus(workspace / "data" / "corpus.tsv")
    index = build_index(store)
    manifest = json.loads((workspace / "data" / "spec.json").read_text())
    for info in manifest["queries"]:
        expected = bm25_retrieve(index, Query(info["qid"], " ".join(info["query_terms"])), 12)
        assert [sd.docno for sd in run[info["qid"]]] == [sd.docno for sd in expected]


def test_run_is_byte_identical_across_invocations(workspace, tmp_path):
    for name in ("one", "two"):
        cfg = base_config(
            workspace, ranker="noisy_oracle", swap_prob=0.3, seed=42,
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


def test_telemetry_config_reruns_verbatim(workspace, tmp_path):
    run_out = tmp_path / "orig.trec"
    cfg = base_config(workspace, run_out=str(run_out), telemetry_out=str(tmp_path / "orig.tel.jsonl"))
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 0
    first = json.loads((tmp_path / "orig.tel.jsonl").read_text().splitlines()[0])
    assert first["type"] == "config"
    echoed = first["config"]
    assert echoed["w"] == 6 and echoed["run_tag"] == "slidegar"
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
    queries = [r for r in records if r["type"] == "query"]
    assert len(queries) == 3
    for record in queries:
        for key in ("qid", "llm_calls", "bookkeeping_ms", "ranker_ms", "escaped_docs"):
            assert key in record


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


def test_sweep_k_table(workspace, tmp_path, capsys):
    cfg = base_config(workspace, run_out=str(tmp_path / "s.trec"), telemetry_out=str(tmp_path / "s.jsonl"))
    assert main([
        "sweep-k", "--config", write_config(tmp_path / "cfg.json", cfg),
        "--k-list", "2,4,8",
    ]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["k", "ndcg@10", "recall@12"]
    assert [line.split()[0] for line in lines[1:4]] == ["2", "4", "8"]
    assert "recall trend non-decreasing" in lines[4]


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


def test_build_index_with_dedup_writes_report(tmp_path, capsys):
    corpus = tmp_path / "c.tsv"
    corpus.write_text("b\tsame text\na\tsame text\nc\tother\n", encoding="utf-8")
    assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx"), "--dedup"]) == 0
    report = [json.loads(line) for line in (tmp_path / "idx" / "dedup_report.jsonl").read_text().splitlines()]
    assert report == [{"dropped": "b", "kept": "a"}]


def test_load_embeddings_command(workspace, tmp_path):
    data = workspace / "data"
    assert main([
        "load-embeddings", "--corpus", str(data / "corpus.tsv"),
        "--embeddings", str(data / "embeddings.bin"), "--out", str(tmp_path / "emb"),
    ]) == 0
    assert (tmp_path / "emb" / "embeddings.bin").exists()


def test_remote_ranker_requires_endpoint(workspace, tmp_path, capsys):
    cfg = base_config(workspace, ranker="remote")
    assert main(["run", "--config", write_config(tmp_path / "r.json", cfg)]) == 2
    assert "endpoint" in capsys.readouterr().err


def test_foreign_graph_fails_at_load(tmp_path, capsys):
    # built with --dedup, the graph lacks the dropped twin "b" that a plain run keeps
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a\tcat dog\nb\tcat dog\nc\tdog bird\nd\tbird fish\n", encoding="utf-8")
    (tmp_path / "q.tsv").write_text("q1\tcat\n", encoding="utf-8")
    graph = tmp_path / "g" / "graph.bin"
    graph.parent.mkdir()
    assert main([
        "build-graph", "--corpus", str(corpus), "--source", "lexical", "--k", "1",
        "--out", str(graph), "--dedup",
    ]) == 0
    capsys.readouterr()
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(corpus), "queries": str(tmp_path / "q.tsv"), "graph": str(graph),
        "ranker": "identity", "w": 2, "b": 1, "c": 3, "truncate_k": 1, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "docnos.txt" in err[0]
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
        "strategy": "baseline", "ranker": "identity", "w": 2, "b": 1, "c": 2, "run_out": str(run_out),
    }
    assert main(["run", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "docnos.txt" in err[0]
    assert not run_out.exists()
