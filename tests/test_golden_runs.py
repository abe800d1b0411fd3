"""Golden run files: the exact bytes of one small run per strategy.

The inputs are pure Python end to end (synth uses ``random``, BM25 and the
lexical graph never touch BLAS), so the digests are stable across hosts and
numpy builds. A refactor of the engine must leave them unchanged.
"""

import hashlib
import json

import pytest

from slidegar.cli import main

GOLDEN_SHA256 = {
    "baseline": "06d31394b9e2aaca3763f031e08324a365bb677e6ff02fa2da5a07ec93cda4e7",
    "slidegar": "de2a98047c22603877736d9fc6869024f8808a1d54bda56d3419f5b2bfdf7de4",
    "slidegar_rm3": "6d6e2f026e75db1ced510dff6d2d400e678cd67a1facaa99357edf9694f9a4fc",
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["synth", "--out", str(root / "data"), "--seed", "5"]) == 0
    assert main([
        "build-graph", "--corpus", str(root / "data" / "corpus.tsv"), "--source", "lexical",
        "--k", "8", "--out", str(root / "graph.bin"),
    ]) == 0
    return root


@pytest.mark.parametrize("strategy", sorted(GOLDEN_SHA256))
def test_run_file_digest(data, tmp_path, strategy):
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(data / "data" / "corpus.tsv"),
        "queries": str(data / "data" / "queries.tsv"),
        "qrels": str(data / "data" / "qrels.txt"),
        "strategy": strategy,
        "graph": str(data / "graph.bin") if strategy == "slidegar" else None,
        "truncate_k": 8,
        "ranker": "oracle",
        "w": 10,
        "b": 5,
        "c": 30,
        "run_out": str(run_out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert hashlib.sha256(run_out.read_bytes()).hexdigest() == GOLDEN_SHA256[strategy]
