"""Golden run files: the exact bytes of one small run per strategy, and of
the index that ``build-index`` writes for the same corpus, and for that
corpus with planted twins after ``slidegar dedup``.

The inputs are pure Python end to end (synth uses ``random``, BM25 and the
lexical graph never touch BLAS), so the digests are stable across hosts and
numpy builds. A refactor of the engine must leave them unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slidegar
from slidegar.cli import main

GOLDEN_SHA256 = {
    "baseline": "06d31394b9e2aaca3763f031e08324a365bb677e6ff02fa2da5a07ec93cda4e7",
    "slidegar": "de2a98047c22603877736d9fc6869024f8808a1d54bda56d3419f5b2bfdf7de4",
    "slidegar_rm3": "6d6e2f026e75db1ced510dff6d2d400e678cd67a1facaa99357edf9694f9a4fc",
}

# the oracle at swap_prob 0.3, seed 1: pins the per-window generator, which
# is seeded from the qid and the window's docnos in window order
NOISY_SHA256 = {
    "baseline": "5709722e92931975a037d29d2c28295daa16c5199e1807521d0eb3829a6c445a",
    "slidegar": "710d8b344727fb8465ff5c9aa547ad132a0549ca46141b3c185e4f668d14fb22",
    "slidegar_rm3": "902ee6952dfb5c9407ad64a32df5ee7d8d560f6f955d5194cba46e69927bb0c9",
}

# every file build-index writes for the same corpus: the run digests see the
# index bytes only through rankings
INDEX_SHA256 = {
    "dfs.bin": "40013a03bf5be73e36c3ec558eb9fc38b01ec37ffb5a1d7b4c92aff768e50bdb",
    "docids.bin": "a0aec5b2a5ef25cb65cfa08aa025c411c2987046417854e2aafdb76882d33ebd",
    "doclens.bin": "e7198b350738cef4278288009b69e6308f756c1050741ec62fd5080cbf91d193",
    "docnos.txt": "4d79b882685826ee91a63b0cb893b823160fc15f858563255bbf39f296605e41",
    "meta.json": "88dc43fcce75e04d48630078eb680237445c205420e7ebf8a12bb5603a40fe92",
    "terms.txt": "ed2cdbd87de9ad85f9537b8339b35bd4ea019484779a7cfc8ce32faab7ceb73b",
    "tfs.bin": "7c4b84476d00a6932a2512d948efc0bb19f0667ccd6abc84808347f5daee6ab2",
}
# the same corpus with planted twins (``plant_twins``), after ``slidegar dedup``:
# every data file is what the removed ``build-index --dedup`` wrote for it. The
# merged documents tokenize as before, so only the kept ``a-twin`` moves a byte
DEDUP_INDEX_SHA256 = {
    **INDEX_SHA256,
    "docnos.txt": "40533f8aafae343f642781832a319da86a792d819aa16ea67a42d924d77c3616",
}
DEDUP_REPORT = '{"dropped": "d00x0000-ws", "kept": "d00x0000"}\n{"dropped": "d00x0002", "kept": "a-twin"}\n'
# the same noisy oracle over the deduplicated corpus and its qrels, with the lexical graph:
# the removed path's run over the twin corpus with ``"dedup": true``
DEDUP_NOISY_SHA256 = "27b180e4b6ff37b6fdee422a258d9bae5631cb3dbe5533a70fb83040c8de69cd"


def plant_twins(corpus: Path, out: Path) -> None:
    """Write ``corpus`` plus two later twins: a whitespace variant of its first
    document under a docno that sorts after that document's, and its third
    document under ``a-twin``, which sorts first and is kept in its place."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    first, third = lines[0].split("\t", 1), lines[2].split("\t", 1)
    twins = [f"{first[0]}-ws\t {first[1].replace(' ', '  ')} ", f"a-twin\t{third[1]}"]
    out.write_text("\n".join(lines + twins) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["synth", "--out", str(root / "data"), "--seed", "5"]) == 0
    assert main(["build-index", "--corpus", str(root / "data" / "corpus.tsv"), "--out", str(root / "index")]) == 0
    assert main([
        "build-graph", "--corpus", str(root / "data" / "corpus.tsv"), "--source", "lexical",
        "--k", "8", "--out", str(root / "graph.bin"),
    ]) == 0
    plant_twins(root / "data" / "corpus.tsv", root / "twins.tsv")
    assert main([
        "dedup", "--corpus", str(root / "twins.tsv"), "--qrels", str(root / "data" / "qrels.txt"), "--out", str(root / "dd"),
    ]) == 0
    assert main(["build-index", "--corpus", str(root / "dd" / "corpus.tsv"), "--out", str(root / "dd_index")]) == 0
    assert main([
        "build-graph", "--corpus", str(root / "dd" / "corpus.tsv"), "--source", "lexical",
        "--k", "8", "--out", str(root / "dd_graph" / "graph.bin"),
    ]) == 0
    return root


def run_digest(data, tmp_path, strategy, hash_seed=None, **options):
    """The sha256 of one run's file, run in this process or, given a
    ``hash_seed``, in a child process under that ``PYTHONHASHSEED``."""
    run_out = tmp_path / "run.trec"
    cfg = {
        "corpus": str(data / "data" / "corpus.tsv"),
        "queries": str(data / "data" / "queries.tsv"),
        "qrels": str(data / "data" / "qrels.txt"),
        "index_dir": str(data / "index"),
        "strategy": strategy,
        "graph": str(data / "graph.bin") if strategy == "slidegar" else None,
        "truncate_k": 8,
        "ranker": "oracle",
        **options,
        "w": 10,
        "b": 5,
        "c": 30,
        "run_out": str(run_out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    if hash_seed is None:
        assert main(["run", "--config", str(cfg_path)]) == 0
    else:
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": str(Path(slidegar.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "slidegar.cli", "run", "--config", str(cfg_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    return hashlib.sha256(run_out.read_bytes()).hexdigest()


@pytest.mark.parametrize("dedup", [False, True])
def test_index_file_digests(data, tmp_path, dedup):
    corpus = data / "dd" / "corpus.tsv" if dedup else data / "data" / "corpus.tsv"
    assert main(["build-index", "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == (DEDUP_INDEX_SHA256 if dedup else INDEX_SHA256)
    if dedup:
        assert (data / "dd" / "dedup_report.jsonl").read_text(encoding="utf-8") == DEDUP_REPORT


def test_dedup_run_file_digest(data, tmp_path):
    digest = run_digest(
        data, tmp_path, "slidegar", swap_prob=0.3, seed=1,
        corpus=str(data / "dd" / "corpus.tsv"), qrels=str(data / "dd" / "qrels.txt"),
        index_dir=str(data / "dd_index"), graph=str(data / "dd_graph" / "graph.bin"),
    )
    assert digest == DEDUP_NOISY_SHA256
    assert " a-twin " in (tmp_path / "run.trec").read_text(encoding="utf-8")


@pytest.mark.parametrize("strategy", sorted(GOLDEN_SHA256))
def test_run_file_digest(data, tmp_path, strategy):
    assert run_digest(data, tmp_path, strategy) == GOLDEN_SHA256[strategy]


@pytest.mark.parametrize("strategy", sorted(NOISY_SHA256))
def test_noisy_run_file_digest(data, tmp_path, strategy):
    # two threads draw each window's perturbation in another order, yet the bytes hold
    for jobs in (1, 2):
        digest = run_digest(data, tmp_path, strategy, swap_prob=0.3, seed=1, jobs=jobs)
        assert digest == NOISY_SHA256[strategy], jobs


@pytest.mark.parametrize(
    "strategy, options, pinned",
    [
        ("slidegar", {"swap_prob": 0.3, "seed": 1}, NOISY_SHA256["slidegar"]),
        ("slidegar_rm3", {}, GOLDEN_SHA256["slidegar_rm3"]),
    ],
    ids=["noisy-graph", "rm3"],
)
def test_run_bytes_do_not_depend_on_hash_seed(data, tmp_path, strategy, options, pinned):
    # str hashes differ per process unless PYTHONHASHSEED pins them; no set or
    # dict order of docnos or terms may reach the run file
    digests = {run_digest(data, tmp_path, strategy, hash_seed=seed, jobs=2, **options) for seed in (1, 2)}
    assert digests == {pinned}
