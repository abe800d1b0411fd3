"""CLI-level benchmark for slidegar.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload graph-oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # every workload, one table
    python3 perfbench/run.py --workload all --smoke       # tiny specs: tests the harness

Inputs come from ``slidegar synth`` at the given seed; artifacts are built
from ``src/`` by the code under test. End-to-end numbers come from
``slidegar`` child processes: set-up runs are plain CLI processes, and the
query runs go through ``perfbench/clock.py``, which stamps the start of each
query and adds nothing else. With ``--trace 1`` the same commands run once
more through ``perfbench/tracer.py`` and the per-layer numbers come from
its spans. Metric names and units are those of ``BENCHMARK.json``; see
``perfbench/README.md`` for their definitions. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import clock
import standin
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SPEC_10K = {"clusters": 40, "docs_per_cluster": 250, "vocab_per_cluster": 60,
            "relevant_per_query": 60, "queries": 40, "dim": 96}
SPECS = {
    "full": {"10k": SPEC_10K, "100k": dict(SPEC_10K, docs_per_cluster=2500)},
    "smoke": {"10k": dict(SPEC_10K, clusters=6, docs_per_cluster=40, queries=4, relevant_per_query=10, dim=16),
           "100k": dict(SPEC_10K, clusters=6, docs_per_cluster=80, queries=4, relevant_per_query=10, dim=16)},
}
RERANK = {"w": 20, "b": 10, "c": 100, "truncate_k": 16, "rel_threshold": 2}
GRAPH_K = 16
MIN_FULL_RUNS = 3
TRACED_FULL_RUNS = 2
GRAPH_CHECK_ROWS = 200
CHILD_TIMEOUT_S = 120
CALIBRATION_REPS = 20  # timings of the calibration loop after each measured process
CALIBRATION_REF_S = 2.5e-3  # the loop's floor on the 2-CPU host the bounds were set on


class Workload(NamedTuple):
    corpus: str  # key into SPECS
    builds: tuple[str, ...]  # artifacts built with the code under test, in order
    traced_builds: tuple[str, ...]  # built after them with --trace 1 only: no run reads them
    graph: str | None  # graph the run reads: "dense" | "lexical"
    strategy: str
    replicas: int  # copies of the generated queries in one measured run
    remote_jobs: int  # > 0: also rank the queries through the stand-in endpoint with this many jobs


WORKLOADS = {
    "graph-oracle": Workload("10k", ("index", "dense"), ("lexical",), "dense", "slidegar", 50, 2),
    "rm3-oracle": Workload("100k", ("index",), (), None, "slidegar_rm3", 30, 0),
}


def calibration_s(reps: int) -> float:
    """Fastest of ``reps`` timings of a fixed pure-Python loop that runs no
    slidegar code. Its floor follows the host's speed, which on a shared
    host drifts by 15% or more over minutes."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(20000):
            table[i % 997] = table.get(i % 997, 0) + i
        best = min(best, time.perf_counter() - started)
    return best


class CommandFailed(Exception):
    pass


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.problems += problems


class Bench:
    """One workload at one seed, inside its own working directory."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, work: Path) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds
        self.wl = WORKLOADS[name]
        self.spec = SPECS["smoke" if smoke else "full"][self.wl.corpus]
        self.work = work
        self.data = work / "data"
        self.ledger = Ledger()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.log = work / "stderr.log"
        self.endpoint: str | None = None
        self._spans = itertools.count()

    # ------------------------------------------------------------ processes

    def child(self, argv: list[str]) -> tuple[float, float]:
        """Run one process to completion: (wall seconds, peak RSS in MB)."""
        with open(self.log, "ab") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            raise CommandFailed(f"{' '.join(map(str, argv[-4:]))}: exit {proc.returncode} {tail}")
        return wall, usage.ru_maxrss / 1024.0

    def cli(self, args: list, traced: bool, clocked: bool = False) -> dict:
        """One slidegar CLI command. Traced ones also return their spans,
        and traced or clocked ones the ``[qid, start]`` stamps of their queries."""
        args = [str(a) for a in args]
        self.ledger.attempted += 1
        sample: dict = {}
        try:
            if traced or clocked:
                out = self.work / f"stamps-{next(self._spans)}.json"
                wall, rss = self.child([sys.executable, str(HERE / ("tracer.py" if traced else "clock.py")),
                                        str(out), "--", *args])
                sample = json.loads(out.read_text(encoding="utf-8"))
                out.unlink()
                sample = {**sample, "stamps": tracer.query_stamps(sample)} if traced else {"stamps": sample}
            else:
                wall, rss = self.child([sys.executable, "-m", "slidegar.cli", *args])
        except CommandFailed:
            self.ledger.failed += 1
            raise
        sample.update(wall=wall, rss_mb=rss)
        return sample

    # ---------------------------------------------------------------- inputs

    def synthesize(self) -> dict:
        flags = [x for key, value in self.spec.items() for x in (f"--{key.replace('_', '-')}", value)]
        self.child([sys.executable, "-m", "slidegar.cli", "synth", "--out", str(self.data),
                    "--seed", str(self.seed), *map(str, flags)])
        return {f.name: checks.sha256(f) for f in sorted(self.data.iterdir())}

    def replicate(self) -> None:
        """Queries and qrels copied under distinct qids ``<qid>-rNN``. The
        queries file holds one pass over the generated queries per replica,
        so each query's replicas are spread over the whole run."""
        lines = (self.data / "queries.tsv").read_text(encoding="utf-8").splitlines()
        base = [line.split("\t", 1) for line in lines]
        qrels = [line.split() for line in (self.data / "qrels.txt").read_text(encoding="utf-8").splitlines()]
        self.replicas = {qid: [f"{qid}-r{r:02d}" for r in range(self.wl.replicas)] for qid, _ in base}
        self.origin = {copy: qid for qid, copies in self.replicas.items() for copy in copies}
        self.qids = [f"{qid}-r{r:02d}" for r in range(self.wl.replicas) for qid, _ in base]
        self.queries = self.work / "queries.tsv"
        self.qrels = self.work / "qrels.txt"
        self.first_query = self.work / "first-query.tsv"
        text = dict(base)
        self.queries.write_text("".join(f"{copy}\t{text[self.origin[copy]]}\n" for copy in self.qids), encoding="utf-8")
        self.qrels.write_text(
            "".join(f"{copy} {it} {docno} {grade}\n"
                    for qid, it, docno, grade in qrels for copy in self.replicas[qid]), encoding="utf-8")
        self.first_query.write_text(lines[0] + "\n", encoding="utf-8")

    def config(self, name: str, queries: Path, art: Path, ranker: str, jobs: int, qrels: Path | None = None) -> Path:
        cfg = {
            "corpus": str(self.data / "corpus.tsv"),
            "queries": str(queries),
            "qrels": str(qrels or self.qrels),
            "index_dir": str(art / "index"),
            "strategy": self.wl.strategy,
            "ranker": ranker,
            "jobs": jobs,
            "run_out": str(self.work / f"{name}.trec"),
            **RERANK,
        }
        if self.wl.graph:
            cfg["graph"] = str(art / self.wl.graph / "graph.bin")
        if ranker == "remote":
            cfg["endpoint"] = self.endpoint
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return path

    # ---------------------------------------------------------------- phases

    def build_cycle(self, art: Path, builds: tuple[str, ...], traced: bool) -> list[dict]:
        corpus = self.data / "corpus.tsv"
        commands = {
            "index": ["build-index", "--corpus", corpus, "--out", art / "index"],
            "dense": ["build-graph", "--corpus", corpus, "--source", "dense", "--embeddings",
                      self.data / "embeddings.bin", "--k", GRAPH_K, "--out", art / "dense" / "graph.bin"],
            "lexical": ["build-graph", "--corpus", corpus, "--source", "lexical",
                        "--k", GRAPH_K, "--out", art / "lexical" / "graph.bin"],
        }
        for sub in ("dense", "lexical"):
            (art / sub).mkdir(parents=True, exist_ok=True)
        return [dict(self.cli(commands[b], traced), build=b) for b in builds]

    def check_artifacts(self, art: Path, builds: tuple[str, ...]) -> None:
        n_docs = len(self.docnos)
        meta = json.loads((art / "index" / "meta.json").read_text(encoding="utf-8"))
        self.ledger.check(1, [] if meta.get("doc_count") == n_docs else [f"index meta {meta} != {n_docs} docs"])
        rows = min(GRAPH_CHECK_ROWS, n_docs)
        if "dense" in builds:
            self.ledger.check(rows, checks.dense_graph_problems(
                art / "dense" / "graph.bin", self.data / "embeddings.bin", GRAPH_K, rows, self.seed))
        if "lexical" in builds:
            self.ledger.check(rows, checks.lexical_graph_problems(
                art / "lexical" / "graph.bin", self.data / "corpus.tsv", GRAPH_K, rows, self.seed))

    def check_run_file(self, path: Path) -> dict[str, list[str]]:
        rankings, problems = checks.check_run(path, self.qids, RERANK["c"], self.docnos)
        problems.update(checks.replica_problems(rankings, self.replicas))
        self.ledger.check(len(self.qids), [f"{path.name}: {qid}: {why}" for qid, why in sorted(problems.items())])
        return rankings

    def query_records(self, run_out: Path) -> list[dict]:
        """The per-query telemetry records the last run wrote beside ``run_out``."""
        telemetry = Path(f"{run_out}.telemetry.jsonl").read_text(encoding="utf-8").splitlines()
        queries = [r for r in map(json.loads, telemetry) if r.get("type") == "query"]
        self.ledger.check(1, [] if len(queries) == len(self.qids) else ["telemetry lacks query records"])
        return queries

    def measure(self, configs: dict[str, Path], run_out: Path, deadline: float, traced: bool,
                min_full: int = MIN_FULL_RUNS) -> dict:
        """Alternate the set-up and full runs of ``configs`` until the
        deadline and ``min_full`` cycles, then set up once more.

        The set-up run ranks the first generated query alone, with its own
        qrels; ``setup_s`` is its median wall time. The full run ranks every
        replica with the query clock on. ``raw_qps`` is the generated query
        count ÷ the sum of each query's fastest time over all its replicas
        in all full runs (see ``clock.query_floors``). ``qps`` scales it to
        the reference host speed: ``raw_qps`` × the calibration loop's floor,
        timed between the processes, ÷ ``CALIBRATION_REF_S``.
        """
        walls: dict[str, list[float]] = {"setup": [], "full": []}
        fulls, hashes, rankings, calibration = [], [], None, []
        while len(fulls) < min_full or time.perf_counter() < deadline:
            walls["setup"].append(self.cli(["run", "--config", configs["setup"]], traced)["wall"])
            calibration.append(calibration_s(CALIBRATION_REPS))
            sample = self.cli(["run", "--config", configs["full"]], traced, clocked=True)
            calibration.append(calibration_s(CALIBRATION_REPS))
            walls["full"].append(sample["wall"])
            fulls.append(sample)
            order = [qid for qid, _ in sample["stamps"]]
            self.ledger.check(1, [] if order == self.qids else ["query clock: queries not stamped in file order"])
            rankings = rankings or self.check_run_file(run_out)
            hashes.append(checks.sha256(run_out))
        walls["setup"].append(self.cli(["run", "--config", configs["setup"]], traced)["wall"])
        self.ledger.check(1, [] if len(set(hashes)) == 1 else [f"{run_out.name}: bytes differ between reruns"])
        floors = clock.query_floors([s["stamps"] for s in fulls], self.origin)
        if len(floors) != len(self.replicas):
            raise CommandFailed(f"query clock timed {len(floors)} of {len(self.replicas)} queries")
        raw_qps = len(floors) / sum(floors.values())
        return {"setup_s": statistics.median(walls["setup"]), "raw_qps": raw_qps,
                "qps": raw_qps * min(calibration) / CALIBRATION_REF_S, "calibration_ms": min(calibration) * 1e3,
                "sha256": hashes[0], "rankings": rankings, "runs": fulls,
                "peak_rss_mb": statistics.median(s["rss_mb"] for s in fulls), "samples_s": walls}

    # ---------------------------------------------------------------- workload run

    def run(self, trace: bool) -> dict:
        wl = self.wl
        out: dict = {"provenance": {
            "workload": self.name, "seed": self.seed, "synth_spec": self.spec, "rerank": RERANK,
            "graph_k": GRAPH_K, "replicas": wl.replicas, "remote_jobs": wl.remote_jobs,
            "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
            "inputs_sha256": self.synthesize(),
        }}
        self.replicate()
        self.docnos = checks.read_docnos(self.data / "corpus.tsv")
        art = self.work / "art"
        builds = self.build_cycle(art, wl.builds, traced=False)
        self.check_artifacts(art, wl.builds)

        configs = {"setup": self.config("setup", self.first_query, art, "oracle", 1, self.data / "qrels.txt"),
                   "full": self.config("full", self.queries, art, "oracle", 1)}
        run_out = self.work / "full.trec"
        plain = self.measure(configs, run_out, time.perf_counter() + self.seconds, traced=False)
        queries = self.query_records(run_out)
        out["run_sha256"] = {"full": plain["sha256"]}
        out["samples_s"] = plain["samples_s"]
        out["host"] = {"raw_qps": plain["raw_qps"], "calibration_floor_ms": plain["calibration_ms"],
                       "reference_ms": CALIBRATION_REF_S * 1e3}

        qrels = checks.read_qrels(self.data / "qrels.txt")
        rankings, first = plain["rankings"], {qid: copies[0] for qid, copies in self.replicas.items()}
        out["end_to_end"] = {
            "setup_s": plain["setup_s"],
            "qps": plain["qps"],
            "build_peak_rss_mb": max(s["rss_mb"] for s in builds),
            "peak_rss_mb": plain["peak_rss_mb"],
            "recall_c": statistics.fmean(checks.recall_at_c(
                rankings.get(first[q], []), qrels[q], RERANK["c"], RERANK["rel_threshold"]) for q in first),
            "ndcg_10": statistics.fmean(checks.ndcg_at_10(rankings.get(first[q], []), qrels[q]) for q in first),
            "llm_calls_per_query": statistics.fmean(r["llm_calls"] for r in queries),
        }
        out["escaped_docs_per_query"] = statistics.fmean(r["escaped_docs"] for r in queries)
        out["build_s"] = {s["build"]: s["wall"] for s in builds}
        remote = self.remote_runs(art, trace, out, rankings) if wl.remote_jobs else None
        if trace:
            out["per_layer"] = self.traced_phase(art, configs, run_out, plain, remote)
        return out

    def remote_runs(self, art: Path, trace: bool, out: dict, rankings: dict[str, list[str]]) -> dict | None:
        """The generated queries, ranked through the stand-in with
        ``remote_jobs`` jobs; its run file must equal an in-process oracle
        run with one job, byte for byte, which must rank each query as the
        full run ranked its replicas. Returns the traced remote run."""
        jobs = self.wl.remote_jobs
        queries, qrels = self.data / "queries.tsv", self.data / "qrels.txt"
        self.cli(["run", "--config", self.config("oracle", queries, art, "oracle", 1, qrels)], traced=False)
        natural, problems = checks.check_run(self.work / "oracle.trec", list(self.replicas), RERANK["c"], self.docnos)
        problems.update(checks.replica_problems({**rankings, **natural},
                                                {qid: [qid, *copies] for qid, copies in self.replicas.items()}))
        self.ledger.check(len(self.replicas), [f"oracle.trec: {qid}: {why}" for qid, why in sorted(problems.items())])
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "standin.py"), "--qrels", str(qrels), "--jobs", str(jobs)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            if line[:1] != ["port"]:
                raise CommandFailed("stand-in endpoint did not start")
            self.endpoint = f"http://127.0.0.1:{line[1]}"
            remote_cfg = self.config("remote", queries, art, "remote", jobs, qrels)
            wall = self.cli(["run", "--config", remote_cfg], traced=False)["wall"]
            out["run_sha256"].update(remote=checks.sha256(self.work / "remote.trec"),
                                     oracle_jobs1=checks.sha256(self.work / "oracle.trec"))
            same = out["run_sha256"]["remote"] == out["run_sha256"]["oracle_jobs1"]
            self.ledger.check(1, [] if same else [f"remote run with jobs={jobs} differs from the oracle run"])
            out["remote_run"] = {"queries": len(self.replicas), "jobs": jobs, "wall_s": wall,
                                 "standin_delay_ms": standin.DELAY_MS}
            if not trace:
                return None
            before = self.standin_requests()
            traced = self.cli(["run", "--config", remote_cfg], traced=True)
            traced["requests"] = self.standin_requests() - before
            same = checks.sha256(self.work / "remote.trec") == out["run_sha256"]["remote"]
            self.ledger.check(1, [] if same else ["traced remote run file differs"])
            return traced
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def standin_requests(self) -> int:
        with urllib.request.urlopen(f"{self.endpoint}/stats", timeout=10) as response:
            return json.loads(response.read())["requests"]

    def traced_phase(self, art: Path, configs: dict[str, Path], run_out: Path, plain: dict,
                     remote: dict | None) -> dict:
        traced_art = self.work / "art-traced"
        builds = self.build_cycle(traced_art, self.wl.builds + self.wl.traced_builds, traced=True)
        self.check_artifacts(traced_art, self.wl.traced_builds)
        untraced = {f.relative_to(art): checks.sha256(f) for f in art.rglob("*") if f.is_file()}
        same = all(checks.sha256(traced_art / name) == digest for name, digest in untraced.items())
        self.ledger.check(1, [] if same else ["traced build artifacts differ from untraced ones"])
        traced = self.measure(configs, run_out, 0.0, traced=True, min_full=TRACED_FULL_RUNS)
        self.ledger.check(1, [] if traced["sha256"] == plain["sha256"] else ["traced run file differs"])
        layers = tracer.layer_metrics(builds, traced["runs"])
        layers.update(tracer.remote_metrics(remote, self.wl.remote_jobs))
        layers["adaptive_rerank.escaped_docs"] = statistics.fmean(r["escaped_docs"] for r in self.query_records(run_out))
        layers["trace.overhead_frac"] = 1.0 - traced["qps"] / plain["qps"]
        return layers


def run_one(name: str, args: argparse.Namespace, declared: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=WORK))
    bench = Bench(name, args.seed, args.seconds, args.smoke, work)
    try:
        out = bench.run(bool(args.trace))
    except CommandFailed as exc:
        bench.ledger.problems.append(str(exc))
        out = {}
    except Exception:  # a harness or output-parsing error fails the run, with its traceback
        bench.ledger.problems.append(traceback.format_exc())
        out = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = bench.ledger
    kind = "per_layer" if args.trace else "end_to_end"
    values = out.get(kind, {})
    missing = [m["name"] for m in declared[kind] if m["name"] not in values]
    if out and missing:
        ledger.problems.append(f"metrics not produced: {missing}")
    correct = not ledger.problems and ledger.failed == 0
    report(name, out, ledger, declared)
    return {
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed if correct else max(1, ledger.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared[kind] if m["name"] in values},
    }


def report(name: str, out: dict, ledger: Ledger, declared: dict) -> None:
    print(f"== {name}")
    if "provenance" in out:
        print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    for kind in ("end_to_end", "per_layer"):
        for m in declared[kind]:
            if m["name"] in out.get(kind, {}):
                print(f"  {m['name']:<40} {out[kind][m['name']]:>14.6g} {m['unit']}")
    if "end_to_end" in out:
        budget = -(-(RERANK["c"] - RERANK["w"]) // RERANK["b"]) + 1
        print(f"  llm_calls_per_query {out['end_to_end']['llm_calls_per_query']:.3f} "
              f"vs ceil((c-w)/b)+1 = {budget}; escaped docs per query {out['escaped_docs_per_query']:.3f}")
        print(f"  run sha256 {json.dumps(out['run_sha256'], sort_keys=True)}")
        print("  wall samples (s): " + json.dumps(out["samples_s"]))
        print("  qps before scaling to the reference host speed: " + json.dumps(out["host"], sort_keys=True))
        print("  build wall (s, one sample each, not bounded): " + json.dumps(out["build_s"]))
    if "remote_run" in out:
        print("  remote run (untraced, not bounded): " + json.dumps(out["remote_run"], sort_keys=True))
    print(f"  failed_frac {ledger.failed / max(1, ledger.attempted):.6f} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems[:20]:
        print(f"  FAIL {problem}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="CLI-level benchmark for slidegar")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny synthetic specs, for testing the harness")
    args = parser.parse_args(argv)
    if not (SRC / "slidegar" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no slidegar checkout (src/slidegar, BENCHMARK.json); "
              "run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args, declared) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": value for name, r in results.items() for key, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
