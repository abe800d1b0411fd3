"""Operator surface: build artifacts, run experiments, evaluate.

Exit codes: 0 ok, 1 usage error, 2 runtime error. Fatal errors print one
machine-parsable ``error: ...`` line on stderr.

The ``run`` command takes a single JSON config document;
unset keys fall back to the defaults below and the fully resolved config is
echoed as the first telemetry record, so any run can be reproduced verbatim.
Remote-ranker credentials are read from the ``SLIDEGAR_RANKER_AUTH``
environment variable and sent as the ``Authorization`` header.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import adaptive_rerank, corpus_graph, corpus_store, dense_index, eval as run_eval, lexical_index
from .adaptive_rerank import RerankConfig
from .rankers import OracleRanker, RemoteRanker, check_remote

AUTH_ENV_VAR = "SLIDEGAR_RANKER_AUTH"

log = logging.getLogger(__name__)

_RERANK_DEFAULTS = asdict(RerankConfig())  # w, b, c, truncate_k and the RM3 settings

CONFIG_DEFAULTS: dict = {
    "corpus": None,
    "queries": None,
    "qrels": None,
    "dedup": False,
    "retriever": "bm25",  # bm25 | dense
    "index_dir": None,  # the `build-index` output that bm25 retrieval and slidegar_rm3 read
    "embeddings": None,
    "query_embeddings": None,
    "strategy": "slidegar",  # baseline | slidegar | slidegar_rm3
    "graph": None,
    "ranker": "oracle",  # oracle | noisy_oracle | identity | remote
    "endpoint": None,
    "timeout": 30.0,
    "retries": 3,
    "swap_prob": 0.1,
    "seed": 0,
    **_RERANK_DEFAULTS,
    # no command reads it; perfbench/run.py writes it into every config, so it
    # stays accepted and type-checked until the benchmark stops writing it
    # (tests/test_cli.py's base config writes it too, to keep that tested)
    "rel_threshold": 1,
    "run_out": "run.trec",
    "telemetry_out": None,
    "jobs": 1,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_config(path: str) -> dict:
    """The run config at ``path``, read like a data file: one leading
    byte-order mark dropped, invalid UTF-8 naming its line."""
    text = corpus_store.decode_utf8(path, Path(path).read_bytes().removeprefix(codecs.BOM_UTF8))
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON config ({exc})") from None
    if not isinstance(user, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(user) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    cfg = {**CONFIG_DEFAULTS, **user}
    _validate_config(cfg)
    if cfg["telemetry_out"] is None:
        cfg["telemetry_out"] = cfg["run_out"] + ".telemetry.jsonl"
    return cfg


def _validate_config(cfg: dict) -> None:
    for key in ("corpus", "queries", "run_out"):
        if not cfg[key]:
            raise ValueError(f"config requires {key!r}")
    for key in ("corpus", "queries", "qrels", "index_dir", "embeddings", "query_embeddings",
                "graph", "endpoint", "run_out", "telemetry_out"):
        if cfg[key] is not None and (type(cfg[key]) is not str or not cfg[key]):
            raise ValueError(f"config {key!r} must be a non-empty string, got {cfg[key]!r}")
    if type(cfg["dedup"]) is not bool:
        raise ValueError(f"config 'dedup' must be true or false, got {cfg['dedup']!r}")
    if cfg["telemetry_out"] is not None and os.path.realpath(cfg["telemetry_out"]) == os.path.realpath(cfg["run_out"]):
        raise ValueError(f"config 'telemetry_out' and 'run_out' name the same file, {cfg['run_out']!r}")
    if cfg["retriever"] not in ("bm25", "dense"):
        raise ValueError(f"unknown retriever {cfg['retriever']!r}")
    if cfg["strategy"] not in ("baseline", "slidegar", "slidegar_rm3"):
        raise ValueError(f"unknown strategy {cfg['strategy']!r}")
    if cfg["ranker"] not in ("oracle", "noisy_oracle", "identity", "remote"):
        raise ValueError(f"unknown ranker {cfg['ranker']!r}")
    if cfg["strategy"] == "slidegar" and not cfg["graph"]:
        raise ValueError("strategy 'slidegar' requires a graph")
    if (cfg["retriever"] == "bm25" or cfg["strategy"] == "slidegar_rm3") and not cfg["index_dir"]:
        needs = "strategy 'slidegar_rm3'" if cfg["strategy"] == "slidegar_rm3" else "retriever 'bm25'"
        raise ValueError(f"{needs} requires an index_dir")
    if cfg["ranker"] == "remote" and not cfg["endpoint"]:
        raise ValueError("ranker 'remote' requires an endpoint")
    if cfg["ranker"] in ("oracle", "noisy_oracle") and not cfg["qrels"]:
        raise ValueError(f"ranker {cfg['ranker']!r} requires qrels")
    if cfg["retriever"] == "dense" and not (cfg["embeddings"] and cfg["query_embeddings"]):
        raise ValueError("retriever 'dense' requires embeddings and query_embeddings")
    for key in ("jobs", "seed", "retries", "rel_threshold"):  # RerankConfig checks its own keys
        if type(cfg[key]) is not int:  # bool is an int subclass and is rejected too
            raise ValueError(f"config {key!r} must be an integer, got {cfg[key]!r}")
    for key in ("timeout", "swap_prob"):
        if type(cfg[key]) not in (int, float):
            raise ValueError(f"config {key!r} must be a number, got {cfg[key]!r}")
    if cfg["jobs"] < 1:
        raise ValueError("jobs must be >= 1")
    check_remote(cfg["timeout"], cfg["retries"])  # the remote ranker's own check, before set-up
    if not 0 <= cfg["swap_prob"] <= 1:
        raise ValueError(f"config 'swap_prob' must be in [0, 1], got {cfg['swap_prob']!r}")
    _rerank_config(cfg)


def _rerank_config(cfg: dict) -> RerankConfig:
    """The strategy settings of a run config; raises on an invalid one."""
    return RerankConfig(**{key: cfg[key] for key in _RERANK_DEFAULTS})


class _Pipeline:
    """The artifacts and ranker one ``run`` config needs, loaded once."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.rerank = _rerank_config(cfg)
        # the telemetry's setup record: each set-up step's wall time in seconds and
        # the count of absent judgments; what the config does not need stays None
        keys = ("ingest_s", "qrels_s", "qrels_absent", "index_load_s", "forward_index_s", "embeddings_load_s",
                "graph_load_s")
        self.setup = dict.fromkeys(keys)
        t0 = time.perf_counter()
        self.store = corpus_store.ingest_corpus(cfg["corpus"], dedup=cfg["dedup"])
        _lap(self.setup, "ingest_s", t0)
        self.queries = corpus_store.load_queries(cfg["queries"])
        self.grades: dict[str, dict[int, int]] = {}
        if cfg["qrels"]:
            t0 = time.perf_counter()
            self.grades = self._load_grades(cfg["qrels"])
            _lap(self.setup, "qrels_s", t0)
        self.index = None
        if cfg["retriever"] == "bm25" or cfg["strategy"] == "slidegar_rm3":
            t0 = time.perf_counter()
            self.index = lexical_index.load_index(cfg["index_dir"], self.store)
            self.index.term_ids  # built here, like forward below, not by the first query or racing threads
            _lap(self.setup, "index_load_s", t0)
            if cfg["strategy"] == "slidegar_rm3":
                t0 = time.perf_counter()
                self.index.forward  # built here, in set-up, not by the first query or racing threads
                _lap(self.setup, "forward_index_s", t0)
        self.embeddings = None
        self.query_vectors: dict = {}
        if cfg["retriever"] == "dense":
            t0 = time.perf_counter()
            self.embeddings = dense_index.load_embeddings(cfg["embeddings"], self.store)
            self.query_vectors = dense_index.load_query_embeddings(cfg["query_embeddings"], self.queries)
            _lap(self.setup, "embeddings_load_s", t0)
            dim = self.embeddings.shape[1]
            other = next((len(v) for v in self.query_vectors.values() if len(v) != dim), None)
            if other is not None:  # one file's vectors share one dim: fail before any query runs
                raise ValueError(
                    f"{cfg['query_embeddings']}: query vectors have dim {other}, embeddings {cfg['embeddings']} have dim {dim}"
                )
        self.graph = None
        if cfg["strategy"] == "slidegar":  # the one strategy that reads a graph
            t0 = time.perf_counter()
            self.graph = corpus_graph.load_graph(cfg["graph"], self.store)
            _lap(self.setup, "graph_load_s", t0)
            if cfg["truncate_k"] > self.graph.shape[1]:
                raise ValueError(
                    f"truncate_k {cfg['truncate_k']} exceeds the depth k={self.graph.shape[1]} of graph {cfg['graph']}"
                )
        self.ranker = self._make_ranker(cfg)

    def _load_grades(self, path: str) -> dict[str, dict[int, int]]:
        """Grades keyed by store doc ids; the file's own table and the
        absent judgments are dropped on return."""
        grades, absent = corpus_store.map_qrels(corpus_store.load_qrels(path), self.store)
        self.setup["qrels_absent"] = len(absent)
        if absent:
            log.warning(
                "%s: %d judgments name docnos absent from the corpus, first (%s, %s)", path, len(absent), *absent[0]
            )
        return grades

    def _make_ranker(self, cfg: dict):
        kind = cfg["ranker"]
        if kind == "identity":  # the oracle without grades keeps the window order, whatever the qrels
            return OracleRanker({})
        if kind == "oracle":
            return OracleRanker(self.grades)
        if kind == "noisy_oracle":
            return OracleRanker(self.grades, self.store.docnos, swap_prob=cfg["swap_prob"], seed=cfg["seed"])
        auth = os.environ.get(AUTH_ENV_VAR)
        return RemoteRanker(cfg["endpoint"], self.store, timeout=cfg["timeout"], retries=cfg["retries"], auth=auth)

    def initial_ranking(self, query: corpus_store.Query, k: int) -> list[int]:
        if self.cfg["retriever"] == "bm25":
            return lexical_index.bm25_retrieve(self.index, query, k)
        return dense_index.dense_retrieve(self.embeddings, self.query_vectors[query.qid], k)

    def rerank_one(self, query: corpus_store.Query) -> tuple[str, list[str], dict]:
        cfg, rcfg = self.cfg, self.rerank
        t0 = time.perf_counter()
        r0 = self.initial_ranking(query, rcfg.c)
        first_stage_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        record = {"type": "query", "qid": query.qid, "first_stage_ms": first_stage_ms}
        if not r0:  # no strategy runs, so every count is 0
            record["note"] = "empty initial ranking"
            result = adaptive_rerank.RerankResult(query, self.ranker)
        elif cfg["strategy"] == "baseline":
            result = adaptive_rerank.sliding_window_baseline(query, r0, self.ranker, rcfg)
        else:
            if cfg["strategy"] == "slidegar":
                feedback = adaptive_rerank.graph_feedback(self.graph, rcfg.truncate_k)
            else:
                feedback = adaptive_rerank.rm3_feedback(self.index, query, r0, rcfg)
            result = adaptive_rerank.slidegar(query, r0, self.ranker, feedback, rcfg)
        record.update(adaptive_rerank.telemetry_record(query.qid, r0, result))
        return query.qid, [self.store.docnos[i] for i in result.ranking], record

    def execute(self) -> tuple[dict, list[dict]]:
        jobs = self.cfg["jobs"]
        if jobs == 1:
            results = [self.rerank_one(q) for q in self.queries]
        else:
            from concurrent.futures import ThreadPoolExecutor  # here, not at module level: it costs every CLI process about 2 ms

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(self.rerank_one, self.queries))
        results.sort(key=lambda t: t[0])
        run = {qid: ranking for qid, ranking, _ in results if ranking}
        telemetry = [record for _, _, record in results]
        return run, telemetry


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # here, not at module level: it costs every other command about 3 ms

    # an unset flag leaves no attribute (argument_default=SUPPRESS), so SynthSpec's default applies
    spec = synth.SynthSpec(**{k: v for k, v in vars(args).items() if k not in ("command", "func", "out")})
    manifest = synth.generate(spec, args.out)
    n_docs = spec.n_clusters * spec.docs_per_cluster
    print(f"wrote {args.out}: {n_docs} docs, {len(manifest['queries'])} queries")
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    build: dict = {}
    t0 = time.perf_counter()
    # the corpus streams through the tokenizer: only the docnos are kept, as the bytes of docnos.txt
    documents = corpus_store.Documents(args.corpus, dedup=args.dedup)
    index = lexical_index.build_index(documents)
    t0 = _lap(build, "index_build_s", t0)
    lexical_index.save_index(index, args.out, documents.docnos, dedup=args.dedup)
    report_path = Path(args.out) / "dedup_report.jsonl"
    if args.dedup:
        corpus_store.write_dedup_report(report_path, documents.dropped)
    else:  # an earlier --dedup build's report would describe another corpus
        report_path.unlink(missing_ok=True)
    _lap(build, "index_save_s", t0)
    print(f"wrote {args.out}: {index.doc_count} docs, {len(index.terms)} terms, {len(documents.dropped)} dropped")
    _print_build_record(build)
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    if args.source == "dense" and not args.embeddings:
        raise ValueError("--source dense requires --embeddings")
    build = dict.fromkeys(("ingest_s", "index_build_s", "embeddings_load_s", "graph_build_s", "graph_save_s"))
    t0 = time.perf_counter()
    store = corpus_store.ingest_corpus(args.corpus, dedup=args.dedup)
    t0 = _lap(build, "ingest_s", t0)
    if args.source == "lexical":
        index = lexical_index.build_index(store.texts)
        t0 = _lap(build, "index_build_s", t0)
        graph = corpus_graph.build_graph_lexical(index, store, args.k)
    else:
        embeddings = dense_index.load_embeddings(args.embeddings, store)
        t0 = _lap(build, "embeddings_load_s", t0)
        graph = corpus_graph.build_graph_dense(embeddings, args.k)
    t0 = _lap(build, "graph_build_s", t0)
    corpus_graph.save_graph(args.out, graph, args.source, store)
    _lap(build, "graph_save_s", t0)
    print(f"wrote {args.out}: {len(graph)} nodes, k={graph.shape[1]}, source={args.source}")
    _print_build_record(build)
    return 0


def _lap(record: dict, key: str, t0: float) -> float:
    """Record the seconds since ``t0`` under ``key``; return the time now,
    where the next step starts."""
    now = time.perf_counter()
    record[key] = round(now - t0, 6)
    return now


def _print_build_record(build: dict) -> None:
    """A build's last line of output: the wall time in seconds of each of its
    steps (null for a step its options skip) and its own peak RSS."""
    print(json.dumps({"type": "build", **build, "vm_hwm_mb": _vm_hwm_mb()}, sort_keys=True))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    for out in (cfg["run_out"], cfg["telemetry_out"]):
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    pipeline = _Pipeline(cfg)
    run, telemetry = pipeline.execute()
    run_eval.write_run(cfg["run_out"], run, cfg["strategy"])
    with open(cfg["telemetry_out"], "w", encoding="utf-8") as f:
        f.write(json.dumps({"type": "config", "config": cfg}, sort_keys=True) + "\n")
        f.write(json.dumps({"type": "setup", **pipeline.setup, "vm_hwm_mb": _vm_hwm_mb()}, sort_keys=True) + "\n")
        for record in telemetry:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    lines = sum(len(r) for r in run.values())
    print(f"wrote {cfg['run_out']} ({len(run)} queries, {lines} lines) and {cfg['telemetry_out']}")
    return 0


def _vm_hwm_mb() -> float | None:
    """This process's peak RSS so far in MB (``VmHWM``), or None where
    ``/proc/self/status`` does not exist. Unlike the ``ru_maxrss`` that a
    parent reads from ``wait4``, it is not floored by the parent's RSS."""
    try:
        with open("/proc/self/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 3)  # the line reads "VmHWM:  <n> kB"
    except OSError:
        pass
    return None


def cmd_eval(args: argparse.Namespace) -> int:
    run = run_eval.read_run(args.run)
    qrels = corpus_store.load_qrels(args.qrels)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    report = run_eval.evaluate_run(
        run, qrels, metrics, rel_threshold=args.rel_threshold,
        exponential=(args.gain == "exp"),
    )
    print(report.to_json() if args.json else report.format_table())
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="slidegar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic collection",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--clusters", type=int, dest="n_clusters")
    p.add_argument("--docs-per-cluster", type=int)
    p.add_argument("--vocab-per-cluster", type=int)
    p.add_argument("--shared-vocab", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--queries", type=int, dest="n_queries")
    p.add_argument("--relevant-per-query", type=int)
    p.add_argument("--gap", type=float, dest="retrieval_gap")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-index", help="build and persist the lexical index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dedup", action="store_true")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("build-graph", help="build and persist a corpus graph")
    p.add_argument("--corpus", required=True)
    p.add_argument("--source", choices=["lexical", "dense"], required=True)
    p.add_argument("--embeddings")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--out", required=True)
    p.add_argument("--dedup", action="store_true")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("run", help="run a reranking pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate a TREC run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default="ndcg@10,recall@50")
    p.add_argument("--rel-threshold", type=int, default=1)
    p.add_argument("--gain", choices=["linear", "exp"], default="linear")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # single operator-facing error line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    gc.freeze()  # exit's final collections then skip the import-time objects, numpy's above all
    sys.exit(main())


if __name__ == "__main__":
    run()
