"""Span tracer for one slidegar CLI command, run in process.

Usage (from the repository root):

    python3 perfbench/tracer.py SPANS_OUT.json -- run --config cfg.json

The tracer wraps the public names listed in ``install`` (the names the CLI
and the window loop actually call), opens a root span ``cli.main`` around
``slidegar.cli.main(argv)``, keeps every span in memory and writes them to
``SPANS_OUT.json`` when the command ends. The process exits with the
command's exit code.

A span is ``[name, start, end, parent, qid, n]``: ``parent`` is the index of
the enclosing span (worker threads of ``--jobs N`` hang off the root),
``qid`` is the query the span worked for, and ``n`` is an optional count
(the number of candidates a ``neighbours()`` call returned).

``layer_metrics`` turns the span files of a workload's traced processes into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

NAME, START, END, PARENT, QID, N = range(6)
ROOT_SPAN = "cli.main"
STRATEGY_SPANS = ("adaptive_rerank.slidegar", "adaptive_rerank.slidegar_rm3")


class Tracer:
    """In-memory spans with a thread-local stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, qid: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if qid is None and parent is not None:
            qid = self.spans[parent][QID]
        span = [name, 0.0, None, parent, qid, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, qid_of=None, count_of=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, qid_of(args) if qid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count_of is not None:
                self.spans[index][N] = count_of(result)
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    from slidegar import adaptive_rerank, corpus_graph, corpus_store, dense_index, lexical_index, rankers
    from slidegar import eval as run_eval

    query_qid = lambda args: args[0].qid  # noqa: E731  (strategy(query, ...))
    wrapped = [
        (corpus_store, "ingest_corpus", "corpus_store.ingest_corpus", None, None),
        (corpus_store, "load_qrels", "corpus_store.load_qrels", None, None),
        (lexical_index, "build_index", "lexical_index.build_index", None, None),
        (lexical_index, "save_index", "lexical_index.save_index", None, None),
        (lexical_index, "load_index", "lexical_index.load_index", None, None),
        (lexical_index, "bm25_retrieve", "lexical_index.bm25_retrieve", lambda args: args[1].qid, None),
        (adaptive_rerank, "slidegar", "adaptive_rerank.slidegar", query_qid, None),
        (adaptive_rerank, "slidegar_rm3", "adaptive_rerank.slidegar_rm3", query_qid, None),
        (adaptive_rerank, "neighbours", "corpus_graph.neighbours", None, len),
        (adaptive_rerank, "rm3_expand", "lexical_index.rm3_expand", None, None),
        (adaptive_rerank, "retrieve_expanded", "lexical_index.retrieve_expanded", None, None),
        (corpus_graph, "build_graph_dense", "corpus_graph.build_graph_dense", None, None),
        (corpus_graph, "build_graph_lexical", "corpus_graph.build_graph_lexical", None, None),
        (corpus_graph, "save_graph", "corpus_graph.save_graph", None, None),
        (corpus_graph, "load_graph", "corpus_graph.load_graph", None, None),
        (dense_index, "load_embeddings", "dense_index.load_embeddings", None, None),
        (rankers.ListwiseRanker, "rank", "rankers.rank", lambda args: args[1].query.qid, None),
        (run_eval, "write_run", "eval.write_run", None, None),
    ]
    for owner, attr, name, qid_of, count_of in wrapped:
        tracer.wrap(owner, attr, name, qid_of, count_of)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT.json -- <slidegar CLI arguments>", file=sys.stderr)
        return 1
    out, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = Tracer()
    install(tracer)
    from slidegar import cli

    tracer.root = tracer.open(ROOT_SPAN)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(tracer.root)
    out.write_text(json.dumps({"root": tracer.root, "spans": tracer.spans}), encoding="utf-8")
    return code


# ---------------------------------------------------------------- metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def jobs_busy_ratio(process: dict, jobs: int) -> float:
    """Ranker busy time ÷ (query-phase wall × jobs); the query phase runs
    from the first BM25 or strategy span to the last one's end."""
    spans = process["spans"]
    work = [s for s in spans if s[NAME] in STRATEGY_SPANS or s[NAME] == "lexical_index.bm25_retrieve"]
    if not work:
        return 0.0
    phase = max(s[END] for s in work) - min(s[START] for s in work)
    return sum(s[END] - s[START] for s in spans if s[NAME] == "rankers.rank") / (phase * jobs)


def query_stamps(process: dict) -> list[list]:
    """``[qid, start]`` of each first-stage BM25 span in the order they
    opened: the stamps ``perfbench/clock.py`` records, from a traced run."""
    return [[s[QID], s[START]] for s in process["spans"] if s[NAME] == "lexical_index.bm25_retrieve"]


def rank_ms(processes: list[dict]) -> list[float]:
    return [(s[END] - s[START]) * 1e3 for p in processes for s in p["spans"] if s[NAME] == "rankers.rank"]


def remote_metrics(remote: dict | None, jobs: int) -> dict[str, float]:
    """Metrics of one traced run against the stand-in endpoint, whose
    ``requests`` key holds the requests the stand-in answered during it."""
    if remote is None:
        return dict.fromkeys(("rankers.requests", "rankers.retries", "rankers.useful_ratio",
                              "rankers.remote_rank.ms.p50", "rankers.remote_rank.ms.p95",
                              "cli.remote_jobs_busy_ratio"), 0.0)
    calls = sum(1 for s in remote["spans"] if s[NAME] == "rankers.rank")
    ms = rank_ms([remote])
    return {
        "rankers.requests": remote["requests"],
        "rankers.retries": remote["requests"] - calls,
        "rankers.useful_ratio": calls / remote["requests"],
        "rankers.remote_rank.ms.p50": _median(ms),
        "rankers.remote_rank.ms.p95": _percentile(ms, 0.95),
        "cli.remote_jobs_busy_ratio": jobs_busy_ratio(remote, jobs),
    }


def layer_metrics(builds: list[dict], runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced processes.

    ``builds`` and ``runs`` are span files (as written by ``main``) with an
    added ``rss_mb`` key; ``runs`` are the full query runs of the workload.
    Durations of set-up layers are medians over every traced process;
    counts are per query run; ``.ms`` is the mean per call. A layer the
    workload never calls reads 0.
    """
    processes = builds + runs

    def durations(name: str, procs: list[dict]) -> list[float]:
        return [s[END] - s[START] for p in procs for s in p["spans"] if s[NAME] == name]

    def per_run(fn) -> float:
        return _median([fn(p) for p in runs])

    def calls(name: str) -> float:
        return per_run(lambda p: sum(1 for s in p["spans"] if s[NAME] == name))

    def mean_ms(name: str) -> float:
        return _mean(durations(name, runs)) * 1e3

    def first_ms(p: dict, name: str) -> float:
        first = next((s for s in p["spans"] if s[NAME] == name), None)
        return (first[END] - first[START]) * 1e3 if first else 0.0

    strategy_self_ms = []
    for p in runs:
        spans = p["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        strategy_self_ms += [
            (s[END] - s[START] - child_time[i]) * 1e3 for i, s in enumerate(spans) if s[NAME] in STRATEGY_SPANS
        ]

    def cli_self_ms(p: dict) -> float:
        root = p["spans"][p["root"]]
        children = [(s[START], s[END]) for s in p["spans"] if s[PARENT] == p["root"]]
        return (root[END] - root[START] - _union_length(children)) * 1e3

    def windows(p: dict) -> int:
        spans = p["spans"]
        return sum(1 for s in spans if s[NAME] == "rankers.rank" and spans[s[PARENT]][NAME] in STRATEGY_SPANS)

    frontier = [s[N] for p in runs for s in p["spans"] if s[NAME] == "corpus_graph.neighbours"]
    ranker_ms = rank_ms(runs)
    dense_builders = [p for p in processes if durations("corpus_graph.build_graph_dense", [p])]
    return {
        "corpus_store.ingest_s": _median(durations("corpus_store.ingest_corpus", processes)),
        "corpus_store.load_qrels_s": _median(durations("corpus_store.load_qrels", processes)),
        "lexical_index.build_s": _median(durations("lexical_index.build_index", processes)),
        "lexical_index.save_s": _median(durations("lexical_index.save_index", processes)),
        "lexical_index.load_s": _median(durations("lexical_index.load_index", processes)),
        "lexical_index.bm25_retrieve.calls": calls("lexical_index.bm25_retrieve"),
        "lexical_index.bm25_retrieve.ms": mean_ms("lexical_index.bm25_retrieve"),
        "lexical_index.rm3_expand.calls": calls("lexical_index.rm3_expand"),
        "lexical_index.rm3_expand.ms": mean_ms("lexical_index.rm3_expand"),
        "lexical_index.rm3_expand.first_ms": per_run(lambda p: first_ms(p, "lexical_index.rm3_expand")),
        "lexical_index.retrieve_expanded.calls": calls("lexical_index.retrieve_expanded"),
        "lexical_index.retrieve_expanded.ms": mean_ms("lexical_index.retrieve_expanded"),
        "dense_index.load_embeddings_s": _median(durations("dense_index.load_embeddings", processes)),
        "corpus_graph.build_dense_s": _median(durations("corpus_graph.build_graph_dense", processes)),
        "corpus_graph.build_dense.peak_rss_mb": _median([p["rss_mb"] for p in dense_builders]),
        "corpus_graph.build_lexical_s": _median(durations("corpus_graph.build_graph_lexical", processes)),
        "corpus_graph.save_s": _median(durations("corpus_graph.save_graph", processes)),
        "corpus_graph.load_s": _median(durations("corpus_graph.load_graph", processes)),
        "corpus_graph.neighbours.calls": calls("corpus_graph.neighbours"),
        "corpus_graph.neighbours.ms": mean_ms("corpus_graph.neighbours"),
        "corpus_graph.frontier_docs": _mean(frontier),
        "adaptive_rerank.self_ms.p50": _median(strategy_self_ms),
        "adaptive_rerank.self_ms.p95": _percentile(strategy_self_ms, 0.95),
        "adaptive_rerank.windows": per_run(windows),
        "rankers.rank.calls": calls("rankers.rank"),
        "rankers.rank.ms.p50": _median(ranker_ms),
        "rankers.rank.ms.p95": _percentile(ranker_ms, 0.95),
        "cli.self_ms": per_run(cli_self_ms),
        "cli.jobs_busy_ratio": per_run(lambda p: jobs_busy_ratio(p, 1)),
        "eval.write_run_ms": _median(durations("eval.write_run", runs)) * 1e3,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
