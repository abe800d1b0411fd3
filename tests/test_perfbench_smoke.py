"""Smoke test of the benchmark harness on its tiny specs.

It drives the CLI as child processes and, with ``--trace 1``, wraps the
module-level names the window loop and the CLI call, so it fails if the
engine stops reaching them the way the tracer and the query clock expect.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True
    # the tracer's spans exist only while the CLI reaches the names it wraps
    value = {name: metric["value"] for name, metric in final["metrics"].items()}
    assert value["graph-oracle/adaptive_rerank.windows"] > 0
    assert value["rm3-oracle/adaptive_rerank.windows"] > 0
    assert value["graph-oracle/corpus_graph.neighbours.calls"] > 0
    assert value["rm3-oracle/lexical_index.rm3_expand.calls"] > 0
