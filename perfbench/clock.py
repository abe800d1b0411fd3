"""Query clock for one ``slidegar run`` command, run in process.

Usage (from the repository root):

    python3 perfbench/clock.py STAMPS_OUT.json -- run --config cfg.json

It runs ``slidegar.cli.main(argv)`` with one change: every call of
``lexical_index.bm25_retrieve``, the first-stage call that begins each
query, first appends ``[qid, time.perf_counter()]`` to a list. The list is
written to ``STAMPS_OUT.json`` when the command ends, and the process exits
with the command's exit code. That is one list append per query and nothing
else, so the run is otherwise untraced.

``query_floors`` turns the stamps of several runs into the fastest time seen
for each query.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: clock.py STAMPS_OUT.json -- <slidegar CLI arguments>", file=sys.stderr)
        return 1
    out, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from slidegar import cli, lexical_index

    stamps: list[list] = []
    retrieve = lexical_index.bm25_retrieve

    def clocked(index, query, k):
        stamps.append([query.qid, time.perf_counter()])
        return retrieve(index, query, k)

    lexical_index.bm25_retrieve = clocked
    code = cli.main(cli_args)
    out.write_text(json.dumps(stamps), encoding="utf-8")
    return code


def query_floors(runs: list[list[list]], origin: dict[str, str]) -> dict[str, float]:
    """Fastest time, in seconds, of each original query over all its replicas.

    ``runs`` holds the stamps of each run in query order; a query's time is
    the gap from its stamp to the next one, so it covers first-stage
    retrieval, reranking and the telemetry record. The last query of a run
    has no next stamp and gives no time. ``origin`` maps each replica qid to
    its original qid.
    """
    floors: dict[str, float] = {}
    for stamps in runs:
        for (qid, start), (_, end) in zip(stamps, stamps[1:]):
            query = origin[qid]
            floors[query] = min(floors.get(query, end - start), end - start)
    return floors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
