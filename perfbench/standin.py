"""Stand-in listwise ranker endpoint for the benchmark's remote workload.

Serves the slidegar remote-ranker wire protocol (``POST /rerank`` with
``{"qid", "query", "candidates": [{"docno", "text"}]}``, answered with
``{"ordering": [...]}``) after a fixed ``DELAY_MS`` per request, so the run sees a
ranker whose latency dominates. The ordering comes from its own oracle: a
stable sort of the window by qrel grade, descending. At most ``--jobs``
connections are served at once; the rest wait to be accepted.
``GET /stats`` returns the number of ``/rerank`` requests answered so far.

    python3 perfbench/standin.py --qrels QRELS --jobs 2

prints ``port <n>`` once it listens on 127.0.0.1 and serves until killed.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MS = 20


def read_grades(path: str) -> dict[str, dict[str, int]]:
    grades: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                qid, _, docno, grade = line.split()
                grades.setdefault(qid, {})[docno] = int(grade)
    return grades


class Handler(BaseHTTPRequestHandler):
    server: "StandIn"

    def log_message(self, *args) -> None:
        pass

    def _reply(self, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self.send_error(404)
            return
        with self.server.lock:
            self._reply({"requests": self.server.requests})

    def do_POST(self) -> None:
        if self.path != "/rerank":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(DELAY_MS / 1e3)
        grades = self.server.grades.get(body["qid"], {})
        docnos = [c["docno"] for c in body["candidates"]]
        ordering = sorted(docnos, key=lambda docno: -grades.get(docno, 0))
        with self.server.lock:
            self.server.requests += 1
        self._reply({"ordering": ordering})


class StandIn(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, jobs: int, grades: dict[str, dict[str, int]]) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.slots = threading.BoundedSemaphore(jobs)
        self.grades = grades
        self.requests = 0
        self.lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        self.slots.acquire()  # the accept loop waits here while `jobs` connections are open
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qrels", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args(argv)
    server = StandIn(args.jobs, read_grades(args.qrels))
    print(f"port {server.server_port}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
