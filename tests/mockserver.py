"""Scripted HTTP endpoint for exercising the remote-ranker wire protocol."""

import json
import random
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class ScriptedHandler(BaseHTTPRequestHandler):
    """Behaviors are consumed one per request; the last one repeats. Every
    JSON payload sent is kept in ``answers``."""

    script: list[str] = []
    requests_seen: list[dict] = []
    answers: list = []
    lock = threading.Lock()

    def log_message(self, *args):  # keep test output clean
        pass

    def do_POST(self):
        assert self.path == "/rerank"
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.lock:
            self.requests_seen.append(body)
            behavior = self.script[0] if len(self.script) == 1 else self.script.pop(0)
        docnos = [c["docno"] for c in body["candidates"]]
        if behavior == "reverse":
            payload = {"ordering": list(reversed(docnos))}
        elif behavior == "shuffle":  # the same shuffle for every window of one length
            payload = {"ordering": random.Random(0).sample(docnos, len(docnos))}
        elif behavior == "identity":
            payload = {"ordering": docnos}
        elif behavior == "duplicate":
            payload = {"ordering": [docnos[0]] * len(docnos)}
        elif behavior == "drop_one":
            payload = {"ordering": docnos[:-1]}
        elif behavior == "foreign":
            payload = {"ordering": ["not-a-real-docno"] + docnos[1:]}
        elif behavior == "string":  # "ba" for docnos a, b: a string, not a list
            payload = {"ordering": "".join(reversed(docnos))}
        elif behavior == "object":  # the reversed docnos as the keys of an object
            payload = {"ordering": dict.fromkeys(reversed(docnos), 0)}
        elif behavior == "not_an_object":  # the reversed docnos, without the object around them
            payload = list(reversed(docnos))
        elif behavior == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"this is not json")
            return
        elif behavior == "bad_status":  # not an HTTP status line
            self.wfile.write(b"garbage\r\n\r\n")
            return
        elif behavior == "truncated":  # the connection closes 86 bytes short of Content-Length
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"ordering": [')
            return
        elif behavior.startswith("status:"):
            self.send_response(int(behavior.split(":")[1]))
            self.end_headers()
            return
        elif behavior.startswith("sleep:"):
            time.sleep(float(behavior.split(":")[1]))
            payload = {"ordering": list(reversed(docnos))}
        else:
            raise AssertionError(f"unknown behavior {behavior}")
        with self.lock:
            self.answers.append(payload)
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@contextmanager
def scripted_server(script):
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    ScriptedHandler.script = list(script)
    ScriptedHandler.requests_seen = []
    ScriptedHandler.answers = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
