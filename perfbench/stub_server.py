"""Stub page-view and completion APIs for the endpoint workload.

Serves, from one separate process on 127.0.0.1:

- GET  /pageviews/per-article/{project}/{access}/{agent}/{title}/monthly/{start}/{end}
- POST /v1/completions
- GET  /__stats   request counts since the last reset
- GET  /__reset   clears counts and the record of injected failures

Answers are pure functions of the request (`views_for`, `answer_for`), so the
benchmark can check what popgate stored. The first attempt at a
deterministic ~2% of request keys gets a 503, so popgate's retry loop runs;
the retry of that key succeeds.

Each response goes out in a single write on a TCP_NODELAY socket over
keep-alive connections. Writing the header and body separately lets Nagle's
algorithm and delayed ACKs stall every request by tens of milliseconds,
which would be the stub's cost, not popgate's.

    python3 perfbench/stub_server.py    # prints the port, serves until SIGTERM
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

FAIL_ONE_IN = 50
_QUESTION_RE = re.compile(r"Q: ([^\n]*?) A:$")
_NUMBER_RE = re.compile(r"(\d{5})")


def _hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def views_for(title: str) -> int:
    """Log-uniform monthly views from 10 to 10^6, fixed per title."""
    return round(10.0 ** (1.0 + 5.0 * (_hash("views\x00" + title) % 10**6) / 10**6))


def answer_for(prompt: str) -> str:
    """The gold answer token for about half the questions, else a refusal."""
    match = _QUESTION_RE.search(prompt)
    question = match.group(1) if match else prompt
    number = _NUMBER_RE.search(question)
    if number and _hash("answer\x00" + question) % 2 == 0:
        return f"Ans{number.group(1)}"
    return "I do not know"


def injects_failure(key: str) -> bool:
    return _hash("fail\x00" + key) % FAIL_ONE_IN == 0


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = {"pageviews": 0, "completions": 0}
        self.keys: set[str] = set()
        self.failed: set[str] = set()
        self.succeeded: set[str] = set()

    def admit(self, kind: str, key: str) -> bool:
        """Count one request; False when it must be answered with a 503."""
        with self.lock:
            self.requests[kind] += 1
            self.keys.add(key)
            if key not in self.failed and injects_failure(key):
                self.failed.add(key)
                return False
            self.succeeded.add(key)
            return True

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "distinct_keys": len(self.keys),
                "injected_503": len(self.failed),
                "succeeded_keys": len(self.succeeded),
            }


STATS = Stats()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/__stats":
            self._reply(200, STATS.snapshot())
        elif self.path == "/__reset":
            with STATS.lock:
                STATS.reset()
            self._reply(200, {})
        elif self.path.startswith("/pageviews/per-article/"):
            if not STATS.admit("pageviews", self.path):
                self._reply(503, {"error": "injected"})
                return
            title = unquote(self.path.split("/")[-4])
            self._reply(200, {"items": [{"article": title, "views": views_for(title)}]})
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length) or b"{}")
        if self.path != "/v1/completions" or "prompt" not in body:
            self._reply(404, {"error": "not found"})
            return
        prompt = body["prompt"]
        if not STATS.admit("completions", prompt):
            self._reply(503, {"error": "injected"})
            return
        text = answer_for(prompt)
        self._reply(
            200,
            {
                "choices": [{"text": text}],
                "usage": {
                    "prompt_tokens": len(prompt.split()),
                    "completion_tokens": len(text.split()),
                },
            },
        )

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
