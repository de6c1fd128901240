"""Loopback chat-completions stub for the ``remote-http`` workload.

Answers every request with the oracle rules, so a ``RemoteBackend`` talking
to it behaves exactly like the ``OracleBackend``, only over HTTP. Each reply
is held back until a fixed delay has passed since the request arrived; the
stub's own handling time counts towards that delay.

Run as its own process::

    python3 perfbench/stub.py

It binds an ephemeral loopback port, prints ``port <n>`` on one line, and
serves until terminated, on one handler thread per CPU it may use.
``GET /stats`` returns ``{"requests": <count>}``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from memagent.core import canonical_json  # noqa: E402
from memagent.gateway import _ORACLE_RULES, ReasonerRole  # noqa: E402

#: Seconds from a request's arrival to its reply.
DELAY_S = 0.002


def answer(request_body: dict) -> dict:
    """The chat-completions response to one request body."""
    doc = json.loads(request_body["messages"][0]["content"])
    content = canonical_json(_ORACLE_RULES[ReasonerRole(doc["role"])](doc["payload"]))
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class StubServer(HTTPServer):
    """HTTP server whose requests run on a fixed pool of handler threads."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.requests = 0
        self._count_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)))

    def count_request(self) -> None:
        with self._count_lock:
            self.requests += 1

    def process_request(self, request, client_address) -> None:
        self._pool.submit(self._handle, request, client_address)

    def _handle(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer

    def do_POST(self) -> None:
        arrived = time.perf_counter()
        self.server.count_request()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        reply = json.dumps(answer(body)).encode("utf-8")
        remaining = DELAY_S - (time.perf_counter() - arrived)
        if remaining > 0:
            time.sleep(remaining)
        self._send(reply)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self.send_error(404)
            return
        self._send(json.dumps({"requests": self.server.requests}).encode("utf-8"))

    def _send(self, data: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:
        pass


def main() -> None:
    server = StubServer()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
