"""Latency-injecting S3 endpoint in a child process, for ``logsearch_s3``.

The endpoint is ``tests/harness/s3_emulator.py`` (imported, not edited) with
three additions: every GET and PUT sleeps a fixed delay before it answers
(the benchmark's 10 ms first-byte model), the server counts TCP connections and
requests so the parent can compute ``storage.s3.connections_per_request``,
and the listen backlog is 128 — with ``http.server``'s default of 5 the
program's one-connection-per-read bursts overflow it and a few percent of
queries stall a full second on SYN retransmit, which would measure the
emulator and not Airphant.

Run as a script it serves until its stdin closes (so it cannot outlive the
benchmark), on the one CPU it is told to keep to (the benchmark's client keeps
to another); :class:`S3LatencyServer` is the parent-side handle.
"""

from __future__ import annotations

import argparse
import http.client
import http.server
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Path the parent reads the counters from; never counted as a request.
STATS_PATH = "/-/perfbench-stats"


def _serve(bucket: str, delay_s: float, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    # Loaded by path: importing the ``harness`` package would pull in all of
    # ``repro`` (its other helpers need it), which the emulator does not.
    spec = importlib.util.spec_from_file_location(
        "s3_emulator", ROOT / "tests" / "harness" / "s3_emulator.py"
    )
    s3_emulator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(s3_emulator)

    # Real S3 pages listings at 1000 keys; the emulator's page of 3 exists to
    # exercise continuation tokens in tests and would only add requests here.
    s3_emulator.LIST_PAGE_SIZE = 1000

    counters = {"connections": 0, "requests": 0, "gets": 0}
    lock = threading.Lock()

    class Handler(s3_emulator._S3Handler):
        counted_connection = False

        def _count(self, verb: str) -> None:
            with lock:
                counters["requests"] += 1
                if verb == "GET":
                    counters["gets"] += 1
                if not self.counted_connection:
                    self.counted_connection = True
                    counters["connections"] += 1

        def _record_auth(self) -> None:
            # Per-request hook of the emulator; the list it appends to would
            # grow for the whole run.
            self._count(self.command)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path == STATS_PATH:
                with lock:
                    body = json.dumps(counters).encode("utf-8")
                self._respond(200, body, content_type="application/json")
                return
            time.sleep(delay_s)
            super().do_GET()

        def do_PUT(self) -> None:  # noqa: N802 - http.server API
            time.sleep(delay_s)
            super().do_PUT()

    class Server(http.server.ThreadingHTTPServer):
        request_queue_size = 128
        daemon_threads = True

    server = Server(("127.0.0.1", 0), Handler)
    server.bucket = bucket
    server.objects = {}
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()  # parent closes the pipe (or dies) -> shut down
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class S3LatencyServer:
    """Parent-side handle of the child-process endpoint."""

    def __init__(self, cpu: int, bucket: str = "perfbench", delay_ms: float = 10.0) -> None:
        self.bucket = bucket
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--bucket", bucket, "--delay-ms", repr(delay_ms), "--cpu", str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        line = self._process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("S3 latency server did not start")
        self.port = int(json.loads(line)["port"])

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def uri(self, prefix: str) -> str:
        """A registry-resolvable ``s3://`` URI for ``prefix`` in the bucket."""
        return f"s3://{self.bucket}/{prefix}?endpoint={self.endpoint}"

    def stats(self) -> dict[str, int]:
        """The server-side counters (connections, requests, gets)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", STATS_PATH)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """Close the child's stdin and wait for it to exit (idempotent)."""
        process = self._process
        if process.stdin is not None and not process.stdin.closed:
            process.stdin.close()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bucket", default="perfbench")
    parser.add_argument("--delay-ms", type=float, default=10.0)
    parser.add_argument("--cpu", type=int, required=True, help="the CPU the server runs on")
    args = parser.parse_args()
    _serve(args.bucket, args.delay_ms / 1000.0, args.cpu)
