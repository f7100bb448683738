"""Multi-process cluster test: real ``airphant serve`` node processes.

Builds a sharded index into a directory bucket, starts searcher nodes as
separate ``python -m repro serve`` processes, then starts a router node
(``--peers``) as a third process — the exact deployment the CLI documents.
Queries go through the router process over real sockets and must equal the
in-process single-node answer in everything but latency, also after a node
process is killed.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cluster.router import rendezvous
from repro.service.api import SearchRequest
from repro.service.facade import AirphantService
from repro.storage.local import LocalObjectStore
from repro.workloads.logs import generate_log_corpus

REPO_ROOT = Path(__file__).resolve().parents[2]
NUM_SHARDS = 4


def free_ports(count: int) -> list[int]:
    sockets, ports = [], []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def wait_ready(url: str, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=2.0):
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise TimeoutError(f"{url} did not become ready")


def serve(bucket: str, port: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--bucket",
            bucket,
            "--port",
            str(port),
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def post_search(url: str, payload: dict, timeout_s: float = 30.0) -> dict:
    request = urllib.request.Request(
        f"{url}/search",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return json.loads(response.read())


def _walk(node: dict):
    yield node
    for child in node.get("children") or []:
        yield from _walk(child)


@pytest.fixture(scope="module")
def bucket(tmp_path_factory):
    bucket = str(tmp_path_factory.mktemp("cluster-bucket"))
    store = LocalObjectStore(bucket)
    corpus = generate_log_corpus(store, "hdfs", num_documents=240, seed=3)
    service = AirphantService(store)
    service.build_index("logs", list(corpus.blob_names), num_shards=NUM_SHARDS)
    service.close()
    return bucket


def test_router_process_over_node_processes(bucket):
    node_port_a, node_port_b, router_port = free_ports(3)
    node_urls = [f"http://127.0.0.1:{node_port_a}", f"http://127.0.0.1:{node_port_b}"]
    processes = [
        serve(bucket, node_port_a),
        serve(bucket, node_port_b),
    ]
    router_url = f"http://127.0.0.1:{router_port}"
    processes.append(
        serve(
            bucket,
            router_port,
            "--peers",
            ",".join(node_urls),
            "--shard-timeout-s",
            "30",
            "--probe-interval-s",
            "0",
        )
    )
    try:
        for url in [*node_urls, router_url]:
            wait_ready(url)
        # Warm the nodes so the routed query below measures routing.
        for url in node_urls:
            post_search(url, {"query": "warmup", "index": "logs"})

        routed = post_search(router_url, {"query": "INFO dfs.DataNode", "index": "logs"})
        local_service = AirphantService(LocalObjectStore(bucket))
        local = local_service.search(
            SearchRequest(query="INFO dfs.DataNode", index="logs")
        ).to_dict()
        local_service.close()
        routed.pop("latency")
        local.pop("latency")
        assert routed == local
        assert routed["num_results"] > 0

        # One routed explain tree spans three processes: every span id in it
        # is distinct, and every node carries the router's trace id.
        explained = post_search(
            router_url, {"query": "INFO dfs.DataNode", "index": "logs", "explain": True}
        )
        trace = explained["trace"]
        nodes = list(_walk(trace["spans"]))
        span_ids = [node["span_id"] for node in nodes]
        assert len(set(span_ids)) == len(span_ids)
        assert {node["trace_id"] for node in nodes} == {trace["trace_id"]}
        # The router's own root, then the grafted root of the node it asked.
        assert [node["name"] for node in nodes].count("query") == 2

        # The router process exposes the cluster view over HTTP.
        with urllib.request.urlopen(f"{router_url}/cluster", timeout=10.0) as response:
            cluster_view = json.loads(response.read())
        assert cluster_view["peers"] == node_urls
        assert cluster_view["health"]["peers"] == 2

        # Killing the node the query goes to must not change its answer: the
        # router falls over to the survivor.
        first = rendezvous(node_urls, "logs", "INFO dfs.DataNode")[0]
        victim = processes[node_urls.index(first)]
        victim.terminate()
        victim.wait(timeout=10)
        degraded = post_search(router_url, {"query": "INFO dfs.DataNode", "index": "logs"})
        degraded.pop("latency")
        assert degraded == local
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
