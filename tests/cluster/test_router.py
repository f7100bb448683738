"""Unit tests for the query router over an in-memory fake transport."""

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.health import HealthTracker
from repro.cluster.router import ROUTED_HEADER, NodeQueryError, QueryRouter, rendezvous
from repro.observability import MetricsRegistry
from repro.observability.tracing import PARENT_SPAN_HEADER, TRACE_ID_HEADER, Span, attach
from repro.search.results import LatencyBreakdown
from repro.service.api import (
    DocumentHit,
    SearchRequest,
    SearchResponse,
    ServiceError,
)

PEERS = ("http://n1", "http://n2", "http://n3")
SOURCE_ROOT = str(Path(__file__).resolve().parents[2] / "src")

DOCS = (
    DocumentHit(blob="corpora/a.txt", offset=0, length=10, text="doc a0"),
    DocumentHit(blob="corpora/a.txt", offset=10, length=10, text="doc a1"),
    DocumentHit(blob="corpora/b.txt", offset=0, length=12, text="doc b0"),
)


def answer(url: str, request: SearchRequest) -> SearchResponse:
    """What node ``url`` answers: every node the same documents, and its own
    cost (so a test can tell which node's answer came back)."""
    return SearchResponse(
        query=request.query,
        index=request.index,
        mode=request.mode,
        documents=DOCS[: request.top_k],
        num_candidates=len(DOCS),
        false_positive_count=1,
        latency=LatencyBreakdown(bytes_fetched=100 * (PEERS.index(url) + 1), round_trips=2),
    )


class FakeCluster:
    """An in-memory node fleet the router's transport talks to.

    Every node can answer every query (they all see the same bucket); tests
    make nodes fail by adding them to ``down`` or give them per-call
    behavior via ``hooks``.
    """

    def __init__(self) -> None:
        self.down: set[str] = set()
        self.calls: list[tuple[str, str]] = []
        self.headers: list[dict | None] = []
        self.hooks: dict[str, object] = {}
        self.lock = threading.Lock()

    def searches(self) -> list[str]:
        """The nodes asked to search, in order."""
        with self.lock:
            return [url for url, path in self.calls if path == "/search"]

    def transport(self, url, path, payload, timeout_s, headers=None):
        with self.lock:
            self.calls.append((url, path))
            if path == "/search":
                self.headers.append(headers)
        hook = self.hooks.get(url)
        if hook is not None:
            hook(url, path, payload)
        if url in self.down:
            raise NodeQueryError("node_unreachable", f"{url}: connection refused")
        if path == "/healthz":
            return {"status": "ok"}
        assert path == "/search"
        return answer(url, SearchRequest.from_dict(payload)).to_dict()


@pytest.fixture
def cluster():
    return FakeCluster()


def make_router(cluster, **kwargs):
    kwargs.setdefault("probe_interval_s", 0)
    kwargs.setdefault("transport", cluster.transport)
    return QueryRouter(PEERS, **kwargs)


REQUEST = SearchRequest(query="doc", index="logs")
#: The rendezvous order of ``REQUEST`` over ``PEERS``.
ORDER = rendezvous(PEERS, REQUEST.index, REQUEST.query)
PRIMARY, BACKUP = ORDER[0], ORDER[1]


class TestRendezvous:
    def test_the_order_is_deterministic_across_instances(self):
        shuffled = (PEERS[2], PEERS[0], PEERS[1])
        for query in ("doc", "ERROR block", "a OR b"):
            order = rendezvous(PEERS, "logs", query)
            assert sorted(order) == sorted(PEERS)
            assert rendezvous(shuffled, "logs", query) == order
            assert rendezvous(list(PEERS), "logs", query) == order

    def test_a_leaving_peer_moves_only_the_queries_it_was_first_for(self):
        peers = [f"http://node{i}:8080" for i in range(8)]
        queries = [f"word{i}" for i in range(400)]
        before = {query: rendezvous(peers, "logs", query)[0] for query in queries}
        leaver = peers[3]
        after = {
            query: rendezvous([p for p in peers if p != leaver], "logs", query)[0]
            for query in queries
        }
        moved = {query for query in queries if before[query] != after[query]}
        assert moved == {query for query in queries if before[query] == leaver}
        assert moved  # the leaver was first for some

    def test_a_joining_peer_takes_only_the_queries_it_ranks_first(self):
        peers = [f"http://node{i}:8080" for i in range(8)]
        queries = [f"word{i}" for i in range(400)]
        joiner = "http://node8:8080"
        before = {query: rendezvous(peers, "logs", query)[0] for query in queries}
        after = {query: rendezvous([*peers, joiner], "logs", query)[0] for query in queries}
        moved = {query for query in queries if before[query] != after[query]}
        assert moved == {query for query in queries if after[query] == joiner}
        assert moved

    def test_the_order_is_the_same_in_another_process(self):
        """BLAKE2b, not the builtin ``hash``: a process with another hash
        seed ranks the peers identically."""
        script = (
            "import json, sys; from repro.cluster.router import rendezvous; "
            "print(json.dumps([rendezvous(sys.argv[1:], 'logs', q) for q in ('doc', 'ERROR')]))"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": SOURCE_ROOT}
        output = subprocess.run(
            [sys.executable, "-c", script, *PEERS],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert json.loads(output) == [rendezvous(PEERS, "logs", q) for q in ("doc", "ERROR")]

    def test_queries_spread_over_peers_within_a_factor_of_two(self):
        peers = [f"http://node{i}:8080" for i in range(16)]
        first = Counter(rendezvous(peers, "logs", f"query {i}")[0] for i in range(1_000))
        expected = 1_000 / len(peers)
        assert set(first) == set(peers)
        assert expected / 2 <= min(first.values()) <= max(first.values()) <= 2 * expected


class TestTraceHeaders:
    """The router marks every node request as routed, and hands the node the
    trace context of a traced query."""

    def test_a_traced_query_sends_its_node_the_trace_context(self, cluster):
        root = Span("query")
        with make_router(cluster) as router:
            with attach(root):
                router.route(REQUEST)
        (node,) = [span for span in root.walk() if span.name == "router.node"]
        assert cluster.headers == [
            {
                ROUTED_HEADER: "1",
                TRACE_ID_HEADER: root.trace_id,
                PARENT_SPAN_HEADER: node.span_id,
            }
        ]

    def test_an_untraced_query_sends_only_the_routed_mark(self, cluster):
        with make_router(cluster) as router:
            router.route(REQUEST)
        assert cluster.headers == [{ROUTED_HEADER: "1"}]


class TestRouting:
    def test_one_node_answers_and_its_answer_comes_back_unchanged(self, cluster):
        with make_router(cluster) as router:
            response = router.route(REQUEST)
        assert cluster.searches() == [PRIMARY]
        assert response == answer(PRIMARY, REQUEST)

    def test_the_request_reaches_the_node_unchanged(self, cluster):
        sent = []

        def hook(url, path, payload):
            sent.append(payload)

        cluster.hooks = {url: hook for url in PEERS}
        request = SearchRequest(
            query="doc", index="logs", mode="topk_bm25", top_k=2, weights={"doc": 2.0}
        )
        with make_router(cluster) as router:
            response = router.route(request)
        assert sent == [request.to_dict()]
        assert list(response.documents) == list(DOCS[:2])

    def test_a_query_goes_to_the_same_node_every_time(self, cluster):
        with make_router(cluster) as router:
            for _ in range(5):
                router.route(REQUEST)
            for query in ("ERROR", "INFO block", "blk_1"):
                router.route(SearchRequest(query=query, index="logs"))
        searches = cluster.searches()
        assert searches[:5] == [PRIMARY] * 5
        assert searches[5:] == [
            rendezvous(PEERS, "logs", query)[0] for query in ("ERROR", "INFO block", "blk_1")
        ]

    def test_marked_down_peers_are_tried_last(self, cluster):
        with make_router(cluster) as router:
            router.health.record_failure(PRIMARY, "down")
            assert router.candidates(REQUEST) == [*ORDER[1:], PRIMARY]
            router.route(REQUEST)
        assert cluster.searches() == [BACKUP]


class TestFailover:
    def test_dead_node_fails_over_to_the_next(self, cluster):
        cluster.down.add(PRIMARY)
        with make_router(cluster) as router:
            response = router.route(REQUEST)
        assert cluster.searches() == [PRIMARY, BACKUP]
        assert response == answer(BACKUP, REQUEST)
        assert not router.health.is_live(PRIMARY)

    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_every_node_dead_raises_503_after_every_attempt(self, cluster, retries):
        cluster.down.update(PEERS)
        with make_router(cluster, node_retries=retries) as router:
            with pytest.raises(ServiceError) as exc_info:
                router.route(REQUEST)
        assert exc_info.value.status == 503
        assert exc_info.value.info.error == "cluster_unavailable"
        # Peers x (1 + node_retries) attempts, in candidate order each pass.
        assert cluster.searches() == ORDER * (1 + retries)

    def test_an_answer_missing_its_fields_is_a_node_failure(self, cluster):
        def transport(url, path, payload, timeout_s, headers=None):
            if url == PRIMARY and path == "/search":
                cluster.calls.append((url, path))
                return {"documents": []}
            return cluster.transport(url, path, payload, timeout_s, headers)

        with make_router(cluster, transport=transport) as router:
            response = router.route(REQUEST)
        assert response == answer(BACKUP, REQUEST)
        assert cluster.searches() == [PRIMARY, BACKUP]

    def test_a_failover_shows_as_a_second_node_span(self, cluster):
        cluster.down.add(PRIMARY)
        root = Span("query")
        with make_router(cluster) as router:
            with attach(root):
                router.route(REQUEST)
        nodes = [span for span in root.walk() if span.name == "router.node"]
        assert [span.attrs["node"] for span in nodes] == [PRIMARY, BACKUP]
        assert nodes[0].attrs["error"] == "node_unreachable"
        assert "error" not in nodes[1].attrs

    def test_definitive_4xx_fails_the_query_without_failover(self, cluster):
        def reject(url, path, payload):
            if path == "/search":
                raise ServiceError(400, "unfilterable_query", "no literal terms")

        cluster.hooks = {url: reject for url in PEERS}
        with make_router(cluster) as router:
            with pytest.raises(ServiceError) as exc_info:
                router.route(REQUEST)
        assert exc_info.value.status == 400
        assert exc_info.value.info.error == "unfilterable_query"
        assert cluster.searches() == [PRIMARY]
        # A 4xx is not a node failure: nothing should be marked down.
        assert sorted(router.health.live_nodes()) == sorted(PEERS)

    def test_a_transient_failure_is_retried_on_a_later_pass(self, cluster):
        failures = {"remaining": len(PEERS)}

        def flaky(url, path, payload):
            if path == "/search" and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise NodeQueryError("node_timeout", f"{url} timed out")

        cluster.hooks = {url: flaky for url in PEERS}
        with make_router(cluster, node_retries=1) as router:
            response = router.route(REQUEST)
        assert cluster.searches() == [*ORDER, PRIMARY]
        assert list(response.documents) == list(DOCS)


def slow_primary(cluster, delay):
    """Make the first candidate of ``REQUEST`` run ``delay()`` before answering
    (every other node answers at once)."""

    def hook(url, path, payload):
        if path == "/search" and url == PRIMARY:
            delay()

    cluster.hooks = {PRIMARY: hook}


class TestHedging:
    def test_slow_primary_triggers_hedge(self, cluster):
        release = threading.Event()
        registry = MetricsRegistry()
        router = make_router(cluster, node_hedge_ms=20.0, metrics=registry)
        slow_primary(cluster, lambda: release.wait(5.0))
        try:
            started = time.perf_counter()
            response = router.route(REQUEST)
            elapsed = time.perf_counter() - started
        finally:
            release.set()
            router.close()
        assert response == answer(BACKUP, REQUEST)
        assert registry.get("airphant_router_hedges_total").total == 1
        assert elapsed < 2.5  # the backup answered, not the released primary

    @pytest.mark.parametrize("retries", [0, 1])
    def test_a_primary_failing_before_its_hedge_falls_over_to_the_backup(self, cluster, retries):
        registry = MetricsRegistry()
        cluster.down.add(PRIMARY)
        with make_router(
            cluster, node_hedge_ms=200.0, node_retries=retries, metrics=registry
        ) as router:
            response = router.route(REQUEST)
        assert response == answer(BACKUP, REQUEST)
        assert cluster.searches() == [PRIMARY, BACKUP]
        assert registry.get("airphant_router_failovers_total").total == 1
        assert registry.get("airphant_router_hedges_total").total == 0

    def test_a_failed_race_falls_over_to_the_third_node(self, cluster):
        registry = MetricsRegistry()
        release = threading.Event()

        def slow_then_dead(url, path, payload):
            if path == "/search":
                release.wait(5.0)
                raise NodeQueryError("node_timeout", f"{url} timed out")

        def dead(url, path, payload):
            if path == "/search":
                release.set()
                raise NodeQueryError("node_unreachable", f"{url}: refused")

        cluster.hooks = {PRIMARY: slow_then_dead, BACKUP: dead}
        with make_router(
            cluster, node_hedge_ms=10.0, node_retries=0, metrics=registry
        ) as router:
            response = router.route(REQUEST)
        assert response == answer(ORDER[2], REQUEST)
        assert cluster.searches() == [PRIMARY, BACKUP, ORDER[2]]
        assert registry.get("airphant_router_hedges_total").total == 1
        assert registry.get("airphant_router_failovers_total").total == 1

    def test_a_racer_s_typed_4xx_fails_the_query_at_once(self, cluster):
        release = threading.Event()

        def reject(url, path, payload):
            if path == "/search":
                raise ServiceError(404, "index_not_found", "no index named 'logs'")

        cluster.hooks = {PRIMARY: lambda url, path, payload: release.wait(5.0), BACKUP: reject}
        router = make_router(cluster, node_hedge_ms=10.0)
        try:
            with pytest.raises(ServiceError) as exc_info:
                router.route(REQUEST)
        finally:
            release.set()
            router.close()
        assert exc_info.value.info.error == "index_not_found"
        assert cluster.searches() == [PRIMARY, BACKUP]

    def test_concurrent_hedged_routes_outnumbering_the_pool_never_deadlock(self, cluster):
        """No task waits on the pool it runs on: more concurrent routes than
        the router has workers, every primary slow, all complete."""
        registry = MetricsRegistry()
        router = make_router(cluster, node_hedge_ms=10.0, metrics=registry)
        slow_primary(cluster, lambda: time.sleep(0.2))
        callers = 2 * router._pool._max_workers
        answers: list[SearchResponse] = []
        answers_lock = threading.Lock()

        def route() -> None:
            response = router.route(REQUEST)
            with answers_lock:
                answers.append(response)

        threads = [threading.Thread(target=route, daemon=True) for _ in range(callers)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 20.0
            for thread in threads:
                thread.join(max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
        finally:
            router.close()
        assert len(answers) == callers
        for response in answers:
            assert list(response.documents) == list(DOCS)
        assert registry.get("airphant_router_hedges_total").total >= 1

    def test_fast_primary_skips_hedge(self, cluster):
        registry = MetricsRegistry()
        with make_router(cluster, node_hedge_ms=5_000.0, metrics=registry) as router:
            router.route(REQUEST)
        assert registry.get("airphant_router_hedges_total").total == 0
        assert cluster.searches() == [PRIMARY]


class TestRouterMetrics:
    def test_ok_and_error_outcomes(self, cluster):
        registry = MetricsRegistry()
        with make_router(cluster, metrics=registry) as router:
            router.route(REQUEST)
            cluster.down.update(PEERS)
            with pytest.raises(ServiceError):
                router.route(REQUEST)
        requests = registry.get("airphant_router_requests_total")
        assert requests.value(outcome="ok") == 1
        assert requests.value(outcome="error") == 1
        assert registry.get("airphant_router_seconds").count() == 1
        node_requests = registry.get("airphant_router_node_requests_total")
        assert node_requests.value(node=PRIMARY, outcome="ok") == 1
        assert node_requests.value(node=PRIMARY, outcome="failure") >= 1

    def test_failover_counter(self, cluster):
        registry = MetricsRegistry()
        cluster.down.add(PRIMARY)
        with make_router(cluster, metrics=registry) as router:
            router.route(REQUEST)
        assert registry.get("airphant_router_failovers_total").total == 1

    def test_injected_health_tracker_is_not_owned(self, cluster):
        health = HealthTracker(PEERS, probe_interval_s=0, probe=lambda url, t: None)
        router = QueryRouter(
            PEERS, transport=cluster.transport, health=health, probe_interval_s=0
        )
        router.close()
        # Closing the router must not have closed the borrowed tracker.
        health.record_failure("http://n1", "still usable")
        assert not health.is_live("http://n1")

    def test_a_router_needs_a_peer(self, cluster):
        with pytest.raises(ValueError):
            QueryRouter((), transport=cluster.transport, probe_interval_s=0)


class TestDescribe:
    def test_describe_shape(self, cluster):
        with make_router(cluster) as router:
            router.route(REQUEST)
            description = router.describe()
        assert set(description) == {"peers", "health", "router"}
        assert description["peers"] == list(PEERS)
        assert description["health"]["peers"] == 3
        assert description["router"]["node_retries"] == 1

    def test_summary_is_the_healthz_cluster_block(self, cluster):
        with make_router(cluster) as router:
            summary = router.summary()
        assert summary["enabled"] is True
        assert summary["peers"] == 3
        assert summary["live"] == 3
