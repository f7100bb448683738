"""Unit tests for the scatter-gather router over an in-memory fake transport."""

import threading
import time

import pytest

from repro.cluster.health import HealthTracker
from repro.cluster.router import NodeQueryError, QueryRouter
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

#: A tiny 4-shard "index": shard ordinal -> the documents that live in it.
SHARD_DOCS = {
    0: [DocumentHit(blob="corpora/a.txt", offset=0, length=10, text="doc a0")],
    1: [DocumentHit(blob="corpora/a.txt", offset=10, length=10, text="doc a1")],
    2: [DocumentHit(blob="corpora/b.txt", offset=0, length=12, text="doc b0")],
    3: [DocumentHit(blob="corpora/b.txt", offset=12, length=12, text="doc b1")],
}
NUM_SHARDS = len(SHARD_DOCS)


class FakeCluster:
    """An in-memory node fleet the router's transport talks to.

    Every node can answer any shard subset (they all see the same bucket);
    tests make nodes fail by adding them to ``down`` or give them per-call
    behavior via ``hooks``.
    """

    def __init__(self) -> None:
        self.down: set[str] = set()
        self.calls: list[tuple[str, str, tuple[int, ...] | None]] = []
        self.hooks: dict[str, object] = {}
        self.lock = threading.Lock()

    def transport(self, url, path, payload, timeout_s, headers=None):
        shards = None if payload is None else tuple(payload.get("shards", ()))
        with self.lock:
            self.calls.append((url, path, shards))
        hook = self.hooks.get(url)
        if hook is not None:
            hook(url, path, payload)
        if url in self.down:
            raise NodeQueryError("node_unreachable", f"{url}: connection refused")
        if path.startswith("/indexes/"):
            return {"name": path.rsplit("/", 1)[-1], "num_shards": NUM_SHARDS}
        if path == "/healthz":
            return {"status": "ok"}
        assert path == "/search"
        request = SearchRequest.from_dict(payload)
        documents = []
        for ordinal in request.shards:
            documents.extend(SHARD_DOCS[ordinal])
        return SearchResponse(
            query=request.query,
            index=request.index,
            mode=request.mode,
            documents=tuple(documents),
            num_candidates=len(documents),
        ).to_dict()


@pytest.fixture
def cluster():
    return FakeCluster()


def make_router(cluster, **kwargs):
    kwargs.setdefault("probe_interval_s", 0)
    kwargs.setdefault("transport", cluster.transport)
    return QueryRouter(PEERS, **kwargs)


ALL_DOCS = sorted(
    (doc for docs in SHARD_DOCS.values() for doc in docs),
    key=lambda d: (d.blob, d.offset, d.length),
)


class TestTraceHeaders:
    """Every transport takes ``headers``: the router hands each node the
    trace context of a traced query, and ``None`` outside a trace."""

    @staticmethod
    def _recording(cluster, sent):
        def transport(url, path, payload, timeout_s, headers=None):
            if path == "/search":
                sent.append(headers)
            return cluster.transport(url, path, payload, timeout_s, headers)

        return transport

    def test_a_traced_query_sends_each_node_its_trace_context(self, cluster):
        sent = []
        root = Span("query")
        with make_router(cluster, transport=self._recording(cluster, sent)) as router:
            with attach(root):
                response = router.route(SearchRequest(query="doc", index="logs"))
        assert list(response.documents) == ALL_DOCS
        nodes = [node for node in root.walk() if node.name == "router.node"]
        assert sent and len(sent) == len(nodes)
        assert {headers[TRACE_ID_HEADER] for headers in sent} == {root.trace_id}
        assert sorted(headers[PARENT_SPAN_HEADER] for headers in sent) == sorted(
            node.span_id for node in nodes
        )

    def test_an_untraced_query_sends_no_headers(self, cluster):
        sent = []
        with make_router(cluster, transport=self._recording(cluster, sent)) as router:
            response = router.route(SearchRequest(query="doc", index="logs"))
        assert list(response.documents) == ALL_DOCS
        assert sent and all(headers is None for headers in sent)


class TestRouting:
    def test_full_merge_covers_every_shard_once(self, cluster):
        with make_router(cluster) as router:
            response = router.route(SearchRequest(query="doc", index="logs"))
        assert list(response.documents) == ALL_DOCS
        assert response.partial is False
        assert response.shard_errors == ()
        queried = sorted(
            ordinal
            for _, path, shards in cluster.calls
            if path == "/search"
            for ordinal in shards
        )
        assert queried == list(range(NUM_SHARDS))

    def test_merge_deduplicates_and_truncates_to_top_k(self, cluster):
        with make_router(cluster) as router:
            response = router.route(SearchRequest(query="doc", index="logs", top_k=2))
        assert list(response.documents) == ALL_DOCS[:2]

    def test_merged_latency_is_the_slowest_node_s_with_summed_work(self, cluster):
        request = SearchRequest(query="doc", index="logs")
        # (lookup, retrieval, wait, download): the slow node's wait is the shorter.
        fast = LatencyBreakdown(30.0, 10.0, 25.0, 15.0, bytes_fetched=100, round_trips=2)
        slow = LatencyBreakdown(20.0, 40.0, 20.0, 40.0, bytes_fetched=300, round_trips=2)
        responses = [
            SearchResponse(query="doc", index="logs", mode="keyword", latency=latency)
            for latency in (fast, slow)
        ]
        with make_router(cluster) as router:
            merged = router._merge(request, responses, []).latency
        assert merged == LatencyBreakdown(20.0, 40.0, 20.0, 40.0, bytes_fetched=400, round_trips=4)
        assert merged.wait_ms + merged.download_ms == merged.total_ms == 60.0

    def test_num_shards_is_cached_until_invalidated(self, cluster):
        with make_router(cluster) as router:
            router.route(SearchRequest(query="doc", index="logs"))
            router.route(SearchRequest(query="doc", index="logs"))
            describes = [c for c in cluster.calls if c[1] == "/indexes/logs"]
            assert len(describes) == 1
            router.invalidate("logs")
            router.route(SearchRequest(query="doc", index="logs"))
            describes = [c for c in cluster.calls if c[1] == "/indexes/logs"]
            assert len(describes) == 2

    def test_rejects_requests_that_pin_shards(self, cluster):
        with make_router(cluster) as router:
            with pytest.raises(ServiceError) as exc_info:
                router.route(SearchRequest(query="doc", index="logs", shards=(0,)))
        assert exc_info.value.status == 400

    def test_plan_groups_ordinals_by_replica_sequence(self, cluster):
        with make_router(cluster) as router:
            plan = router.plan("logs", NUM_SHARDS)
        planned = sorted(o for _, ordinals in plan.groups for o in ordinals)
        assert planned == list(range(NUM_SHARDS))
        for candidates, _ in plan.groups:
            assert len(set(candidates)) == len(candidates)
            assert set(candidates) <= set(PEERS)


class TestFailover:
    def test_dead_node_fails_over_to_replica(self, cluster):
        cluster.down.add("http://n1")
        with make_router(cluster) as router:
            response = router.route(SearchRequest(query="doc", index="logs"))
        assert list(response.documents) == ALL_DOCS
        assert response.partial is False
        assert not router.health.is_live("http://n1")

    def test_all_replicas_dead_yields_typed_partial_response(self, cluster):
        cluster.down.add("http://n1")
        with make_router(cluster, replication_factor=1) as router:
            response = router.route(SearchRequest(query="doc", index="logs"))
        # n1 owns at least one shard of this fixture under RF=1.
        assert response.partial is True
        assert response.shard_errors
        for error in response.shard_errors:
            assert error.node == "http://n1"
            assert error.error == "node_unreachable"
        answered = {
            ordinal
            for doc_ordinal, docs in SHARD_DOCS.items()
            for doc in docs
            if doc in response.documents
            for ordinal in [doc_ordinal]
        }
        missing = {error.shard for error in response.shard_errors}
        assert answered.isdisjoint(missing)
        assert answered | missing == set(range(NUM_SHARDS))

    def test_partial_response_serializes_with_flags(self, cluster):
        cluster.down.add("http://n1")
        with make_router(cluster, replication_factor=1) as router:
            payload = router.route(SearchRequest(query="doc", index="logs")).to_dict()
        assert payload["partial"] is True
        assert payload["shard_errors"]
        entry = payload["shard_errors"][0]
        assert set(entry) == {"shard", "node", "error", "message"}
        roundtrip = SearchResponse.from_dict(payload)
        assert roundtrip.partial is True

    def test_every_node_dead_raises_503(self, cluster):
        cluster.down.update(PEERS)
        with make_router(cluster) as router:
            with pytest.raises(ServiceError) as exc_info:
                router.route(SearchRequest(query="doc", index="logs"))
        assert exc_info.value.status == 503
        assert exc_info.value.info.error == "cluster_unavailable"

    def test_definitive_4xx_fails_whole_query_without_failover(self, cluster):
        def reject(url, path, payload):
            if path == "/search":
                raise ServiceError(400, "unfilterable_query", "no literal terms")

        cluster.hooks = {url: reject for url in PEERS}
        with make_router(cluster) as router:
            with pytest.raises(ServiceError) as exc_info:
                router.route(SearchRequest(query="doc", index="logs"))
        assert exc_info.value.status == 400
        # A 4xx is not a node failure: nothing should be marked down.
        assert sorted(router.health.live_nodes()) == sorted(PEERS)

    def test_transient_failure_retries_same_replica_set(self, cluster):
        failures = {"remaining": 1}

        def flaky(url, path, payload):
            if path == "/search" and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise NodeQueryError("node_timeout", f"{url} timed out")

        cluster.hooks = {url: flaky for url in PEERS}
        with make_router(cluster, node_retries=1) as router:
            response = router.route(SearchRequest(query="doc", index="logs"))
        assert list(response.documents) == ALL_DOCS
        assert response.partial is False


def slow_primaries(cluster, router, delay):
    """Make every group's first candidate run ``delay(url)`` before answering
    that group's shards (the backups answer at once)."""
    primaries = {
        (candidates[0], ordinals) for candidates, ordinals in router.plan("logs", NUM_SHARDS).groups
    }

    def hook(url, path, payload):
        if path == "/search" and (url, tuple(payload["shards"])) in primaries:
            delay(url)

    cluster.hooks = {url: hook for url in PEERS}
    return primaries


class TestHedging:
    def test_slow_primary_triggers_hedge(self, cluster):
        release = threading.Event()
        registry = MetricsRegistry()
        router = make_router(cluster, node_hedge_ms=20.0, metrics=registry)
        primaries = slow_primaries(cluster, router, lambda url: release.wait(5.0))
        try:
            started = time.perf_counter()
            response = router.route(SearchRequest(query="doc", index="logs"))
            elapsed = time.perf_counter() - started
        finally:
            release.set()
            router.close()
        assert list(response.documents) == ALL_DOCS
        assert response.partial is False
        hedges = registry.get("airphant_router_hedges_total").total
        assert hedges >= 1
        assert hedges == len(primaries)
        assert elapsed < 2.5  # the backups answered, not the released primaries

    def test_concurrent_hedged_routes_outnumbering_the_pool_never_deadlock(self, cluster):
        """No task waits on the pool it runs on: more concurrent routes than
        the router has workers, every primary slow, all complete."""
        registry = MetricsRegistry()
        router = make_router(cluster, node_hedge_ms=10.0, metrics=registry)
        slow_primaries(cluster, router, lambda url: time.sleep(0.2))
        callers = 2 * router._pool._max_workers
        answers: list[SearchResponse] = []
        answers_lock = threading.Lock()

        def route() -> None:
            response = router.route(SearchRequest(query="doc", index="logs"))
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
            assert list(response.documents) == ALL_DOCS
            assert response.partial is False
        assert registry.get("airphant_router_hedges_total").total >= 1

    def test_fast_primary_skips_hedge(self, cluster):
        registry = MetricsRegistry()
        with make_router(cluster, node_hedge_ms=5_000.0, metrics=registry) as router:
            router.route(SearchRequest(query="doc", index="logs"))
        assert registry.get("airphant_router_hedges_total").total == 0


class TestRouterMetrics:
    def test_ok_and_partial_outcomes(self, cluster):
        registry = MetricsRegistry()
        with make_router(cluster, replication_factor=1, metrics=registry) as router:
            router.route(SearchRequest(query="doc", index="logs"))
            cluster.down.add("http://n1")
            router.route(SearchRequest(query="doc", index="logs"))
        requests = registry.get("airphant_router_requests_total")
        assert requests.value(outcome="ok") == 1
        assert requests.value(outcome="partial") == 1
        assert registry.get("airphant_router_seconds").count() == 2
        assert registry.get("airphant_router_shard_errors_total").total >= 1
        node_requests = registry.get("airphant_router_node_requests_total")
        assert node_requests.value(node="http://n1", outcome="failure") >= 1

    def test_failover_counter(self, cluster):
        registry = MetricsRegistry()
        cluster.down.add("http://n2")
        with make_router(cluster, metrics=registry) as router:
            router.route(SearchRequest(query="doc", index="logs"))
        n2_groups = sum(
            1
            for candidates, _ in router.plan("logs", NUM_SHARDS).groups
            if "http://n2" in candidates
        )
        if n2_groups:
            assert registry.get("airphant_router_failovers_total").total >= 1

    def test_injected_health_tracker_is_not_owned(self, cluster):
        health = HealthTracker(PEERS, probe_interval_s=0, probe=lambda url, t: None)
        router = QueryRouter(
            PEERS, transport=cluster.transport, health=health, probe_interval_s=0
        )
        router.close()
        # Closing the router must not have closed the borrowed tracker.
        health.record_failure("http://n1", "still usable")
        assert not health.is_live("http://n1")


class TestDescribe:
    def test_describe_shape(self, cluster):
        with make_router(cluster) as router:
            router.route(SearchRequest(query="doc", index="logs"))
            description = router.describe()
        assert set(description) == {"topology", "health", "router"}
        assert description["topology"]["assignments"]["logs"]
        assert description["health"]["peers"] == 3
        assert description["router"]["node_retries"] == 1

    def test_summary_is_the_healthz_cluster_block(self, cluster):
        with make_router(cluster) as router:
            summary = router.summary()
        assert summary["enabled"] is True
        assert summary["peers"] == 3
        assert summary["live"] == 3
