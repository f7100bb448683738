"""Integration tests: in-process node fleets behind the query router.

Real HTTP nodes (``ThreadingHTTPServer`` on ephemeral ports) share one
in-memory bucket; one more service with ``peers`` configured routes over
them.  The fleets have 1, 4 and 16 nodes, and 4 nodes with the router among
its own peers.  The core contract under test: a routed answer equals the
single-node answer in everything but its latency, for every query mode
(property-tested over generated queries), and a dead node costs a
failover, not an answer.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.router import ROUTED_HEADER, http_transport
from repro.observability import MetricsRegistry
from repro.service.api import SearchRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.service.http import create_server
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

#: Nodes per fleet, and whether the router is one of its own peers.
FLEETS = ((1, False), (4, False), (16, False), (4, True))
NUM_SHARDS = 4

#: Words that actually occur in the generated hdfs corpus templates.
VOCABULARY = [
    "INFO",
    "ERROR",
    "dfs.DataNode",
    "block",
    "Receiving",
    "Served",
    "terminating",
    "blockMap",
    "PacketResponder",
    "size",
]

keyword_queries = st.lists(
    st.sampled_from(VOCABULARY), min_size=1, max_size=2, unique=True
).map(" ".join)
boolean_queries = st.tuples(
    st.sampled_from(VOCABULARY),
    st.sampled_from([" AND ", " OR "]),
    st.sampled_from(VOCABULARY),
).map("".join)
regex_queries = st.sampled_from(
    [
        r"Served block blk_\S+",
        r"ERROR dfs\.DataNode \w+",
        r"PacketResponder \d+ for block",
        r"Receiving block blk_\S+ src",
    ]
)


def start_nodes(store, count: int) -> list:
    """``count`` serving nodes over ``store``, each with the index open."""
    servers = []
    for _ in range(count):
        service = AirphantService(store, ServiceConfig(probe_interval_s=0))
        server = create_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
    # Open the searcher on every node up front so integration queries
    # measure routing, not first-touch index initialization.
    for server in servers:
        http_transport(server.url, "/search", {"query": "warmup", "index": "logs"}, 30.0)
    return servers


def stop(servers) -> None:
    # Each shutdown waits out its server's poll interval: wait for them
    # together, not one after another.
    stopping = [threading.Thread(target=server.shutdown) for server in servers]
    for thread in stopping:
        thread.start()
    for thread in stopping:
        thread.join(10.0)
    for server in servers:
        server.server_close()
        server.service.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Cluster:
    """The shared fixture state: bucket, nodes, router, and a local oracle."""

    def __init__(self, store, local, num_nodes: int, router_is_peer: bool = False) -> None:
        self.store = store
        self.local = local
        self.servers = start_nodes(store, num_nodes)
        port = free_port()
        self.peers = tuple(server.url for server in self.servers)
        if router_is_peer:
            self.peers += (f"http://127.0.0.1:{port}",)
        self.metrics = MetricsRegistry()
        self.router = AirphantService(
            self.store, ServiceConfig(peers=self.peers, probe_interval_s=0), metrics=self.metrics
        )
        self.router_server = create_server(self.router, port=port)
        threading.Thread(target=self.router_server.serve_forever, daemon=True).start()

    def close(self) -> None:
        stop([self.router_server, *self.servers])


@pytest.fixture(scope="module")
def bucket():
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", num_documents=240, seed=11)
    local = AirphantService(store)
    local.build_index("logs", list(corpus.blob_names), num_shards=NUM_SHARDS)
    try:
        yield store, local
    finally:
        local.close()


@pytest.fixture(
    scope="module",
    params=FLEETS,
    ids=lambda fleet: f"{fleet[0]}-nodes" + ("-and-router" if fleet[1] else ""),
)
def cluster(request, bucket):
    cluster = Cluster(*bucket, *request.param)
    try:
        yield cluster
    finally:
        cluster.close()


def routed_equals_local(cluster, request: SearchRequest) -> None:
    try:
        local = cluster.local.search(request)
    except ServiceError as expected:
        with pytest.raises(ServiceError) as exc_info:
            cluster.router.search(request)
        assert exc_info.value.info == expected.info
        return
    routed = cluster.router.search(request)
    routed_payload, local_payload = routed.to_dict(), local.to_dict()
    # One node answers the whole query: only what it cost may differ.
    routed_payload.pop("latency")
    local_payload.pop("latency")
    assert routed_payload == local_payload


class TestRoutedEqualsSingleNode:
    @given(query=keyword_queries)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_keyword_identity(self, cluster, query):
        routed_equals_local(cluster, SearchRequest(query=query, index="logs"))

    @given(query=boolean_queries)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_boolean_identity(self, cluster, query):
        routed_equals_local(
            cluster, SearchRequest(query=query, index="logs", mode="boolean")
        )

    @given(query=regex_queries)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_regex_identity(self, cluster, query):
        routed_equals_local(
            cluster, SearchRequest(query=query, index="logs", mode="regex")
        )

    @given(query=keyword_queries, top_k=st.integers(min_value=1, max_value=20))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated_identity(self, cluster, query, top_k):
        routed_equals_local(
            cluster, SearchRequest(query=query, index="logs", top_k=top_k)
        )

    def test_untruncated_response_matches_exactly_minus_latency(self, cluster):
        request = SearchRequest(query="INFO dfs.DataNode", index="logs")
        routed = cluster.router.search(request).to_dict()
        local = cluster.local.search(request).to_dict()
        routed.pop("latency")
        local.pop("latency")
        assert routed == local
        assert routed["num_results"] > 0


class TestRankedIdentity:
    """Routed BM25 answers, scores included, equal the single-node oracle's."""

    @given(query=keyword_queries, top_k=st.integers(min_value=1, max_value=20))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_ranked_identity(self, cluster, query, top_k):
        routed_equals_local(
            cluster,
            SearchRequest(query=query, index="logs", mode="topk_bm25", top_k=top_k),
        )

    def test_ranked_default_k_identity(self, cluster):
        routed_equals_local(
            cluster, SearchRequest(query="block", index="logs", mode="topk_bm25")
        )

    def test_ranked_weighted_identity(self, cluster):
        routed_equals_local(
            cluster,
            SearchRequest(
                query="INFO block",
                index="logs",
                mode="topk_bm25",
                top_k=15,
                weights={"block": 4.0},
            ),
        )

    def test_ranked_over_http_returns_descending_scores(self, cluster):
        body = http_transport(
            cluster.router_server.url,
            "/search",
            {"query": "INFO block", "index": "logs", "mode": "topk_bm25", "top_k": 5},
            30.0,
        )
        scores = [document["score"] for document in body["documents"]]
        assert len(scores) == body["num_results"] > 0
        assert all(0.0 <= score <= 1.0 for score in scores)
        assert scores == sorted(scores, reverse=True)

    def test_ranked_mode_counted_in_metrics(self, cluster):
        node = cluster.servers[0].url
        http_transport(
            node, "/search", {"query": "INFO", "index": "logs", "mode": "topk_bm25"}, 30.0
        )
        with urllib.request.urlopen(f"{node}/metrics") as response:
            text = response.read().decode("utf-8")
        assert 'airphant_queries_total{mode="topk_bm25",index="logs"}' in text


class TestClusterEndpoints:
    def test_cluster_endpoint_on_router_node(self, cluster):
        body = http_transport(cluster.router_server.url, "/cluster", None, 30.0)
        assert set(body) == {"peers", "health", "router"}
        assert body["peers"] == list(cluster.peers)
        assert body["health"]["peers"] == len(cluster.peers)

    def test_cluster_endpoint_404_on_standalone_node(self, cluster):
        with pytest.raises(ServiceError) as exc_info:
            http_transport(cluster.servers[0].url, "/cluster", None, 30.0)
        assert exc_info.value.status == 404
        assert exc_info.value.info.error == "not_clustered"

    def test_healthz_cluster_block(self, cluster):
        standalone = http_transport(cluster.servers[0].url, "/healthz", None, 30.0)
        assert standalone["cluster"] == {"enabled": False, "peers": 0}
        routed = http_transport(cluster.router_server.url, "/healthz", None, 30.0)
        assert routed["cluster"]["enabled"] is True
        assert routed["cluster"]["peers"] == len(cluster.peers)
        assert routed["cluster"]["live"] == len(cluster.peers)

    def test_a_query_is_answered_by_its_first_candidate(self, cluster):
        answered = cluster.metrics.get("airphant_router_node_requests_total")
        for query in ("ERROR", "INFO block", "blockMap"):
            request = SearchRequest(query=query, index="logs")
            (first, *_) = cluster.router.router.candidates(request)
            before = answered.value(node=first, outcome="ok")
            total = answered.total
            cluster.router.search(request)
            assert answered.value(node=first, outcome="ok") == before + 1
            assert answered.total == total + 1

    def test_a_request_naming_shards_is_a_400(self, cluster):
        with pytest.raises(ServiceError) as exc_info:
            http_transport(
                cluster.router_server.url,
                "/search",
                {"query": "INFO", "index": "logs", "shards": [0]},
                30.0,
            )
        assert exc_info.value.status == 400
        assert exc_info.value.info.error == "bad_request"

    def test_router_metrics_are_exported(self, cluster):
        cluster.router.search(SearchRequest(query="INFO", index="logs"))
        with urllib.request.urlopen(f"{cluster.router_server.url}/metrics") as response:
            text = response.read().decode("utf-8")
        assert "airphant_router_requests_total" in text
        assert 'outcome="ok"' in text
        assert "airphant_router_seconds" in text
        assert "airphant_router_node_requests_total" in text
        assert "airphant_cluster_live_nodes" in text


def _spans_named(node, name):
    """Every span dict named ``name`` in a serialized trace tree."""
    found = [node] if node.get("name") == name else []
    for child in node.get("children") or []:
        found.extend(_spans_named(child, name))
    return found


def _walk_spans(node):
    yield node
    for child in node.get("children") or []:
        yield from _walk_spans(child)


class TestTracePropagation:
    """A routed explain query yields ONE span tree spanning the cluster.

    The router sends trace-propagation headers with its node request; the
    node traces the query, attaches the serialized tree to its response, and
    the router grafts it under its per-node span — so the client sees the
    whole query, the node's work included, under a single trace id.
    """

    def test_routed_explain_returns_one_cross_node_tree(self, cluster):
        # Cold block caches, so the node's lookup reaches the store.
        for server in [*cluster.servers, cluster.router_server]:
            server.service.catalog.open("logs").pipeline.clear_cache()
        body = http_transport(
            cluster.router_server.url,
            "/search",
            {"query": "INFO block", "index": "logs", "explain": True},
            30.0,
        )
        trace = body["trace"]
        root = trace["spans"]
        assert root["name"] == "query"
        # Ids are consistent across the graft boundary: every span of the
        # merged tree — the node's included — carries the router's trace id.
        assert {node["trace_id"] for node in _walk_spans(root)} == {trace["trace_id"]}
        (route_span,) = _spans_named(root, "router.route")
        assert route_span["attrs"]["candidates"] == len(cluster.peers)
        (node_span,) = _spans_named(root, "router.node")
        assert node_span["attrs"]["node"] in cluster.peers
        grafted = [
            child for child in node_span.get("children") or [] if child["name"] == "query"
        ]
        assert len(grafted) == 1, "exactly one node sub-tree under the node span"
        peer_root = grafted[0]
        assert peer_root["parent_id"] == node_span["span_id"]
        # The node really traced the query, down to the storage pipeline.
        assert _spans_named(peer_root, "pipeline.fetch")
        totals = trace["summary"]["totals"]
        assert totals["requests"] > 0
        assert totals["bytes_fetched"] > 0

    def test_unexplained_routed_query_carries_no_trace(self, cluster):
        body = http_transport(
            cluster.router_server.url,
            "/search",
            {"query": "INFO block", "index": "logs"},
            30.0,
        )
        assert "trace" not in body

    def test_routed_trace_served_by_traces_endpoints(self, cluster):
        body = http_transport(
            cluster.router_server.url,
            "/search",
            {"query": "Served block", "index": "logs", "explain": True},
            30.0,
        )
        trace_id = body["trace"]["trace_id"]
        url = cluster.router_server.url
        with urllib.request.urlopen(f"{url}/traces") as response:
            listing = json.loads(response.read().decode("utf-8"))
        assert any(entry["trace_id"] == trace_id for entry in listing["traces"])
        with urllib.request.urlopen(f"{url}/traces/{trace_id}") as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["trace_id"] == trace_id
        assert payload["spans"]["name"] == "query"
        # The retained tree is the merged one, the node's sub-tree included.
        assert _spans_named(payload["spans"], "router.node")


SELF_ROUTED = [
    SearchRequest(query="INFO block", index="logs"),
    SearchRequest(query="Served OR Receiving", index="logs", mode="boolean"),
    SearchRequest(query=r"PacketResponder \d+ for block", index="logs", mode="regex"),
    SearchRequest(query="INFO block", index="logs", mode="topk_bm25", top_k=5),
]


class TestSelfRouting:
    @pytest.mark.parametrize("request_", SELF_ROUTED, ids=lambda r: r.mode)
    def test_a_router_among_its_own_peers_answers_in_one_node_request(self, bucket, request_):
        """A routed request carries the routed mark, so the router answers
        the request it sent itself instead of routing it again."""
        store, local = bucket
        port = free_port()
        metrics = MetricsRegistry()
        router = AirphantService(
            store,
            ServiceConfig(
                peers=(f"http://127.0.0.1:{port}",), shard_timeout_s=5.0, probe_interval_s=0
            ),
            metrics=metrics,
        )
        server = create_server(router, port=port)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            body = http_transport(server.url, "/search", request_.to_dict(), 30.0)
            expected = local.search(request_).to_dict()
            body.pop("latency")
            expected.pop("latency")
            assert body == expected
            node_requests = metrics.get("airphant_router_node_requests_total")
            assert node_requests.total == 1
            assert node_requests.value(node=server.url, outcome="ok") == 1
            routed = metrics.get("airphant_router_requests_total")
            assert routed.value(outcome="ok") == 1
        finally:
            stop([server])

    def test_a_marked_request_is_answered_locally(self, bucket):
        """Over HTTP and in the facade alike, a request a router sent is not
        routed again — even by a router whose every peer is dead."""
        store, local = bucket
        metrics = MetricsRegistry()
        router = AirphantService(
            store,
            ServiceConfig(peers=("http://127.0.0.1:1",), shard_timeout_s=1.0, probe_interval_s=0),
            metrics=metrics,
        )
        server = create_server(router)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            request = SearchRequest(query="ERROR", index="logs")
            expected = local.search(request).to_dict()
            expected.pop("latency")
            body = http_transport(
                server.url, "/search", request.to_dict(), 30.0, headers={ROUTED_HEADER: "1"}
            )
            direct = router.search(request, routed=True).to_dict()
            for answer in (body, direct):
                answer.pop("latency")
                assert answer == expected
            assert metrics.get("airphant_router_node_requests_total").total == 0
        finally:
            stop([server])


class TestDegradedCluster:
    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_a_node_killed_mid_run_fails_no_query(self, bucket, num_nodes):
        store, local = bucket
        servers = start_nodes(store, num_nodes)
        metrics = MetricsRegistry()
        router = AirphantService(
            store,
            ServiceConfig(
                peers=tuple(server.url for server in servers),
                shard_timeout_s=5.0,
                probe_interval_s=0,
            ),
            metrics=metrics,
        )
        requests = [
            SearchRequest(query=query, index="logs", mode=mode)
            for query, mode in [
                ("INFO", "keyword"),
                ("ERROR dfs.DataNode", "keyword"),
                ("Served OR Receiving", "boolean"),
                (r"PacketResponder \d+ for block", "regex"),
                ("INFO block", "topk_bm25"),
                ("blockMap size", "keyword"),
            ]
        ]
        expected = [local.search(request).to_dict() for request in requests]
        for payload in expected:
            payload.pop("latency")
        # Kill the node the first query goes to, so the rest of the run
        # routes around it.
        victim_url = router.router.candidates(requests[0])[0]
        victim = next(server for server in servers if server.url == victim_url)
        try:
            for round_number in range(3):
                if round_number == 1:
                    victim.shutdown()
                    victim.server_close()
                    # A killed process takes its open connections with it;
                    # the in-process server's keep-alive ones would live on.
                    router.router._connections[victim_url].close()
                for request, want in zip(requests, expected):
                    got = router.search(request).to_dict()
                    got.pop("latency")
                    assert got == want
            failures = metrics.get("airphant_router_node_requests_total").value(
                node=victim_url, outcome="failure"
            )
            assert failures >= 1
            assert metrics.get("airphant_router_failovers_total").total >= 1
        finally:
            router.close()
            stop(servers)

    def test_every_node_dead_fails_with_503_and_healthz_never_500s(self, bucket):
        store, _ = bucket
        dead = ("http://127.0.0.1:1", "http://127.0.0.1:2")
        router = AirphantService(
            store,
            ServiceConfig(peers=dead, shard_timeout_s=1.0, probe_interval_s=0),
        )
        server = create_server(router)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with pytest.raises(ServiceError) as exc_info:
                router.search(SearchRequest(query="INFO", index="logs"))
            assert exc_info.value.status == 503
            assert exc_info.value.info.error == "cluster_unavailable"
            # Over HTTP, the same typed 503 body.
            search = urllib.request.Request(
                f"{server.url}/search",
                data=json.dumps({"query": "INFO", "index": "logs"}).encode("utf-8"),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(search, timeout=30.0)
            assert failure.value.code == 503
            assert json.loads(failure.value.read())["error"] == "cluster_unavailable"
            body = http_transport(server.url, "/healthz", None, 30.0)
            assert body["cluster"]["enabled"] is True
            assert body["cluster"]["live"] == 0
            assert sorted(body["cluster"]["marked_down"]) == sorted(dead)
        finally:
            stop([server])
