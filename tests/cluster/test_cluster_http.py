"""Integration tests: a 3-node in-process cluster behind the query router.

Three real HTTP nodes (``ThreadingHTTPServer`` on ephemeral ports) share one
in-memory bucket; a fourth service with ``peers`` configured routes over
them.  The core contract under test: a routed answer is byte-identical to
the single-node answer for every query mode (property-tested over generated
queries), and a dead node degrades the response instead of failing it.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.router import http_transport
from repro.cluster.topology import ClusterTopology
from repro.service.api import SearchRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.service.http import create_server
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

NUM_NODES = 3
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


class Cluster:
    """The shared fixture state: bucket, nodes, router, and a local oracle."""

    def __init__(self) -> None:
        self.store = InMemoryObjectStore()
        corpus = generate_log_corpus(self.store, "hdfs", num_documents=240, seed=11)
        self.local = AirphantService(self.store)
        self.local.build_index("logs", list(corpus.blob_names), num_shards=NUM_SHARDS)
        self.servers = []
        for _ in range(NUM_NODES):
            service = AirphantService(self.store, ServiceConfig(probe_interval_s=0))
            server = create_server(service)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            self.servers.append(server)
        self.peers = tuple(server.url for server in self.servers)
        # Open the searcher on every node up front so integration queries
        # measure routing, not first-touch index initialization.
        for server in self.servers:
            http_transport(
                server.url, "/search", {"query": "warmup", "index": "logs"}, 30.0
            )
        self.router = AirphantService(
            self.store, ServiceConfig(peers=self.peers, probe_interval_s=0)
        )
        self.router_server = create_server(self.router)
        threading.Thread(target=self.router_server.serve_forever, daemon=True).start()

    def close(self) -> None:
        self.router.close()
        self.local.close()
        for server in [*self.servers, self.router_server]:
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster()
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
        assert exc_info.value.status == expected.status
        return
    routed = cluster.router.search(request)
    routed_payload, local_payload = routed.to_dict(), local.to_dict()
    for payload in (routed_payload, local_payload):
        # Execution-cost fields legitimately differ between one node and a
        # scatter (per-subset top-k sampling fetches different candidates);
        # everything the caller consumes must match byte for byte.
        payload.pop("latency")
        payload.pop("false_positive_count")
        payload.pop("oversampled")
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
        # Without top-k sampling even the false-positive accounting agrees.
        assert routed == local
        assert "partial" not in routed


class TestRankedIdentity:
    """Routed BM25 answers must be byte-identical to the single-node oracle.

    Per-node top-k truncation followed by the router's score-ordered merge is
    exact because every node scores with the same corpus-wide statistics and
    ties break on posting order — the global top-k is always contained in the
    union of per-node top-ks.
    """

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
        http_transport(
            cluster.peers[0],
            "/search",
            {"query": "INFO", "index": "logs", "mode": "topk_bm25"},
            30.0,
        )
        with urllib.request.urlopen(f"{cluster.peers[0]}/metrics") as response:
            text = response.read().decode("utf-8")
        assert 'airphant_queries_total{mode="topk_bm25",index="logs"}' in text


class TestShardSubsets:
    def test_disjoint_subsets_partition_the_answer(self, cluster):
        request = SearchRequest(query="INFO", index="logs")
        full = cluster.local.search(request)
        refs = set()
        for shards in [(0, 2), (1, 3)]:
            subset = cluster.local.search(
                SearchRequest(query="INFO", index="logs", shards=shards)
            )
            subset_refs = {(d.blob, d.offset, d.length) for d in subset.documents}
            assert refs.isdisjoint(subset_refs)
            refs |= subset_refs
        assert refs == {(d.blob, d.offset, d.length) for d in full.documents}

    def test_out_of_range_subset_is_400(self, cluster):
        with pytest.raises(ServiceError) as exc_info:
            cluster.local.search(
                SearchRequest(query="INFO", index="logs", shards=(NUM_SHARDS,))
            )
        assert exc_info.value.status == 400
        assert exc_info.value.info.error == "bad_shards"

    def test_http_search_accepts_shards(self, cluster):
        body = http_transport(
            cluster.peers[0],
            "/search",
            {"query": "INFO", "index": "logs", "shards": [0]},
            30.0,
        )
        assert body["num_results"] >= 0
        assert "partial" not in body


class TestClusterEndpoints:
    def test_cluster_endpoint_on_router_node(self, cluster):
        body = http_transport(cluster.router_server.url, "/cluster", None, 30.0)
        assert set(body) == {"topology", "health", "router"}
        assert sorted(body["topology"]["peers"]) == sorted(cluster.peers)
        assert body["health"]["peers"] == NUM_NODES

    def test_cluster_endpoint_404_on_standalone_node(self, cluster):
        with pytest.raises(ServiceError) as exc_info:
            http_transport(cluster.peers[0], "/cluster", None, 30.0)
        assert exc_info.value.status == 404
        assert exc_info.value.info.error == "not_clustered"

    def test_healthz_cluster_block(self, cluster):
        standalone = http_transport(cluster.peers[0], "/healthz", None, 30.0)
        assert standalone["cluster"] == {"enabled": False, "peers": 0}
        routed = http_transport(cluster.router_server.url, "/healthz", None, 30.0)
        assert routed["cluster"]["enabled"] is True
        assert routed["cluster"]["peers"] == NUM_NODES
        assert routed["cluster"]["live"] == NUM_NODES

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

    The router sends trace-propagation headers with every sub-request; each
    peer traces its share, attaches the serialized sub-tree to its response,
    and the router grafts it under the corresponding per-node span — so the
    client sees the whole scatter, peers included, under a single trace id.
    """

    def test_routed_explain_returns_one_cross_node_tree(self, cluster):
        # Cold block caches, so every peer's share reaches the store.
        for server in cluster.servers:
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
        # merged tree — the peers' included — carries the router's trace id.
        assert {node["trace_id"] for node in _walk_spans(root)} == {trace["trace_id"]}
        (route_span,) = _spans_named(root, "router.route")
        node_spans = _spans_named(root, "router.node")
        assert len(node_spans) == route_span["attrs"]["groups"] >= 2
        assert {span["attrs"]["node"] for span in node_spans} <= set(cluster.peers)
        # The per-node shard subsets partition the index's ordinals exactly.
        scattered = [
            ordinal for span in node_spans for ordinal in span["attrs"]["shards"]
        ]
        assert sorted(scattered) == list(range(NUM_SHARDS))
        for node_span in node_spans:
            grafted = [
                child
                for child in node_span.get("children") or []
                if child["name"] == "query"
            ]
            assert len(grafted) == 1, "exactly one peer sub-tree per node span"
            peer_root = grafted[0]
            assert peer_root["parent_id"] == node_span["span_id"]
            # The peer really traced its share of the work, down to the
            # storage pipeline.
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
        # The retained tree is the merged one, peer sub-trees included.
        assert _spans_named(payload["spans"], "router.node")


class TestDegradedCluster:
    def test_dead_node_yields_typed_partial_response(self, cluster):
        # A dedicated RF=1 router over one live and one dead peer: the dead
        # node's shards have no surviving replica, so the answer degrades.
        # The live peer's ephemeral port feeds the consistent-hash ring, so
        # the dead address (a low port: connection refused) is picked such
        # that each peer owns at least one shard — all four on the dead one
        # would rightly be a 503, not a partial answer.
        live = cluster.peers[0]

        def owners(peers: tuple[str, str]) -> set[str]:
            placement = ClusterTopology(peers, replication_factor=1)
            return {nodes[0] for nodes in placement.assignments("logs", NUM_SHARDS).values()}

        dead = next(
            candidate
            for candidate in (f"http://127.0.0.1:{port}" for port in range(1, 20))
            if owners((live, candidate)) == {live, candidate}
        )
        router = AirphantService(
            cluster.store,
            ServiceConfig(
                peers=(live, dead),
                replication_factor=1,
                shard_timeout_s=2.0,
                probe_interval_s=0,
            ),
        )
        try:
            placed = router.router.topology.assignments("logs", NUM_SHARDS)
            assert {nodes[0] for nodes in placed.values()} == {live, dead}
            response = router.search(SearchRequest(query="INFO", index="logs"))
        finally:
            router.close()
        assert response.partial is True
        assert response.shard_errors
        for error in response.shard_errors:
            assert error.node == dead
            assert error.error in {"node_unreachable", "node_timeout"}
        payload = json.loads(response.to_json())
        assert payload["partial"] is True

    def test_healthz_never_500s_with_dead_peers(self, cluster):
        dead = ("http://127.0.0.1:1", "http://127.0.0.1:2")
        router = AirphantService(
            cluster.store,
            ServiceConfig(peers=dead, shard_timeout_s=1.0, probe_interval_s=0),
        )
        server = create_server(router)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            with pytest.raises(ServiceError):
                router.search(SearchRequest(query="INFO", index="logs"))
            body = http_transport(server.url, "/healthz", None, 30.0)
            assert body["cluster"]["enabled"] is True
            assert body["cluster"]["live"] == 0
            assert sorted(body["cluster"]["marked_down"]) == sorted(dead)
        finally:
            router.close()
            server.shutdown()
            server.server_close()

    def test_failover_keeps_answers_complete_with_replicas(self, cluster):
        # RF=2 over three nodes: killing one node must not degrade results.
        store = cluster.store
        services = [
            AirphantService(store, ServiceConfig(probe_interval_s=0))
            for _ in range(3)
        ]
        servers = [create_server(service) for service in services]
        for server in servers:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        for server in servers:
            http_transport(
                server.url, "/search", {"query": "warmup", "index": "logs"}, 30.0
            )
        router = AirphantService(
            store,
            ServiceConfig(
                peers=tuple(server.url for server in servers),
                shard_timeout_s=5.0,
                probe_interval_s=0,
            ),
        )
        try:
            servers[0].shutdown()
            servers[0].server_close()
            response = router.search(SearchRequest(query="INFO", index="logs"))
            local = cluster.local.search(SearchRequest(query="INFO", index="logs"))
            assert response.partial is False
            assert [d.to_dict() for d in response.documents] == [
                d.to_dict() for d in local.documents
            ]
        finally:
            router.close()
            for server in servers[1:]:
                server.shutdown()
                server.server_close()
