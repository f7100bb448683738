"""The router reaches its peers over pooled keep-alive connections.

A two-node in-process fleet behind a router service: the peers count the
connections they accept, and a stream of routed queries plus a round of
health probes must ride a couple of them instead of opening one per
request.
"""

from __future__ import annotations

import threading

from harness.connections import ConnectionCounter

from repro.service.api import SearchRequest
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.service.http import create_server
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus


def test_routed_queries_reuse_a_connection_per_peer():
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", num_documents=120, seed=5)
    with AirphantService(store) as builder:
        builder.build_index("logs", list(corpus.blob_names), num_shards=4)
    services, servers, counters = [], [], []
    for _ in range(2):
        service = AirphantService(store, ServiceConfig(probe_interval_s=0))
        server = create_server(service)
        counters.append(ConnectionCounter(server))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        services.append(service)
        servers.append(server)
    router = AirphantService(
        store,
        ServiceConfig(peers=tuple(server.url for server in servers), probe_interval_s=0),
    )
    try:
        expected = services[0].search(SearchRequest(query="INFO", index="logs")).documents
        for query in ["INFO", "ERROR", "block", "INFO block"] * 5:
            response = router.search(SearchRequest(query=query, index="logs"))
            if query == "INFO":
                assert response.documents == expected
        router.router.health.probe_once()  # the probes ride the same pools
        assert all(1 <= counter.count <= 2 for counter in counters), [
            counter.count for counter in counters
        ]
    finally:
        router.close()
        for service, server in zip(services, servers):
            server.shutdown()
            server.server_close()
            service.close()
