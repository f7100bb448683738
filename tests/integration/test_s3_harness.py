"""MinIO-style integration: build → shard → search → metrics over ``s3://``.

By default the whole flow runs against the in-process S3 emulator from
``tests/harness`` (ephemeral port, no external service).  Set
``AIRPHANT_S3_TEST_ENDPOINT`` to a real S3-compatible endpoint (a local
MinIO, Ceph RGW, or a sandbox bucket) to run the identical flow against it:

.. code-block:: console

    $ export AIRPHANT_S3_TEST_ENDPOINT=http://127.0.0.1:9000
    $ export AIRPHANT_S3_TEST_BUCKET=airphant-it      # default: test-bucket
    $ export AWS_ACCESS_KEY_ID=... AWS_SECRET_ACCESS_KEY=...   # if signed
    $ PYTHONPATH=src python -m pytest tests/integration/test_s3_harness.py

The real-endpoint mode writes under a dedicated ``airphant-it/`` key prefix
and deletes what it wrote.
"""

from __future__ import annotations

import os
import re

import pytest
from harness.prometheus import parse_prometheus

from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.registry import open_store

REAL_ENDPOINT = os.environ.get("AIRPHANT_S3_TEST_ENDPOINT", "")
REAL_BUCKET = os.environ.get("AIRPHANT_S3_TEST_BUCKET", "test-bucket")

CORPUS = "\n".join(
    f"{level} node{i % 7} event-{i:04d} {'disk' if i % 3 else 'net'}"
    for i, level in enumerate(
        ["error", "info", "warn", "info", "error", "debug"] * 40
    )
).encode("utf-8")


@pytest.fixture
def s3_uri(s3_emulator):
    """An ``s3://`` URI — the emulator's, or the operator-provided endpoint."""
    if REAL_ENDPOINT:
        yield f"s3://{REAL_BUCKET}/airphant-it?endpoint={REAL_ENDPOINT}"
        # Clean up everything the flow wrote to the real bucket.
        store = open_store(f"s3://{REAL_BUCKET}/airphant-it?endpoint={REAL_ENDPOINT}")
        for blob in store.list_blobs():
            store.delete(blob)
        store.close()
    else:
        yield s3_emulator.uri()


class TestS3EndToEnd:
    def test_build_shard_search_metrics_flow(self, s3_uri):
        metrics = MetricsRegistry()
        config = ServiceConfig(retries=1)
        service = AirphantService(
            config.wrap_store(open_store(s3_uri)),
            config,
            store_uri=s3_uri,
            metrics=metrics,
        )
        service.store.put("corpora/events.txt", CORPUS)

        # Build sharded: 3 shards, hash partitioning.
        info = service.build_index(
            "events",
            ["corpora/events.txt"],
            sketch_config=SketchConfig(num_bins=128),
            num_shards=3,
        )
        assert info.num_shards == 3
        assert info.num_documents == 240

        # Search all three modes across the sharded layout.
        keyword = service.search(SearchRequest(query="error", index="events"))
        assert keyword.num_results == 80
        boolean = service.search(
            SearchRequest(query="error AND disk", index="events", mode="boolean")
        )
        assert 0 < boolean.num_results < keyword.num_results
        pattern = r"error\s+node3"
        regex = service.search(
            SearchRequest(query=pattern, index="events", mode="regex")
        )
        expected = sum(
            1 for line in CORPUS.decode("utf-8").split("\n") if re.search(pattern, line)
        )
        assert regex.num_results == expected > 0

        # Catalog discovery over ListObjectsV2 sees the sharded index.
        assert [entry.name for entry in service.list_indexes()] == ["events"]

        # Facade accounting landed in the private registry and renders as
        # valid Prometheus exposition.
        families = parse_prometheus(metrics.to_prometheus())
        queries = families["airphant_queries_total"]
        assert queries.value(mode="keyword", index="events") == 1
        assert queries.value(mode="boolean", index="events") == 1
        assert queries.value(mode="regex", index="events") == 1
        assert families["airphant_builds_total"].total() == 1
        latency = families["airphant_query_seconds"]
        assert latency.histogram_count(mode="keyword", index="events") == 1
        assert latency.histogram_count(mode="boolean", index="events") == 1
        assert latency.histogram_count(mode="regex", index="events") == 1

        service.close()

    def test_healthz_reports_backend_traffic(self, s3_uri):
        service = AirphantService.from_uri(s3_uri)
        service.store.put("corpora/tiny.txt", b"error a\ninfo b")
        service.build_index("tiny", ["corpora/tiny.txt"], sketch_config=SketchConfig(num_bins=32))
        service.search(SearchRequest(query="error", index="tiny"))
        health = service.health()
        assert health["status"] == "ok"
        summary = health["metrics"]
        # Real S3 traffic shows up in the backend request counters.
        assert summary["airphant_backend_requests_total"] > 0
        assert summary["airphant_backend_request_seconds"]["count"] > 0
        assert summary["airphant_queries_total"] >= 1
        service.close()
