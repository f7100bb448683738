"""Exactness of explain traces: span attrs mirror ``PipelineStats`` deltas.

The pipeline commits each fetch wave's accounting to its ``PipelineStats``
and sets the very same numbers on the wave's ``pipeline.fetch`` span, so an
explain response's summary must equal the stats deltas *exactly* — on every
backend (``mem://``, ``sim://``, and the emulated ``s3://`` endpoint), with
and without the block cache.  Also covers the tombstone pre-exclusion path:
a membership query over an index with pending deletes never fetches the
condemned documents' bytes, and the trace shows them as refunded.
"""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.observability import get_registry
from repro.observability.tracing import Tracer
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.registry import open_store
from repro.storage.simulated import SimulatedCloudStore

CORPUS = "\n".join(
    [
        "error disk full on node7",
        "info request served",
        "error timeout contacting node3",
        "warn retry scheduled",
        "error checksum mismatch block9",
        "info heartbeat ok",
        "debug cache warmup done",
        "error disk failing smart alert",
    ]
)

INDEX = "explain-index"
BLOB = "corpus/explain.txt"

#: The pipeline counters an explain summary must mirror, per open member.
STAT_FIELDS = (
    "requests_in",
    "requests_out",
    "bytes_requested",
    "bytes_fetched",
    "cache_hits",
    "cache_misses",
)


def _build_service(store, **config_overrides) -> AirphantService:
    store.put(BLOB, CORPUS.encode("utf-8"))
    service = AirphantService(store, ServiceConfig(**config_overrides))
    service.build_index(
        INDEX, [BLOB], SketchConfig(num_bins=64, target_false_positives=1.0, seed=7)
    )
    # Open the searcher up front so the before/after snapshots bracket only
    # the query itself, not the header reads of the first open.
    service.catalog.open(INDEX)
    return service


def _stats_snapshot(service: AirphantService) -> dict[str, int]:
    """Pipeline counters summed over every member of the open index."""
    totals = dict.fromkeys(STAT_FIELDS, 0)
    for member in service.catalog.open(INDEX).searchers:
        stats = member.pipeline.stats.snapshot()
        for field in STAT_FIELDS:
            totals[field] += stats[field]
    return totals


def _explain(service: AirphantService, query: str) -> tuple[dict, dict[str, int]]:
    """Run one explain query, returning its trace and the stats delta."""
    before = _stats_snapshot(service)
    response = service.search(SearchRequest(query=query, index=INDEX, explain=True))
    after = _stats_snapshot(service)
    assert response.trace is not None
    return response.trace, {k: after[k] - before[k] for k in STAT_FIELDS}


def _assert_exact(trace: dict, delta: dict[str, int]) -> None:
    totals = trace["summary"]["totals"]
    assert totals["requests"] == delta["requests_in"]
    assert totals["physical_requests"] == delta["requests_out"]
    assert totals["bytes_requested"] == delta["bytes_requested"]
    assert totals["bytes_fetched"] == delta["bytes_fetched"]
    assert totals["cache_hits"] == delta["cache_hits"]
    # The waves decompose the same totals.
    assert sum(w["requests"] for w in trace["summary"]["waves"]) == totals["requests"]
    assert (
        sum(w["cache_misses"] for w in trace["summary"]["waves"])
        == delta["cache_misses"]
    )


@pytest.fixture(params=["mem", "sim", "s3"])
def backend_store(request):
    """The same corpus store on all three backends of the acceptance test."""
    if request.param == "mem":
        yield InMemoryObjectStore()
    elif request.param == "sim":
        yield SimulatedCloudStore(
            latency_model=AffineLatencyModel(jitter_sigma=0.0, seed=0)
        )
    else:
        emulator = request.getfixturevalue("s3_emulator")
        yield open_store(emulator.uri())


class TestExplainExactness:
    def test_totals_match_pipeline_stat_deltas(self, backend_store):
        with _build_service(backend_store) as service:
            trace, delta = _explain(service, "error")
            _assert_exact(trace, delta)
            # The query really did hit the store: a lookup wave plus a
            # document-retrieval wave.
            assert trace["summary"]["totals"]["waves"] >= 2
            assert delta["requests_in"] > 0
            assert delta["bytes_fetched"] > 0

    def test_cache_hits_match_on_repeat_query(self, backend_store):
        with _build_service(backend_store, read_cache_bytes=1 << 20) as service:
            first_trace, first_delta = _explain(service, "error")
            _assert_exact(first_trace, first_delta)
            assert first_trace["summary"]["totals"]["cache_hits"] == 0
            # Identical query again: every block now comes from the read
            # cache, and the trace reports exactly the counted hits.
            second_trace, second_delta = _explain(service, "error")
            _assert_exact(second_trace, second_delta)
            assert second_trace["summary"]["totals"]["cache_hits"] > 0
            assert second_delta["cache_hits"] > 0
            assert second_delta["requests_out"] == 0


class TestMembershipPreExclusion:
    def test_condemned_bytes_are_never_fetched_and_show_as_refunded(self):
        with _build_service(InMemoryObjectStore()) as service:
            baseline_trace, baseline_delta = _explain(service, "error")
            _assert_exact(baseline_trace, baseline_delta)
            assert baseline_trace["summary"]["totals"]["refunded_bytes"] == 0
            hit = service.search(
                SearchRequest(query="error", index=INDEX)
            ).documents[0]
            ref = Posting(blob=hit.blob, offset=hit.offset, length=hit.length)
            service.delete_documents(INDEX, [ref])

            trace, delta = _explain(service, "error")
            _assert_exact(trace, delta)
            totals = trace["summary"]["totals"]
            # The condemned candidate was dropped before the fetch wave: its
            # bytes are refunded in the trace and never even asked for (the
            # rest of the query may come from the warm block cache, so the
            # logical bytes are what is compared).
            assert totals["refunded_bytes"] == ref.length
            assert (
                delta["bytes_requested"]
                == baseline_delta["bytes_requested"] - ref.length
            )
            assert delta["requests_in"] == baseline_delta["requests_in"] - 1
            # And the deleted document is gone from the results.
            response = service.search(SearchRequest(query="error", index=INDEX))
            assert all(
                (d.blob, d.offset, d.length) != (ref.blob, ref.offset, ref.length)
                for d in response.documents
            )

    def test_retrieve_span_carries_the_exclusion(self):
        with _build_service(InMemoryObjectStore()) as service:
            hit = service.search(
                SearchRequest(query="error", index=INDEX)
            ).documents[0]
            service.delete_documents(
                INDEX, [Posting(blob=hit.blob, offset=hit.offset, length=hit.length)]
            )
            trace, _ = _explain(service, "error")

            def spans_named(node, name):
                found = [node] if node.get("name") == name else []
                for child in node.get("children") or []:
                    found.extend(spans_named(child, name))
                return found

            retrieves = spans_named(trace["spans"], "search.retrieve")
            assert retrieves, "membership query must open a retrieve span"
            excluded = [
                s for s in retrieves if (s.get("attrs") or {}).get("excluded")
            ]
            assert len(excluded) == 1
            attrs = excluded[0]["attrs"]
            assert attrs["excluded"] == 1
            assert attrs["refunded_bytes"] == hit.length
            # The tombstone filter wrapper is visible in the same tree.
            assert spans_named(trace["spans"], "visibility.filter")


class TestInstrumentationIsInvisible:
    def test_metrics_and_tracing_never_change_what_a_query_fetches(self):
        """Identically seeded simulated replays of a sharded workload cost the
        same, to the last byte and millisecond, whether the process registry
        records, and whether every query builds and keeps its span tree."""
        backend = InMemoryObjectStore()
        backend.put(BLOB, CORPUS.encode("utf-8"))
        AirphantBuilder(
            backend, config=SketchConfig(num_bins=64, target_false_positives=1.0, seed=7),
            num_shards=4,
        ).build_from_documents(
            list(LineDelimitedCorpusParser().parse(backend, [BLOB])), index_name=INDEX
        )
        queries = ["error", "error disk", "info", "node3 timeout"]

        def replay(tracer: Tracer | None = None):
            store = SimulatedCloudStore(
                backend=backend, latency_model=AffineLatencyModel(seed=99, jitter_sigma=0.1)
            )
            searcher = AirphantSearcher.open(store, INDEX)
            latencies = []
            for query in queries:
                handle = tracer.begin("query", query=query) if tracer is not None else None
                latencies.append(searcher.search(query).latency.total_ms)
                if handle is not None:
                    handle.finish()
            return latencies, searcher.pipeline.stats.to_dict()

        plain = replay()
        tracer = Tracer(sample_rate=1.0, capacity=len(queries) + 1)
        traced = replay(tracer)
        registry = get_registry()
        registry.disable()
        try:
            unrecorded = replay()
        finally:
            registry.enable()
        assert plain[0] and all(latency > 0 for latency in plain[0])
        assert plain == traced == unrecorded
        assert len(tracer.store) == len(queries)
