"""Tests for the Gauge metric kind and the service occupancy gauges."""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry, NULL_REGISTRY
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.memory import InMemoryObjectStore

from harness.prometheus import parse_prometheus


class TestGauge:
    def test_set_inc_dec_and_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "a gauge", label_names=("shard",))
        gauge.set(5, shard="a")
        gauge.inc(2, shard="a")
        gauge.dec(3, shard="a")
        gauge.set(1, shard="b")
        assert gauge.value(shard="a") == 4
        assert gauge.total == 5
        assert gauge.series() == {("a",): 4.0, ("b",): 1.0}
        gauge.remove(shard="b")
        assert gauge.value(shard="b") == 0

    def test_function_bound_gauge_evaluates_at_read_time(self):
        registry = MetricsRegistry()
        state = {"value": 3}
        gauge = registry.gauge("g", "computed")
        gauge.set_function(lambda: state["value"])
        assert gauge.value() == 3
        state["value"] = 8
        assert gauge.value() == 8
        assert gauge.series() == {(): 8.0}
        # A function-bound gauge refuses stored updates.
        with pytest.raises(ValueError):
            gauge.set(1)
        with pytest.raises(ValueError):
            gauge.inc()

    def test_function_binding_requires_unlabeled(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", label_names=("x",))
        with pytest.raises(ValueError):
            gauge.set_function(lambda: 1)

    def test_disabled_registry_gauges_stay_silent(self):
        registry = MetricsRegistry(enabled=False)
        stored = registry.gauge("stored")
        stored.set(5)
        assert stored.value() == 0
        computed = registry.gauge("computed")
        computed.set_function(lambda: 42)
        # The callable is not even evaluated: no series, empty exposition.
        assert computed.series() == {}
        assert computed.total == 0
        assert registry.to_prometheus() == ""

    def test_null_registry_rejects_nothing_but_records_nothing(self):
        gauge = NULL_REGISTRY.gauge("airphant_test_null_gauge")
        gauge.set(9)
        assert gauge.value() == 0

    def test_registration_conflicts_fail_loudly(self):
        registry = MetricsRegistry()
        registry.gauge("g", label_names=("a",))
        with pytest.raises(ValueError):
            registry.gauge("g", label_names=("b",))
        with pytest.raises(ValueError):
            registry.counter("g")

    def test_prometheus_rendering_and_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("airphant_things", "things right now", label_names=("kind",))
        gauge.set(2, kind="open")
        text = registry.to_prometheus()
        assert "# TYPE airphant_things gauge" in text
        assert 'airphant_things{kind="open"} 2' in text
        families = parse_prometheus(text)
        assert families["airphant_things"].kind == "gauge"
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["airphant_things"]["total"] == 2
        assert registry.summary()["airphant_things"] == 2


class TestServiceOccupancyGauges:
    def test_open_indexes_and_read_cache_gauges_track_the_catalog(self):
        registry = MetricsRegistry()
        store = InMemoryObjectStore()
        config = ServiceConfig(ingest_interval_s=0, read_cache_bytes=1 << 16)
        service = AirphantService(store, config, metrics=registry)
        store.put("corpus/a.txt", b"error disk\ninfo ok\n")
        service.build_index("idx", ["corpus/a.txt"], sketch_config=SketchConfig(num_bins=32))

        open_gauge = registry.gauge("airphant_open_indexes")
        cache_gauge = registry.gauge("airphant_read_cache_bytes_used")
        assert open_gauge.value() == 0
        service.execute(SearchRequest(query="error", index="idx"))
        assert open_gauge.value() == 1
        # The query's superpost/document reads populated the block cache.
        assert cache_gauge.value() > 0
        # Both ride the healthz metrics summary and the exposition.
        assert service.health()["metrics"]["airphant_open_indexes"] == 1
        assert "airphant_open_indexes 1" in registry.to_prometheus()
        service.close()
        assert open_gauge.value() == 0
        assert cache_gauge.value() == 0

    def test_read_cache_budget_covers_a_base_and_its_deltas_together(self):
        registry = MetricsRegistry()
        store = InMemoryObjectStore()
        budget = 2048
        config = ServiceConfig(ingest_interval_s=0, read_cache_bytes=budget)
        lines = [f"error disk failure number {n} on node{n % 7}" for n in range(300)]
        store.put("corpus/a.txt", "\n".join(lines[:100]).encode())
        with AirphantService(store, config, metrics=registry) as service:
            service.build_index("idx", ["corpus/a.txt"], sketch_config=SketchConfig(num_bins=512))
            for batch in (lines[100:200], lines[200:]):
                service.append_documents("idx", batch)
                assert service.flush_index("idx")["delta"]
            assert service.execute(SearchRequest(query="error", index="idx")).num_results == 300
            searcher = service.catalog.open("idx")
            members = searcher.opened
            assert len(members) == 3
            # One opened index, one pipeline, one budget — not one per member.
            assert all(member.pipeline is searcher.pipeline for member in members)
            used = registry.gauge("airphant_read_cache_bytes_used").value()
            assert 0 < used == searcher.pipeline.cached_bytes <= budget
