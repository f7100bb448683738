"""Unit tests for the zero-dependency tracing module.

Covers the span tree itself (building, serialization, grafting), ambient
contextvar propagation (including across pool threads via ``attach``), the
bounded trace ring, the tracer's keep/drop decisions (force, deterministic
sampling, slow-query capture), and the explain-payload helpers.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.observability.tracing import (
    NOOP_SPAN,
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    Span,
    TraceStore,
    Tracer,
    attach,
    current_span,
    explain_payload,
    new_id,
    render_trace,
    span,
    summarize_trace,
)


class TestSpan:
    def test_child_inherits_trace_id_and_links_parent(self):
        root = Span("query")
        child = root.child("search.lookup", words=2)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.attrs == {"words": 2}
        assert root.children == [child]

    def test_set_and_inc(self):
        node = Span("pipeline.fetch")
        node.set(requests=3)
        node.inc(requests=2, bytes_fetched=100)
        node.inc(bytes_fetched=28)
        assert node.attrs == {"requests": 5, "bytes_fetched": 128}

    def test_finish_is_idempotent(self):
        node = Span("query")
        first = node.finish().duration_ms
        assert first is not None
        assert node.finish().duration_ms == first

    def test_span_count_and_walk(self):
        root = Span("query")
        lookup = root.child("search.lookup")
        lookup.child("pipeline.fetch")
        root.child("search.retrieve")
        assert root.span_count() == 4
        assert [node.name for node in root.walk()] == [
            "query",
            "search.lookup",
            "pipeline.fetch",
            "search.retrieve",
        ]

    def test_to_dict_from_dict_round_trip(self):
        root = Span("query", attrs={"index": "logs"})
        root.child("search.lookup", words=1).finish()
        root.finish()
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "query"
        assert rebuilt.trace_id == root.trace_id
        assert rebuilt.span_id == root.span_id
        assert rebuilt.attrs == {"index": "logs"}
        assert len(rebuilt.children) == 1
        assert rebuilt.children[0].name == "search.lookup"
        assert rebuilt.children[0].parent_id == root.span_id
        assert rebuilt.to_dict() == root.to_dict()

    def test_graft_reparents_external_tree(self):
        node_span = Span("router.node")
        peer_root = Span.from_dict(Span("query", trace_id=node_span.trace_id).to_dict())
        node_span.graft(peer_root)
        assert peer_root.parent_id == node_span.span_id
        assert node_span.children == [peer_root]

    def test_from_dict_tolerates_malformed_children(self):
        rebuilt = Span.from_dict(
            {"name": "query", "children": ["junk", {"name": "ok"}, 7]}
        )
        assert [child.name for child in rebuilt.children] == ["ok"]


class TestAmbientPropagation:
    def test_span_without_ambient_parent_is_noop(self):
        assert current_span() is None
        with span("search.lookup", words=1) as node:
            assert node is NOOP_SPAN
        # The noop accepts the whole Span surface.
        NOOP_SPAN.set(a=1)
        NOOP_SPAN.inc(b=2)
        assert NOOP_SPAN.child("x") is NOOP_SPAN
        assert NOOP_SPAN.finish() is NOOP_SPAN

    def test_span_nests_under_attached_root(self):
        root = Span("query")
        with attach(root):
            with span("search.lookup") as lookup:
                assert current_span() is lookup
                with span("pipeline.fetch") as fetch:
                    fetch.set(requests=2)
            assert current_span() is root
        assert current_span() is None
        assert root.span_count() == 3
        assert root.children[0].children[0].attrs == {"requests": 2}
        # Exiting the context finished the children.
        assert root.children[0].duration_ms is not None

    def test_pool_threads_need_explicit_attach(self):
        root = Span("query")

        def traced():
            with attach(root):
                with span("store.attempt", operation="read"):
                    pass
            return True

        def untraced():
            # No attach: contextvars do not cross the pool boundary.
            return current_span()

        with attach(root):
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert pool.submit(untraced).result() is None
                assert pool.submit(traced).result() is True
        assert [child.name for child in root.children] == ["store.attempt"]

    @pytest.mark.parametrize("delay_s", [0.0, 0.005], ids=["inline", "pooled"])
    def test_store_spans_of_a_batch_nest_under_the_request_span(self, delay_s):
        """``read_batch`` runs a fast store's reads on the calling thread and a
        waiting store's on its pool: either way each read's attempt span is a
        child of the request's span."""
        from harness.stores import BlockingStore

        from repro.storage.base import RangeRead
        from repro.storage.memory import InMemoryObjectStore
        from repro.storage.resilient import ResilientStore

        backend = BlockingStore(InMemoryObjectStore(), delay_s)
        store = ResilientStore(backend, retries=0)
        store.put("blob", b"0123456789")
        store.read_batch([RangeRead("blob", 0, 1)])  # the probe measures the store
        read_before = len(backend.read_threads)
        root = Span("query")
        with attach(root):
            payloads = store.read_batch([RangeRead("blob", i, 2) for i in range(4)]).payloads
        assert payloads == [b"01", b"12", b"23", b"34"]
        assert [child.name for child in root.children] == ["store.attempt"] * 4
        pooled = [name.startswith("airphant-fetch") for name in backend.read_threads[read_before:]]
        assert pooled == [bool(delay_s)] * 4
        store.close()


class TestTraceStore:
    def _finished(self, name="query"):
        return Span(name).finish()

    def test_ring_evicts_oldest(self):
        store = TraceStore(capacity=2)
        first, second, third = (self._finished() for _ in range(3))
        for root in (first, second, third):
            store.add(root)
        assert len(store) == 2
        assert store.get(first.trace_id) is None
        assert store.get(second.trace_id) is second
        assert store.get(third.trace_id) is third

    def test_list_is_newest_first_and_limited(self):
        store = TraceStore(capacity=8)
        roots = [self._finished() for _ in range(4)]
        for root in roots:
            store.add(root)
        summaries = store.list(limit=3)
        assert [entry["trace_id"] for entry in summaries] == [
            roots[3].trace_id,
            roots[2].trace_id,
            roots[1].trace_id,
        ]
        assert summaries[0]["spans"] == 1
        assert summaries[0]["duration_ms"] is not None

    def test_clear(self):
        store = TraceStore(capacity=4)
        store.add(self._finished())
        store.clear()
        assert len(store) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestTracer:
    def test_disabled_tracer_begins_nothing(self):
        tracer = Tracer(enabled=False, sample_rate=1.0)
        assert tracer.begin("query") is None
        assert current_span() is None

    def test_begin_makes_root_ambient_and_finish_detaches(self):
        tracer = Tracer(sample_rate=1.0)
        handle = tracer.begin("query", index="logs")
        assert current_span() is handle.root
        root = handle.finish()
        assert current_span() is None
        assert root.duration_ms is not None
        assert tracer.store.get(handle.trace_id) is root
        # finish is idempotent: no double-add.
        handle.finish()
        assert len(tracer.store) == 1

    def test_propagated_context_lands_on_root(self):
        tracer = Tracer()
        handle = tracer.begin(
            "query", trace_id="cafe" * 4, parent_span_id="beef1234", force=True
        )
        assert handle.root.trace_id == "cafe" * 4
        assert handle.root.parent_id == "beef1234"
        handle.finish()
        assert tracer.store.get("cafe" * 4) is handle.root

    def test_unsampled_trace_is_dropped_unless_forced(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.begin("query").finish()
        assert len(tracer.store) == 0
        tracer.begin("query", force=True).finish()
        assert len(tracer.store) == 1

    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.5)
        for _ in range(10):
            tracer.begin("query").finish()
        # Every round(1/rate)-th request is kept: the 1st, 3rd, 5th, ...
        assert len(tracer.store) == 5

    def test_slow_query_always_kept_and_logged(self):
        lines: list[str] = []
        tracer = Tracer(sample_rate=0.0, slow_query_ms=0.000001, slow_log=lines.append)
        handle = tracer.begin("query", index="logs")
        root = handle.finish()
        assert root.attrs["slow"] is True
        assert tracer.store.get(handle.trace_id) is root
        (line,) = lines
        record = json.loads(line)
        assert record["event"] == "slow_query"
        assert record["trace_id"] == handle.trace_id
        assert record["threshold_ms"] == 0.000001
        assert record["attrs"]["index"] == "logs"

    def test_slow_capture_disabled_at_zero_threshold(self):
        lines: list[str] = []
        tracer = Tracer(sample_rate=0.0, slow_query_ms=0.0, slow_log=lines.append)
        tracer.begin("query").finish()
        assert lines == []
        assert len(tracer.store) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(slow_query_ms=-1.0)


class TestExplainHelpers:
    def _sample_tree(self) -> Span:
        root = Span("query", attrs={"index": "logs"})
        lookup = root.child("search.lookup", words=2)
        lookup.child(
            "pipeline.fetch",
            requests=2,
            physical_requests=1,
            bytes_requested=64,
            bytes_fetched=64,
            cache_hits=0,
            cache_misses=2,
        ).finish()
        lookup.finish()
        retrieve = root.child("search.retrieve", candidates=3, refunded_bytes=10)
        fetch = retrieve.child(
            "pipeline.fetch",
            requests=3,
            physical_requests=3,
            bytes_requested=90,
            bytes_fetched=90,
            cache_hits=1,
            cache_misses=2,
        )
        attempt = fetch.child("store.attempt", operation="read_many")
        attempt.set(retry=True)
        attempt.finish()
        fetch.child("store.attempt", operation="read_many", hedged=True).finish()
        fetch.finish()
        retrieve.finish()
        root.finish()
        return root

    def test_summarize_trace_totals_and_waves(self):
        summary = summarize_trace(self._sample_tree().to_dict())
        assert len(summary["waves"]) == 2
        assert summary["waves"][0]["requests"] == 2
        totals = summary["totals"]
        assert totals["requests"] == 5
        assert totals["physical_requests"] == 4
        assert totals["bytes_requested"] == 154
        assert totals["bytes_fetched"] == 154
        assert totals["cache_hits"] == 1
        assert totals["refunded_bytes"] == 10
        assert totals["attempts"] == 2
        assert totals["retries"] == 1
        assert totals["hedges"] == 1
        assert totals["timeouts"] == 0
        assert totals["spans"] == 7
        assert totals["waves"] == 2

    def test_explain_payload_shape(self):
        root = self._sample_tree()
        payload = explain_payload(root)
        assert payload["trace_id"] == root.trace_id
        assert payload["duration_ms"] == root.to_dict()["duration_ms"]
        assert payload["spans"]["name"] == "query"
        assert payload["summary"]["totals"]["spans"] == 7

    def test_render_trace_is_indented_and_attributed(self):
        text = render_trace(self._sample_tree().to_dict())
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert "[index=logs]" in lines[0]
        assert lines[1].startswith("  └─ search.lookup")
        assert any("store.attempt" in line for line in lines)

    def test_new_id_and_headers(self):
        assert len(new_id()) == 16
        assert len(new_id(4)) == 8
        assert TRACE_ID_HEADER == "X-Airphant-Trace-Id"
        assert PARENT_SPAN_HEADER == "X-Airphant-Parent-Span"


class TestCheapSpans:
    """A span makes no syscall and takes no lock of its own; what it records
    and how it nests must not change with that."""

    @staticmethod
    def _on_32_threads(work) -> None:
        """``work(i)`` on 32 pool threads, switching as often as possible."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=32) as pool:
                assert len(list(pool.map(work, range(32), timeout=60))) == 32
        finally:
            sys.setswitchinterval(interval)

    def test_span_ids_are_distinct_across_pool_threads_in_one_trace(self):
        root = Span("query")

        def work(_):
            with attach(root):
                for _ in range(50):
                    with span("store.attempt"):
                        with span("store.read"):
                            pass

        self._on_32_threads(work)
        ids = [node.span_id for node in root.walk()]
        assert len(ids) == 1 + 32 * 50 * 2
        assert len(set(ids)) == len(ids)
        assert {node.trace_id for node in root.walk()} == {root.trace_id}

    def test_inc_from_32_threads_sums_exactly(self):
        node = Span("pipeline.fetch")

        def work(_):
            for _ in range(500):
                node.inc(requests=1, bytes_fetched=3)

        self._on_32_threads(work)
        assert node.attrs == {"requests": 32 * 500, "bytes_fetched": 3 * 32 * 500}

    def test_no_trace_means_no_span_is_created(self, monkeypatch):
        created = []
        original = Span.__init__

        def counting(self, *args, **kwargs):
            created.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        assert current_span() is None
        with span("pipeline.fetch", requests=3) as node:
            node.set(bytes_fetched=1)
        assert node is NOOP_SPAN
        assert created == []
        root = Span("query")
        with attach(root), span("pipeline.fetch") as child:
            assert child is not NOOP_SPAN and current_span() is child
        assert len(created) == 2

    def test_a_forked_child_draws_span_ids_of_its_own(self):
        """Without a fresh draw at fork, a child's next ids would be exactly
        the parent's next ids."""
        import os

        from harness.stores import passes_in_forked_child

        before = {Span("query").span_id for _ in range(3)}
        read, write = os.pipe()

        def report() -> bool:
            os.write(write, " ".join(Span("query").span_id for _ in range(3)).encode())
            return True

        assert passes_in_forked_child(report)
        os.close(write)
        child = set(os.read(read, 4096).decode().split())
        os.close(read)
        after = {Span("query").span_id for _ in range(3)}
        assert len(child) == 3 and not child & (before | after)

    def test_the_explain_payload_of_a_fixed_query_keeps_its_shape(self):
        from repro.core.config import SketchConfig
        from repro.service import AirphantService, SearchRequest, ServiceConfig
        from repro.storage.memory import InMemoryObjectStore

        store = InMemoryObjectStore()
        store.put(
            "corpus/shape.txt",
            b"error disk full on node7\ninfo request served\n"
            b"error timeout contacting node3\nwarn retry scheduled",
        )
        service = AirphantService(store, ServiceConfig())
        service.build_index(
            "shape",
            ["corpus/shape.txt"],
            SketchConfig(num_bins=64, target_false_positives=1.0, seed=7),
        )
        request = SearchRequest(
            query="error AND node3", index="shape", mode="boolean", explain=True
        )
        trace = service.search(request).to_dict()["trace"]
        service.close()

        def shape(node):
            children = [shape(child) for child in node.get("children", [])]
            return [node["name"], sorted(node.get("attrs", {})), children]

        fetch = [
            "pipeline.fetch",
            [
                "batch_ms", "batches", "bytes_fetched", "bytes_requested", "cache_hits",
                "cache_misses", "coalesced", "physical_requests", "requests",
            ],
            [],
        ]
        assert sorted(trace) == ["duration_ms", "spans", "summary", "trace_id"]
        assert shape(trace["spans"]) == [
            "query",
            ["index", "mode", "query"],
            [
                ["live.members", ["members"], []],
                ["search.lookup", ["requests", "shards", "words"], [fetch]],
                [
                    "search.retrieve",
                    ["candidates", "false_positives", "fetched", "matched", "oversampled"],
                    [fetch],
                ],
            ],
        ]
        assert trace["summary"]["totals"] == {
            "requests": 4,
            "physical_requests": 4,
            "bytes_requested": 70,
            "bytes_fetched": 70,
            "cache_hits": 0,
            "refunded_bytes": 0,
            "attempts": 0,
            "retries": 0,
            "hedges": 0,
            "timeouts": 0,
            "spans": 6,
            "waves": 2,
        }
        wave_keys = [
            "bytes_fetched", "bytes_requested", "cache_hits", "cache_misses",
            "duration_ms", "physical_requests", "requests",
        ]
        assert [sorted(wave) for wave in trace["summary"]["waves"]] == [wave_keys] * 2
