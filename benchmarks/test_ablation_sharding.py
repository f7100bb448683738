"""Ablation: index sharding and the coalescing read pipeline.

Builds the same corpus at shard counts {1, 4, 16} and replays an identical
multi-term query workload against each, recording:

* build wall-clock time (sharded builds parallelize across a thread pool);
* mean simulated query latency and bytes fetched;
* store requests — the *raw* per-superpost/per-document count a naive
  fetcher would issue versus what the read pipeline actually sent after
  deduplication and coalescing.

The machine-readable record lands in ``results/BENCH_sharding.json`` so the
performance trajectory of the sharded read path can be tracked PR over PR.
Set ``AIRPHANT_BENCH_SMOKE=1`` to run on a tiny corpus (CI smoke mode).
"""

from __future__ import annotations

import time

from benchmarks.conftest import save_json, save_result, smoke_mode
from repro.bench.tables import format_table
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.observability import get_registry
from repro.observability.tracing import Tracer
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.storage.latency import AffineLatencyModel
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus

SHARD_COUNTS = (1, 4, 16)
#: Bridge superpost reads that land within this many bytes of each other.
COALESCE_GAP = 4096


def _settings():
    if smoke_mode():
        return {"documents": 400, "queries": 10, "bins": 256}
    return {"documents": 12_000, "queries": 40, "bins": 2048}


def _run(catalog):
    settings = _settings()
    store = catalog.store
    corpus = generate_log_corpus(
        store, "hdfs", num_documents=settings["documents"], name="sharding", seed=23
    )
    config = SketchConfig(num_bins=settings["bins"], target_false_positives=1.0, seed=7)
    # Multi-term (conjunctive) queries whose words co-occur by construction:
    # both terms come from the same sampled document, so every query matches
    # at least one document at every shard count.
    tokenizer = WhitespaceAnalyzer()
    queries = []
    step = max(1, len(corpus.documents) // settings["queries"])
    for document in corpus.documents[:: step]:
        terms = sorted(tokenizer.distinct_terms(document.text))
        if len(terms) >= 2:
            queries.append(f"{terms[0]} {terms[-1]}")
        if len(queries) == settings["queries"]:
            break

    rows = []
    record = {}
    for num_shards in SHARD_COUNTS:
        index_name = f"ablation/sharding-{num_shards:02d}"
        builder = AirphantBuilder(store, config=config, num_shards=num_shards)
        started = time.perf_counter()
        builder.build_from_documents(corpus.documents, index_name=index_name)
        build_seconds = time.perf_counter() - started

        searcher = AirphantSearcher.open(
            store, index_name=index_name, coalesce_gap=COALESCE_GAP
        )
        latencies = []
        results = 0
        for query in queries:
            result = searcher.search(query)
            latencies.append(result.latency.total_ms)
            results += result.num_results
        stats = searcher.searchers[0].pipeline.stats
        searcher.close()

        mean_latency = sum(latencies) / len(latencies)
        rows.append(
            [
                num_shards,
                round(build_seconds, 3),
                round(mean_latency, 2),
                stats.bytes_fetched,
                stats.requests_in,
                stats.requests_out,
            ]
        )
        record[str(num_shards)] = {
            "num_shards": num_shards,
            "build_seconds": build_seconds,
            "mean_query_latency_ms": mean_latency,
            "bytes_fetched": stats.bytes_fetched,
            "bytes_requested": stats.bytes_requested,
            "raw_store_requests": stats.requests_in,
            "pipeline_store_requests": stats.requests_out,
            "requests_saved": stats.requests_saved,
            "coalesced_requests": stats.coalesced_requests,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "batches": stats.batches,
            "total_results": results,
        }
    # The headline sharding number: latency relative to the single-shard
    # build of the same corpus.  Before the fetcher learned to scale its
    # concurrency with the shard count this sat at ~1.31x for 16 shards
    # (the lookup wave spilled into extra concurrency waves); it must stay
    # close to 1.0 now.
    single = record["1"]["mean_query_latency_ms"]
    for entry in record.values():
        entry["latency_vs_single_shard"] = entry["mean_query_latency_ms"] / single
    for row, num_shards in zip(rows, SHARD_COUNTS):
        row.append(round(record[str(num_shards)]["latency_vs_single_shard"], 3))
    overhead = _metrics_overhead(store, queries)
    tracing_overhead = _tracing_overhead(store, queries)
    return corpus, queries, rows, record, overhead, tracing_overhead


def _metrics_overhead(store, queries):
    """Replay the 4-shard workload with metrics on vs. off.

    Both replays run over the same blobs behind *fresh* identically seeded
    latency models, so the simulated query latencies are directly
    comparable; recording on/off is toggled on the process-wide registry.
    The wall-clock replay times are recorded too (informational only —
    they include Python scheduling noise).
    """
    index_name = "ablation/sharding-04"

    def _replay(sim_store):
        searcher = AirphantSearcher.open(
            sim_store, index_name=index_name, coalesce_gap=COALESCE_GAP
        )
        started = time.perf_counter()
        latencies = [searcher.search(query).latency.total_ms for query in queries]
        wall_seconds = time.perf_counter() - started
        searcher.close()
        return sum(latencies) / len(latencies), wall_seconds

    def _fresh_store():
        return SimulatedCloudStore(
            backend=store.backend,
            latency_model=AffineLatencyModel(seed=99, jitter_sigma=0.1),
        )

    registry = get_registry()
    mean_on, wall_on = _replay(_fresh_store())
    registry.disable()
    try:
        mean_off, wall_off = _replay(_fresh_store())
    finally:
        registry.enable()
    return {
        "mean_query_latency_ms_metrics_on": mean_on,
        "mean_query_latency_ms_metrics_off": mean_off,
        "latency_overhead_ratio": mean_on / mean_off if mean_off else 1.0,
        "wall_seconds_metrics_on": wall_on,
        "wall_seconds_metrics_off": wall_off,
    }


def _tracing_overhead(store, queries):
    """Replay the 4-shard workload untraced vs. fully traced.

    Same fresh identically seeded stores as :func:`_metrics_overhead`.  The
    untraced replay runs with no ambient span, i.e. the tracing-disabled
    path (each instrumented site costs one contextvar read); the traced
    replay opens a root span per query at ``sample_rate=1.0`` so every
    span tree is built and retained.  Simulated latency must be identical
    either way — tracing observes the fetch pattern, it must never change
    it — and the ratios are asserted within 5%.
    """
    index_name = "ablation/sharding-04"

    def _fresh_store():
        return SimulatedCloudStore(
            backend=store.backend,
            latency_model=AffineLatencyModel(seed=99, jitter_sigma=0.1),
        )

    def _replay(sim_store, tracer=None):
        searcher = AirphantSearcher.open(
            sim_store, index_name=index_name, coalesce_gap=COALESCE_GAP
        )
        started = time.perf_counter()
        latencies = []
        for query in queries:
            handle = tracer.begin("query", query=query) if tracer is not None else None
            latencies.append(searcher.search(query).latency.total_ms)
            if handle is not None:
                handle.finish()
        wall_seconds = time.perf_counter() - started
        searcher.close()
        return sum(latencies) / len(latencies), wall_seconds

    mean_untraced, wall_untraced = _replay(_fresh_store())
    tracer = Tracer(sample_rate=1.0, capacity=len(queries) + 1)
    mean_traced, wall_traced = _replay(_fresh_store(), tracer)
    return {
        "mean_query_latency_ms_untraced": mean_untraced,
        "mean_query_latency_ms_traced": mean_traced,
        "latency_overhead_ratio": (
            mean_traced / mean_untraced if mean_untraced else 1.0
        ),
        "wall_seconds_untraced": wall_untraced,
        "wall_seconds_traced": wall_traced,
        "retained_traces": len(tracer.store),
    }


def test_ablation_sharding(benchmark, catalog):
    corpus, queries, rows, record, overhead, tracing_overhead = benchmark.pedantic(
        _run, args=(catalog,), rounds=1, iterations=1
    )
    table = format_table(
        [
            "shards",
            "build s",
            "mean query ms",
            "bytes fetched",
            "raw requests",
            "pipeline requests",
            "vs 1 shard",
        ],
        rows,
    )
    save_result("ablation_sharding", table)
    registry_summary = {
        name: value
        for name, value in get_registry().summary().items()
        if name.startswith(("airphant_pipeline_", "airphant_sim_"))
    }
    save_json(
        "BENCH_sharding",
        {
            "experiment": "sharding_ablation",
            "corpus": {"kind": "hdfs", "documents": corpus.num_documents},
            "queries": len(queries),
            "coalesce_gap": COALESCE_GAP,
            "smoke_mode": smoke_mode(),
            "by_shard_count": record,
            "metrics_overhead": overhead,
            "tracing_overhead": tracing_overhead,
            # Process-wide registry totals at the time of the run — the
            # same counters GET /metrics would export while serving.
            "registry_summary": registry_summary,
        },
    )

    # Every configuration must answer the whole workload...
    for entry in record.values():
        assert entry["total_results"] > 0
    # ...and the pipeline must issue strictly fewer store requests than the
    # raw per-superpost/per-document batches for these multi-term queries.
    for entry in record.values():
        assert entry["pipeline_store_requests"] < entry["raw_store_requests"]
    # Results are identical across shard counts, so every configuration
    # matched the same documents.
    totals = {entry["total_results"] for entry in record.values()}
    assert len(totals) == 1
    # Sharding must not cost latency: with the fetcher scaling its
    # concurrency to the shard count, the 16-shard lookup wave stays a
    # single concurrency wave and the old ~1.31x regression is gone.
    assert record["16"]["latency_vs_single_shard"] <= 1.15
    # Metrics recording must be invisible in query latency (<= 5%): the two
    # replays use identically seeded latency models, so any drift here is
    # the accounting path changing what gets fetched — a bug.
    assert abs(overhead["latency_overhead_ratio"] - 1.0) <= 0.05
    # Same contract for tracing: neither the tracing-disabled path (no
    # ambient span) nor a fully traced replay may change what gets fetched.
    assert abs(tracing_overhead["latency_overhead_ratio"] - 1.0) <= 0.05
    assert tracing_overhead["retained_traces"] == len(queries)
