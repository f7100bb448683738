"""Ablation: superpost compression (v1 vs v2 codec) and co-access layout.

The v1 codec already interns blob names through the string table (Section
IV-C); the v2 codec additionally groups each superpost's postings by blob
and delta-codes offsets within a group, and v2 builds place superposts in
co-access order so the coalescing read pipeline can merge a query's layer
fetches into fewer, fatter ranges.

Each fig06 corpus is built twice — v1/plain layout (the legacy format) and
v2/co-access (the default) — and an identical occurrence-weighted keyword
workload is replayed against both over identically seeded simulated stores,
recording blob bytes, bytes fetched per query, raw-vs-pipeline request
counts, and p50/p99 latency.  A decode micro-benchmark quantifies what an
ordered-by-construction ``Superpost`` saves (decoders emit sorted postings,
so the old per-decode hash-and-re-sort is gone).

The machine-readable record lands in ``results/BENCH_compression.json`` so
codec regressions are caught PR over PR.  Set ``AIRPHANT_BENCH_SMOKE=1`` for
CI smoke mode (tiny corpora, relaxed thresholds).
"""

from __future__ import annotations

import time

from benchmarks.conftest import new_store, save_json, save_result, smoke_mode
from repro.bench.tables import format_table
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.serialization import decode_superpost
from repro.observability import get_registry
from repro.profiling.profiler import profile_documents
from repro.search.searcher import AirphantSearcher
from repro.storage.latency import AffineLatencyModel
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus
from repro.workloads.synthetic import SyntheticSpec, generate_zipf
from repro.workloads.queries import sample_query_words

#: Bridge superpost reads that land within this many bytes of each other.
COALESCE_GAP = 4096

#: The two on-disk formats under comparison: (label, format_version, layout).
SCENARIOS = (("v1", 1, "plain"), ("v2", 2, "coaccess"))


def _settings():
    if smoke_mode():
        return {"corpora": ("hdfs", "zipf"), "documents": 1_200, "queries": 15, "bins": 512}
    return {
        "corpora": ("hdfs", "windows", "spark", "zipf"),
        "documents": 12_000,
        "queries": 60,
        "bins": 2048,
    }


def _generate(store, kind: str, documents: int):
    if kind == "zipf":
        spec = SyntheticSpec(
            num_documents=documents, num_words=documents // 2, words_per_document=10
        )
        return generate_zipf(store, spec, name="compression-zipf", seed=11)
    return generate_log_corpus(
        store, kind, num_documents=documents, name=f"compression-{kind}", seed=11
    )


def _replay_store(backend) -> SimulatedCloudStore:
    """A fresh store over the same blobs with identically seeded latencies."""
    return SimulatedCloudStore(
        backend=backend, latency_model=AffineLatencyModel(seed=555, jitter_sigma=0.1)
    )


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _run_corpus(kind: str, settings) -> dict:
    store = new_store(seed=1)
    corpus = _generate(store, kind, settings["documents"])
    profile = profile_documents(corpus.documents)
    config = SketchConfig(
        num_bins=settings["bins"], target_false_positives=1.0, seed=7
    )
    # Occurrence-weighted sampling: production query traffic is head-heavy,
    # which is exactly the traffic the co-access layout optimizes for.
    words = sample_query_words(
        profile, settings["queries"], seed=71, mode="occurrence"
    )

    raw_counter = get_registry().counter(
        "airphant_codec_bytes_raw_total", label_names=("format",)
    )
    record: dict[str, dict] = {}
    for label, format_version, layout in SCENARIOS:
        index_name = f"ablation/compression-{kind}-{label}"
        raw_before = raw_counter.value(format=label)
        AirphantBuilder(
            store, config=config, format_version=format_version, layout=layout
        ).build_from_documents(corpus.documents, index_name=index_name)
        searcher = AirphantSearcher.open(
            _replay_store(store.backend),
            index_name=index_name,
            coalesce_gap=COALESCE_GAP,
        )
        latencies = []
        results = 0
        for word in words:
            result = searcher.search(word)
            latencies.append(result.latency.total_ms)
            results += result.num_results
        stats = searcher.searchers[0].pipeline.stats
        searcher.close()
        record[label] = {
            "format_version": format_version,
            "layout": layout,
            "superpost_blob_bytes": store.size(f"{index_name}/superposts.bin"),
            "uncompressed_bytes": raw_counter.value(format=label) - raw_before,
            "bytes_fetched_per_query": stats.bytes_fetched / len(words),
            "raw_store_requests": stats.requests_in,
            "pipeline_store_requests": stats.requests_out,
            "p50_ms": _percentile(latencies, 0.50),
            "p99_ms": _percentile(latencies, 0.99),
            "mean_ms": sum(latencies) / len(latencies),
            "total_results": results,
        }
    record["compression_ratio"] = (
        record["v1"]["superpost_blob_bytes"] / record["v2"]["superpost_blob_bytes"]
    )
    record["bytes_per_query_ratio"] = (
        record["v1"]["bytes_fetched_per_query"] / record["v2"]["bytes_fetched_per_query"]
    )
    return record


def _decode_microbench(settings) -> dict:
    """The decode hot path: a decoded ``Superpost`` is adopted in the
    payload's order, so nothing hashes or re-sorts it.

    Measures decode + the ordered postings per superpost through the current
    path versus a simulation of the old one (rebuild the set, then sort it
    from scratch) over the same v2 payloads.
    """
    store = new_store(seed=1)
    corpus = _generate(store, "hdfs", settings["documents"])
    config = SketchConfig(num_bins=settings["bins"], target_false_positives=1.0, seed=7)
    AirphantBuilder(store, config=config).build_from_documents(
        corpus.documents, index_name="ablation/decode-bench"
    )
    searcher = AirphantSearcher.open(store, index_name="ablation/decode-bench")
    words = sample_query_words(
        profile_documents(corpus.documents), 40, seed=99, mode="occurrence"
    )
    payloads = []
    for word in words:
        for pointer in searcher.searchers[0].mht.pointers_for(word):
            if not pointer.is_empty:
                payloads.append(
                    store.backend.get_range(pointer.blob, pointer.offset, pointer.length)
                )
    table = searcher.searchers[0].shards[0].string_table
    searcher.close()

    rounds = 3 if smoke_mode() else 10
    started = time.perf_counter()
    for _ in range(rounds):
        for payload in payloads:
            decode_superpost(payload, table, 2).take()
    fast_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        for payload in payloads:
            # The pre-fix path: a fresh set, then a from-scratch sort.
            sorted(set(decode_superpost(payload, table, 2)))
    resort_seconds = time.perf_counter() - started

    decodes = rounds * len(payloads)
    return {
        "superposts_decoded": decodes,
        "fast_path_us_per_decode": fast_seconds / decodes * 1e6,
        "resort_path_us_per_decode": resort_seconds / decodes * 1e6,
        "speedup": resort_seconds / fast_seconds if fast_seconds else 1.0,
    }


def _run(_catalog):
    settings = _settings()
    by_corpus = {kind: _run_corpus(kind, settings) for kind in settings["corpora"]}
    decode_bench = _decode_microbench(settings)
    return settings, by_corpus, decode_bench


def test_ablation_compression(benchmark, catalog):
    settings, by_corpus, decode_bench = benchmark.pedantic(
        _run, args=(catalog,), rounds=1, iterations=1
    )

    rows = []
    for kind, record in by_corpus.items():
        for label, _, _ in SCENARIOS:
            entry = record[label]
            rows.append(
                [
                    kind,
                    label,
                    entry["superpost_blob_bytes"],
                    round(entry["bytes_fetched_per_query"], 1),
                    entry["pipeline_store_requests"],
                    round(entry["p50_ms"], 2),
                    round(entry["p99_ms"], 2),
                ]
            )
        rows.append(
            [kind, "v1/v2", f"{record['compression_ratio']:.2f}x",
             f"{record['bytes_per_query_ratio']:.2f}x", "", "", ""]
        )
    table = format_table(
        ["corpus", "format", "blob bytes", "bytes/query", "pipeline reqs", "p50 ms", "p99 ms"],
        rows,
    )
    note = (
        "decode hot path: {fast:.1f}us/superpost adopted in order vs "
        "{slow:.1f}us with the old re-sort ({speedup:.2f}x)".format(
            fast=decode_bench["fast_path_us_per_decode"],
            slow=decode_bench["resort_path_us_per_decode"],
            speedup=decode_bench["speedup"],
        )
    )
    save_result("ablation_compression", table + "\n" + note)
    save_json(
        "BENCH_compression",
        {
            "experiment": "compression_ablation",
            "smoke_mode": smoke_mode(),
            "documents_per_corpus": settings["documents"],
            "queries": settings["queries"],
            "coalesce_gap": COALESCE_GAP,
            "by_corpus": by_corpus,
            "decode_microbench": decode_bench,
        },
    )

    for kind, record in by_corpus.items():
        # Identical answers in both formats (byte-for-byte the same postings
        # feed the same document fetches).
        assert record["v1"]["total_results"] == record["v2"]["total_results"] > 0
        # The delta codec must shrink the blob and the per-query download.
        assert record["compression_ratio"] > 1.0, kind
        assert record["bytes_per_query_ratio"] > 1.0, kind
        # The co-access layout must not cost physical requests, and the
        # smaller/denser format must not cost tail latency (identical
        # latency-model seeds make the replays directly comparable).
        assert (
            record["v2"]["pipeline_store_requests"]
            <= record["v1"]["pipeline_store_requests"]
        ), kind
        assert record["v2"]["p99_ms"] <= record["v1"]["p99_ms"] * 1.05, kind

    # The headline acceptance number: >= 1.5x smaller superposts on at least
    # two fig06 corpora (smoke corpora are tiny — offsets short — so the
    # full-size threshold only applies to the real run).
    threshold = 1.2 if smoke_mode() else 1.5
    ratios = [record["compression_ratio"] for record in by_corpus.values()]
    assert sum(ratio >= threshold for ratio in ratios) >= 2

    # The decode fast path must actually beat the old re-sorting decode.
    assert decode_bench["speedup"] > 1.0

    benchmark.extra_info["compression_ratios"] = {
        kind: round(record["compression_ratio"], 3) for kind, record in by_corpus.items()
    }
