"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists :data:`END_TO_END` (with bounds) and the rows of
:data:`PER_LAYER` that are defined on all four workloads; the rows marked
with a workload name exist only there and are printed (and written by
``--out``) but not sent to the driver.  ``perfbench/test_smoke.py`` checks
that ``BENCHMARK.json`` and this file agree.
"""

from __future__ import annotations

WORKLOADS = {
    "logsearch_s3": (
        "point lookups and scans through s3:// over loopback sockets with 10 ms per GET: "
        "I/O waves and per-request cost dominate, CPU does little"
    ),
    "heavy_mem": (
        "head-term keyword and AND queries on mem://: zero storage latency, so wall time is "
        "CPU (decode, intersect, filter); I/O optimisations must show no change here"
    ),
    "ranked_delay": (
        "BM25 top-10 over 4 hash shards on a store that sleeps 10 ms + bytes/40 MB/s per read: "
        "fan-out, global merge, stats.json and over-fetching cost time"
    ),
    "ingest_file": (
        "appends, deletes, flushes and compaction beside keyword reads on one store, then a "
        "restart: read-path gains that cost the write path (or the reverse) show only here"
    ),
}

#: ``(name, unit, better, bound)`` — bound is the share of the parent's
#: median by which the metric may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p95", "ms", "lower", 0.25),
    ("cold_query_ms_p50", "ms", "lower", 0.25),
    ("write_ms_p50", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("requests_per_query", "count", "lower", 0.20),
    ("bytes_per_query", "bytes", "lower", 0.25),
    ("write_amplification", "ratio", "lower", 0.05),
    ("stored_bytes_ratio", "ratio", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

#: Reported next to the end-to-end metrics; the driver receives it as
#: ``failed`` / ``attempted`` (a bound relative to a median of 0 means nothing).
ERROR_RATE = ("error_rate", "fraction", "lower")

_CPU = tuple(
    (f"cpu.{layer}.self_ms_per_op", "ms", "lower", None)
    for layer in (
        "parsing", "core", "index", "search", "storage", "service", "ingest",
        "observability", "other",
    )
)

#: ``(name, unit, better, workload)`` — ``workload`` is ``None`` for a metric
#: every workload reports, else the only workload that has it.
PER_LAYER = (
    ("storage.store.reads_per_query", "count", "lower", None),
    ("storage.store.bytes_per_query", "bytes", "lower", None),
    ("storage.store.waves_per_query", "count", "lower", None),
    ("storage.store.max_inflight", "count", "higher", None),
    ("storage.store.read_ms_p50", "ms", "lower", None),
    ("storage.store.busy_ms_per_query", "ms", "lower", None),
    ("storage.store.failed_reads", "count", "lower", None),
    ("storage.parallel.dispatch_ms_per_query", "ms", "lower", None),
    ("storage.s3.connections_per_request", "ratio", "lower", "logsearch_s3"),
    ("storage.pipeline.requests_logical_per_query", "count", "lower", None),
    ("storage.pipeline.coalesce_ratio", "ratio", "higher", None),
    ("storage.pipeline.overfetch_ratio", "ratio", "lower", None),
    ("storage.pipeline.cache_hit_ratio", "ratio", "higher", None),
    ("service.cpu_ms_per_query", "ms", "lower", None),
    *_CPU,
    ("index.decode_ms_per_query", "ms", "lower", None),
    ("core.intersect_ms_per_query", "ms", "lower", None),
    ("search.lookup_ms_p50", "ms", "lower", None),
    ("search.retrieve_ms_p50", "ms", "lower", None),
    ("search.candidates_per_query", "count", "lower", None),
    ("search.false_positives_per_query", "count", "lower", None),
    ("search.useful_fetch_ratio", "ratio", "higher", None),
    ("search.ranking.stats_load_ms_p50", "ms", "lower", None),
    ("index.stats_bytes", "bytes", "lower", None),
    ("index.header_bytes", "bytes", "lower", None),
    ("index.superpost_bytes", "bytes", "lower", None),
    ("service.parse_ms_p50", "ms", "lower", None),
    ("service.serialize_ms_p50", "ms", "lower", None),
    ("service.query_ms_p99", "ms", "lower", None),
    ("service.needle_ms_p50", "ms", "lower", "logsearch_s3"),
    ("service.scan_ms_p50", "ms", "lower", "logsearch_s3"),
    ("service.keyword_ms_p50", "ms", "lower", "heavy_mem"),
    ("service.and_ms_p50", "ms", "lower", "heavy_mem"),
    ("service.http.overhead_ms_p50", "ms", "lower", "logsearch_s3"),
    ("service.catalog.open_ms_p50", "ms", "lower", None),
    ("service.catalog.reopen_query_ms_p50", "ms", "lower", "ingest_file"),
    ("index.builder.build_s", "s", "lower", None),
    ("index.builder.docs_per_s", "1/s", "higher", None),
    ("ingest.write_ms_p95", "ms", "lower", None),
    ("ingest.wal.puts_per_append", "count", "lower", None),
    ("ingest.wal.bytes_per_append", "bytes", "lower", None),
    ("ingest.flush_count", "count", "lower", None),
    ("ingest.flush_ms_p50", "ms", "lower", "ingest_file"),
    ("ingest.compact_count", "count", "lower", None),
    ("ingest.compact_ms_p50", "ms", "lower", "ingest_file"),
    ("ingest.maintenance_share", "ratio", "lower", None),
    ("ingest.deltas_at_query_mean", "count", "lower", None),
    ("ingest.tombstones_at_query_mean", "count", "lower", None),
    ("ingest.recovery_ms", "ms", "lower", None),
    ("observability.instrumentation_overhead_ratio", "ratio", "lower", "heavy_mem"),
    ("perfbench.attributed_share", "ratio", "higher", None),
    ("perfbench.tracing_overhead_ratio", "ratio", "lower", None),
)


def layer_names(workload: str | None = None) -> list[str]:
    """Per-layer metric names: the common ones, plus ``workload``'s own."""
    return [
        name for name, _unit, _better, only in PER_LAYER if only is None or only == workload
    ]


def unit_of(name: str) -> str:
    for row in (*END_TO_END, ERROR_RATE, *PER_LAYER):
        if row[0] == name:
            return row[1]
    raise KeyError(name)
