"""From raw :class:`~perfbench.workloads.Samples` to the named metrics.

Each metric is computed by its own small expression under :func:`_guard`:
one that cannot be computed (a probe that produced nothing, a function a
later refactor renamed) reports ``None`` plus the reason and leaves every
other number alone.
"""

from __future__ import annotations

import resource
import statistics
from statistics import fmean as mean
from typing import Any, Callable, Iterable

from perfbench.catalog import END_TO_END, layer_names
from perfbench.measure import CPU_LAYERS, Timed, percentile
from perfbench.workloads import INDEX, Samples, Site

Metrics = dict[str, float | None]


def _guard(metrics: Metrics, notes: dict[str, str], name: str, compute: Callable[[], float]) -> None:
    try:
        metrics[name] = float(compute())
    except Exception as error:  # noqa: BLE001 - one metric must not take the others down
        metrics[name] = None
        notes.setdefault(name, f"{type(error).__name__}: {error}")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def error_rate(samples: Samples) -> float:
    return len(samples.failures) / max(1, samples.attempted)


def _full_speed(timings: Iterable[Timed]) -> list[float]:
    return [timed.full_speed_s for timed in timings]


def end_to_end(samples: Samples, setups: list[float]) -> tuple[Metrics, dict[str, str]]:
    """The end-to-end metrics of an untraced pass (plus ``error_rate``).

    Every timing is the operation's time with the box at full speed (see
    :class:`~perfbench.measure.Timed`).
    """
    metrics: Metrics = {}
    notes: dict[str, str] = {}
    warm = _full_speed(record.timed for record in samples.warm)
    cold = _full_speed(samples.cold)
    writes = _full_speed(samples.appends)
    # Maintenance is not an "operation", but a flush that stalls the loop
    # lowers throughput: its time is in the denominator.
    loop_s = sum(warm) + sum(writes) + sum(
        _full_speed([*samples.deletes, *(entry[0] for entry in samples.maintenance)])
    )

    computations: dict[str, Callable[[], float]] = {
        "setup_s": lambda: statistics.median(setups),
        "query_ms_p50": lambda: _ms(percentile(warm, 50)),
        "query_ms_p95": lambda: _ms(percentile(warm, 95)),
        "cold_query_ms_p50": lambda: _ms(percentile(cold, 50)),
        "write_ms_p50": lambda: _ms(percentile(writes, 50)),
        "ops_per_s": lambda: (len(warm) + len(writes) + len(samples.deletes)) / loop_s,
        "requests_per_query": lambda: mean([record.reads for record in samples.warm]),
        "bytes_per_query": lambda: mean([record.read_bytes for record in samples.warm]),
        "write_amplification": lambda: samples.put_bytes / samples.appended_text_bytes,
        "stored_bytes_ratio": lambda: samples.stored_bytes / samples.document_bytes,
        "peak_rss_mb": lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, _unit, _better, _bound in END_TO_END:
        _guard(metrics, notes, name, computations[name])
    metrics["error_rate"] = error_rate(samples)
    return metrics, notes


def per_layer(
    workload: str,
    traced: Samples,
    untraced: Samples,
    site: Site,
) -> tuple[Metrics, dict[str, str]]:
    """The per-layer metrics of a traced pass.

    ``untraced`` is an untraced pass over the same operations (the whole
    end-to-end pass, or the reference pass of ``--trace 1``): the class
    medians and p99 come from it, and the tracing overhead is the ratio of
    the two medians over the operations both passes timed.  Whole-query
    timings are at full speed, like the end-to-end ones; the parts of a
    query (parse, lookup, serialize, store and profiler times) are as measured.
    """
    metrics: Metrics = {}
    notes = dict(traced.notes)
    timed = [record for record in traced.warm if not record.profiled]
    with_store = [record for record in traced.warm if record.store is not None]
    with_pipeline = [record.pipeline for record in traced.warm if record.pipeline is not None]
    looked_up = [record for record in timed if record.lookup_s is not None]
    # The untraced timings of the queries the traced pass timed too.
    traced_ops = {record.op_index for record in timed}
    reference = [record for record in untraced.warm if record.op_index in traced_ops]

    def p50(records: Iterable[Any]) -> float:
        return percentile(_full_speed(record.timed for record in records), 50)

    def class_p50(cls: str) -> float:
        return _ms(p50(record for record in untraced.warm if record.cls == cls))

    maintenance_s = sum(entry[0].wall_s for entry in traced.maintenance)
    flushes = [entry[0].wall_s for entry in traced.maintenance if entry[1] and not entry[2]]
    compactions = [entry[0].wall_s for entry in traced.maintenance if entry[2]]
    op_s = (
        sum(record.total_s for record in traced.warm)
        + sum(timing.wall_s for timing in (*traced.appends, *traced.deletes))
        + maintenance_s
    )

    def pipeline_sum(key: str) -> int:
        return sum(entry[key] for entry in with_pipeline)

    index_blobs: dict[str, int] = {}

    def blob_bytes(suffix: str) -> int:
        if not index_blobs:  # one listing serves the three suffixes
            store = site.store
            index_blobs.update((name, store.size(name)) for name in store.list_blobs(f"{INDEX}/"))
        return sum(size for name, size in index_blobs.items() if name.endswith(suffix))

    profile: dict[str, float] = {}
    try:
        profile = traced.profile.summary() if traced.profile is not None else {}
    except Exception as error:  # noqa: BLE001 - isolated probe
        notes.setdefault("cpu", f"{type(error).__name__}: {error}")
    profiled = [record for record in traced.warm if record.profiled and record.store is not None]

    def busy_ms() -> float:
        return _ms(mean([record.store["busy_s"] for record in profiled]))

    def dispatch_ms() -> float:
        # What the query thread waits beyond the store's own time: hand-off
        # to and from the fetch pool's threads.
        return max(0.0, profile["blocked"] - busy_ms())

    def attributed_share() -> float:
        # Store busy time, pool hand-off and every CPU layer's self time,
        # against the wall time of the same (profiled) searches.
        cpu_ms = sum(profile[layer] for layer in (*CPU_LAYERS, "other"))
        search_ms = _ms(mean([record.search_s for record in profiled]))
        return (cpu_ms + busy_ms() + dispatch_ms()) / search_ms

    computations: dict[str, Callable[[], float]] = {
        "storage.store.reads_per_query": lambda: mean([r.store["reads"] for r in with_store]),
        "storage.store.bytes_per_query": lambda: mean([r.store["bytes"] for r in with_store]),
        "storage.store.waves_per_query": lambda: mean([r.store["waves"] for r in with_store]),
        "storage.store.max_inflight": lambda: max(r.store["max_inflight"] for r in with_store),
        "storage.store.read_ms_p50": lambda: _ms(percentile(traced.read_span_s, 50)),
        "storage.store.busy_ms_per_query": lambda: _ms(mean([r.store["busy_s"] for r in with_store])),
        "storage.store.failed_reads": lambda: traced.failed_reads,
        "storage.parallel.dispatch_ms_per_query": dispatch_ms,
        "storage.s3.connections_per_request": lambda: traced.s3_connections / traced.s3_requests,
        "storage.pipeline.requests_logical_per_query": lambda: pipeline_sum("requests_in") / len(with_pipeline),
        "storage.pipeline.coalesce_ratio": lambda: pipeline_sum("requests_in") / pipeline_sum("requests_out"),
        "storage.pipeline.overfetch_ratio": lambda: pipeline_sum("bytes_fetched") / pipeline_sum("bytes_requested"),
        "storage.pipeline.cache_hit_ratio": lambda: pipeline_sum("cache_hits") / pipeline_sum("requests_in"),
        "service.cpu_ms_per_query": lambda: _ms(mean([r.total_s - r.store["busy_s"] for r in timed])),
        "index.decode_ms_per_query": lambda: profile["decode_superpost"],
        "core.intersect_ms_per_query": lambda: profile["intersect_all"],
        "search.lookup_ms_p50": lambda: _ms(percentile([s for r in looked_up for s in r.lookup_s], 50)),
        # A query looks its words up in one batch, so the slowest word stands
        # for the batch: exact for one-word queries, an estimate otherwise.
        "search.retrieve_ms_p50": lambda: _ms(
            percentile([max(0.0, r.search_s - max(r.lookup_s)) for r in looked_up], 50)
        ),
        "search.candidates_per_query": lambda: mean([r.candidates for r in traced.warm]),
        "search.false_positives_per_query": lambda: mean([r.false_positives for r in traced.warm]),
        "search.useful_fetch_ratio": lambda: sum(r.results for r in traced.warm)
        / sum(r.results + r.false_positives for r in traced.warm),
        "search.ranking.stats_load_ms_p50": lambda: _ms(percentile(traced.stats_load_s, 50)),
        "index.stats_bytes": lambda: blob_bytes("stats.json"),
        "index.header_bytes": lambda: blob_bytes("header.json"),
        "index.superpost_bytes": lambda: blob_bytes("superposts.bin"),
        "service.parse_ms_p50": lambda: _ms(percentile([r.parse_s for r in timed], 50)),
        "service.serialize_ms_p50": lambda: _ms(percentile([r.serialize_s for r in timed], 50)),
        "service.query_ms_p99": lambda: _ms(
            percentile(_full_speed(r.timed for r in untraced.warm), 99)
        ),
        "service.needle_ms_p50": lambda: class_p50("needle"),
        "service.scan_ms_p50": lambda: class_p50("scan"),
        "service.keyword_ms_p50": lambda: class_p50("keyword"),
        "service.and_ms_p50": lambda: class_p50("and"),
        "service.http.overhead_ms_p50": lambda: _ms(percentile(traced.http_overhead_s, 50)),
        "service.catalog.open_ms_p50": lambda: _ms(percentile(traced.open_s, 50)),
        "service.catalog.reopen_query_ms_p50": lambda: _ms(
            percentile([r.total_s for r in untraced.warm if r.after_reopen], 50)
        ),
        "index.builder.build_s": lambda: site.build_s,
        "index.builder.docs_per_s": lambda: len(site.documents) / site.build_s,
        "ingest.write_ms_p95": lambda: _ms(percentile(_full_speed(traced.appends), 95)),
        "ingest.wal.puts_per_append": lambda: traced.append_puts / len(traced.appends),
        "ingest.wal.bytes_per_append": lambda: traced.append_put_bytes / len(traced.appends),
        "ingest.flush_count": lambda: sum(entry[1] for entry in traced.maintenance),
        # A compaction always rides on the flush that stacked the last delta:
        # such a call is reported as a compaction, not as a flush.
        "ingest.flush_ms_p50": lambda: _ms(percentile(flushes, 50)),
        "ingest.compact_count": lambda: sum(entry[2] for entry in traced.maintenance),
        "ingest.compact_ms_p50": lambda: _ms(percentile(compactions, 50)),
        "ingest.maintenance_share": lambda: maintenance_s / op_s,
        "ingest.deltas_at_query_mean": lambda: mean([r.deltas for r in traced.warm]),
        "ingest.tombstones_at_query_mean": lambda: mean([r.tombstones for r in traced.warm]),
        "ingest.recovery_ms": lambda: _ms(traced.recovery_s),
        "observability.instrumentation_overhead_ratio": lambda: (
            percentile([pair[0] for pair in traced.instrumentation_pairs], 50)
            / percentile([pair[1] for pair in traced.instrumentation_pairs], 50)
        ),
        "perfbench.attributed_share": attributed_share,
        "perfbench.tracing_overhead_ratio": lambda: p50(timed) / p50(reference),
    }
    for layer in (*CPU_LAYERS, "other"):
        computations[f"cpu.{layer}.self_ms_per_op"] = lambda layer=layer: profile[layer]
    for name in layer_names(workload):
        _guard(metrics, notes, name, computations[name])
    return metrics, notes


def spans_payload(samples: Samples) -> list[dict[str, Any]]:
    """The traced pass's store-read spans, for ``--out``."""
    return [
        {"start": start, "end": end, "bytes": nbytes, "thread": thread, "blob": blob}
        for start, end, nbytes, thread, blob in samples.spans
    ]
