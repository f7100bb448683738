"""Command-line interface for Airphant.

Exposes the Builder and the query service over a local directory acting as
the storage bucket (the same layout ``gcsfuse`` exposes for a real Cloud
Storage bucket), so an index can be built once and searched from any
process — one-shot or as a long-lived HTTP query node:

.. code-block:: console

    # generate a demo corpus (or copy your own line-delimited blobs in)
    airphant generate --bucket ./bucket --kind hdfs --documents 20000

    # profile it, build an index, and search it
    airphant profile --bucket ./bucket --blobs corpora/hdfs.txt
    airphant build   --bucket ./bucket --blobs corpora/hdfs.txt --index hdfs-index
    airphant search  --bucket ./bucket --index hdfs-index --query "ERROR" --top-k 5

    # or serve the bucket's indexes over HTTP (see repro.service.http)
    airphant serve   --bucket ./bucket --port 8080
    curl -s localhost:8080/healthz
    curl -s -XPOST localhost:8080/search \\
         -d '{"index": "hdfs-index", "query": "ERROR", "top_k": 5}'

    # live ingestion: WAL-durable appends, searchable immediately; flush
    # folds the memtable into a delta, compact folds deltas into the base
    airphant ingest  --bucket ./bucket --index hdfs-index --doc "ERROR new event"
    curl -s -XPOST localhost:8080/indexes/hdfs-index/docs \\
         -d '{"documents": ["ERROR another event"]}'
    airphant compact --bucket ./bucket --index hdfs-index

``search`` and ``serve`` are thin wrappers over
:class:`repro.service.AirphantService`; ``search --json`` prints the same
``SearchResponse`` JSON the HTTP API returns.  Every subcommand accepts
``--simulate-latency`` to wrap the bucket in the simulated cloud latency
model, which also reports per-query simulated latencies the way the
benchmarks do.

Instead of ``--bucket DIR``, any subcommand takes ``--store URI`` to target
a registered storage backend (``mem://``, ``file://``, ``sim://``,
``http(s)://``, ``s3://`` — see :mod:`repro.storage.registry`), e.g. search
an index exported to a static file server:

.. code-block:: console

    python -m http.server 9000 --directory ./bucket &
    airphant search --store http://127.0.0.1:9000 --index hdfs-index --query "ERROR"

``--retries`` / ``--retry-backoff-ms`` / ``--timeout-s`` / ``--hedge-ms``
wrap the chosen backend in a :class:`repro.storage.ResilientStore`
(bounded retries with jittered exponential backoff, per-request timeouts,
hedged duplicate reads after an adaptive latency percentile).

``airphant stats`` prints the unified request metrics
(:mod:`repro.observability`): point it at a store to probe it (optionally
replaying a query first) or at a running ``serve`` node with ``--url`` to
scrape its live counters:

.. code-block:: console

    airphant stats --store ./bucket --index hdfs-index --query "ERROR" --repeat 20
    airphant stats --url http://127.0.0.1:8080 --format prometheus
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.config import SketchConfig
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.profiling.profiler import profile_documents
from repro.service import (
    AirphantService,
    SearchRequest,
    SearchResponse,
    ServiceConfig,
    ServiceError,
    serve_forever,
)
from repro.storage.base import ObjectStore, StoreError
from repro.storage.local import LocalObjectStore
from repro.storage.registry import StoreURIError, open_store
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.cranfield import generate_cranfield
from repro.workloads.logs import LOG_SYSTEMS, generate_log_corpus
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """Translate the parsed CLI flags into one :class:`ServiceConfig`."""
    defaults = ServiceConfig()
    return ServiceConfig(
        read_cache_bytes=getattr(args, "read_cache_bytes", defaults.read_cache_bytes),
        retries=args.retries,
        retry_backoff_ms=args.retry_backoff_ms,
        request_timeout_s=args.timeout_s,
        hedge_ms=args.hedge_ms,
        ingest_flush_docs=getattr(args, "flush_docs", defaults.ingest_flush_docs),
        ingest_flush_bytes=getattr(args, "flush_bytes", defaults.ingest_flush_bytes),
        ingest_compact_deltas=getattr(
            args, "compact_deltas", defaults.ingest_compact_deltas
        ),
        ingest_interval_s=getattr(args, "ingest_interval_s", defaults.ingest_interval_s),
        peers=tuple(
            peer.strip()
            for entry in (getattr(args, "peers", None) or [])
            for peer in entry.split(",")
            if peer.strip()
        ),
        shard_timeout_s=getattr(args, "shard_timeout_s", defaults.shard_timeout_s),
        node_hedge_ms=getattr(args, "node_hedge_ms", defaults.node_hedge_ms),
        node_retries=getattr(args, "node_retries", defaults.node_retries),
        probe_interval_s=getattr(args, "probe_interval_s", defaults.probe_interval_s),
        metrics_enabled=not getattr(args, "no_metrics", False),
        tracing_enabled=not getattr(args, "no_tracing", False),
        trace_sample_rate=getattr(
            args, "trace_sample_rate", defaults.trace_sample_rate
        ),
        slow_query_ms=getattr(args, "slow_query_ms", defaults.slow_query_ms),
    )


def _open_store(args: argparse.Namespace, config: ServiceConfig | None = None) -> ObjectStore:
    """Resolve ``--bucket DIR`` / ``--store URI`` (plus wrappers) to a store.

    The resilience wrapper is applied *inside* the simulated-latency layer
    (see :meth:`repro.storage.ResilientStore.wrap`), so
    ``--simulate-latency`` and ``--retries`` compose instead of one silently
    disabling the other.
    """
    config = config if config is not None else _service_config(args)
    if args.store:
        store = open_store(args.store)
    else:
        store = LocalObjectStore(args.bucket)
    store = config.wrap_store(store)
    if args.simulate_latency:
        store = SimulatedCloudStore.wrap(store)
    return store


def _open_service(args: argparse.Namespace) -> AirphantService:
    """Open the bucket/store behind an :class:`AirphantService` facade."""
    config = _service_config(args)
    return AirphantService(_open_store(args, config), config, store_uri=args.store)


def _add_common_arguments(parser: argparse.ArgumentParser, allow_url: bool = False) -> None:
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--bucket", help="directory acting as the storage bucket")
    target.add_argument(
        "--store",
        help=(
            "object-store URI: mem://, file://PATH, sim://, "
            "http(s)://host[:port]/prefix, or s3://bucket/prefix?endpoint=..."
        ),
    )
    if allow_url:
        target.add_argument(
            "--url",
            help="base URL of a running `airphant serve` node to scrape instead",
        )
    parser.add_argument(
        "--simulate-latency",
        action="store_true",
        help="charge simulated cloud-storage latencies and report them",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry transient store failures this many times (0 disables)",
    )
    parser.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=20.0,
        help="first-retry backoff in ms (doubles per retry, jittered)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-attempt store request timeout in seconds",
    )
    parser.add_argument(
        "--hedge-ms",
        type=float,
        default=0.0,
        help="hedge slow reads with a duplicate request after this many ms (0 disables)",
    )


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--read-cache-bytes",
        type=int,
        default=ServiceConfig.read_cache_bytes,
        help="read-pipeline block cache budget per opened index, in bytes "
        "(0 disables; default %(default)s)",
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if args.kind in LOG_SYSTEMS:
        corpus = generate_log_corpus(store, args.kind, num_documents=args.documents, seed=args.seed)
    elif args.kind == "cranfield":
        corpus = generate_cranfield(store, num_documents=args.documents, seed=args.seed)
    else:
        spec = SyntheticSpec(
            num_documents=args.documents,
            num_words=max(args.documents, 100),
            words_per_document=10,
        )
        corpus = generate_synthetic(store, args.kind, spec, seed=args.seed)
    print(f"wrote {corpus.num_documents} documents to {corpus.blob_names[0]}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    store = _open_store(args)
    parser = LineDelimitedCorpusParser()
    documents = list(parser.parse(store, args.blobs))
    profile = profile_documents(documents)
    report = {
        "documents": profile.num_documents,
        "terms": profile.num_terms,
        "words": profile.num_words,
        "mean_distinct_words_per_document": round(profile.mean_distinct_words, 2),
        "sigma_x": round(profile.sigma_x(), 4),
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    service = _open_service(args)
    config = SketchConfig(
        num_bins=args.bins,
        target_false_positives=args.target_fp,
        num_layers=args.layers,
        seed=args.seed,
    )
    try:
        info = service.build_index(
            args.index, args.blobs, sketch_config=config, num_shards=args.shards
        )
    except ServiceError as error:
        print(f"error: {error.info.message}", file=sys.stderr)
        return 2
    if args.listing:
        # Publish/refresh the bucket's listing manifest so static HTTP
        # exports of this bucket support catalog discovery (GET /indexes).
        from repro.storage.listing import LISTING_BLOB, write_listing

        listed = write_listing(service.store)
        print(f"wrote listing manifest {LISTING_BLOB!r} ({len(listed)} blobs)")
    print(
        f"built index {info.name!r}: {info.num_documents} documents, "
        f"{info.num_terms} terms, L = {info.num_layers}, "
        f"expected false positives = {info.expected_false_positives:.4f}, "
        f"storage = {info.storage_bytes} bytes"
    )
    if info.num_shards > 1:
        print(f"sharded over {info.num_shards} shards (by document hash):")
        for shard in info.shards:
            print(f"  {shard.name}: {shard.num_documents} documents, {shard.num_terms} terms")
    return 0


def _resolve_mode(args: argparse.Namespace) -> str:
    """The API query mode of ``--mode`` (flag values use dashes, modes underscores)."""
    return args.mode.replace("-", "_")


def _parse_weights(entries: list[str] | None) -> dict[str, float] | None:
    """Parse repeated ``--weight TERM=MULTIPLIER`` flags into a mapping."""
    if not entries:
        return None
    weights: dict[str, float] = {}
    for entry in entries:
        term, separator, value = entry.partition("=")
        if not separator or not term:
            raise ValueError(f"--weight expects TERM=MULTIPLIER, got {entry!r}")
        weights[term] = float(value)
    return weights


def _cmd_search(args: argparse.Namespace) -> int:
    service = _open_service(args)
    mode = _resolve_mode(args)
    try:
        request = SearchRequest(
            query=args.query,
            index=args.index,
            mode=mode,
            top_k=args.top_k,
            weights=_parse_weights(args.weight),
            explain=bool(getattr(args, "explain", False)),
        )
        if request.explain:
            # The facade's search() path attaches the span tree; execute()
            # (below) returns the raw result without one.
            return _search_explain(service, request, args)
        result = service.execute(request)
    except (ServiceError, ValueError) as error:
        message = error.info.message if isinstance(error, ServiceError) else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        # The same SearchResponse JSON the HTTP API returns for this request.
        print(SearchResponse.from_result(request, result).to_json(indent=2))
    elif result.scores is not None:
        # Ranked mode: best-first with each document's normalized score.
        for score, document in zip(result.scores, result.documents):
            print(f"{score:.4f}\t{document.text}")
    else:
        for document in result.documents:
            print(document.text)
    summary = f"{result.num_results} result(s), {result.false_positive_count} false positive(s) filtered"
    if args.simulate_latency:
        summary += f", {result.latency_ms:.1f} ms simulated"
    print(summary, file=sys.stderr)
    return 0 if result.num_results > 0 else 1


def _search_explain(
    service: AirphantService, request: SearchRequest, args: argparse.Namespace
) -> int:
    """Run one explained query and render its span tree + wave summary."""
    from repro.observability.tracing import render_trace

    try:
        response = service.search(request)
    except (ServiceError, ValueError) as error:
        message = error.info.message if isinstance(error, ServiceError) else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.json:
        print(response.to_json(indent=2))
        return 0 if response.documents else 1
    for hit in response.documents:
        text = hit.text if hit.text is not None else f"{hit.blob}@{hit.offset}+{hit.length}"
        if hit.score is not None:
            print(f"{hit.score:.4f}\t{text}")
        else:
            print(text)
    trace = response.trace
    if trace is None:
        print("(no trace attached; tracing is disabled)", file=sys.stderr)
    else:
        print(f"\ntrace {trace['trace_id']}:", file=sys.stderr)
        print(render_trace(trace["spans"]), file=sys.stderr)
        summary = trace.get("summary") or {}
        for number, wave in enumerate(summary.get("waves") or [], start=1):
            print(
                f"wave {number}: requests={wave['requests']} "
                f"physical={wave['physical_requests']} "
                f"bytes={wave['bytes_fetched']} cache_hits={wave['cache_hits']}",
                file=sys.stderr,
            )
        totals = summary.get("totals") or {}
        if totals:
            print(
                f"totals: spans={totals['spans']} waves={totals['waves']} "
                f"requests={totals['requests']} bytes={totals['bytes_fetched']} "
                f"cache_hits={totals['cache_hits']} hedges={totals['hedges']} "
                f"retries={totals['retries']} "
                f"refunded_bytes={totals['refunded_bytes']}",
                file=sys.stderr,
            )
    print(
        f"{len(response.documents)} result(s), "
        f"{response.false_positive_count} false positive(s) filtered",
        file=sys.stderr,
    )
    return 0 if response.documents else 1


def _cmd_traces(args: argparse.Namespace) -> int:
    """List (or fetch one of) the traces a running serve node retained."""
    import urllib.error
    import urllib.request

    from repro.observability.tracing import render_trace

    base = args.url.rstrip("/")
    path = f"/traces/{args.trace}" if args.trace else f"/traces?limit={args.limit}"
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=10.0) as response:
            payload = json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", "replace")
        try:
            message = json.loads(body).get("message", body)
        except json.JSONDecodeError:
            message = body
        print(f"error: {base}{path} answered {error.code}: {message}", file=sys.stderr)
        return 2
    except (
        urllib.error.URLError,
        TimeoutError,
        ConnectionError,
        OSError,
        json.JSONDecodeError,
    ) as error:
        print(f"error: could not fetch {base}{path}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    if args.trace:
        print(f"trace {payload['trace_id']}:")
        print(render_trace(payload["spans"]))
        return 0
    traces = payload.get("traces") or []
    if not traces:
        print("(no retained traces)", file=sys.stderr)
        return 0
    for entry in traces:
        duration = entry.get("duration_ms")
        timing = f"{duration:.2f} ms" if isinstance(duration, (int, float)) else "?"
        attrs = entry.get("attrs") or {}
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        print(
            f"{entry['trace_id']}\t{entry['name']}\t{timing}\t"
            f"{entry['spans']} span(s)\t{detail}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.url:
        if args.query or args.index or args.repeat != 1:
            # Scrape mode reads a remote node's counters; it cannot replay
            # queries there — silently ignoring these flags would make the
            # snapshot look like the replay happened.
            print(
                "error: --query/--index/--repeat replay against a local store; "
                "they cannot be combined with --url (scrape mode)",
                file=sys.stderr,
            )
            return 2
        return _scrape_stats(args)
    if args.query and not args.index:
        print("error: --query needs --index", file=sys.stderr)
        return 2
    service = _open_service(args)
    if args.query:
        request = SearchRequest(
            query=args.query, index=args.index, mode=_resolve_mode(args), top_k=args.top_k
        )
        try:
            for _ in range(args.repeat):
                service.execute(request)
        except ServiceError as error:
            print(f"error: {error.info.message}", file=sys.stderr)
            return 2
    elif args.index:
        # No query to replay: still touch the index so the snapshot shows
        # the open/header-read traffic instead of an empty registry.
        try:
            service.index_info(args.index)
        except ServiceError as error:
            print(f"error: {error.info.message}", file=sys.stderr)
            return 2
    if args.format == "prometheus":
        print(service.metrics.to_prometheus(), end="")
    else:
        print(json.dumps(service.metrics.snapshot(), indent=2))
    return 0


def _scrape_stats(args: argparse.Namespace) -> int:
    """Scrape a live query node: /metrics (prometheus) or /healthz (json)."""
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    path = "/metrics" if args.format == "prometheus" else "/healthz"
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=10.0) as response:
            payload = response.read().decode("utf-8")
    except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as error:
        print(f"error: could not scrape {base}{path}: {error}", file=sys.stderr)
        return 2
    if args.format == "prometheus":
        print(payload, end="")
    else:
        try:
            health = json.loads(payload)
        except json.JSONDecodeError as error:
            # A proxy splash page or some non-airphant server answered 200.
            print(
                f"error: {base}{path} did not answer JSON ({error}); "
                "is this an airphant serve node?",
                file=sys.stderr,
            )
            return 2
        print(json.dumps(health.get("metrics", {}), indent=2))
    return 0


def _add_ingest_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = ServiceConfig()
    parser.add_argument(
        "--flush-docs",
        type=int,
        default=defaults.ingest_flush_docs,
        help="memtable document count that triggers a background flush",
    )
    parser.add_argument(
        "--flush-bytes",
        type=int,
        default=defaults.ingest_flush_bytes,
        help="memtable byte budget that triggers a background flush",
    )
    parser.add_argument(
        "--compact-deltas",
        type=int,
        default=defaults.ingest_compact_deltas,
        help="stacked-delta count that triggers background compaction (0 disables)",
    )
    parser.add_argument(
        "--ingest-interval-s",
        type=float,
        default=defaults.ingest_interval_s,
        help="background ingest-worker poll interval in seconds (0 disables)",
    )


def _read_ingest_documents(args: argparse.Namespace) -> list[str]:
    """Collect the documents an ``airphant ingest`` invocation appends."""
    documents = list(args.doc or [])
    if args.input:
        if args.input == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        documents.extend(line for line in lines if line.strip())
    return documents


def _cmd_ingest(args: argparse.Namespace) -> int:
    documents = _read_ingest_documents(args)
    if not documents:
        print("error: nothing to ingest (use --doc and/or --input)", file=sys.stderr)
        return 2
    service = _open_service(args)
    try:
        outcome = service.append_documents(args.index, documents)
        if args.flush:
            flushed = service.flush_index(args.index)
            outcome["flush"] = {"flushed": flushed["flushed"], "delta": flushed["delta"]}
    except ServiceError as error:
        print(f"error: {error.info.message}", file=sys.stderr)
        return 2
    finally:
        service.close()
    summary = (
        f"appended {outcome['appended']} document(s) to {args.index!r} "
        f"(wal segment {outcome['wal_segment']}, "
        f"{outcome['memtable_documents']} memtable document(s))"
    )
    if "flush" in outcome:
        summary += f"; flushed into {outcome['flush']['delta']!r}"
    print(summary)
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    service = _open_service(args)
    try:
        outcome = service.compact_index(args.index)
    except ServiceError as error:
        print(f"error: {error.info.message}", file=sys.stderr)
        return 2
    finally:
        service.close()
    if not outcome["compacted"]:
        print(f"index {args.index!r}: nothing to compact")
    else:
        print(
            f"compacted {args.index!r}: folded {outcome['deltas_folded']} delta(s) "
            f"into generation {outcome['generation']} ({outcome['base']!r}) "
            f"in {outcome['seconds']:.2f}s"
        )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    if args.action != "list" and not args.snapshot:
        print(f"error: --snapshot is required for {args.action!r}", file=sys.stderr)
        return 2
    service = _open_service(args)
    try:
        if args.action == "create":
            outcome = service.create_snapshot(args.index, args.snapshot)
            print(
                f"snapshot {outcome['snapshot']!r} of {args.index!r} created "
                f"(generation {outcome['generation']}, "
                f"{outcome['delta_indexes']} delta(s), "
                f"{outcome['tombstones']} pending delete(s))"
            )
        elif args.action == "restore":
            outcome = service.restore_snapshot(args.index, args.snapshot)
            print(
                f"index {args.index!r} restored to snapshot "
                f"{outcome['snapshot']!r} (generation {outcome['generation']}, "
                f"{outcome['tombstones']} pending delete(s))"
            )
        elif args.action == "delete":
            service.delete_snapshot(args.index, args.snapshot)
            print(f"snapshot {args.snapshot!r} of {args.index!r} deleted")
        else:  # list
            snapshots = service.list_snapshots(args.index)
            if not snapshots:
                print(f"index {args.index!r} has no snapshots")
            for entry in snapshots:
                print(
                    f"{entry['snapshot']}\tgeneration={entry['generation']}\t"
                    f"deltas={entry['delta_indexes']}\t"
                    f"tombstones={entry['tombstones']}\t"
                    f"created_at={entry['created_at']:.0f}"
                )
    except ServiceError as error:
        print(f"error: {error.info.message}", file=sys.stderr)
        return 2
    finally:
        service.close()
    return 0


def _add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    cluster = parser.add_argument_group("cluster (scale-out query tier)")
    cluster.add_argument(
        "--peers",
        action="append",
        metavar="URL[,URL...]",
        help=(
            "base URLs of the cluster's searcher nodes (repeat or "
            "comma-separate; this node's own URL may be one); turns the "
            "node into a query router that sends each query to one peer"
        ),
    )
    cluster.add_argument(
        "--shard-timeout-s",
        type=float,
        default=ServiceConfig.shard_timeout_s,
        help="wall-clock bound on one node's answer to a routed query",
    )
    cluster.add_argument(
        "--node-hedge-ms",
        type=float,
        default=ServiceConfig.node_hedge_ms,
        help="duplicate an unanswered query to the next node after this many ms (0 disables)",
    )
    cluster.add_argument(
        "--node-retries",
        type=int,
        default=ServiceConfig.node_retries,
        help="extra passes over the peer list before the query fails with 503",
    )
    cluster.add_argument(
        "--probe-interval-s",
        type=float,
        default=ServiceConfig.probe_interval_s,
        help="period of the background peer /healthz probes (0 disables)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _open_service(args)
    names = service.catalog.names()
    origin = args.store if args.store else args.bucket
    role = (
        f"router over {len(service.config.peers)} peer(s)"
        if service.config.peers
        else "standalone node"
    )
    print(
        f"serving {len(names)} index(es) from {origin!r} "
        f"on http://{args.host}:{args.port} ({role})",
        file=sys.stderr,
    )
    serve_forever(
        service,
        host=args.host,
        port=args.port,
        log_format=getattr(args, "log_format", "text"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level ``airphant`` argument parser."""
    parser = argparse.ArgumentParser(prog="airphant", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a demo corpus into the bucket")
    _add_common_arguments(generate)
    generate.add_argument(
        "--kind",
        default="hdfs",
        choices=sorted(LOG_SYSTEMS) + ["cranfield", "diag", "unif", "zipf"],
        help="corpus family to generate",
    )
    generate.add_argument("--documents", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    profile = subparsers.add_parser("profile", help="print corpus statistics (Table II style)")
    _add_common_arguments(profile)
    profile.add_argument("--blobs", nargs="+", required=True, help="corpus blob names")
    profile.set_defaults(func=_cmd_profile)

    build = subparsers.add_parser("build", help="build and persist an IoU Sketch index")
    _add_common_arguments(build)
    build.add_argument("--blobs", nargs="+", required=True, help="corpus blob names")
    build.add_argument("--index", required=True, help="index name (blob prefix)")
    build.add_argument("--bins", type=int, default=100_000, help="bin budget B")
    build.add_argument("--target-fp", type=float, default=1.0, help="accuracy target F0")
    build.add_argument("--layers", type=int, default=None, help="pin the layer count (skip Algorithm 1)")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of index shards (1 = classic single-shard layout)",
    )
    build.add_argument(
        "--listing",
        action="store_true",
        help="also write the bucket's listing manifest, "
        "enabling catalog discovery over plain http(s):// exports",
    )
    build.set_defaults(func=_cmd_build)

    search = subparsers.add_parser("search", help="search a previously built index")
    _add_common_arguments(search)
    search.add_argument("--index", required=True, help="index name (blob prefix)")
    search.add_argument("--query", required=True)
    search.add_argument(
        "-k",
        "--top-k",
        dest="top_k",
        type=int,
        default=None,
        help="result cap; for --mode topk-bm25 the ranked k (default 10)",
    )
    search.add_argument(
        "--mode",
        choices=("keyword", "boolean", "regex", "topk-bm25"),
        default="keyword",
        help="query mode (topk-bm25 returns BM25-scored results, best first)",
    )
    search.add_argument(
        "--weight",
        action="append",
        metavar="TERM=MULTIPLIER",
        help="boost/damp one query term in topk-bm25 mode (repeatable)",
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="print the full SearchResponse JSON instead of document text",
    )
    search.add_argument(
        "--explain",
        action="store_true",
        help="trace the query and print its span tree and per-wave fetch "
        "summary (requests, bytes, cache hits) after the results",
    )
    _add_pipeline_arguments(search)
    search.set_defaults(func=_cmd_search)

    stats = subparsers.add_parser(
        "stats",
        help="print request metrics: probe a store (optionally replaying a query) "
        "or scrape a running serve node via --url",
    )
    _add_common_arguments(stats, allow_url=True)
    stats.add_argument("--index", help="index to open / query (optional)")
    stats.add_argument("--query", help="query to replay before snapshotting (needs --index)")
    stats.add_argument("--top-k", type=int, default=None)
    stats.add_argument(
        "--mode",
        choices=("keyword", "boolean", "regex", "topk-bm25"),
        default="keyword",
        help="query mode for the replayed query",
    )
    stats.add_argument(
        "--repeat", type=int, default=1, help="times the query is replayed before the snapshot"
    )
    stats.add_argument(
        "--format",
        default="json",
        choices=["json", "prometheus"],
        help="snapshot rendering: JSON registry dump or Prometheus exposition text",
    )
    _add_pipeline_arguments(stats)
    stats.set_defaults(func=_cmd_stats)

    traces = subparsers.add_parser(
        "traces",
        help="list or render the query traces a running serve node retained",
    )
    traces.add_argument(
        "--url",
        required=True,
        help="base URL of a running `airphant serve` node",
    )
    traces.add_argument("--trace", help="render one trace id as a span tree")
    traces.add_argument(
        "--limit", type=int, default=20, help="newest-first traces to list"
    )
    traces.add_argument(
        "--json", action="store_true", help="print the raw JSON payload instead"
    )
    traces.set_defaults(func=_cmd_traces)

    ingest = subparsers.add_parser(
        "ingest",
        help="append documents to a live index (WAL-durable, searchable at once)",
    )
    _add_common_arguments(ingest)
    ingest.add_argument("--index", required=True, help="index name (blob prefix)")
    ingest.add_argument(
        "--doc",
        action="append",
        help="a document to append (repeatable; one line each)",
    )
    ingest.add_argument(
        "--input",
        help="file of documents to append, one per line ('-' reads stdin)",
    )
    ingest.add_argument(
        "--flush",
        action="store_true",
        help="fold the memtable into a delta index before exiting",
    )
    ingest.set_defaults(func=_cmd_ingest)

    compact = subparsers.add_parser(
        "compact",
        help="flush and fold an index's delta indexes into a new base generation",
    )
    _add_common_arguments(compact)
    compact.add_argument("--index", required=True, help="index name (blob prefix)")
    compact.set_defaults(func=_cmd_compact)

    snapshot = subparsers.add_parser(
        "snapshot",
        help="create, restore, list, or delete point-in-time index snapshots",
    )
    _add_common_arguments(snapshot)
    snapshot.add_argument(
        "action",
        choices=("create", "restore", "list", "delete"),
        help="what to do with the index's snapshots",
    )
    snapshot.add_argument("--index", required=True, help="index name (blob prefix)")
    snapshot.add_argument(
        "--snapshot",
        help="snapshot name (required for create/restore/delete)",
    )
    snapshot.set_defaults(func=_cmd_snapshot)

    serve = subparsers.add_parser(
        "serve", help="serve the bucket's indexes over a JSON HTTP API"
    )
    _add_common_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=8080, help="port to bind")
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the metrics exports (GET /metrics answers 404, /healthz "
        "drops its metrics block) and service-level query accounting",
    )
    serve.add_argument(
        "--log-format",
        default="text",
        choices=["text", "json"],
        help="request-log format: stdlib text lines or one JSON object per "
        "request (method, path, status, duration_ms, trace_id)",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable query tracing (GET /traces answers 404, explain "
        "requests carry no trace)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=ServiceConfig.trace_sample_rate,
        help="fraction of ordinary queries whose traces are retained for "
        "GET /traces (explained and slow queries are always kept)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=ServiceConfig.slow_query_ms,
        help="queries slower than this emit a structured slow-query log "
        "line and are always retained (0 disables)",
    )
    _add_pipeline_arguments(serve)
    _add_ingest_arguments(serve)
    _add_cluster_arguments(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by both ``airphant`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StoreURIError, StoreError) as error:
        # Bad --store URIs, read-only backends under generate/build,
        # exhausted retries, denied access — anywhere a storage failure
        # escapes a subcommand, report it like the service errors above
        # instead of dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro`
    raise SystemExit(main())
