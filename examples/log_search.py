"""Searching system logs stored on cloud storage.

This is the workload the paper's evaluation centres on: large corpora of
HDFS/Windows/Spark log lines, indexed once, searched with exact keywords,
Boolean queries, regular expressions, and top-K pagination — all dispatched
through one :class:`~repro.service.AirphantService` facade, the same entry
point the ``airphant`` CLI and HTTP server use.

Run with::

    python examples/log_search.py
"""

from __future__ import annotations

from repro import (
    AirphantService,
    SearchRequest,
    ServiceConfig,
    SimulatedCloudStore,
    SketchConfig,
)
from repro.profiling import profile_documents
from repro.workloads import generate_log_corpus


def main() -> None:
    store = SimulatedCloudStore()

    # Generate a scaled-down HDFS-like log corpus directly on the store
    # (Loghub's real HDFS corpus has ~11M lines; we use 20k for the example).
    corpus = generate_log_corpus(store, "hdfs", num_documents=20_000, seed=7)
    profile = profile_documents(corpus.documents)
    print(f"corpus: {profile.num_documents} log lines, {profile.num_terms} distinct terms")

    # One service instance owns the whole query side: a catalog of indexes, a
    # shared tokenizer/hedging/read-cache configuration, and all query modes.
    service = AirphantService(store, ServiceConfig())

    # Build the index with the paper's default accuracy target (F0 = 1 false
    # positive per query in expectation).
    info = service.build_index(
        "hdfs-index",
        corpus.blob_names,
        sketch_config=SketchConfig(num_bins=4096, target_false_positives=1.0),
    )
    print(f"built IoU Sketch: L = {info.num_layers} layers, "
          f"{info.num_common_words} common words handled exactly, "
          f"expected false positives = {info.expected_false_positives:.3f}\n")

    # Exact keyword search with top-K pagination.
    response = service.search(SearchRequest(query="ERROR", index="hdfs-index", top_k=5))
    print(f"top-5 'ERROR' lines ({response.latency.total_ms:.0f} ms simulated, "
          f"{response.num_candidates} candidates fetched, "
          f"{response.false_positive_count} filtered as false positives):")
    for hit in response.documents:
        print(f"   {hit.text}")
    print()

    # Boolean query: lines about write-block failures on DataNodes.  All
    # referenced terms' superposts are fetched in a single parallel wave.
    response = service.search(SearchRequest(
        query="ERROR AND (WRITE_BLOCK OR DataXceiver)",
        index="hdfs-index",
        mode="boolean",
        top_k=5,
    ))
    print(f"boolean query -> {response.num_results} results "
          f"({response.latency.total_ms:.0f} ms simulated, "
          f"{response.latency.round_trips} round-trip waves)")
    for hit in response.documents[:3]:
        print(f"   {hit.text}")
    print()

    # Regex query accelerated by the sketch: the literal words filter the
    # candidates, the regex removes the rest.
    response = service.search(SearchRequest(
        query=r"Slow BlockReceiver .*mirror",
        index="hdfs-index",
        mode="regex",
        top_k=5,
    ))
    print(f"regex query -> {response.num_results} results "
          f"({response.latency.total_ms:.0f} ms simulated)")
    for hit in response.documents[:3]:
        print(f"   {hit.text}")
    print()

    # Term-index lookup latency (what Figure 14 measures).
    _, lookup_latency = service.lookup_postings("hdfs-index", "terminating")
    print(f"term-index lookup for 'terminating': {lookup_latency.lookup_ms:.1f} ms, "
          f"{lookup_latency.round_trips} round-trip batch(es)")


if __name__ == "__main__":
    main()
