"""Ablation: parallel vs sequential superpost fetches.

The systems core of the paper is replacing dependent sequential reads with a
single batch of concurrent reads.  This ablation issues the *same* superpost
requests both ways and measures the lookup-latency gap, isolating the benefit
from everything else (accuracy, compaction, common words).
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_BENCH_CONFIG, save_result
from repro.bench.tables import format_table
from repro.index.builder import AirphantBuilder
from repro.search.searcher import AirphantSearcher
from repro.workloads.queries import sample_query_words

QUERIES = 20


def _run(catalog):
    corpus = catalog.corpus("hdfs")
    profile = catalog.profile("hdfs")
    config = DEFAULT_BENCH_CONFIG.with_layers(4)  # more layers -> more requests per query
    builder = AirphantBuilder(catalog.store, config=config)
    built = builder.build_from_documents(corpus.documents, index_name="ablation/parallel")
    searcher = AirphantSearcher.open(catalog.store, index_name="ablation/parallel")
    words = sample_query_words(profile, QUERIES, seed=47)

    parallel_ms = []
    sequential_ms = []
    for word in words:
        reads = searcher.searchers[0].mht.range_reads_for(word)
        parallel_ms.append(catalog.store.read_batch(reads, max_concurrency=32).total_ms)
        sequential_ms.append(sum(catalog.store.read_batch([read]).total_ms for read in reads))
    return built, parallel_ms, sequential_ms


def test_ablation_parallel_vs_sequential_fetch(benchmark, catalog):
    built, parallel_ms, sequential_ms = benchmark.pedantic(
        _run, args=(catalog,), rounds=1, iterations=1
    )
    mean_parallel = sum(parallel_ms) / len(parallel_ms)
    mean_sequential = sum(sequential_ms) / len(sequential_ms)
    table = format_table(
        ["fetch strategy", "mean lookup ms"],
        [["parallel batch (Airphant)", mean_parallel], ["sequential reads", mean_sequential]],
    )
    save_result("ablation_parallel_fetch", table)

    # With L = 4 layers the sequential strategy pays ~4 round-trips instead of 1.
    assert built.metadata.num_layers == 4
    assert mean_sequential > 2.5 * mean_parallel
