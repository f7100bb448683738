"""Ablation: storage-backend resilience (retries + hedged reads) under faults.

Unlike the other benchmarks (virtual-clock simulation), this one runs on the
*wall clock*: the index lives in memory behind a
:class:`~repro.storage.faults.FlakyStore` that injects real sleeps ("slow
replicas") and real transient errors, and a
:class:`~repro.storage.resilient.ResilientStore` wraps it exactly the way
``airphant search --store URI --retries N --hedge-ms D`` would.  The same
query workload replays under four scenarios:

* ``clean``          — no faults, no resilience: the baseline floor;
* ``slow-unhedged``  — stragglers injected, hedging off: p99 collapses to
  the straggler delay (one slow read stalls the whole query batch);
* ``slow-hedged``    — same faults, hedged duplicate reads on: the hedge
  races past the straggler, cutting p99 back down;
* ``flaky-retried``  — transient errors injected, bounded retries on: every
  query still answers, and the retry win rate is recorded.

The machine-readable record (tail latencies, retry/hedge win rates, injected
fault counts) lands in ``results/BENCH_backends.json``.  Set
``AIRPHANT_BENCH_SMOKE=1`` for the tiny CI configuration.
"""

from __future__ import annotations

import time

from benchmarks.conftest import save_json, save_result, smoke_mode
from repro.bench.tables import format_table
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.observability import MetricsRegistry
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.storage.faults import FlakyStore
from repro.storage.memory import InMemoryObjectStore
from repro.storage.resilient import ResilientStore
from repro.workloads.logs import generate_log_corpus

INDEX_NAME = "ablation/backends"


def _settings():
    if smoke_mode():
        return {
            "documents": 400,
            "queries": 15,
            "bins": 256,
            "top_k": 5,
            "slow_ms": 15.0,
            "slow_rate": 0.05,
            "error_rate": 0.05,
            "hedge_ms": 4.0,
        }
    return {
        "documents": 4_000,
        "queries": 60,
        "bins": 2_048,
        "top_k": 5,
        "slow_ms": 40.0,
        "slow_rate": 0.03,
        "error_rate": 0.05,
        "hedge_ms": 5.0,
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[index]


def _sample_queries(documents, count: int) -> list[str]:
    """One rare-ish term per sampled document, so every query matches and
    keeps its candidate set small (the tail is dominated by lookups, not by
    a giant document-retrieval batch)."""
    tokenizer = WhitespaceAnalyzer()
    queries: list[str] = []
    step = max(1, len(documents) // count)
    for document in documents[::step]:
        terms = sorted(tokenizer.distinct_terms(document.text))
        if terms:
            queries.append(terms[-1])
        if len(queries) == count:
            break
    return queries


def _replay(store, queries: list[str], top_k: int) -> tuple[list[float], int]:
    """Open the index over ``store`` and replay ``queries``, timing each."""
    searcher = AirphantSearcher.open(store, index_name=INDEX_NAME)
    latencies: list[float] = []
    results = 0
    for query in queries:
        started = time.perf_counter()
        result = searcher.search(query, top_k=top_k)
        latencies.append((time.perf_counter() - started) * 1000.0)
        results += result.num_results
    searcher.close()
    store.close()
    return latencies, results


def _run():
    settings = _settings()
    base = InMemoryObjectStore()
    corpus = generate_log_corpus(
        base, "hdfs", num_documents=settings["documents"], name="backends", seed=31
    )
    AirphantBuilder(
        base,
        config=SketchConfig(num_bins=settings["bins"], target_false_positives=1.0, seed=7),
    ).build_from_documents(corpus.documents, index_name=INDEX_NAME)
    queries = _sample_queries(corpus.documents, settings["queries"])

    scenarios = {}

    def _scenario(name, error_rate=0.0, slow_rate=0.0, retries=0, hedge_ms=0.0):
        # One private registry per scenario: the recorded counters are
        # exactly this replay's, not the whole process's.
        registry = MetricsRegistry()
        flaky = FlakyStore(
            base,
            error_rate=error_rate,
            slow_rate=slow_rate,
            slow_ms=settings["slow_ms"],
            seed=5,
        )
        store = ResilientStore(
            flaky,
            retries=retries,
            backoff_ms=2.0,
            backoff_jitter=0.1,
            hedge_ms=hedge_ms,
            seed=13,
            metrics=registry,
        )
        latencies, results = _replay(store, queries, settings["top_k"])
        ordered = sorted(latencies)
        scenarios[name] = {
            "p50_ms": _percentile(ordered, 50),
            "p95_ms": _percentile(ordered, 95),
            "p99_ms": _percentile(ordered, 99),
            "max_ms": ordered[-1],
            "mean_ms": sum(ordered) / len(ordered),
            "total_results": results,
            "injected_errors": flaky.injected_errors,
            "injected_slow": flaky.injected_slow,
            "resilience": store.stats.to_dict(),
            # The registry view of the same accounting (what GET /metrics
            # would export for this traffic) — must agree with the stats.
            "registry_counters": {
                name: value
                for name, value in registry.summary().items()
                if name.startswith("airphant_resilience_")
            },
        }

    _scenario("clean")
    _scenario("slow-unhedged", slow_rate=settings["slow_rate"], retries=1)
    _scenario(
        "slow-hedged",
        slow_rate=settings["slow_rate"],
        retries=1,
        hedge_ms=settings["hedge_ms"],
    )
    _scenario("flaky-retried", error_rate=settings["error_rate"], retries=5)
    return settings, queries, scenarios


def test_ablation_backends(benchmark):
    settings, queries, scenarios = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = [
        [
            name,
            round(entry["p50_ms"], 2),
            round(entry["p99_ms"], 2),
            round(entry["mean_ms"], 2),
            entry["resilience"]["retries"],
            entry["resilience"]["hedges"],
            entry["resilience"]["hedge_wins"],
        ]
        for name, entry in scenarios.items()
    ]
    save_result(
        "ablation_backends",
        format_table(
            ["scenario", "p50 ms", "p99 ms", "mean ms", "retries", "hedges", "hedge wins"],
            rows,
        ),
    )
    save_json(
        "BENCH_backends",
        {
            "experiment": "backends_resilience_ablation",
            "clock": "wall",
            "queries": len(queries),
            "settings": settings,
            "smoke_mode": smoke_mode(),
            "scenarios": scenarios,
        },
    )

    # Every scenario must answer the full workload with identical results
    # (faults may slow queries down but can never change their answers).
    totals = {entry["total_results"] for entry in scenarios.values()}
    assert len(totals) == 1 and totals.pop() > 0

    # Slow replicas were actually injected in both slow scenarios...
    assert scenarios["slow-unhedged"]["injected_slow"] > 0
    assert scenarios["slow-hedged"]["injected_slow"] > 0
    # ...hedges fired and won against them...
    assert scenarios["slow-hedged"]["resilience"]["hedges"] > 0
    assert scenarios["slow-hedged"]["resilience"]["hedge_wins"] > 0
    # ...and hedged reads cut the p99 tail versus no hedging.
    assert scenarios["slow-hedged"]["p99_ms"] < scenarios["slow-unhedged"]["p99_ms"]

    # Transient errors were injected, retried, and fully absorbed.
    retried = scenarios["flaky-retried"]
    assert retried["injected_errors"] > 0
    assert retried["resilience"]["retries"] > 0
    assert retried["resilience"]["failures"] == 0
    assert retried["resilience"]["retry_win_rate"] == 1.0

    # The registry mirror agrees with the stats object in every scenario.
    for entry in scenarios.values():
        counters = entry["registry_counters"]
        assert counters["airphant_resilience_retries_total"] == entry["resilience"]["retries"]
        assert counters["airphant_resilience_hedges_total"] == entry["resilience"]["hedges"]
