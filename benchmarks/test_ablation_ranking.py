"""Ablation: BM25 top-k ranked retrieval vs unranked membership.

Two questions, one record:

* **Cost** — on the fig06 log corpora, what does ranking add to (or save
  from) query latency and bytes fetched?  Ranked queries score candidates
  from the persisted stats blob and fetch text only for the final top-k, so
  on head-heavy traffic they download *less* than membership queries, which
  must retrieve every candidate to filter false positives.  Both sides
  replay the identical occurrence-weighted workload over identically seeded
  simulated stores.
* **Quality** — on the Cranfield-shaped corpus with synthetic graded
  judgments, how much better is the BM25 ordering than posting order?
  nDCG@10 for both systems, measured by the same ``harness.relevance``
  helpers the regression tests assert on.

A member's first ranked query reads the build's whole ``stats.json`` inside
its lookup wave, so bytes are reported three ways per mode: the mean over
every query, the first query's alone, and the mean of the warm rest.

The machine-readable record lands in ``results/BENCH_ranking.json`` so
ranking regressions are caught PR over PR.  Set ``AIRPHANT_BENCH_SMOKE=1``
for CI smoke mode (tiny corpora, same quality floors).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from benchmarks.conftest import new_store, save_json, save_result, smoke_mode
from harness.relevance import evaluate_rankings
from repro.bench.tables import format_table
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.profiling.profiler import profile_documents
from repro.search.searcher import AirphantSearcher
from repro.storage.latency import AffineLatencyModel
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.cranfield import generate_cranfield, generate_judged_queries
from repro.workloads.logs import generate_log_corpus
from repro.workloads.queries import sample_query_words

#: Ranked result count for the cost comparison (the mode's default k).
RANKED_K = 10

#: CI quality gate, shared with tests/search/test_ranking_quality.py.
NDCG_FLOOR = 0.85
NDCG_MARGIN = 0.05


def _settings():
    if smoke_mode():
        return {
            "corpora": ("hdfs", "zipf"),
            "documents": 1_200,
            "queries": 15,
            "bins": 512,
            "judged_queries": 10,
            "cranfield": dict(num_documents=400, vocabulary_size=1500, words_per_document=60),
            "judged_band": dict(min_df=8, max_df=200, min_matches=8),
        }
    return {
        "corpora": ("hdfs", "windows", "spark", "zipf"),
        "documents": 12_000,
        "queries": 60,
        "bins": 2048,
        "judged_queries": 20,
        "cranfield": {},
        "judged_band": {},
    }


def _generate(store, kind: str, documents: int):
    if kind == "zipf":
        from repro.workloads.synthetic import SyntheticSpec, generate_zipf

        spec = SyntheticSpec(
            num_documents=documents, num_words=documents // 2, words_per_document=10
        )
        return generate_zipf(store, spec, name="ranking-zipf", seed=11)
    return generate_log_corpus(
        store, kind, num_documents=documents, name=f"ranking-{kind}", seed=11
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
    config = SketchConfig(num_bins=settings["bins"], target_false_positives=1.0, seed=7)
    index_name = f"ablation/ranking-{kind}"
    AirphantBuilder(store, config=config).build_from_documents(
        corpus.documents, index_name=index_name
    )
    words = sample_query_words(profile, settings["queries"], seed=71, mode="occurrence")

    record: dict[str, dict] = {}
    for label in ("membership", "topk_bm25"):
        searcher = AirphantSearcher.open(_replay_store(store.backend), index_name=index_name)
        latencies: list[float] = []
        fetched: list[int] = []
        results = 0
        subset_violations = 0
        membership_refs: list[set] = record.get("membership_refs", [])
        for position, word in enumerate(words):
            if label == "membership":
                result = searcher.search(word)
                membership_refs.append({d.ref for d in result.documents})
            else:
                result = searcher.search_topk(word, k=RANKED_K)
                if not {d.ref for d in result.documents} <= membership_refs[position]:
                    subset_violations += 1
            latencies.append(result.latency.total_ms)
            fetched.append(result.latency.bytes_fetched)
            results += result.num_results
        if label == "membership":
            record["membership_refs"] = membership_refs
        searcher.close()
        record[label] = {
            "bytes_fetched_per_query": sum(fetched) / len(words),
            "first_query_bytes": fetched[0],
            "warm_bytes_fetched_per_query": sum(fetched[1:]) / max(len(words) - 1, 1),
            "p50_ms": _percentile(latencies, 0.50),
            "p99_ms": _percentile(latencies, 0.99),
            "mean_ms": sum(latencies) / len(latencies),
            "total_results": results,
            "subset_violations": subset_violations,
        }
    record.pop("membership_refs")
    for ratio, mean in (
        ("bytes_per_query_ratio", "bytes_fetched_per_query"),
        ("warm_bytes_per_query_ratio", "warm_bytes_fetched_per_query"),
    ):
        record[ratio] = record["membership"][mean] / max(record["topk_bm25"][mean], 1e-9)
    return record


def _run_quality(settings) -> dict:
    """Cranfield quality: BM25 order vs posting order, same judged queries."""
    store = new_store(seed=1)
    corpus = generate_cranfield(store, seed=11, **settings["cranfield"])
    queries = generate_judged_queries(
        corpus, num_queries=settings["judged_queries"], seed=11, **settings["judged_band"]
    )
    AirphantBuilder(store).build_from_documents(corpus.documents, index_name="ablation/ranking-cran")
    searcher = AirphantSearcher.open(store, index_name="ablation/ranking-cran")
    line_numbers = {document.ref: line for line, document in enumerate(corpus.documents)}
    bm25_rankings, baseline_rankings, judgment_maps = [], [], []
    for judged in queries:
        ranked = searcher.search_topk(judged.query, k=RANKED_K)
        bm25_rankings.append([line_numbers[d.ref] for d in ranked.documents])
        membership = searcher.search(judged.query)
        baseline_rankings.append([line_numbers[d.ref] for d in membership.documents][:RANKED_K])
        judgment_maps.append(judged.judgments)
    searcher.close()
    return {
        "num_judged_queries": len(queries),
        "bm25": evaluate_rankings(bm25_rankings, judgment_maps, k=RANKED_K),
        "membership_baseline": evaluate_rankings(baseline_rankings, judgment_maps, k=RANKED_K),
    }


def _run(_catalog):
    settings = _settings()
    by_corpus = {kind: _run_corpus(kind, settings) for kind in settings["corpora"]}
    quality = _run_quality(settings)
    return settings, by_corpus, quality


def test_ablation_ranking(benchmark, catalog):
    settings, by_corpus, quality = benchmark.pedantic(
        _run, args=(catalog,), rounds=1, iterations=1
    )

    rows = []
    for kind, record in by_corpus.items():
        for label in ("membership", "topk_bm25"):
            entry = record[label]
            rows.append(
                [
                    kind,
                    label,
                    round(entry["bytes_fetched_per_query"], 1),
                    float(entry["first_query_bytes"]),
                    round(entry["warm_bytes_fetched_per_query"], 1),
                    round(entry["p50_ms"], 2),
                    round(entry["p99_ms"], 2),
                    entry["total_results"],
                ]
            )
        rows.append(
            [
                kind,
                "bytes ratio",
                f"{record['bytes_per_query_ratio']:.2f}x",
                "",
                f"{record['warm_bytes_per_query_ratio']:.2f}x",
                "",
                "",
                "",
            ]
        )
    table = format_table(
        [
            "corpus", "mode", "bytes/query", "first query bytes", "warm bytes/query",
            "p50 ms", "p99 ms", "results",
        ],
        rows,
    )
    note = (
        "cranfield quality over {n} judged queries: nDCG@10 {bm:.3f} (bm25) vs "
        "{base:.3f} (posting order)".format(
            n=quality["num_judged_queries"],
            bm=quality["bm25"][f"ndcg@{RANKED_K}"],
            base=quality["membership_baseline"][f"ndcg@{RANKED_K}"],
        )
    )
    save_result("ablation_ranking", table + "\n" + note)
    save_json(
        "BENCH_ranking",
        {
            "experiment": "ranking_ablation",
            "smoke_mode": smoke_mode(),
            "documents_per_corpus": settings["documents"],
            "queries": settings["queries"],
            "ranked_k": RANKED_K,
            "by_corpus": by_corpus,
            "cranfield_quality": quality,
        },
    )

    for kind, record in by_corpus.items():
        # The ranked mode's answer set is always contained in membership's.
        assert record["topk_bm25"]["subset_violations"] == 0, kind
        assert 0 < record["topk_bm25"]["total_results"] <= record["membership"]["total_results"]
        # Fetch-only-the-winners: ranked queries must move fewer bytes than
        # membership on head-heavy traffic (candidates >> k).
        assert record["bytes_per_query_ratio"] > 1.0, kind

    # The same quality gate CI asserts in tests/search/test_ranking_quality.py.
    bm25_ndcg = quality["bm25"][f"ndcg@{RANKED_K}"]
    baseline_ndcg = quality["membership_baseline"][f"ndcg@{RANKED_K}"]
    assert bm25_ndcg >= NDCG_FLOOR
    assert bm25_ndcg >= baseline_ndcg + NDCG_MARGIN

    benchmark.extra_info["bytes_per_query_ratios"] = {
        kind: round(record["bytes_per_query_ratio"], 3) for kind, record in by_corpus.items()
    }
    benchmark.extra_info["warm_bytes_per_query_ratios"] = {
        kind: round(record["warm_bytes_per_query_ratio"], 3) for kind, record in by_corpus.items()
    }
    benchmark.extra_info["ndcg_at_10"] = {"bm25": round(bm25_ndcg, 4), "baseline": round(baseline_ndcg, 4)}
