"""Golden test: the simulated clock of a fixed, seeded query sequence.

Every paper figure is a function of the simulator's latencies, and those are
a function of the RNG draw order — one ``sample_first_byte_ms`` per physical
request, in request order.  This test replays a fixed sequence (open, keyword,
Boolean, top-K, ranked cold and warm; plain and 4-shard; three
baselines) against a jittered, straggler-prone latency model and compares every
:class:`~repro.search.results.LatencyBreakdown` with values captured before
the store-level ``read_batch`` seam existed (``golden_latency.json``).  A
refactor of the read stack that moves a draw, splits a wave differently or
charges a byte twice fails here first (last: the engine's L⁺ layer drop is
gone, and with it the "hedged" scenario — every other value stayed; before
that, the top-K sample is Equation
6's exact quantile, and "INFO" is a common word, so F₀ = 0 — only the top-K
query's wave-2 draws moved: it reads 5 documents where it read 16, and every
later draw of its scenario moved with them; before that, a sharded build's
statistics are one blob, so the 4-shard index's first ranked lookup wave
reads one stats blob where it read four — three draws fewer, and every later
draw of that index moved up three; before that, stats container v3, so the
first ranked query's lookup wave downloads a smaller stats blob — only its
bytes and download time moved, no draw).

Regenerate (only when a latency change is intended)::

    PYTHONPATH=src:tests python tests/search/test_golden_latency.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.baselines import ElasticLikeEngine, LuceneLikeEngine, SQLiteLikeEngine
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus

GOLDEN = Path(__file__).with_name("golden_latency.json")

KEYWORD_QUERIES = ["ERROR", "INFO Received block", "WARN", "nosuchtoken", "PacketResponder terminating"]
BOOLEAN_QUERIES = ["ERROR OR WARN", "(INFO AND block) OR exception"]
RANKED_QUERIES = ["INFO block", "ERROR"]


def _simulated(backend: InMemoryObjectStore) -> SimulatedCloudStore:
    """A fresh simulated view: jitter and stragglers on, RNG at its seed."""
    model = AffineLatencyModel(
        jitter_sigma=0.2, straggler_probability=0.15, straggler_multiplier=8.0, seed=19
    )
    return SimulatedCloudStore(backend=backend, latency_model=model)


def _build() -> InMemoryObjectStore:
    """Corpus, a plain index, a 4-shard index and three baselines, built untimed."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 400, seed=23)
    documents = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    config = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
    AirphantBuilder(backend, config=config).build_from_documents(documents, index_name="plain")
    AirphantBuilder(backend, config=config, num_shards=4).build_from_documents(
        documents, index_name="sharded"
    )
    for engine in (
        SQLiteLikeEngine(backend, "sqlite"),
        LuceneLikeEngine(backend, "lucene"),
        ElasticLikeEngine(backend, "elastic"),
    ):
        engine.build(documents)
    return backend


def _airphant_sequence(backend: InMemoryObjectStore, index: str) -> dict[str, Any]:
    searcher = AirphantSearcher.open(_simulated(backend), index_name=index)
    observed: dict[str, Any] = {"init_latency_ms": searcher.init_latency_ms}
    for query in KEYWORD_QUERIES:
        observed[f"search:{query}"] = searcher.search(query).latency.to_dict()
    observed["search:INFO top_k=5"] = searcher.search("INFO", top_k=5).latency.to_dict()
    for query in BOOLEAN_QUERIES:
        observed[f"boolean:{query}"] = searcher.search_boolean(query).latency.to_dict()
    observed["lookup:ERROR"] = searcher.lookup_postings("ERROR")[1].to_dict()
    for query in RANKED_QUERIES:
        observed[f"topk_bm25:{query}"] = searcher.search_topk(query, 10).latency.to_dict()
    # The first ranked query read the statistics in its lookup wave; now warm.
    observed[f"topk_bm25:{RANKED_QUERIES[0]} warm"] = searcher.search_topk(
        RANKED_QUERIES[0], 10
    ).latency.to_dict()
    return observed


def _baseline_sequence(backend: InMemoryObjectStore, engine_type: type, name: str) -> dict[str, Any]:
    engine = engine_type(_simulated(backend), name)
    observed: dict[str, Any] = {"init_latency_ms": engine.initialize()}
    for query in KEYWORD_QUERIES:
        observed[f"search:{query}"] = engine.search(query).latency.to_dict()
    observed["lookup:ERROR"] = engine.lookup_postings("ERROR")[1].to_dict()
    return observed


def capture() -> dict[str, Any]:
    """The whole sequence; every scenario starts from a freshly seeded simulator."""
    backend = _build()
    return {
        "plain": _airphant_sequence(backend, "plain"),
        "sharded": _airphant_sequence(backend, "sharded"),
        "sqlite": _baseline_sequence(backend, SQLiteLikeEngine, "sqlite"),
        "lucene": _baseline_sequence(backend, LuceneLikeEngine, "lucene"),
        "elastic": _baseline_sequence(backend, ElasticLikeEngine, "elastic"),
    }


def _flatten(value: Any, prefix: str = "") -> dict[str, float]:
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    flat: dict[str, float] = {}
    for key, child in items:
        flat.update(_flatten(child, f"{prefix}/{key}" if prefix else str(key)))
    return flat


def test_simulated_latencies_match_the_golden_capture():
    expected = _flatten(json.loads(GOLDEN.read_text(encoding="utf-8")))
    observed = _flatten(capture())
    assert observed.keys() == expected.keys()
    moved = {
        key: (observed[key], expected[key])
        for key in expected
        if observed[key] != pytest.approx(expected[key], rel=1e-9, abs=1e-9)
    }
    assert not moved, f"simulated latencies moved (observed, golden): {moved}"


def test_the_sequence_exercises_the_clock():
    """The golden is only worth its name if waves and loads all cost time."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cold, warm = f"topk_bm25:{RANKED_QUERIES[0]}", f"topk_bm25:{RANKED_QUERIES[0]} warm"
    for scenario in ("plain", "sharded"):
        assert golden[scenario]["init_latency_ms"] > 0
        assert golden[scenario]["search:ERROR"]["round_trips"] == 2
        # The first ranked lookup wave also carries the statistics, whose
        # bytes cost download time (a wave's wait is the draw of its
        # slowest first byte: a straggler may make either wave the longer).
        assert golden[scenario][cold]["round_trips"] == 2
        assert golden[scenario][cold]["download_ms"] > golden[scenario][warm]["download_ms"]
        assert golden[scenario][cold]["bytes_fetched"] > golden[scenario][warm]["bytes_fetched"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
