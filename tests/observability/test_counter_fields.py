"""Each stats counter is declared once, on its field, and keeps its name.

A field made by :func:`repro.observability.stats.counter` names its
registry counter; ``bind`` and ``to_dict`` are derived from the fields.
These tests pin what that derivation must keep producing — the counter
names and help strings ``/metrics`` serves, and the ``to_dict`` keys
benchmarks read — and that docs/OBSERVABILITY.md lists every counter.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from repro.observability import MetricsRegistry
from repro.storage.metrics import StorageMetrics
from repro.storage.pipeline import PipelineStats
from repro.storage.resilient import ResilienceStats

STATS = (PipelineStats, ResilienceStats, StorageMetrics)
DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: Counter name -> help string, as ``/metrics`` has always served them.
SERVED = {
    "airphant_pipeline_logical_requests_total": "Logical range reads handed to the read pipeline",
    "airphant_pipeline_physical_requests_total": (
        "Physical range reads the pipeline issued to the store"
    ),
    "airphant_pipeline_batches_total": "Physical batches issued (at most one per pipeline fetch)",
    "airphant_pipeline_cache_hits_total": "Logical requests answered from the block cache",
    "airphant_pipeline_cache_misses_total": "Logical requests that needed bytes from the store",
    "airphant_pipeline_coalesced_requests_total": (
        "Logical requests folded into a wider or shared physical request"
    ),
    "airphant_pipeline_bytes_requested_total": (
        "Bytes covered by logical requests (what raw fetching would transfer)"
    ),
    "airphant_pipeline_bytes_fetched_total": "Bytes actually transferred from the store",
    "airphant_resilience_operations_total": "Store operations entering the retry/hedge machinery",
    "airphant_resilience_attempts_total": "Individual store attempts (each retry adds one)",
    "airphant_resilience_retries_total": "Attempts beyond the first of their operation",
    "airphant_resilience_recoveries_total": (
        "Operations rescued by a later attempt after failing at least once"
    ),
    "airphant_resilience_failures_total": "Operations that failed even after every allowed retry",
    "airphant_resilience_timeouts_total": (
        "Attempts abandoned for exceeding the per-request timeout"
    ),
    "airphant_resilience_hedges_total": "Duplicate (hedge) requests launched",
    "airphant_resilience_hedge_wins_total": "Hedge requests that finished before their primary",
    "airphant_sim_requests_total": "Simulated storage requests recorded",
    "airphant_sim_round_trips_total": "Logical round trips charged on the virtual clock",
    "airphant_sim_bytes_total": "Bytes transferred by simulated requests",
    "airphant_sim_wait_ms_total": "Summed first-byte wait time of simulated requests (ms)",
    "airphant_sim_download_ms_total": "Summed transfer time of simulated requests (ms)",
}


def declared() -> list[tuple[str, str]]:
    """``(metric, help)`` of every counter field of the stats classes."""
    return [field.metadata["metric"] for cls in STATS for field in fields(cls)]


def test_bind_registers_the_served_names_and_help_strings():
    registry = MetricsRegistry()
    for cls in STATS:
        cls().bind(registry)
    assert {metric.name: metric.help for metric in registry.metrics()} == SERVED
    assert dict(declared()) == SERVED


def test_every_declared_counter_is_documented_by_its_full_name():
    text = DOC.read_text(encoding="utf-8")
    assert [name for name, _ in declared() if f"`{name}`" not in text] == []


@pytest.mark.parametrize(
    "cls, keys",
    [
        (
            PipelineStats,
            "requests_in requests_out requests_saved batches cache_hits cache_misses "
            "coalesced_requests bytes_requested bytes_fetched",
        ),
        (
            ResilienceStats,
            "operations attempts retries recoveries failures timeouts hedges hedge_wins "
            "hedge_win_rate retry_win_rate",
        ),
    ],
)
def test_to_dict_keeps_its_keys_and_derived_values(cls, keys):
    stats = cls()
    stats.add(**{field.name: index + 1 for index, field in enumerate(fields(cls))})
    payload = stats.to_dict()
    assert set(payload) == set(keys.split())
    for field in fields(cls):
        assert payload[field.name] == getattr(stats, field.name)
    if cls is PipelineStats:
        assert payload["requests_saved"] == stats.requests_in - stats.requests_out == -1
    else:
        assert payload["hedge_win_rate"] == 8 / 7
        assert payload["retry_win_rate"] == 4 / (4 + 5)
    assert stats.snapshot() == payload
