"""Smoke test of the benchmark itself: all four workloads at ``--scale smoke``.

Checks the wiring, not the numbers: every catalogued metric is present with
its unit, no operation fails the oracle, and counts repeat exactly for a
fixed seed.  Kept small (about ten seconds) so tier-1 stays fast.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import catalog, compare
from perfbench.run import driver_line, print_result, run_workload

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that depend only on the inputs, so two runs must agree exactly.
COUNTS = ("requests_per_query", "bytes_per_query", "write_amplification", "stored_bytes_ratio")


@pytest.fixture(scope="module")
def results() -> dict[str, dict]:
    """Both passes of every workload, once."""
    return {name: run_workload(name, scale="smoke") for name in catalog.WORKLOADS}


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_every_metric_is_reported_and_every_answer_correct(results, name, capsys):
    result = results[name]
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    assert result["end_to_end"]["error_rate"] == 0
    for metric, _unit, _better, _bound in catalog.END_TO_END:
        assert result["end_to_end"][metric] > 0, metric
    # ingest_file's smoke script is too short to reach a compaction.
    unmeasured = {"ingest.compact_ms_p50"} if name == "ingest_file" else set()
    assert set(result["per_layer"]) == set(catalog.layer_names(name))
    for metric, value in result["per_layer"].items():
        assert (value is None) == (metric in unmeasured), (metric, result["notes"].get(metric))
    # Every metric is printed by name with its unit.
    print_result(result)
    printed = capsys.readouterr().out
    for metric in (*result["end_to_end"], *result["per_layer"]):
        assert re.search(rf"^{name}\s+{re.escape(metric)}\s+\S+ {re.escape(catalog.unit_of(metric))}", printed, re.M)


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_counts_repeat_exactly_for_a_fixed_seed(results, name):
    again = run_workload(name, scale="smoke", trace=0)
    for metric in COUNTS:
        assert again["end_to_end"][metric] == results[name]["end_to_end"][metric], metric
    assert again["maintenance"] == results[name]["maintenance"]
    assert again["attempted"] < results[name]["attempted"]  # one pass, not two


def test_ingest_smoke_script_flushes(results):
    assert results["ingest_file"]["maintenance"] == {"flushes": 1, "compactions": 0}
    assert results["ingest_file"]["per_layer"]["ingest.flush_count"] == 1


def test_driver_lines_match_benchmark_json(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        catalog.END_TO_END
    )
    assert [m["name"] for m in spec["per_layer"]] == catalog.layer_names()
    for name, result in results.items():
        end_to_end = json.loads(driver_line(result, 0))
        assert set(end_to_end) == {"correct", "attempted", "failed", "metrics"}
        assert end_to_end["correct"] is True
        assert {k: v["unit"] for k, v in end_to_end["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["end_to_end"]
        }
        layers = json.loads(driver_line(result, 1))
        assert {k: v["unit"] for k, v in layers["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec["per_layer"]
        }
        assert all(isinstance(v["value"], float) for v in layers["metrics"].values()), name


def test_compare_flags_a_regression_and_passes_identity(results, capsys):
    record = {"workloads": results}
    assert compare.compare(record, record) == []
    slower = json.loads(json.dumps(record))
    slower["workloads"]["heavy_mem"]["end_to_end"]["query_ms_p50"] *= 1.5
    slower["workloads"]["heavy_mem"]["end_to_end"]["ops_per_s"] *= 0.5
    regressions = compare.compare(record, slower)
    assert len(regressions) == 2 and all("heavy_mem" in line for line in regressions)
    slower["workloads"]["heavy_mem"]["end_to_end"]["error_rate"] = 0.1
    assert any("error_rate" in line for line in compare.compare(record, slower))
    capsys.readouterr()
