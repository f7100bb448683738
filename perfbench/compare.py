"""Compare perfbench records: ``python3 perfbench/compare.py A.json B.json``.

A is the baseline, B the candidate (both written by ``run.py --out``).  For
every workload and end-to-end metric it prints both values and the signed
change in the metric's "worse" direction against its bound, and exits 1 when
any metric regressed beyond its bound or ``error_rate`` rose.  Run it in both
directions on records of the same code to check that the benchmark agrees
with itself.

Either side may be several records, comma-separated
(``A1.json,A2.json,A3.json B1.json,B2.json,B3.json``): each metric is then the
median over the side's records, which is what a shared box needs — its CPU
speed moves by a third from one minute to the next.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.catalog import END_TO_END  # noqa: E402 - needs the path set up above


def compare(baseline: dict, candidate: dict) -> list[str]:
    """Print the comparison; return one line per regression."""
    regressions = []
    for name, base in baseline["workloads"].items():
        new = candidate["workloads"].get(name)
        if new is None:
            regressions.append(f"{name}: missing from the candidate record")
            continue
        for metric, unit, better, bound in END_TO_END:
            old_value = base["end_to_end"][metric]
            new_value = new["end_to_end"][metric]
            if old_value is None or new_value is None:
                regressions.append(f"{name} {metric}: not measured")
                continue
            change = (new_value - old_value) / old_value
            worse = change if better == "lower" else -change
            verdict = "REGRESSED" if worse > bound else "ok"
            print(
                f"{name:<13} {metric:<22} {old_value:>12.6g} -> {new_value:>12.6g} {unit:<6}"
                f" worse by {worse:+7.2%} (bound {bound:.0%}) {verdict}"
            )
            if worse > bound:
                regressions.append(f"{name} {metric}: worse by {worse:.2%}, bound {bound:.0%}")
        old_errors = base["end_to_end"]["error_rate"]
        new_errors = new["end_to_end"]["error_rate"]
        print(f"{name:<13} {'error_rate':<22} {old_errors:>12.6g} -> {new_errors:>12.6g}")
        if new_errors > old_errors:
            regressions.append(f"{name} error_rate rose from {old_errors:.6g} to {new_errors:.6g}")
    return regressions


def load(paths: str) -> dict:
    """One record, or the per-metric median of several comma-separated ones."""
    records = [json.loads(Path(path).read_text()) for path in paths.split(",")]
    merged: dict = {"workloads": {}}
    for name in records[0]["workloads"]:
        sides = [record["workloads"][name]["end_to_end"] for record in records]
        merged["workloads"][name] = {
            "end_to_end": {
                metric: None
                if any(side[metric] is None for side in sides)
                # One failing run is a failure: errors take the worst record.
                else (max if metric == "error_rate" else statistics.median)(
                    side[metric] for side in sides
                )
                for metric in sides[0]
            }
        }
    return merged


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    baseline, candidate = (load(paths) for paths in argv)
    regressions = compare(baseline, candidate)
    for line in regressions:
        print(f"REGRESSION {line}", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
