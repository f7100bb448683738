"""perfbench: the wall-clock benchmark of record.

    python3 perfbench/run.py                          # all four workloads, both passes
    python3 perfbench/run.py --workload heavy_mem     # one workload, in this process
    python3 perfbench/run.py --workload heavy_mem --trace 0   # end-to-end pass only
    python3 perfbench/run.py --workload heavy_mem --trace 1   # per-layer (traced) pass only

Prints every metric by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import catalog, report  # noqa: E402 - needs the path set up above
from perfbench.workloads import INDEX, WORKLOADS  # noqa: E402

#: Scratch space inside the checkout (listed in .gitignore) for the
#: per-workload result files of an all-workloads run.
WORK_DIR = ROOT / "perfbench" / ".work"
DEFAULT_SEED = 14
DEFAULT_SECONDS = 10.0


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    scale: str = "full",
    seconds: float = DEFAULT_SECONDS,
    trace: int | None = None,
) -> dict[str, Any]:
    """Run one workload in this process and return its result record.

    ``trace`` selects the passes: 0 = the untraced end-to-end pass, 1 = the
    traced per-layer pass (with an untraced reference over the same
    operations), ``None`` = both.
    """
    workload = WORKLOADS[name](seed, scale, seconds)
    result: dict[str, Any] = {"workload": name, "attempted": 0, "failed": 0, "failures": []}
    try:
        # The index is rebuilt from scratch several times: set-up time is the
        # median, the last copy serves the end-to-end pass and the one before
        # it (built afresh when there is none) the traced pass.
        sites = []
        setups = []
        for _ in range(workload.setup_repeats if trace != 1 else 1):
            sites = [*sites[-1:], workload.build_site()]
            setups.append(sites[-1].setup_s)
        # The benchmark's own heap (corpora, oracles) is large and static:
        # keep it out of the way of the program's garbage collections.
        gc.collect()
        gc.freeze()

        untraced = None
        if trace != 1:
            untraced = workload.run_pass(sites[-1], traced=False, subsample=False)
            metrics, notes = report.end_to_end(untraced, setups)
            result["end_to_end"] = metrics
            result["notes"] = notes
            result["samples"] = {
                "setups": len(setups),
                "warm_queries": len(untraced.warm),
                "cold_queries": len(untraced.cold),
                "writes": len(untraced.appends),
            }
            result["maintenance"] = {
                "flushes": sum(entry[1] for entry in untraced.maintenance),
                "compactions": sum(entry[2] for entry in untraced.maintenance),
            }
            _count(result, untraced)
        if trace != 0:
            # The traced pass needs a copy of the index no pass has written to.
            if untraced is not None:
                site = sites[0] if len(sites) > 1 else workload.build_site()
            else:
                site = sites[-1]
                untraced = workload.run_pass(site, traced=False, subsample=True, reference=True)
                _count(result, untraced)
                if workload.write_index == INDEX:
                    # The reference pass ran the write script on this copy.
                    site = workload.build_site()
            traced = workload.run_pass(site, traced=True, subsample=True)
            metrics, notes = report.per_layer(name, traced, untraced, site)
            result["per_layer"] = metrics
            result["notes"] = {**result.get("notes", {}), **notes}
            result["spans"] = report.spans_payload(traced)
            _count(result, traced)
    finally:
        workload.close()
    return result


def _count(result: dict[str, Any], samples: Any) -> None:
    result["attempted"] += samples.attempted
    result["failed"] += len(samples.failures)
    result["failures"].extend(samples.failures[:20])


def _format(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    name = result["workload"]
    notes = result.get("notes", {})
    for section in ("end_to_end", "per_layer"):
        for metric, value in result.get(section, {}).items():
            reason = f"  # {notes[metric]}" if metric in notes else ""
            print(f"{name:<13} {metric:<46} {_format(value):>12} {catalog.unit_of(metric)}{reason}")
    if "samples" in result:
        counts = " ".join(f"{key}={count}" for key, count in result["samples"].items())
        print(f"{name:<13} n behind the end-to-end timings: {counts}")
    print(f"{name:<13} attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"{name:<13} FAILED {failure}", file=sys.stderr)


def driver_line(result: dict[str, Any], trace: int | None) -> str:
    """The contract's last line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    metrics: dict[str, dict[str, Any]] = {}
    if trace != 1:
        for metric, unit, _better, _bound in catalog.END_TO_END:
            metrics[metric] = {"value": result["end_to_end"][metric], "unit": unit}
    if trace != 0:
        common = set(catalog.layer_names())
        for metric, unit, _better, _only in catalog.PER_LAYER:
            if metric in common:
                # A probe that produced nothing is null in the report above
                # (with its reason); the driver's line carries numbers only.
                value = result["per_layer"][metric]
                metrics[metric] = {"value": 0.0 if value is None else value, "unit": unit}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def environment(seed: int, scale: str, seconds: float) -> dict[str, Any]:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout (the driver's is not)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes the run: operation counts scale with it (fixed counts, not a deadline)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: per-layer pass only; default: both")
    parser.add_argument("--out", type=Path, help="write the full record (metrics, notes, spans) as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    record: dict[str, Any] = {
        "environment": environment(args.seed, args.scale, args.seconds),
        "workloads": {},
    }
    if args.workload:
        result = run_workload(args.workload, args.seed, args.scale, args.seconds, args.trace)
        record["workloads"][args.workload] = result
        print_result(result)
        last_line = driver_line(result, args.trace)
    else:
        # One process per workload: a fresh metrics registry and a peak RSS
        # that means something.
        failed = attempted = 0
        for name in WORKLOADS:
            part = WORK_DIR / f"result-{os.getpid()}-{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--scale", args.scale, "--out", str(part),
            ]
            if args.trace is not None:
                command += ["--trace", str(args.trace)]
            try:
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = completed.stdout.splitlines()
                print("\n".join(lines[:-1]))
                if completed.returncode != 0:
                    print(f"{name}: exited with {completed.returncode}", file=sys.stderr)
                    return completed.returncode
                result = json.loads(part.read_text())["workloads"][name]
            finally:
                part.unlink(missing_ok=True)
                try:
                    WORK_DIR.rmdir()
                except OSError:
                    pass
            record["workloads"][name] = result
            attempted += result["attempted"]
            failed += result["failed"]
        last_line = json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
        )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    print(last_line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
