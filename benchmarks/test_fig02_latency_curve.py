"""Figure 2: end-to-end latency vs size of data fetched from cloud storage.

The paper measures an affine curve against Google Cloud Storage: roughly
constant (~50 ms) up to about 2 MB, then growing linearly with the payload.
This benchmark sweeps the same fetch sizes against the simulated store and
reports the mean and standard deviation over 10 runs, like the original plot.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import new_store, save_result
from repro.bench.tables import format_table
from repro.storage.base import RangeRead

#: The fetch sizes of the paper's Figure 2 (1 KB ... 64 MB; the largest sizes
#: are dropped to keep the simulated blob small).
FETCH_SIZES = [2**exponent for exponent in range(10, 27)]  # 1 KiB .. 64 MiB
RUNS_PER_SIZE = 10


def _measure_latency_curve() -> list[list[object]]:
    store = new_store(seed=2, jitter=0.1)
    store.put("payload.bin", b"\x00" * max(FETCH_SIZES))
    rows: list[list[object]] = []
    for size in FETCH_SIZES:
        samples = []
        for _ in range(RUNS_PER_SIZE):
            samples.append(store.read_batch([RangeRead("payload.bin", 0, size)]).total_ms)
        label = f"{size // 1024}KB" if size < 1024 * 1024 else f"{size // (1024 * 1024)}MB"
        rows.append([label, float(np.mean(samples)), float(np.std(samples))])
    return rows


def test_fig02_latency_vs_fetch_size(benchmark):
    rows = benchmark.pedantic(_measure_latency_curve, rounds=1, iterations=1)
    table = format_table(["fetch size", "mean latency (ms)", "std (ms)"], rows)
    save_result("fig02_latency_curve", table)

    latencies = [row[1] for row in rows]
    small = latencies[0]          # 1 KB
    knee = latencies[11]          # 2 MB
    large = latencies[-1]         # 64 MB
    # The paper's shape: flat until ~2 MB, then linear growth.
    assert knee < 3 * small
    assert large > 5 * small
    benchmark.extra_info["latency_1KB_ms"] = small
    benchmark.extra_info["latency_64MB_ms"] = large
