"""Re-measure what set ``repro.core.superpost.CROSSOVER``.

    PYTHONPATH=src python scripts/measure_crossover.py

For posting lists of several lengths, times (best of five, µs) decoding one v2
payload through the scalar decoder (a tuple of ``Posting``) and through the
vectorised one (columns), and one keyword lookup either way: three layers
decoded, intersected, and the first 23 candidates materialised.  The crossover
belongs where the second pair of columns crosses; the end-to-end check is
``perfbench/run.py --workload ingest_file`` (lists of 1-36 postings, must not
move) against ``--workload heavy_mem`` (200-5 000, must keep its gain).
"""

from __future__ import annotations

import random
import timeit

from repro.core.superpost import CROSSOVER, Superpost
from repro.index.serialization import (
    FORMAT_V2,
    StringTable,
    decode_superpost_columns,
    decode_superpost_scalar,
    encode_superpost,
)
from repro.parsing.documents import Posting


def _best_us(function, repeats: int) -> float:
    return min(timeit.repeat(function, number=repeats, repeat=5)) / repeats * 1e6


def main() -> None:
    rng = random.Random(14)
    print(f"CROSSOVER = {CROSSOVER} postings ({2 * CROSSOVER} payload bytes)")
    print(f"{'postings':>8} {'bytes':>6} {'decode: scalar':>15} {'columns':>8} "
          f"{'lookup: scalar':>15} {'columns':>8}")
    for count in (3, 10, 32, 64, 128, 300, 1000, 3339):
        def posting() -> Posting:
            return Posting("corpus/hdfs.txt", rng.randrange(4_000_000), rng.randint(40, 160))

        shared = {posting() for _ in range(max(1, count // 2))}
        table = StringTable()
        payloads = []
        for _ in range(3):
            layer = set(shared)
            while len(layer) < count:
                layer.add(posting())
            payloads.append(encode_superpost(layer, table, FORMAT_V2))

        def scalar(payload: bytes) -> Superpost:
            return Superpost.ordered(decode_superpost_scalar(payload, table, FORMAT_V2))

        def columns(payload: bytes) -> Superpost:
            return decode_superpost_columns(payload, table, FORMAT_V2)

        def lookup(decode) -> list[Posting]:
            return Superpost.intersect_all([decode(p) for p in payloads]).take(0, 23)

        assert lookup(scalar) == lookup(columns)
        repeats = max(5, 20_000 // count)
        print(f"{count:>8} {len(payloads[0]):>6} "
              f"{_best_us(lambda: scalar(payloads[0]), repeats):>15.1f} "
              f"{_best_us(lambda: columns(payloads[0]), repeats):>8.1f} "
              f"{_best_us(lambda: lookup(scalar), repeats):>15.1f} "
              f"{_best_us(lambda: lookup(columns), repeats):>8.1f}")


if __name__ == "__main__":
    main()
