"""Measuring instruments: store wrappers, span maths, cProfile attribution.

Everything here lives on the benchmark's side of the public API.  The two
store wrappers sit *under* the service (the service is handed the wrapped
store), so they see exactly the physical calls the program makes.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
from pathlib import Path
from typing import Any, Sequence

import repro
from repro.storage.base import BlobNotFoundError, ObjectStore

SRC_ROOT = Path(repro.__file__).resolve().parent

#: ``src/repro`` packages reported as ``cpu.<layer>.self_ms_per_op``;
#: self time of any other function lands in ``other``.
CPU_LAYERS = (
    "parsing", "core", "index", "search", "storage", "service", "ingest", "observability",
)

#: Built-ins in which the query thread only waits (for pool threads, sockets
#: or an injected delay).  Their time is covered by the store's busy time and
#: is kept out of ``cpu.other`` so it is not counted twice.
_BLOCKING = ("acquire", "sleep", "select", "poll", "recv", "recv_into", "wait", "accept")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: What :func:`speed_loop` reads on the reference box at full speed; it
#: defines the speed at which the end-to-end timings are reported.
REFERENCE_LOOP_S = 0.225e-3

_LOOP_DOCUMENT = json.dumps(
    {"documents": [{"blob": "b", "offset": n, "length": 100, "text": "x" * 80} for n in range(60)]}
)


def speed_loop() -> float:
    """How fast is the box right now?  Seconds a fixed piece of work takes.

    Half interpreter arithmetic, half C-level JSON: the box's slow mode costs
    the first 1.5x and the second 1.8x, and the program's queries 1.55-1.7x.
    The faster of two back-to-back runs, so that an interrupt inside one of
    them does not read as a slow box.
    """
    readings = []
    for _ in range(2):
        started = time.perf_counter()
        accumulator = 0
        for value in range(2000):
            accumulator += value * value % 7
        json.dumps(json.loads(_LOOP_DOCUMENT))
        readings.append(time.perf_counter() - started)
    return min(readings)


class Timed:
    """One timed operation: started on construction, ended by :meth:`stop`.

    The benchmark runs on a shared VM whose virtual CPUs run at one of two
    speeds (:func:`speed_loop` reads 0.22 ms or 0.37 ms), re-drawn whenever a
    CPU wakes from idle and otherwise kept for anything from a fraction of a
    second to minutes; the extra time shows as CPU time, not as steal.  The
    loop is read in the client thread right before and right after the
    operation, never during it, and :attr:`full_speed_s` takes the slow
    mode's share back out of the operation's time.
    """

    def __init__(self) -> None:
        self._loop_s = speed_loop()
        self._cpu = time.process_time()
        self.started = time.perf_counter()

    def stop(self) -> "Timed":
        self.ended = time.perf_counter()
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = self.ended - self.started
        #: How much slower than the reference the box was around the operation.
        self.slowdown = (self._loop_s + speed_loop()) / 2 / REFERENCE_LOOP_S
        return self

    @property
    def full_speed_s(self) -> float:
        """The wall time with the process's CPU share of it at reference speed.

        What is not process CPU time is waiting (sleeps, sockets), which the
        box's speed does not stretch.
        """
        cpu_s = min(self.cpu_s, self.wall_s)
        return self.wall_s - cpu_s + cpu_s / self.slowdown


class _PassThrough(ObjectStore):
    """Delegates every store call to ``inner``; subclasses override what they watch."""

    def __init__(self, inner: ObjectStore) -> None:
        self._inner = inner

    @property
    def inner(self) -> ObjectStore:
        return self._inner

    def get(self, name: str) -> bytes:
        return self._inner.get(name)

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._inner.get_range(name, offset, length)

    def put(self, name: str, data: bytes) -> None:
        self._inner.put(name, data)

    def size(self, name: str) -> int:
        return self._inner.size(name)

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        return self._inner.list_blobs(prefix)

    def close(self) -> None:
        super().close()
        self._inner.close()


class DelayedStore(_PassThrough):
    """Charges every read ``first_byte_s + nbytes / bandwidth`` of real sleep.

    The latency model of ``ranked_delay``: unlike loopback sockets it makes
    *bytes* cost time, so over-fetching shows.  Writes and metadata calls
    are free.  Disabled during set-up (``enabled = False``) so builds are
    not charged.
    """

    def __init__(self, inner: ObjectStore, first_byte_s: float, bytes_per_s: float) -> None:
        super().__init__(inner)
        self._first_byte_s = first_byte_s
        self._bytes_per_s = bytes_per_s
        self.enabled = False

    def _charge(self, data: bytes) -> bytes:
        if self.enabled:
            time.sleep(self._first_byte_s + len(data) / self._bytes_per_s)
        return data

    def get(self, name: str) -> bytes:
        return self._charge(self._inner.get(name))

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._charge(self._inner.get_range(name, offset, length))


class MeteredStore(_PassThrough):
    """Counts (and, when tracing, times) every physical store call.

    Always on: ``reads``/``read_bytes`` (``get`` + ``get_range``),
    ``puts``/``put_bytes`` and ``failed_reads`` (a read that raised anything
    but "no such blob").  With ``tracing = True`` each read additionally
    appends a span ``(start, end, nbytes, thread id, blob)`` to ``spans``.
    The benchmark is a closed loop with one client, so a call belongs to the
    operation whose time window contains it.
    """

    def __init__(self, inner: ObjectStore) -> None:
        super().__init__(inner)
        self._lock = threading.Lock()
        self.tracing = False
        self.reads = 0
        self.read_bytes = 0
        self.puts = 0
        self.put_bytes = 0
        self.failed_reads = 0
        self.spans: list[tuple[float, float, int, int, str]] = []

    def counters(self) -> tuple[int, int, int, int]:
        """``(reads, read_bytes, puts, put_bytes)`` right now."""
        with self._lock:
            return self.reads, self.read_bytes, self.puts, self.put_bytes

    def _read(self, name: str, call: Any) -> bytes:
        started = time.perf_counter() if self.tracing else 0.0
        try:
            data = call()
        except BlobNotFoundError:
            with self._lock:
                self.reads += 1
            raise
        except Exception:
            with self._lock:
                self.reads += 1
                self.failed_reads += 1
            raise
        ended = time.perf_counter() if self.tracing else 0.0
        with self._lock:
            self.reads += 1
            self.read_bytes += len(data)
            if self.tracing:
                self.spans.append((started, ended, len(data), threading.get_ident(), name))
        return data

    def get(self, name: str) -> bytes:
        return self._read(name, lambda: self._inner.get(name))

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._read(name, lambda: self._inner.get_range(name, offset, length))

    def put(self, name: str, data: bytes) -> None:
        self._inner.put(name, data)
        with self._lock:
            self.puts += 1
            self.put_bytes += len(data)


def read_stats(spans: Sequence[tuple[float, float, int, int, str]]) -> dict[str, float]:
    """Statistics of the read spans of one operation.

    ``waves`` counts maximal groups of time-overlapping reads (each costs at
    least one first-byte latency); ``busy_s`` is the union of the read
    intervals; ``max_inflight`` the largest number of reads open at once.
    """
    ordered = sorted(spans)
    waves = 0
    busy = 0.0
    wave_end = float("-inf")
    for span_start, span_end, *_ in ordered:
        if span_start >= wave_end:
            waves += 1
            busy += span_end - span_start
            wave_end = span_end
        elif span_end > wave_end:
            busy += span_end - wave_end
            wave_end = span_end
    # Ends sort before starts at equal times, so back-to-back reads do not
    # count as overlapping.
    edges = sorted([(span[0], 1) for span in ordered] + [(span[1], -1) for span in ordered])
    inflight = peak = 0
    for _, step in edges:
        inflight += step
        peak = max(peak, inflight)
    return {
        "reads": len(ordered),
        "bytes": sum(span[2] for span in ordered),
        "waves": waves,
        "busy_s": busy,
        "max_inflight": peak,
    }


class LayerProfile:
    """``cProfile`` around chosen calls, aggregated by ``src/repro`` package."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.calls = 0

    def run(self, function: Any, *args: Any) -> Any:
        """Call ``function(*args)`` under the profiler and return its result."""
        self.calls += 1
        self._profile.enable()
        try:
            return function(*args)
        finally:
            self._profile.disable()

    def summary(self) -> dict[str, float]:
        """Per-call milliseconds: self time by layer, blocked time, two cumulatives.

        Keys: one per :data:`CPU_LAYERS` plus ``other`` (self time),
        ``blocked`` (self time of waiting built-ins), ``decode_superpost``
        and ``intersect_all`` (cumulative time, looked up by function name).
        A function with a source file belongs to that file's layer.  Built-ins
        and generated code (``set.add``, a dataclass ``__hash__``) have no
        file: their self time is charged to the layers of their callers, in
        proportion — hashing postings into a set is the decoder's work.
        """
        if not self.calls:
            raise ValueError("nothing was profiled")
        stats = pstats.Stats(self._profile).stats  # type: ignore[attr-defined]
        resolved: dict[tuple, dict[str, float]] = {}

        def layers_of(key: tuple) -> dict[str, float]:
            """``{layer: share}`` of ``key``'s self time."""
            if key in resolved:
                return resolved[key]
            filename, _line, function = key
            shares = {"other": 1.0}
            if filename not in ("~", "<string>"):
                try:
                    relative = Path(filename).resolve().relative_to(SRC_ROOT)
                except ValueError:
                    relative = Path()
                if len(relative.parts) > 1 and relative.parts[0] in CPU_LAYERS:
                    shares = {relative.parts[0]: 1.0}
            elif any(f" '{name}' " in function or f".{name}>" in function for name in _BLOCKING):
                shares = {"blocked": 1.0}
            else:
                callers = stats[key][4]
                total = sum(edge[2] for edge in callers.values())
                if total > 0:
                    resolved[key] = shares  # a call cycle among file-less functions ends here
                    shares = {}
                    for caller, edge in callers.items():
                        for layer, share in layers_of(caller).items():
                            shares[layer] = shares.get(layer, 0.0) + share * edge[2] / total
            resolved[key] = shares
            return shares

        totals = {layer: 0.0 for layer in (*CPU_LAYERS, "other", "blocked")}
        cumulative = {"decode_superpost": 0.0, "intersect_all": 0.0}
        for key, (_cc, _nc, self_s, cumulative_s, _callers) in stats.items():
            for layer, share in layers_of(key).items():
                totals[layer] += self_s * share
            if key[2] in cumulative and layers_of(key).keys() <= set(CPU_LAYERS):
                cumulative[key[2]] += cumulative_s
        per_call = 1000.0 / self.calls
        return {key: value * per_call for key, value in {**totals, **cumulative}.items()}
