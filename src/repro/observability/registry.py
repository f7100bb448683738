"""Thread-safe metrics registry: monotonic counters + bounded histograms.

The paper's evaluation is built on per-request accounting — wait vs. download
time and round-trip counts (Figures 8 and 11) — but a *served* reproduction
needs the same numbers live: how many range reads the pipeline coalesced
away, how often the resilience layer retried or hedged, what the real
backends' request latencies look like, and how long end-to-end queries take.
:class:`MetricsRegistry` is the one accounting path all of those report
into.  Design constraints:

* **Near-zero overhead** — recording is an attribute lookup, one small lock,
  and a dict update; a disabled registry short-circuits to a single branch.
* **Bounded memory** — histograms keep fixed bucket counts (plus sum / count
  / min / max) per label set, never raw samples, so a registry's footprint
  is independent of traffic volume.
* **Thread safety** — every layer records from pool threads (the stores'
  fetch pools, which also run hedged reads, the router's pool, HTTP server
  threads); each metric guards its series map with its own lock.

The registry renders itself three ways: :meth:`MetricsRegistry.snapshot`
(JSON-able, used by ``/healthz`` and ``airphant stats``),
:meth:`MetricsRegistry.to_prometheus` (the ``/metrics`` endpoint), and
plain attribute reads on the metric objects (tests, benchmarks).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping

from repro.observability.prometheus import render_metric

#: Default latency buckets in seconds, spanning sub-millisecond in-memory
#: reads to multi-second cold cloud requests (Prometheus's classic ladder).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_names(name: str, label_names: tuple[str, ...]) -> None:
    if not _METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    for label in label_names:
        if not _LABEL_NAME.match(label):
            raise ValueError(f"invalid label name {label!r} on metric {name!r}")


class Metric:
    """Base of one named metric family (all series sharing a label schema).

    Parameters
    ----------
    name:
        Prometheus-style metric name (``[a-zA-Z_:][a-zA-Z0-9_:]*``).
    help:
        One-line human description, emitted as the ``# HELP`` line.
    label_names:
        Fixed label schema; every record call must supply exactly these.
    registry:
        Owning registry; recording is skipped while it is disabled.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        _validate_names(name, tuple(label_names))
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether record calls currently take effect."""
        return self._registry is None or self._registry.enabled

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        names = self.label_names
        if tuple(labels) == names:  # the declared order: no sets per record
            return tuple(map(str, labels.values()))
        if len(labels) != len(names) or not all(name in labels for name in names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in names)

    def clear(self) -> None:
        """Drop every recorded series (registration survives)."""
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable view of every series."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing counter family."""

    kind = "counter"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be non-negative) to the labeled series."""
        if not self.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        # An unlabeled counter (every mirrored stats field) has nothing to check.
        key = self._key(labels) if labels or self.label_names else ()
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0 when never incremented)."""
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> dict[tuple[str, ...], float]:
        """Copy of every ``label values -> value`` entry."""
        with self._lock:
            return dict(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            values = [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]
            total = sum(self._values.values())
        return {"type": self.kind, "help": self.help, "total": total, "values": values}


class Gauge(Metric):
    """A point-in-time value family: goes up, goes down, or is computed live.

    Two usage styles:

    * **stored** — components call :meth:`set` / :meth:`inc` / :meth:`dec`
      whenever the underlying quantity changes (e.g. memtable document
      counts, labeled per index);
    * **computed** — an unlabeled gauge is bound to a callable with
      :meth:`set_function`; the callable is evaluated at read time
      (snapshot, summary, ``/metrics``), so the exported value is always
      current without any update hooks (e.g. ``airphant_open_indexes``).
    """

    kind = "gauge"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._values: dict[tuple[str, ...], float] = {}
        self._function: Any = None

    def set_function(self, function: Any) -> None:
        """Bind a zero-argument callable evaluated at every read.

        Only unlabeled gauges support computed mode (a callable cannot
        enumerate label sets); re-binding replaces the previous callable,
        which is what a service restart over the shared process registry
        wants — the newest instance answers.
        """
        if self.label_names:
            raise ValueError(
                f"gauge {self.name!r} has labels {self.label_names}; "
                "set_function() only works on unlabeled gauges"
            )
        if function is not None and not callable(function):
            raise TypeError("set_function expects a callable (or None to unbind)")
        with self._lock:
            self._function = function

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled series to ``value``."""
        if not self.enabled:
            return
        key = self._key(labels)
        with self._lock:
            if self._function is not None:
                raise ValueError(
                    f"gauge {self.name!r} is bound to a function; set() is invalid"
                )
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        if not self.enabled:
            return
        key = self._key(labels)
        with self._lock:
            if self._function is not None:
                raise ValueError(
                    f"gauge {self.name!r} is bound to a function; inc() is invalid"
                )
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Subtract ``amount`` from the labeled series."""
        self.inc(-amount, **labels)

    def remove(self, **labels: str) -> None:
        """Drop one labeled series (e.g. an index that no longer exists)."""
        key = self._key(labels)
        with self._lock:
            self._values.pop(key, None)

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0 when never set)."""
        key = self._key(labels)
        with self._lock:
            if self._function is not None:
                return float(self._function()) if self.enabled else 0.0
            return self._values.get(key, 0.0)

    @property
    def total(self) -> float:
        """Sum across every label combination (the computed value if bound)."""
        with self._lock:
            if self._function is not None:
                return float(self._function()) if self.enabled else 0.0
            return sum(self._values.values())

    def series(self) -> dict[tuple[str, ...], float]:
        """Copy of every ``label values -> value`` entry (evaluates callables).

        A function-bound gauge on a *disabled* registry reports no series at
        all: the callable is not evaluated, matching how stored metrics
        record nothing while disabled (and keeping the shared
        ``NULL_REGISTRY`` exposition empty).
        """
        with self._lock:
            if self._function is not None:
                return {(): float(self._function())} if self.enabled else {}
            return dict(self._values)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def snapshot(self) -> dict[str, Any]:
        series = self.series()
        return {
            "type": self.kind,
            "help": self.help,
            "total": sum(series.values()),
            "values": [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(series.items())
            ],
        }


class _HistogramSeries:
    """Bucket counts + running aggregates of one labeled histogram series."""

    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(Metric):
    """A bounded-memory histogram family with quantile estimates.

    Observations are binned into fixed ``buckets`` (upper bounds, in
    ascending order; an implicit ``+Inf`` bucket catches the rest), so
    memory stays constant no matter how many values are observed.
    Quantiles are estimated by linear interpolation inside the bucket the
    target rank falls into — the same estimate ``histogram_quantile`` makes
    on the Prometheus side — with the recorded min/max tightening the first
    and last buckets.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
        registry: "MetricsRegistry | None" = None,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, registry)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labeled series."""
        if not self.enabled:
            return
        value = float(value)
        key = self._key(labels)
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.bucket_counts[index] += 1
            series.count += 1
            series.sum += value
            series.min = min(series.min, value)
            series.max = max(series.max, value)

    # -- reading -----------------------------------------------------------------

    def count(self, **labels: str) -> int:
        """Observations recorded in the labeled series."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series is not None else 0

    def _merged(self, keys: Iterable[tuple[str, ...]]) -> _HistogramSeries:
        merged = _HistogramSeries(len(self.buckets))
        for key in keys:
            series = self._series[key]
            for index, bucket_count in enumerate(series.bucket_counts):
                merged.bucket_counts[index] += bucket_count
            merged.count += series.count
            merged.sum += series.sum
            merged.min = min(merged.min, series.min)
            merged.max = max(merged.max, series.max)
        return merged

    def _quantile(self, series: _HistogramSeries, q: float) -> float:
        if series.count == 0:
            return 0.0
        target = q * series.count
        seen = 0.0
        for index, bucket_count in enumerate(series.bucket_counts):
            if bucket_count == 0:
                continue
            lower = self.buckets[index - 1] if index > 0 else 0.0
            upper = self.buckets[index] if index < len(self.buckets) else series.max
            # Tighten the edge buckets with the actually observed extremes.
            lower = max(lower, series.min) if seen == 0 else lower
            upper = min(upper, series.max)
            if upper < lower:
                upper = lower
            if seen + bucket_count >= target:
                fraction = (target - seen) / bucket_count
                return lower + (upper - lower) * fraction
            seen += bucket_count
        return series.max

    def quantile(self, q: float, **labels: str) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) of the labeled series."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            key = self._key(labels)
            if key not in self._series:
                return 0.0
            return self._quantile(self._series[key], q)

    def _summarize(self, series: _HistogramSeries) -> dict[str, float]:
        if series.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": series.count,
            "sum": series.sum,
            "min": series.min,
            "max": series.max,
            "p50": self._quantile(series, 0.50),
            "p95": self._quantile(series, 0.95),
            "p99": self._quantile(series, 0.99),
        }

    def summary(self, **labels: str) -> dict[str, float]:
        """count / sum / min / max / p50 / p95 / p99 of the labeled series."""
        with self._lock:
            key = self._key(labels)
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
            return self._summarize(series)

    def merged_summary(self) -> dict[str, float]:
        """One summary merging every label combination of this family."""
        with self._lock:
            return self._summarize(self._merged(self._series.keys()))

    def series(self) -> dict[tuple[str, ...], dict[str, Any]]:
        """Per-label-set raw state: cumulative bucket counts, sum, count."""
        with self._lock:
            out: dict[tuple[str, ...], dict[str, Any]] = {}
            for key, series in self._series.items():
                cumulative: list[int] = []
                running = 0
                for bucket_count in series.bucket_counts:
                    running += bucket_count
                    cumulative.append(running)
                out[key] = {
                    "cumulative_buckets": cumulative,
                    "count": series.count,
                    "sum": series.sum,
                }
            return out

    def clear(self) -> None:
        with self._lock:
            self._series.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            values = [
                {"labels": dict(zip(self.label_names, key)), **self._summarize(series)}
                for key, series in sorted(self._series.items())
            ]
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": values,
        }


class MetricsRegistry:
    """A named collection of metrics sharing one enable switch.

    Components default to the process-wide registry
    (:func:`get_registry`); tests and benchmarks hand their own instance to
    whatever they want isolated.  ``enabled=False`` (or :meth:`disable`)
    turns every record call into a single-branch no-op — that is what
    ``ServiceConfig(metrics_enabled=False)`` plugs in.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.RLock()
        self._metrics: dict[str, Metric] = {}

    # -- switches ---------------------------------------------------------------

    def disable(self) -> None:
        """Stop recording (registered metric objects keep working as no-ops)."""
        self.enabled = False

    def enable(self) -> None:
        """Resume recording."""
        self.enabled = True

    # -- registration ------------------------------------------------------------

    def _get_or_create(self, cls: type, name: str, kwargs: dict[str, Any]) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, registry=self, **kwargs)
                return metric
        # Conflicting re-registrations must fail HERE, loudly, not later on
        # the record hot path (a label-schema mismatch would otherwise only
        # surface as a ValueError inside .inc()), and never silently — a
        # histogram whose bucket ladder was silently discarded would corrupt
        # every quantile estimate downstream.
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}, not a {cls.kind}"
            )
        label_names = tuple(kwargs.get("label_names", ()))
        if metric.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels {metric.label_names}, "
                f"not {label_names}"
            )
        buckets = kwargs.get("buckets")
        if buckets is not None and metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets {metric.buckets}, "
                f"not {tuple(buckets)}"
            )
        return metric

    def counter(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
    ) -> Counter:
        """Get or create the counter family ``name``."""
        return self._get_or_create(Counter, name, {"help": help, "label_names": label_names})

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        return self._get_or_create(
            Histogram, name, {"help": help, "label_names": label_names, "buckets": buckets}
        )

    def gauge(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus terminology
        label_names: tuple[str, ...] = (),
    ) -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._get_or_create(Gauge, name, {"help": help, "label_names": label_names})

    def get(self, name: str) -> Metric | None:
        """The registered metric named ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every series while keeping registrations (and object refs) alive.

        Components hold direct references to their Counter/Histogram
        objects, so reset must clear values in place rather than dropping
        the metrics from the registry.
        """
        for metric in self.metrics():
            metric.clear()

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable view of the whole registry.

        Returns
        -------
        ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` — the
        payload ``/healthz`` embeds and ``airphant stats --format json``
        prints.
        """
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, Counter):
                target = counters
            elif isinstance(metric, Gauge):
                target = gauges
            else:
                target = histograms
            target[metric.name] = metric.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def summary(self) -> dict[str, Any]:
        """Compact one-level view: counter totals + merged histogram summaries."""
        out: dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, (Counter, Gauge)):
                out[metric.name] = metric.total
            elif isinstance(metric, Histogram):
                out[metric.name] = metric.merged_summary()
        return out

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format 0.0.4."""
        chunks = [render_metric(metric) for metric in self.metrics()]
        return "".join(chunk for chunk in chunks if chunk)


class _NullMetricsRegistry(MetricsRegistry):
    """The shared permanently-disabled registry behind ``NULL_REGISTRY``.

    It is one process-wide object handed to every ``metrics_enabled=False``
    service, so flipping it on would re-enable recording (and ``/metrics``
    serving) on *all* of them at once — :meth:`enable` therefore refuses.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def enable(self) -> None:
        raise RuntimeError(
            "NULL_REGISTRY is permanently disabled (it is shared by every "
            "metrics_enabled=False service); create your own MetricsRegistry "
            "to record into"
        )


#: The process-wide default registry every instrumented layer reports into
#: unless handed an explicit one.
_DEFAULT_REGISTRY = MetricsRegistry()

#: A permanently disabled registry: plug in wherever recording must be a
#: no-op (``ServiceConfig(metrics_enabled=False)`` hands this around).
NULL_REGISTRY = _NullMetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
