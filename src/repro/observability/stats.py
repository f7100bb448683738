"""Shared machinery for registry-mirrored per-component stats objects.

``PipelineStats``, ``ResilienceStats``, and the simulated store's
``StorageMetrics`` all follow one pattern: a plain-attribute stats object
whose every update must be (a) atomic — pool threads, hedge workers, and
HTTP server threads report concurrently — and (b) mirrored into a
:class:`~repro.observability.registry.MetricsRegistry` so live serving and
the paper figures share one accounting path.  :class:`MirroredStats` is
that pattern, written once: a subclass declares each counter once, as a
dataclass field made by :func:`counter` (which names its metric), and gets
:meth:`bind`, :meth:`add`, :meth:`snapshot` and :meth:`to_dict` for free.
"""

from __future__ import annotations

import threading
from dataclasses import field, fields
from typing import Any

from repro.observability.registry import Counter, MetricsRegistry


def counter(metric: str, help: str) -> Any:
    """A stats field starting at 0, mirrored as the registry counter
    ``metric`` (described by ``help``)."""
    return field(default=0, metadata={"metric": (metric, help)})


class MirroredStats:
    """Lock-protected counters that mirror increments into a registry.

    Designed to be mixed into a ``@dataclass`` whose fields are
    :func:`counter` s: the dataclass-generated ``__init__`` calls
    :meth:`__post_init__`, which sets up the lock.
    """

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] | None = None

    def bind(self, metrics: MetricsRegistry) -> "MirroredStats":
        """Mirror future :meth:`add` increments into ``metrics``; returns self."""
        self._counters = {
            declared.name: metrics.counter(*declared.metadata["metric"])
            for declared in fields(self)  # type: ignore[arg-type]
        }
        return self

    def add(self, **deltas: int | float) -> None:
        """Atomically add ``field=delta`` increments (and mirror them)."""
        counters = self._counters
        with self._lock:
            values = vars(self)
            for field_name, delta in deltas.items():
                if delta:
                    values[field_name] += delta
                    if counters is not None:
                        counters[field_name].inc(delta)

    def snapshot(self) -> dict[str, Any]:
        """Consistent point-in-time copy (same shape as ``to_dict()``)."""
        with self._lock:
            return self.to_dict()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation: every counter by field name."""
        counters = fields(self)  # type: ignore[arg-type]
        return {declared.name: getattr(self, declared.name) for declared in counters}
