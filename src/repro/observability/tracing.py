"""Request-scoped distributed tracing with zero dependencies.

The metrics registry answers "how is the fleet doing"; this module answers
"why was *this* query slow".  Airphant's design thesis is that query latency
is dominated by cloud-storage round-trip waves (the paper's two-wave read
path, §IV), so the unit of observability here is the **span tree of one
request**: every pipeline fetch wave, store attempt, hedge, routed peer
and tombstone filter of a single query, nested and timed.

Three pieces:

``Span``
    One timed node: name, attributes, start timestamp, duration, children.
    Spans form a tree; the tree is JSON-serializable (``to_dict`` /
    ``from_dict``) so it can cross process boundaries — a routed query
    grafts each peer's serialized sub-tree under the router's per-node
    span, producing **one** tree spanning the whole cluster.

``Tracer``
    Starts root spans (one per request), decides which finished traces are
    *kept*: always when forced (``explain`` queries, propagated sub-requests),
    on a deterministic counter-based sample otherwise, and always when the
    request exceeds the slow-query threshold — slow queries additionally
    emit one JSON line to the slow-query log, correlated by trace id.

``TraceStore``
    A bounded ring buffer of kept traces, served by ``GET /traces`` and
    ``GET /traces/{id}``.

Ambient propagation uses a :mod:`contextvars` variable: instrumented code
calls :func:`span` and gets a real child span when a trace is active in the
current context, or a shared no-op object (a single contextvar read, no
allocation) when not; either is its own context manager.  Worker threads
do not inherit contextvars from their submitter, so pool-based fan-out (a
store's ``read_batch`` pool, the router's pool) captures
:func:`current_span` at submit time and re-attaches it inside the worker
with :func:`attach`.

At the default sample rate of 0 every query still builds its whole tree —
whether it is kept (slow, explained) is known only when it ends — so a span
is cheap by construction: creating one makes no syscall and takes no lock,
and entering it runs no generator.  Its id is a per-process counter under a
random prefix; trace ids stay random, one per request.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "PARENT_SPAN_HEADER",
    "TRACE_ID_HEADER",
    "Span",
    "TraceStore",
    "Tracer",
    "attach",
    "current_span",
    "new_id",
    "render_trace",
    "span",
    "summarize_trace",
]

#: HTTP headers carrying trace context to peer nodes of a routed query.
TRACE_ID_HEADER = "X-Airphant-Trace-Id"
PARENT_SPAN_HEADER = "X-Airphant-Parent-Span"

_active_span: ContextVar["Span | None"] = ContextVar(
    "airphant_active_span", default=None
)


def new_id(nbytes: int = 8) -> str:
    """A fresh random hex id (trace ids: one per request)."""
    return os.urandom(nbytes).hex()


def _reseed_span_ids() -> None:
    """A new random prefix and counter for span ids: at import, and in every
    forked child, so the processes of one routed tree never share an id."""
    global _span_prefix, _span_serial
    _span_prefix, _span_serial = new_id(4), itertools.count(1).__next__


_reseed_span_ids()
os.register_at_fork(after_in_child=_reseed_span_ids)

#: The one lock every :meth:`Span.inc` takes: accumulation is rare (store
#: attempts, fan-out), so no span pays for a lock of its own.
_INC_LOCK = threading.Lock()


class Span:
    """One timed node of a request's trace tree.

    Thread-compatible by construction: attribute writes replace dict keys
    and child registration appends to a list — both atomic under the GIL —
    while read-modify-write accumulation (:meth:`inc`) takes one shared
    lock.  Pool threads therefore attach children to a shared parent
    without coordination beyond :func:`attach`.

    A span is also the context manager :func:`span` hands out: entering
    makes it ambient, leaving restores its parent and finishes it.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "started_at",
        "duration_ms",
        "attrs",
        "children",
        "_t0",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id if trace_id is not None else new_id()
        self.span_id = f"{_span_prefix}{_span_serial():x}"
        self.parent_id = parent_id
        self.started_at = time.time()
        self.duration_ms: float | None = None
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self._t0 = time.perf_counter()

    def __enter__(self) -> "Span":
        self._token = _active_span.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _active_span.reset(self._token)
        # The token holds the parent, which holds this span: dropping it
        # keeps the tree acyclic, so a finished tree is freed at once
        # instead of waiting for the cycle collector.
        self._token = None
        self.finish()

    # -- building ----------------------------------------------------------------

    def set(self, **attrs: Any) -> None:
        """Assign attributes (last write wins)."""
        self.attrs.update(attrs)

    def inc(self, **attrs: float) -> None:
        """Accumulate numeric attributes (thread-safe read-modify-write)."""
        with _INC_LOCK:
            for key, value in attrs.items():
                self.attrs[key] = self.attrs.get(key, 0) + value

    def child(self, name: str, **attrs: Any) -> "Span":
        """Create and register a child span."""
        node = Span(name, trace_id=self.trace_id, parent_id=self.span_id, attrs=attrs)
        self.children.append(node)
        return node

    def graft(self, tree: "Span") -> None:
        """Attach an externally built sub-tree (a peer's trace) as a child."""
        tree.parent_id = self.span_id
        self.children.append(tree)

    def finish(self) -> "Span":
        """Fix the span's duration (idempotent: first call wins)."""
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        return self

    # -- reading -----------------------------------------------------------------

    def span_count(self) -> int:
        """Number of spans in this sub-tree, including this one."""
        return 1 + sum(child.span_count() for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this sub-tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_ms, 3)
            if self.duration_ms is not None
            else None,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        node = cls.__new__(cls)
        node.name = str(data.get("name", ""))
        node.trace_id = str(data.get("trace_id", ""))
        node.span_id = str(data.get("span_id", ""))
        node.parent_id = data.get("parent_id")
        node.started_at = float(data.get("started_at", 0.0))
        duration = data.get("duration_ms")
        node.duration_ms = float(duration) if duration is not None else None
        attrs = data.get("attrs")
        node.attrs = dict(attrs) if isinstance(attrs, Mapping) else {}
        children = data.get("children")
        node.children = [
            cls.from_dict(child)
            for child in (children if isinstance(children, list) else [])
            if isinstance(child, Mapping)
        ]
        node._t0 = 0.0
        return node


class _NoopSpan:
    """Stand-in yielded by :func:`span` when no trace is active.

    Accepts the full ``Span`` surface as no-ops so instrumented code never
    branches on "is tracing on".
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    def inc(self, **attrs: float) -> None:
        pass

    def child(self, name: str, **attrs: Any) -> "_NoopSpan":
        return self

    def graft(self, tree: Span) -> None:
        pass

    def finish(self) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


def current_span() -> Span | None:
    """The ambient span of the calling context (``None`` outside a trace)."""
    return _active_span.get()


class attach:
    """Re-attach a captured span as ambient inside a worker thread.

    Thread pools do not inherit contextvars from the submitting thread;
    callers capture :func:`current_span` before submitting and wrap the
    worker body in ``attach(parent)`` so nested :func:`span` calls land
    under the right request.
    """

    __slots__ = ("_parent", "_token")

    def __init__(self, parent: Span | None) -> None:
        self._parent = parent

    def __enter__(self) -> None:
        self._token = _active_span.set(self._parent)

    def __exit__(self, *exc_info: object) -> None:
        _active_span.reset(self._token)


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """A child of the ambient span, to enter with ``with`` — the shared
    :data:`NOOP_SPAN`, and no allocation, when no trace is active."""
    parent = _active_span.get()
    if parent is None:
        return NOOP_SPAN
    return parent.child(name, **attrs)


class TraceStore:
    """Bounded ring buffer of kept traces, newest first on read."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._by_id: dict[str, Span] = {}
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def add(self, root: Span) -> None:
        with self._lock:
            if len(self._ring) == self._capacity:
                evicted = self._ring[0]
                self._by_id.pop(evicted.trace_id, None)
            self._ring.append(root)
            self._by_id[root.trace_id] = root

    def get(self, trace_id: str) -> Span | None:
        with self._lock:
            return self._by_id.get(trace_id)

    def list(self, limit: int = 50) -> list[dict[str, Any]]:
        """Newest-first summaries (id, root name, duration, span count)."""
        with self._lock:
            roots = list(self._ring)
        summaries = []
        for root in reversed(roots[-limit:] if limit else roots):
            summaries.append(
                {
                    "trace_id": root.trace_id,
                    "name": root.name,
                    "started_at": root.started_at,
                    "duration_ms": round(root.duration_ms, 3)
                    if root.duration_ms is not None
                    else None,
                    "spans": root.span_count(),
                    "attrs": dict(root.attrs),
                }
            )
        return summaries

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._by_id.clear()


class TraceHandle:
    """A begun root span plus the bookkeeping to finish and keep it."""

    __slots__ = ("root", "_tracer", "_token", "_force", "_sampled", "_finished")

    def __init__(
        self, tracer: "Tracer", root: Span, force: bool, sampled: bool
    ) -> None:
        self.root = root
        self._tracer = tracer
        self._token = _active_span.set(root)
        self._force = force
        self._sampled = sampled
        self._finished = False

    @property
    def trace_id(self) -> str:
        return self.root.trace_id

    def finish(self) -> Span:
        """Detach from the context, fix the duration, keep/log as decided."""
        if self._finished:
            return self.root
        self._finished = True
        _active_span.reset(self._token)
        self.root.finish()
        self._tracer._finish(self.root, force=self._force, sampled=self._sampled)
        return self.root


def _default_slow_log(line: str) -> None:
    sys.stderr.write(line + "\n")


class Tracer:
    """Starts request-scoped traces and decides which ones to keep.

    Parameters
    ----------
    enabled:
        When ``False``, :meth:`begin` returns ``None`` and no spans are
        built anywhere — the per-call cost collapses to one contextvar read
        per instrumentation point.
    sample_rate:
        Fraction of requests whose traces are kept in the ring buffer even
        when fast and unforced.  Sampling is deterministic (every
        ``round(1/rate)``-th request), so identically seeded benchmark
        replays stay comparable.
    capacity:
        Ring-buffer size of the backing :class:`TraceStore`.
    slow_query_ms:
        Requests slower than this are *always* kept and additionally emit
        one JSON line to ``slow_log``.  ``0`` disables slow-query capture.
    slow_log:
        Sink for slow-query lines (defaults to stderr).
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_rate: float = 0.0,
        capacity: int = 256,
        slow_query_ms: float = 0.0,
        slow_log: Callable[[str], None] | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if slow_query_ms < 0:
            raise ValueError("slow_query_ms must be non-negative")
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.slow_query_ms = slow_query_ms
        self.store = TraceStore(capacity)
        self._slow_log = slow_log if slow_log is not None else _default_slow_log
        self._seen = 0
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def begin(
        self,
        name: str,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        force: bool = False,
        **attrs: Any,
    ) -> TraceHandle | None:
        """Open a root span and make it ambient; ``None`` when disabled.

        ``trace_id``/``parent_span_id`` come from propagation headers on
        sub-requests, so a peer's root span joins the router's tree.
        ``force`` marks the finished trace as kept regardless of sampling
        (explain queries, propagated sub-requests whose tree the caller
        grafts).
        """
        if not self.enabled:
            return None
        root = Span(name, trace_id=trace_id, parent_id=parent_span_id, attrs=attrs)
        return TraceHandle(self, root, force=force, sampled=self._sample())

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        period = max(1, round(1.0 / self.sample_rate))
        with self._lock:
            self._seen += 1
            return self._seen % period == 1

    def _finish(self, root: Span, force: bool, sampled: bool) -> None:
        duration = root.duration_ms or 0.0
        slow = self.slow_query_ms > 0 and duration >= self.slow_query_ms
        if slow:
            root.set(slow=True)
            self._slow_log(
                json.dumps(
                    {
                        "event": "slow_query",
                        "trace_id": root.trace_id,
                        "name": root.name,
                        "duration_ms": round(duration, 3),
                        "threshold_ms": self.slow_query_ms,
                        "attrs": dict(root.attrs),
                    },
                    sort_keys=True,
                )
            )
        if force or sampled or slow:
            self.store.add(root)


# -- explain payload -----------------------------------------------------------


def summarize_trace(tree: Mapping[str, Any]) -> dict[str, Any]:
    """Per-wave summary of a serialized span tree.

    Walks the tree collecting every ``pipeline.fetch`` span (one per read
    wave) plus the resilience attempt spans, and aggregates the numbers an
    operator reads first: requests, bytes, cache hits, hedges, retries.
    """
    waves: list[dict[str, Any]] = []
    totals = {
        "requests": 0,
        "physical_requests": 0,
        "bytes_requested": 0,
        "bytes_fetched": 0,
        "cache_hits": 0,
        "refunded_bytes": 0,
        "attempts": 0,
        "retries": 0,
        "hedges": 0,
        "timeouts": 0,
    }
    spans = 0

    def visit(node: Mapping[str, Any]) -> None:
        nonlocal spans
        spans += 1
        attrs = node.get("attrs") or {}
        name = node.get("name")
        if name == "pipeline.fetch":
            wave = {
                "duration_ms": node.get("duration_ms"),
                "requests": attrs.get("requests", 0),
                "physical_requests": attrs.get("physical_requests", 0),
                "bytes_requested": attrs.get("bytes_requested", 0),
                "bytes_fetched": attrs.get("bytes_fetched", 0),
                "cache_hits": attrs.get("cache_hits", 0),
                "cache_misses": attrs.get("cache_misses", 0),
            }
            waves.append(wave)
            for key in (
                "requests",
                "physical_requests",
                "bytes_requested",
                "bytes_fetched",
                "cache_hits",
            ):
                totals[key] += wave[key] or 0
        elif name == "store.attempt":
            totals["attempts"] += 1
            if attrs.get("retry"):
                totals["retries"] += 1
            if attrs.get("hedged"):
                totals["hedges"] += 1
            if attrs.get("timeout"):
                totals["timeouts"] += 1
        totals["refunded_bytes"] += attrs.get("refunded_bytes", 0) or 0
        for child in node.get("children") or []:
            visit(child)

    visit(tree)
    totals["spans"] = spans
    totals["waves"] = len(waves)
    return {"waves": waves, "totals": totals}


def explain_payload(root: Span) -> dict[str, Any]:
    """The ``trace`` block attached to an explain/propagated response."""
    tree = root.to_dict()
    return {
        "trace_id": root.trace_id,
        "duration_ms": tree.get("duration_ms"),
        "spans": tree,
        "summary": summarize_trace(tree),
    }


def render_trace(tree: Mapping[str, Any], indent: int = 0) -> str:
    """Human-readable tree rendering (used by ``airphant search --explain``)."""
    lines: list[str] = []

    def visit(node: Mapping[str, Any], depth: int) -> None:
        duration = node.get("duration_ms")
        timing = f"{duration:.2f} ms" if isinstance(duration, (int, float)) else "?"
        attrs = node.get("attrs") or {}
        detail = ""
        if attrs:
            parts = []
            for key in sorted(attrs):
                value = attrs[key]
                if isinstance(value, float):
                    value = round(value, 2)
                parts.append(f"{key}={value}")
            detail = "  [" + " ".join(parts) + "]"
        prefix = "  " * depth + ("└─ " if depth else "")
        lines.append(f"{prefix}{node.get('name')}  {timing}{detail}")
        for child in node.get("children") or []:
            visit(child, depth + 1)

    visit(tree, indent)
    return "\n".join(lines)
