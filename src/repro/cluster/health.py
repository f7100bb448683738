"""Node health tracking: periodic probes, mark-down / mark-up with backoff.

The router must not burn its latency budget on nodes that are known-dead,
and must notice when they come back.  :class:`HealthTracker` keeps one
:class:`NodeHealth` record per peer and feeds two signals into it:

* **background probes** — a daemon thread GETs each peer's ``/healthz``
  every ``probe_interval_s``; any HTTP answer counts as alive (a node
  reporting ``degraded`` can still answer its shards — that is the same
  liveness contract the endpoint itself promises);
* **query outcomes** — the router reports per-node successes and failures,
  so a dead node is marked down by the very first query that trips over
  it, without waiting for the next probe tick.

A marked-down node is retried with exponential backoff (doubling from
``backoff_ms`` up to ``max_backoff_ms``): between retry deadlines neither
probes nor routing touch it, so a dead peer costs one timeout per backoff
window instead of one per query.  Any success — probe or query — marks the
node back up immediately.

Everything is injectable (probe function, clock) so tests can drive
mark-down/mark-up deterministically without sockets or sleeps.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.observability import NULL_REGISTRY, MetricsRegistry
from repro.storage.connections import ConnectionPool, send


def http_probe(
    url: str, timeout_s: float, pools: Mapping[str, ConnectionPool] | None = None
) -> None:
    """Default probe: GET ``{url}/healthz`` on ``pools[url]`` (one-shot without).

    Raises on any failure, a non-2xx answer included.
    """
    status, _, _ = send((pools or {}).get(url), "GET", f"{url}/healthz", timeout_s)
    if not 200 <= status < 300:
        raise ConnectionError(f"{url}/healthz answered {status}")


@dataclass
class NodeHealth:
    """Mutable health record of one peer node."""

    url: str
    healthy: bool = True
    consecutive_failures: int = 0
    #: Monotonic timestamps (``None`` before the first event).
    last_probe: float | None = None
    last_ok: float | None = None
    #: Monotonic deadline before which a marked-down node is not retried.
    retry_at: float = 0.0
    last_error: str | None = field(default=None, repr=False)

    def summary(self, now: float) -> dict[str, Any]:
        """JSON-ready state (ages in seconds, ``None`` when never seen)."""
        entry: dict[str, Any] = {
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_probe_age_s": (
                round(now - self.last_probe, 3) if self.last_probe is not None else None
            ),
            "last_ok_age_s": (
                round(now - self.last_ok, 3) if self.last_ok is not None else None
            ),
        }
        if not self.healthy:
            entry["retry_in_s"] = round(max(0.0, self.retry_at - now), 3)
            if self.last_error:
                entry["last_error"] = self.last_error
        return entry


class HealthTracker:
    """Tracks liveness of a fixed peer set for the query router.

    Thread-safe: the probe thread, the router's worker threads, and
    ``/healthz`` rendering all read and write records under one lock.
    """

    def __init__(
        self,
        peers: Iterable[str],
        probe_interval_s: float = 5.0,
        probe_timeout_s: float = 2.0,
        backoff_ms: float = 500.0,
        max_backoff_ms: float = 30_000.0,
        probe: Callable[[str, float], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if probe_interval_s < 0:
            raise ValueError("probe_interval_s must be non-negative")
        if probe_timeout_s <= 0:
            raise ValueError("probe_timeout_s must be positive")
        if backoff_ms <= 0 or max_backoff_ms < backoff_ms:
            raise ValueError("need 0 < backoff_ms <= max_backoff_ms")
        self._nodes = {url: NodeHealth(url=url) for url in dict.fromkeys(peers)}
        if not self._nodes:
            raise ValueError("HealthTracker needs at least one peer")
        self._probe_interval_s = probe_interval_s
        self._probe_timeout_s = probe_timeout_s
        self._backoff_ms = backoff_ms
        self._max_backoff_ms = max_backoff_ms
        #: The default probe's keep-alive pools, one per peer.
        self._connections: dict[str, ConnectionPool] = {}
        if probe is None:
            self._connections = {url: ConnectionPool(url) for url in self._nodes}
            probe = functools.partial(http_probe, pools=self._connections)
        self._probe = probe
        self._clock = clock
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._probes_metric = self._metrics.counter(
            "airphant_cluster_probes_total",
            "Peer health probes, by outcome",
            label_names=("outcome",),
        )
        self._transitions_metric = self._metrics.counter(
            "airphant_cluster_transitions_total",
            "Peer mark-down / mark-up transitions",
            label_names=("direction",),
        )
        # Weakly bound, like the facade's occupancy gauges: the registry
        # must not keep a closed tracker (and its probe thread) alive.
        tracker_ref = weakref.ref(self)
        self._metrics.gauge(
            "airphant_cluster_peer_nodes", "Peer nodes the router knows about"
        ).set_function(
            lambda: len(t._nodes) if (t := tracker_ref()) is not None else 0
        )
        self._metrics.gauge(
            "airphant_cluster_live_nodes", "Peer nodes currently considered live"
        ).set_function(
            lambda: len(t.live_nodes()) if (t := tracker_ref()) is not None else 0
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def peers(self) -> tuple[str, ...]:
        """Every tracked peer URL."""
        return tuple(self._nodes)

    def start(self) -> None:
        """Start the background probe thread (no-op when interval is 0)."""
        if self._probe_interval_s <= 0 or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="airphant-health-probe", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop the probe thread and close its idle connections (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self._probe_interval_s + self._probe_timeout_s + 1.0)
        for pool in self._connections.values():
            pool.close()

    def _run(self) -> None:
        while not self._stop.wait(self._probe_interval_s):
            self.probe_once()

    # -- probing -----------------------------------------------------------------

    def probe_once(self) -> None:
        """Probe every peer that is due (live, or past its backoff deadline)."""
        now = self._clock()
        with self._lock:
            due = [
                node.url
                for node in self._nodes.values()
                if node.healthy or now >= node.retry_at
            ]
        for url in due:
            try:
                self._probe(url, self._probe_timeout_s)
            except Exception as error:  # noqa: BLE001 - any failure marks down
                self._probes_metric.inc(outcome="failure")
                self.record_failure(url, f"probe: {error}")
            else:
                self._probes_metric.inc(outcome="success")
                self.record_success(url)
            with self._lock:
                node = self._nodes.get(url)
                if node is not None:
                    node.last_probe = self._clock()

    # -- signals -----------------------------------------------------------------

    def record_success(self, url: str) -> None:
        """A node answered (probe or routed query): mark it up."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            if not node.healthy:
                self._transitions_metric.inc(direction="up")
            node.healthy = True
            node.consecutive_failures = 0
            node.retry_at = 0.0
            node.last_ok = self._clock()
            node.last_error = None

    def record_failure(self, url: str, error: str) -> None:
        """A node failed us: mark it down (or extend its backoff)."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            if node.healthy:
                self._transitions_metric.inc(direction="down")
            node.healthy = False
            node.consecutive_failures += 1
            backoff_ms = min(
                self._backoff_ms * (2 ** (node.consecutive_failures - 1)),
                self._max_backoff_ms,
            )
            node.retry_at = self._clock() + backoff_ms / 1000.0
            node.last_error = error

    # -- routing input -----------------------------------------------------------

    def is_live(self, url: str) -> bool:
        """Whether routing should try ``url`` now (up, or due for a retry)."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return False
            return node.healthy or self._clock() >= node.retry_at

    def live_nodes(self) -> list[str]:
        """Peers currently marked healthy (backoff retries not included)."""
        with self._lock:
            return [url for url, node in self._nodes.items() if node.healthy]

    def ordered(self, candidates: Sequence[str]) -> list[str]:
        """``candidates`` reordered for routing: usable nodes first.

        Keeps the replica order within each class, so the consistent-hash
        owner stays first among the live replicas; known-down nodes (still
        inside their backoff window) go last as a final resort — a fully
        dead replica set should still be *tried* rather than skipped.
        """
        usable = [url for url in candidates if self.is_live(url)]
        rest = [url for url in candidates if url not in usable]
        return usable + rest

    def summary(self) -> dict[str, Any]:
        """JSON-ready health block (``/healthz``'s ``cluster.nodes``)."""
        now = self._clock()
        with self._lock:
            nodes = {url: node.summary(now) for url, node in self._nodes.items()}
            live = [url for url, node in self._nodes.items() if node.healthy]
            down = [url for url in self._nodes if url not in live]
        return {
            "peers": len(nodes),
            "live": len(live),
            "marked_down": down,
            "nodes": nodes,
        }
