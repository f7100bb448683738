"""The query router of the scale-out tier.

Every node reads the same bucket and can answer every query, so
:class:`QueryRouter` sends each :class:`~repro.service.api.SearchRequest`,
unchanged, to one node and returns that node's answer:

* **candidate order** — the peers ranked by a rendezvous hash of
  ``(index, query)`` (:func:`rendezvous`): the same query goes to the same
  node first, which keeps that node's read cache warm for it, and every
  router process computes the same order without talking to the others.
  The health tracker then moves marked-down peers to the end.
* **failover** — each node request has a wall-clock bound
  (``shard_timeout_s``); a node that fails or times out is marked down and
  the query goes to the next candidate, with ``node_retries`` extra passes
  over the list.  A query therefore makes at most
  ``peers × (1 + node_retries)`` attempts.
* **hedging** — with ``node_hedge_ms`` set, a first candidate still
  unanswered after the delay is raced by the second and the first answer
  wins — the storage layer's hedged read
  (:class:`~repro.storage.resilient.ResilientStore`) one level up.  A first
  candidate that fails sooner falls over to the second at once.

A node answering with a typed 4xx (bad query, unknown index) fails the
query with that same error: the request is at fault, not the node.  When
every attempt fails the query fails with ``503 cluster_unavailable``.  A
router may list its own URL among its peers: every node request carries
:data:`ROUTED_HEADER`, and a node answers a request so marked itself.

The router is transport-agnostic: the default transport speaks JSON over a
keep-alive connection pool per peer (shared with the health probes), tests
inject an in-process one.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Iterable, Mapping, Protocol, Sequence

from repro.cluster.health import HealthTracker
from repro.observability import NULL_REGISTRY, MetricsRegistry
from repro.observability.tracing import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    Span,
    attach,
    current_span,
    span,
)
from repro.service.api import ErrorInfo, SearchRequest, SearchResponse, ServiceError
from repro.storage.connections import ConnectionPool, send

#: Marks a request the router sent to a node: the node answers it itself
#: instead of routing it again (a router may be one of its own peers).
ROUTED_HEADER = "X-Airphant-Routed"


class Transport(Protocol):
    """How a router reaches a node: ``(base_url, path, json_payload,
    timeout_s, headers)`` → decoded JSON.

    ``payload=None`` means GET; ``headers`` carries a search's
    :data:`ROUTED_HEADER` and, on a traced query, its trace context (``None``
    on a probe).  Implementations raise
    :class:`NodeQueryError` for node-level failures (unreachable, timeout,
    5xx) and :class:`~repro.service.api.ServiceError` for definitive 4xx
    answers.
    """

    def __call__(
        self,
        url: str,
        path: str,
        payload: Mapping[str, Any] | None,
        timeout_s: float,
        headers: Mapping[str, str] | None = None,
    ) -> Any: ...


class NodeQueryError(Exception):
    """A node failed to answer (failover-able, unlike a typed 4xx)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def http_transport(
    url: str,
    path: str,
    payload: Mapping[str, Any] | None,
    timeout_s: float,
    headers: Mapping[str, str] | None = None,
    pools: Mapping[str, ConnectionPool] | None = None,
) -> Any:
    """Default JSON-over-HTTP transport: one request on ``pools[url]``.

    The router passes its keep-alive pools, one per peer; a URL without one
    gets a one-shot connection.
    """
    request_headers = {"Content-Type": "application/json", **(headers or {})}
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    try:
        status, _, answer = send(
            (pools or {}).get(url),
            "GET" if payload is None else "POST",
            f"{url}{path}",
            timeout_s,
            request_headers,
            body,
        )
    except TimeoutError as error:
        raise NodeQueryError("node_timeout", f"{url} timed out after {timeout_s}s") from error
    except (OSError, http.client.HTTPException) as error:
        raise NodeQueryError("node_unreachable", f"{url}: {error}") from error
    if 400 <= status < 500:
        # The node answered definitively: the request is at fault, not the
        # node.  Re-raise the node's own typed error.
        try:
            info = ErrorInfo.from_json(answer)
        except (ValueError, KeyError):
            info = ErrorInfo(
                status=status, error="bad_request", message=f"{url} answered {status}"
            )
        raise ServiceError(info.status, info.error, info.message)
    if not 200 <= status < 300:
        raise NodeQueryError("node_error", f"{url} answered {status}")
    try:
        return json.loads(answer)
    except ValueError as error:
        raise NodeQueryError("node_error", f"{url} answered non-JSON: {error}") from error


def rendezvous(peers: Sequence[str], index: str, query: str) -> list[str]:
    """``peers`` ranked for one query, highest rendezvous score first.

    A peer's score is BLAKE2b over ``index``, ``query`` and the peer's URL
    (not the builtin ``hash``, which differs between processes).  A peer
    that leaves moves only the queries it ranked first for; every other
    query keeps its first node.
    """

    def score(peer: str) -> bytes:
        key = "\0".join((index, query, peer)).encode("utf-8")
        return hashlib.blake2b(key, digest_size=8).digest()

    return sorted(peers, key=score, reverse=True)


class QueryRouter:
    """Sends each search request whole to one of the cluster's nodes."""

    def __init__(
        self,
        peers: Iterable[str],
        shard_timeout_s: float = 5.0,
        node_hedge_ms: float = 0.0,
        node_retries: int = 1,
        probe_interval_s: float = 5.0,
        transport: Transport | None = None,
        health: HealthTracker | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        if node_hedge_ms < 0:
            raise ValueError("node_hedge_ms must be non-negative")
        if node_retries < 0:
            raise ValueError("node_retries must be non-negative")
        self._peers = tuple(dict.fromkeys(peers))
        if not self._peers:
            raise ValueError("QueryRouter needs at least one peer")
        self._shard_timeout_s = shard_timeout_s
        self._node_hedge_ms = node_hedge_ms
        self._node_retries = node_retries
        #: The default transport's keep-alive pools, one per peer (routed
        #: requests and health probes alike).
        self._connections: dict[str, ConnectionPool] = {}
        if transport is None:
            self._connections = {peer: ConnectionPool(peer) for peer in self._peers}
            transport = functools.partial(http_transport, pools=self._connections)
        self._transport: Transport = transport
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        if health is not None:
            self._health = health
            self._owns_health = False
        else:
            self._health = HealthTracker(
                self._peers,
                probe_interval_s=probe_interval_s,
                probe_timeout_s=min(shard_timeout_s, 2.0),
                probe=self._probe,
                metrics=self._metrics,
            )
            self._owns_health = True
            self._health.start()
        # Node requests, first candidates and hedges alike.  Its tasks never
        # wait on one another (``_ask``).
        self._pool = ThreadPoolExecutor(
            max_workers=max(8, 2 * len(self._peers)),
            thread_name_prefix="airphant-router",
        )

        self._requests_metric = self._metrics.counter(
            "airphant_router_requests_total",
            "Routed queries, by outcome (ok / rejected / error)",
            label_names=("outcome",),
        )
        self._seconds_metric = self._metrics.histogram(
            "airphant_router_seconds", "End-to-end wall-clock routed query latency"
        )
        self._node_requests_metric = self._metrics.counter(
            "airphant_router_node_requests_total",
            "Search requests sent to nodes, by node and outcome",
            label_names=("node", "outcome"),
        )
        self._failovers_metric = self._metrics.counter(
            "airphant_router_failovers_total",
            "Queries sent to the next node after a node failure",
        )
        self._hedges_metric = self._metrics.counter(
            "airphant_router_hedges_total",
            "Queries duplicated to a backup node (node hedging)",
        )

    def _probe(self, url: str, timeout_s: float) -> None:
        """Health probe through the router's own transport."""
        self._transport(url, "/healthz", None, timeout_s)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def health(self) -> HealthTracker:
        """The peer health tracker feeding routing decisions."""
        return self._health

    def close(self) -> None:
        """Stop probing, release the pool and idle connections (idempotent)."""
        if self._owns_health:
            self._health.close()
        self._pool.shutdown(wait=False)
        for pool in self._connections.values():
            pool.close()

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing -----------------------------------------------------------------

    def candidates(self, request: SearchRequest) -> list[str]:
        """The nodes ``request`` is tried on, in order: rendezvous order,
        marked-down peers last."""
        return self._health.ordered(rendezvous(self._peers, request.index, request.query))

    def route(self, request: SearchRequest) -> SearchResponse:
        """Answer ``request`` on one node of the cluster."""
        started = time.perf_counter()
        try:
            candidates = self.candidates(request)
            with span("router.route", index=request.index, candidates=len(candidates)):
                response = self._ask(request, candidates)
        except ServiceError as error:
            self._requests_metric.inc(
                outcome="error" if error.status >= 500 else "rejected"
            )
            raise
        self._requests_metric.inc(outcome="ok")
        self._seconds_metric.observe(time.perf_counter() - started)
        return response

    def _ask(self, request: SearchRequest, candidates: Sequence[str]) -> SearchResponse:
        """The first answer of ``candidates``, tried in order.

        This thread coordinates; the pool runs only :meth:`_query_node`
        calls, so no pooled task waits on the pool it runs on.  The
        candidates are tried one at a time, with ``node_retries`` extra
        passes over them.  With hedging on, a first candidate still alone
        in flight after ``node_hedge_ms`` races the second, and the first
        answer wins; one that fails sooner falls over to the second at once.
        A node failing while its racer is still out leaves the racer to
        answer.  A typed 4xx fails the query at once.  Losers of a race
        finish in the background, unwaited for.
        """
        # Pool threads do not inherit contextvars; re-attach the ambient
        # span so each node span lands under the route span.
        parent = current_span()

        def query_node(node: str) -> SearchResponse:
            with attach(parent):
                return self._query_node(request, node)

        queue = list(candidates) * (1 + self._node_retries)
        hedge_s = self._node_hedge_ms / 1000.0
        hedge_at = time.monotonic() + hedge_s if hedge_s > 0 and len(candidates) > 1 else None
        running: set[Future[SearchResponse]] = {self._pool.submit(query_node, queue.pop(0))}
        failure: NodeQueryError | None = None
        while running:
            timeout = None if hedge_at is None else max(0.0, hedge_at - time.monotonic())
            done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                running.discard(future)
                try:
                    return future.result()
                except NodeQueryError as error:
                    failure = error
            if done:
                # Every node in flight failed: no hedge; fall over, if any
                # attempt is left.
                hedge_at = None
                if not running and queue:
                    self._failovers_metric.inc()
                    running.add(self._pool.submit(query_node, queue.pop(0)))
            else:
                hedge_at = None
                self._hedges_metric.inc()
                running.add(self._pool.submit(query_node, queue.pop(0)))
        raise ServiceError(
            503, "cluster_unavailable", f"no node answered the query: {failure}"
        )

    def _query_node(self, request: SearchRequest, node: str) -> SearchResponse:
        """POST ``request`` to ``node`` and record the outcome."""
        with span("router.node", node=node) as node_span:
            headers = {ROUTED_HEADER: "1"}
            trace_id = getattr(node_span, "trace_id", None)
            if trace_id is not None:
                # Ask the node to trace the query under our trace id; its
                # response carries the sub-tree to graft.
                headers[TRACE_ID_HEADER] = trace_id
                headers[PARENT_SPAN_HEADER] = node_span.span_id
            try:
                body = self._transport(
                    node, "/search", request.to_dict(), self._shard_timeout_s, headers=headers
                )
            except NodeQueryError as error:
                node_span.set(error=error.code)
                self._node_requests_metric.inc(node=node, outcome="failure")
                self._health.record_failure(node, str(error))
                raise
            except ServiceError:
                # The node is alive and answered; the request is at fault.
                self._node_requests_metric.inc(node=node, outcome="rejected")
                self._health.record_success(node)
                raise
            self._node_requests_metric.inc(node=node, outcome="ok")
            self._health.record_success(node)
            peer_trace = body.pop("trace", None) if isinstance(body, dict) else None
            if isinstance(peer_trace, Mapping) and "spans" in peer_trace:
                try:
                    node_span.graft(Span.from_dict(peer_trace["spans"]))
                except (KeyError, TypeError, ValueError):
                    pass  # a malformed peer trace must never fail the query
            try:
                return SearchResponse.from_dict(body)
            except (KeyError, TypeError, ValueError) as error:
                raise NodeQueryError(
                    "node_error", f"{node} answered a malformed response: {error}"
                ) from error

    # -- inspection --------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """JSON-ready cluster view (the ``GET /cluster`` payload)."""
        return {
            "peers": list(self._peers),
            "health": self._health.summary(),
            "router": {
                "shard_timeout_s": self._shard_timeout_s,
                "node_hedge_ms": self._node_hedge_ms,
                "node_retries": self._node_retries,
            },
        }

    def summary(self) -> dict[str, Any]:
        """Compact health block for ``/healthz``'s ``cluster`` entry."""
        health = self._health.summary()
        return {
            "enabled": True,
            "peers": health["peers"],
            "live": health["live"],
            "marked_down": health["marked_down"],
            "nodes": health["nodes"],
        }
