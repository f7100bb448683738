"""The scatter-gather query router of the scale-out tier.

:class:`QueryRouter` turns one :class:`~repro.service.api.SearchRequest`
into per-node shard-subset requests, fans them out over HTTP, and merges
the partial answers back into a single typed
:class:`~repro.service.api.SearchResponse`:

* **scatter** — the consistent-hash topology assigns every shard ordinal
  an ordered replica set; ordinals sharing the same (health-ordered)
  replica sequence travel together as one node request carrying
  ``shards=[...]``.  Unsharded members ride with ordinal 0, so each piece
  of the index is answered exactly once.
* **resilience** — each node request has a wall-clock bound
  (``shard_timeout_s``); a failed or timed-out node is marked down in the
  health tracker and the group fails over to the next replica, with up to
  ``node_retries`` extra passes over the replica set.  With
  ``node_hedge_ms`` set, a request still unanswered after the delay is
  *duplicated* to the next replica and the first answer wins — the
  storage layer's hedged-read defense (Section IV-G /
  :class:`~repro.storage.resilient.ResilientStore`) applied one level up,
  across nodes instead of requests.  The calling thread drives failover
  and hedging for every group; the router's one pool runs only the node
  requests themselves, so no pooled task ever waits on another.
* **gather** — surviving answers merge exactly like a single node would:
  documents are de-duplicated by ``(blob, offset, length)`` and sorted in
  posting order (partitions are disjoint, so this reproduces the
  single-node result byte for byte); candidate and false-positive counts
  sum; simulated latency charges the max across nodes (they proceed in
  parallel) while bytes and round trips sum.  Shards whose every replica
  failed appear as :class:`~repro.service.api.ShardErrorInfo` entries on a
  ``partial: true`` response instead of failing the query; only a query
  no shard could answer raises (``503 cluster_unavailable``).

The router is transport-agnostic: the default transport speaks JSON over a
keep-alive connection pool per peer (shared with the health probes), tests
inject an in-process one.  A node answering with a 4xx body (bad query,
unknown index) fails the whole query with that same typed error — a
*request* defect is not a node failure and must not fail over.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Protocol

from repro.cluster.health import HealthTracker
from repro.cluster.topology import ClusterTopology
from repro.observability import NULL_REGISTRY, MetricsRegistry
from repro.observability.tracing import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    Span,
    attach,
    current_span,
    span,
)
from repro.service.api import (
    DocumentHit,
    ErrorInfo,
    SearchRequest,
    SearchResponse,
    ServiceError,
    ShardErrorInfo,
)
from repro.storage.connections import ConnectionPool, send

class Transport(Protocol):
    """How a router reaches a node: ``(base_url, path, json_payload,
    timeout_s, headers)`` → decoded JSON.

    ``payload=None`` means GET; ``headers`` carries the trace context of a
    traced query to the peer (``None`` otherwise).  Implementations raise
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


@dataclass(frozen=True)
class RoutePlan:
    """The scatter plan of one routed query (exposed for tests / /cluster)."""

    index: str
    num_shards: int
    #: Health-ordered candidate nodes → the ordinals they are asked for.
    groups: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...]


class QueryRouter:
    """Scatter-gathers search requests over the cluster's searcher nodes."""

    def __init__(
        self,
        peers: Iterable[str],
        replication_factor: int = 2,
        shard_timeout_s: float = 5.0,
        node_hedge_ms: float = 0.0,
        node_retries: int = 1,
        probe_interval_s: float = 5.0,
        vnodes: int = 64,
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
        self._topology = ClusterTopology(
            peers, replication_factor=replication_factor, vnodes=vnodes
        )
        self._shard_timeout_s = shard_timeout_s
        self._node_hedge_ms = node_hedge_ms
        self._node_retries = node_retries
        #: The default transport's keep-alive pools, one per peer (routed
        #: requests and health probes alike).
        self._connections: dict[str, ConnectionPool] = {}
        if transport is None:
            self._connections = {peer: ConnectionPool(peer) for peer in self._topology.peers}
            transport = functools.partial(http_transport, pools=self._connections)
        self._transport: Transport = transport
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        if health is not None:
            self._health = health
            self._owns_health = False
        else:
            self._health = HealthTracker(
                self._topology.peers,
                probe_interval_s=probe_interval_s,
                probe_timeout_s=min(shard_timeout_s, 2.0),
                probe=self._probe,
                metrics=self._metrics,
            )
            self._owns_health = True
            self._health.start()
        # Shard counts are immutable per build; cache them so steady-state
        # routing costs zero extra round trips.  Invalidated on 404 replans.
        self._num_shards: dict[str, int] = {}
        self._num_shards_lock = threading.Lock()
        # Node requests, primaries and hedges alike: wide enough for a full
        # fan-out.  Its tasks never wait on one another (``_scatter``).
        self._pool = ThreadPoolExecutor(
            max_workers=max(8, 2 * len(self._topology.peers)),
            thread_name_prefix="airphant-router",
        )

        self._requests_metric = self._metrics.counter(
            "airphant_router_requests_total",
            "Routed queries, by outcome (ok / partial / error)",
            label_names=("outcome",),
        )
        self._seconds_metric = self._metrics.histogram(
            "airphant_router_seconds", "End-to-end wall-clock routed query latency"
        )
        self._node_requests_metric = self._metrics.counter(
            "airphant_router_node_requests_total",
            "Per-node shard-subset requests, by node and outcome",
            label_names=("node", "outcome"),
        )
        self._failovers_metric = self._metrics.counter(
            "airphant_router_failovers_total",
            "Shard groups retried on a different replica after a node failure",
        )
        self._hedges_metric = self._metrics.counter(
            "airphant_router_hedges_total",
            "Shard-subset requests duplicated to a backup replica (node hedging)",
        )
        self._shard_errors_metric = self._metrics.counter(
            "airphant_router_shard_errors_total",
            "Shards left unanswered after all replicas failed",
        )

    def _probe(self, url: str, timeout_s: float) -> None:
        """Health probe through the router's own transport."""
        self._transport(url, "/healthz", None, timeout_s)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def topology(self) -> ClusterTopology:
        """The shard→node placement."""
        return self._topology

    @property
    def health(self) -> HealthTracker:
        """The peer health tracker feeding routing decisions."""
        return self._health

    def close(self) -> None:
        """Stop probing, release the scatter pool and idle connections (idempotent)."""
        if self._owns_health:
            self._health.close()
        self._pool.shutdown(wait=False)
        for pool in self._connections.values():
            pool.close()

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- planning ----------------------------------------------------------------

    def _resolve_num_shards(self, index: str) -> int:
        with self._num_shards_lock:
            cached = self._num_shards.get(index)
        if cached is not None:
            return cached
        errors: list[str] = []
        for node in self._health.ordered(self._topology.peers):
            try:
                info = self._transport(
                    node, f"/indexes/{index}", None, self._shard_timeout_s
                )
            except NodeQueryError as error:
                self._health.record_failure(node, str(error))
                errors.append(f"{node}: {error}")
                continue
            self._health.record_success(node)
            num_shards = max(1, int(info.get("num_shards", 1)))
            with self._num_shards_lock:
                self._num_shards[index] = num_shards
            return num_shards
        raise ServiceError(
            503,
            "cluster_unavailable",
            f"no node could describe index {index!r}: {'; '.join(errors)}",
        )

    def invalidate(self, index: str | None = None) -> None:
        """Drop cached shard counts (all of them when ``index`` is None)."""
        with self._num_shards_lock:
            if index is None:
                self._num_shards.clear()
            else:
                self._num_shards.pop(index, None)

    def plan(self, index: str, num_shards: int) -> RoutePlan:
        """Group shard ordinals by their health-ordered replica sequence.

        Ordinals sharing the same candidate sequence travel as one node
        request; distinct sequences scatter independently so one slow or
        dead owner only degrades its own shards.
        """
        assignments = self._topology.assignments(index, num_shards)
        groups: dict[tuple[str, ...], list[int]] = {}
        for ordinal in range(num_shards):
            candidates = tuple(self._health.ordered(assignments[ordinal]))
            groups.setdefault(candidates, []).append(ordinal)
        return RoutePlan(
            index=index,
            num_shards=num_shards,
            groups=tuple(
                (candidates, tuple(ordinals)) for candidates, ordinals in groups.items()
            ),
        )

    # -- routing -----------------------------------------------------------------

    def route(self, request: SearchRequest) -> SearchResponse:
        """Answer ``request`` by scatter-gathering over the cluster."""
        if request.shards is not None:
            raise ServiceError(
                400,
                "bad_request",
                "routed requests must not pin shards; send shard subsets to a node directly",
            )
        started = time.perf_counter()
        try:
            response = self._route(request)
        except ServiceError as error:
            self._requests_metric.inc(
                outcome="error" if error.status >= 500 else "rejected"
            )
            raise
        self._requests_metric.inc(outcome="partial" if response.partial else "ok")
        self._seconds_metric.observe(time.perf_counter() - started)
        return response

    def _route(self, request: SearchRequest) -> SearchResponse:
        num_shards = self._resolve_num_shards(request.index)
        plan = self.plan(request.index, num_shards)
        with span(
            "router.route",
            index=request.index,
            shards=num_shards,
            groups=len(plan.groups),
        ):
            outcomes = self._scatter(request, plan.groups)
            responses: list[SearchResponse] = []
            shard_errors: list[ShardErrorInfo] = []
            definitive: ServiceError | None = None
            for (candidates, ordinals), outcome in zip(plan.groups, outcomes):
                if isinstance(outcome, SearchResponse):
                    responses.append(outcome)
                elif isinstance(outcome, ServiceError):
                    # A typed 4xx from any node condemns the whole request
                    # (same query everywhere — the others would reject it too).
                    definitive = definitive or outcome
                else:
                    self._shard_errors_metric.inc(len(ordinals))
                    shard_errors.extend(
                        ShardErrorInfo(
                            shard=ordinal,
                            node=candidates[-1] if candidates else "",
                            error=outcome.code,
                            message=str(outcome),
                        )
                        for ordinal in ordinals
                    )
            if definitive is not None:
                raise definitive
            if not responses:
                detail = "; ".join(
                    f"shard {e.shard} via {e.node}: {e.message}"
                    for e in shard_errors[:4]
                )
                raise ServiceError(
                    503, "cluster_unavailable", f"every shard failed: {detail}"
                )
            return self._merge(request, responses, shard_errors)

    def _scatter(
        self,
        request: SearchRequest,
        groups: tuple[tuple[tuple[str, ...], tuple[int, ...]], ...],
    ) -> list[SearchResponse | ServiceError | NodeQueryError]:
        """Every group's answer, or the error that ended it, in plan order.

        This thread coordinates; the pool runs only :meth:`_query_node`
        calls, so no pooled task waits on the pool it runs on.  A group tries
        its health-ordered candidates one at a time, with ``node_retries``
        extra passes over them.  With hedging on, a group whose primary is
        still alone in flight after ``node_hedge_ms`` races a backup on the
        second candidate and the first answer wins; a primary that fails
        sooner skips the backup, and a failed race falls over to the
        candidates after the pair.  A typed 4xx ends its group at once.
        Losers of a race finish in the background, unwaited for.
        """
        # Pool threads do not inherit contextvars; re-attach the ambient
        # span so each node span lands under the route span.
        parent = current_span()

        def query_node(node: str, ordinals: tuple[int, ...]) -> SearchResponse:
            with attach(parent):
                return self._query_node(request, node, ordinals)

        hedge_s = self._node_hedge_ms / 1000.0
        outcomes: list[SearchResponse | ServiceError | NodeQueryError | None] = []
        #: Per group: the nodes still to fall over to, in order.
        queues: list[list[str]] = []
        #: Group -> (when to hedge, the backup node) while its primary runs alone.
        backups: dict[int, tuple[float, str]] = {}
        running: dict[Future[SearchResponse], int] = {}

        def launch(group: int, node: str) -> None:
            running[self._pool.submit(query_node, node, groups[group][1])] = group

        for group, (candidates, _) in enumerate(groups):
            hedged = hedge_s > 0 and len(candidates) > 1
            queues.append(
                list(candidates[2 if hedged else 1 :]) + list(candidates) * self._node_retries
            )
            if not candidates:
                outcomes.append(NodeQueryError("no_replicas", "no replica assigned"))
                continue
            outcomes.append(None)
            if hedged:
                backups[group] = (time.monotonic() + hedge_s, candidates[1])
            launch(group, candidates[0])
        while None in outcomes:
            timeout = None
            if backups:
                next_hedge = min(at for at, _ in backups.values())
                timeout = max(0.0, next_hedge - time.monotonic())
            done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                group = running.pop(future, None)
                if group is None:
                    continue  # the loser of a race its group already settled
                try:
                    outcomes[group] = future.result()
                except ServiceError as error:
                    outcomes[group] = error
                except NodeQueryError as error:
                    if group in running.values():
                        continue  # its racer is still out
                    backups.pop(group, None)
                    if not queues[group]:
                        outcomes[group] = error
                        continue
                    self._failovers_metric.inc()
                    launch(group, queues[group].pop(0))
                    continue
                backups.pop(group, None)
                for loser in [f for f, owner in running.items() if owner == group]:
                    del running[loser]
            now = time.monotonic()
            for group, (at, node) in list(backups.items()):
                if at <= now:
                    del backups[group]
                    self._hedges_metric.inc()
                    launch(group, node)
        return outcomes  # type: ignore[return-value]

    def _query_node(
        self, request: SearchRequest, node: str, ordinals: tuple[int, ...]
    ) -> SearchResponse:
        """POST one shard-subset request to ``node`` and record the outcome."""
        payload = request.to_dict()
        payload["shards"] = list(ordinals)
        with span("router.node", node=node, shards=list(ordinals)) as node_span:
            headers: dict[str, str] | None = None
            trace_id = getattr(node_span, "trace_id", None)
            if trace_id is not None:
                # Ask the peer to trace its share of the query under our
                # trace id; its response carries the sub-tree to graft.
                headers = {
                    TRACE_ID_HEADER: trace_id,
                    PARENT_SPAN_HEADER: node_span.span_id,
                }
            try:
                body = self._transport(
                    node, "/search", payload, self._shard_timeout_s, headers=headers
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

    # -- merging -----------------------------------------------------------------

    def _merge(
        self,
        request: SearchRequest,
        responses: list[SearchResponse],
        shard_errors: list[ShardErrorInfo],
    ) -> SearchResponse:
        """Union the per-node answers back into one response.

        Shard partitions are disjoint, so documents de-duplicate by their
        storage reference and sort back into the global posting order —
        the exact order a single node produces.  Nodes really do proceed in
        parallel, so the elapsed times are the slowest node's (all four from
        that one node, so ``wait_ms + download_ms`` still equals
        ``total_ms``), while bytes and round trips are real work and add
        up.  (Within one node nothing is merged: its executor waits for two
        waves and reports their sum.)
        """
        seen: set[tuple[str, int, int]] = set()
        documents: list[DocumentHit] = []
        for response in responses:
            for document in response.documents:
                ref = (document.blob, document.offset, document.length)
                if ref not in seen:
                    seen.add(ref)
                    documents.append(document)
        if request.mode == "topk_bm25":
            # Ranked gather: every node scored with the same corpus-wide
            # statistics, so merging the per-node top-k lists best-first
            # (posting order breaks ties) reproduces the single-node ranked
            # list exactly.
            documents.sort(
                key=lambda d: (-(d.score or 0.0), d.blob, d.offset, d.length)
            )
        else:
            documents.sort(key=lambda d: (d.blob, d.offset, d.length))
        if request.top_k is not None:
            documents = documents[: request.top_k]
        latency = replace(
            max((r.latency for r in responses), key=lambda latency: latency.total_ms),
            bytes_fetched=sum(r.latency.bytes_fetched for r in responses),
            round_trips=sum(r.latency.round_trips for r in responses),
        )
        return SearchResponse(
            query=request.query,
            index=request.index,
            mode=request.mode,
            documents=tuple(documents),
            num_candidates=sum(r.num_candidates for r in responses),
            false_positive_count=sum(r.false_positive_count for r in responses),
            oversampled=sum(r.oversampled for r in responses),
            latency=latency,
            partial=bool(shard_errors),
            shard_errors=tuple(
                sorted(shard_errors, key=lambda error: error.shard)
            ),
        )

    # -- inspection --------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """JSON-ready cluster view (the ``GET /cluster`` payload)."""
        with self._num_shards_lock:
            known = sorted(self._num_shards.items())
        return {
            "topology": self._topology.describe(indexes=known),
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
