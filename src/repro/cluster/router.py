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
  across nodes instead of requests.
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
import inspect
import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

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
    LatencyInfo,
    SearchRequest,
    SearchResponse,
    ServiceError,
    ShardErrorInfo,
)
from repro.storage.connections import ConnectionPool, send

#: How a router reaches a node: ``(base_url, path, json_payload, timeout_s)``
#: → decoded JSON.  ``payload=None`` means GET.  Implementations raise
#: :class:`NodeQueryError` for node-level failures (unreachable, timeout,
#: 5xx) and :class:`~repro.service.api.ServiceError` for definitive 4xx
#: answers.  A transport *may* accept a keyword-only ``headers`` mapping;
#: the router detects support by signature and uses it to propagate trace
#: context to peers (transports without the parameter simply don't carry
#: trace headers — routing is unaffected).
Transport = Callable[[str, str, Mapping[str, Any] | None, float], Any]


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
        # Trace headers are an optional transport capability: carry them
        # only when the transport's signature declares a ``headers``
        # parameter (older 4-arg transports keep working unchanged).
        try:
            self._transport_headers = (
                "headers" in inspect.signature(self._transport).parameters
            )
        except (TypeError, ValueError):
            self._transport_headers = False
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
        # Scatter pool: wide enough for a full fan-out; hedge duplicates run
        # on their own pool so they can never starve the primaries that
        # spawned them.
        workers = max(8, 2 * len(self._topology.peers))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="airphant-router"
        )
        self._hedge_pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="airphant-router-hedge"
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
        """Stop probing, release the scatter pools and idle connections (idempotent)."""
        if self._owns_health:
            self._health.close()
        self._pool.shutdown(wait=False)
        self._hedge_pool.shutdown(wait=False)
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
            # Pool threads do not inherit contextvars; re-attach the ambient
            # span so each group's node spans land under this route span.
            parent = current_span()

            def query_group(
                candidates: tuple[str, ...], ordinals: tuple[int, ...]
            ) -> SearchResponse:
                with attach(parent):
                    return self._query_group(request, candidates, ordinals)

            futures = {
                self._pool.submit(query_group, candidates, ordinals): (
                    candidates,
                    ordinals,
                )
                for candidates, ordinals in plan.groups
            }
            responses: list[SearchResponse] = []
            shard_errors: list[ShardErrorInfo] = []
            definitive: ServiceError | None = None
            for future in futures:
                candidates, ordinals = futures[future]
                try:
                    responses.append(future.result())
                except ServiceError as error:
                    # A typed 4xx from any node condemns the whole request
                    # (same query everywhere — the others would reject it too).
                    definitive = definitive or error
                except NodeQueryError as error:
                    self._shard_errors_metric.inc(len(ordinals))
                    shard_errors.extend(
                        ShardErrorInfo(
                            shard=ordinal,
                            node=candidates[-1] if candidates else "",
                            error=error.code,
                            message=str(error),
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

    def _query_group(
        self,
        request: SearchRequest,
        candidates: tuple[str, ...],
        ordinals: tuple[int, ...],
    ) -> SearchResponse:
        """One group's answer, with failover, retries, and optional hedging.

        Tries the health-ordered candidates in sequence (``node_retries``
        extra passes), marking each outcome in the health tracker.  With
        hedging on, the first attempt races the primary against a
        delay-started backup.  Raises the last :class:`NodeQueryError`
        when every attempt fails.
        """
        if not candidates:
            raise NodeQueryError("no_replicas", "no replica assigned")
        if self._node_hedge_ms > 0 and len(candidates) > 1:
            try:
                return self._query_hedged(request, candidates, ordinals)
            except NodeQueryError as error:
                last_error = error
                remaining = list(candidates[2:])
        else:
            last_error = None
            remaining = list(candidates)
        attempts = remaining + list(candidates) * self._node_retries
        first = last_error is None
        for node in attempts:
            if not first:
                self._failovers_metric.inc()
            first = False
            try:
                response = self._query_node(request, node, ordinals)
            except NodeQueryError as error:
                last_error = error
                continue
            return response
        assert last_error is not None
        raise last_error

    def _query_hedged(
        self,
        request: SearchRequest,
        candidates: tuple[str, ...],
        ordinals: tuple[int, ...],
    ) -> SearchResponse:
        """Race the primary against a backup started ``node_hedge_ms`` later."""
        parent = current_span()

        def query_node(node: str) -> SearchResponse:
            with attach(parent):
                return self._query_node(request, node, ordinals)

        primary = self._hedge_pool.submit(query_node, candidates[0])
        done, _ = wait([primary], timeout=self._node_hedge_ms / 1000.0)
        if done:
            return primary.result()  # raises the primary's NodeQueryError
        self._hedges_metric.inc()
        backup = self._hedge_pool.submit(query_node, candidates[1])
        pending = {primary, backup}
        last_error: NodeQueryError | None = None
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    return future.result()
                except NodeQueryError as error:
                    last_error = error
                # ServiceError (typed 4xx) propagates out of the loop.
        assert last_error is not None
        raise last_error

    def _query_node(
        self, request: SearchRequest, node: str, ordinals: tuple[int, ...]
    ) -> SearchResponse:
        """POST one shard-subset request to ``node`` and record the outcome."""
        payload = request.to_dict()
        payload["shards"] = list(ordinals)
        with span("router.node", node=node, shards=list(ordinals)) as node_span:
            headers: dict[str, str] | None = None
            trace_id = getattr(node_span, "trace_id", None)
            if trace_id is not None and self._transport_headers:
                # Ask the peer to trace its share of the query under our
                # trace id; its response carries the sub-tree to graft.
                headers = {
                    TRACE_ID_HEADER: trace_id,
                    PARENT_SPAN_HEADER: node_span.span_id,
                }
            try:
                if headers is not None:
                    body = self._transport(
                        node, "/search", payload, self._shard_timeout_s, headers=headers
                    )
                else:
                    body = self._transport(node, "/search", payload, self._shard_timeout_s)
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
        parallel, so elapsed times take the maximum across them, while bytes
        and round trips are real work and add up.  (Within one node nothing
        is merged: its executor waits for two waves and reports their sum.)
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
        latency = LatencyInfo(
            lookup_ms=max(r.latency.lookup_ms for r in responses),
            retrieval_ms=max(r.latency.retrieval_ms for r in responses),
            wait_ms=max(r.latency.wait_ms for r in responses),
            download_ms=sum(r.latency.download_ms for r in responses),
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
