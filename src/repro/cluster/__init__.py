"""Scale-out query tier: consistent-hash topology, health, and routing.

Airphant's premise is elastic compute over shared cloud storage: searcher
nodes are stateless (all index state lives in the object store), so a query
tier can grow and shrink freely.  This package adds the missing serving
layer on top of the single-node service:

* :mod:`~repro.cluster.topology` — which node answers which shard, via a
  consistent-hash ring;
* :mod:`~repro.cluster.health` — background ``/healthz`` probes with
  mark-down / mark-up and backoff, feeding routing decisions;
* :mod:`~repro.cluster.router` — the scatter-gather
  :class:`~repro.cluster.router.QueryRouter`: per-shard fan-out over HTTP,
  node-level failover and hedged replica retries, and a partial-result
  merge that degrades (``partial: true`` plus per-shard error detail)
  instead of failing the query.

Every node runs the same binary: ``airphant serve --peers`` turns the
standalone service into a cluster member that both answers shard subsets
and routes whole queries.
"""

from repro.cluster.health import HealthTracker, NodeHealth
from repro.cluster.router import QueryRouter, RoutePlan
from repro.cluster.topology import ClusterTopology

__all__ = [
    "ClusterTopology",
    "HealthTracker",
    "NodeHealth",
    "QueryRouter",
    "RoutePlan",
]
