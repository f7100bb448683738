"""Scale-out query tier: health and routing.

Airphant's premise is elastic compute over shared cloud storage: searcher
nodes are stateless (all index state lives in the object store), so every
node can answer every query and a query tier grows by adding nodes.  This
package adds the serving layer on top of the single-node service:

* :mod:`~repro.cluster.health` — background ``/healthz`` probes with
  mark-down / mark-up and backoff, feeding routing decisions;
* :mod:`~repro.cluster.router` — the
  :class:`~repro.cluster.router.QueryRouter`: each query goes whole to one
  node, picked by a rendezvous hash of the query, with failover and hedging
  to the next node.

Every node runs the same binary: ``airphant serve --peers`` turns the
standalone service into a router that may list itself among its peers.
"""

from repro.cluster.health import HealthTracker, NodeHealth
from repro.cluster.router import ROUTED_HEADER, QueryRouter, rendezvous

__all__ = [
    "HealthTracker",
    "NodeHealth",
    "QueryRouter",
    "ROUTED_HEADER",
    "rendezvous",
]
