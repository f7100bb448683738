"""Cluster topology: consistent-hash shard → node placement.

A topology is a pure, deterministic function from the peer list to shard
assignments — no coordination service, no stored state.  Every router and
node computes the same :class:`~repro.search.replication.HashRing`
independently from the same peer list, so they all agree on which node owns
which shard (and who its failover replicas are) without ever talking to
each other about it.  Membership churn keeps placement stable: adding or
removing one node only moves an expected ``1/n`` of the shard keys.

Shards are identified by ``(index, ordinal)``; the corresponding ring key
is ``{index}/shard-{ordinal:04d}``, matching the shard blob layout, so a
key's placement is stable across topology instances and processes.
Unsharded state (plain indexes, deltas, live memtables) rides with
ordinal 0: whichever node owns shard 0 answers it.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.index.store_layout import shard_index_name
from repro.search.replication import HashRing, place_replicas


class ClusterTopology:
    """Deterministic shard→node placement over a fixed peer list.

    Parameters
    ----------
    peers:
        Base URLs of the member nodes (order-insensitive; duplicates are
        dropped).
    replication_factor:
        Distinct nodes per shard: the first is the owner, the rest are the
        failover / hedge replicas, capped at the member count.
    vnodes:
        Virtual ring points per node (balance knob of :class:`HashRing`).
    """

    def __init__(
        self,
        peers: Iterable[str],
        replication_factor: int = 2,
        vnodes: int = 64,
    ) -> None:
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        self._ring = HashRing(peers, vnodes=vnodes)
        self._replication_factor = replication_factor

    @property
    def peers(self) -> tuple[str, ...]:
        """The member node URLs."""
        return self._ring.nodes

    @property
    def replication_factor(self) -> int:
        """Requested distinct replicas per shard (capped at the peer count)."""
        return self._replication_factor

    @property
    def ring(self) -> HashRing:
        """The underlying consistent-hash ring."""
        return self._ring

    def __len__(self) -> int:
        return len(self._ring)

    @staticmethod
    def shard_key(index: str, ordinal: int) -> str:
        """The ring key of one shard (mirrors the shard blob prefix)."""
        return shard_index_name(index, ordinal)

    def replicas(self, index: str, ordinal: int) -> list[str]:
        """Ordered replica set for one shard: owner first, failovers after."""
        return self._ring.replicas_for(
            self.shard_key(index, ordinal), self._replication_factor
        )

    def assignments(self, index: str, num_shards: int) -> dict[int, list[str]]:
        """Ordinal → ordered replica set for every shard of ``index``."""
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        keys = [self.shard_key(index, ordinal) for ordinal in range(num_shards)]
        placement = place_replicas(keys, self._ring, self._replication_factor)
        return {ordinal: placement[keys[ordinal]] for ordinal in range(num_shards)}

    def with_peer(self, peer: str) -> "ClusterTopology":
        """The topology after ``peer`` joins (no-op if already a member)."""
        return ClusterTopology(
            [*self._ring.nodes, peer],
            replication_factor=self._replication_factor,
            vnodes=self._ring.vnodes,
        )

    def without_peer(self, peer: str) -> "ClusterTopology":
        """The topology after ``peer`` leaves (``ValueError`` on the last)."""
        remaining = [node for node in self._ring.nodes if node != peer]
        return ClusterTopology(
            remaining,
            replication_factor=self._replication_factor,
            vnodes=self._ring.vnodes,
        )

    def describe(self, indexes: Sequence[tuple[str, int]] = ()) -> dict[str, Any]:
        """JSON-ready summary (the ``GET /cluster`` topology block).

        ``indexes`` optionally names ``(index, num_shards)`` pairs whose
        concrete shard assignments should be included.
        """
        payload: dict[str, Any] = {
            "peers": list(self._ring.nodes),
            "replication_factor": self._replication_factor,
            "vnodes": self._ring.vnodes,
        }
        if indexes:
            payload["assignments"] = {
                index: {
                    str(ordinal): nodes
                    for ordinal, nodes in self.assignments(index, num_shards).items()
                }
                for index, num_shards in indexes
            }
        return payload
