"""Cluster topology: consistent-hash shard → node placement.

A topology is a pure, deterministic function from the peer list to shard
assignments — no coordination service, no stored state.  Every router and
node computes the same :class:`HashRing` independently from the same peer
list, so they all agree on which node owns which shard (and who its
failover replicas are) without ever talking to each other about it.
Membership churn keeps placement stable: adding or removing one node only
moves an expected ``1/n`` of the shard keys.

Shards are identified by ``(index, ordinal)``; the corresponding ring key
is ``{index}/shard-{ordinal:04d}``, matching the shard blob layout, so a
key's placement is stable across topology instances and processes.
Unsharded state (plain indexes, deltas, live memtables) rides with
ordinal 0: whichever node owns shard 0 answers it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterable, Sequence

from repro.index.store_layout import shard_index_name


def _ring_digest(token: str) -> int:
    """Stable 64-bit position of ``token`` on the ring.

    BLAKE2b rather than the builtin ``hash``: placement must agree across
    processes (every router and node computes the same ring independently).
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping keys to member nodes.

    Each node owns ``vnodes`` pseudo-random points on a 64-bit ring; a key is
    served by the first node point at or after the key's own position
    (wrapping).  The classic guarantees follow:

    * **bounded movement** — adding or removing one node only reassigns the
      keys that land on that node's arcs (an expected ``1/n`` fraction);
      every other key keeps its owner;
    * **balance** — with enough virtual nodes per member the arcs even out
      (the default 64 keeps the spread within a small factor).

    The ring is immutable; :meth:`with_node` / :meth:`without_node` derive
    the post-churn ring, which is how joins and leaves are modelled.
    """

    def __init__(self, nodes: Iterable[str], vnodes: int = 64) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        unique = list(dict.fromkeys(nodes))
        if not unique:
            raise ValueError("HashRing needs at least one node")
        self._nodes = tuple(unique)
        self._vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in unique:
            for replica in range(vnodes):
                points.append((_ring_digest(f"{node}#{replica}"), node))
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    @property
    def nodes(self) -> tuple[str, ...]:
        """Member nodes, in insertion order."""
        return self._nodes

    @property
    def vnodes(self) -> int:
        """Virtual points per member node."""
        return self._vnodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def with_node(self, node: str) -> "HashRing":
        """The ring after ``node`` joins (no-op if already a member)."""
        if node in self._nodes:
            return self
        return HashRing([*self._nodes, node], vnodes=self._vnodes)

    def without_node(self, node: str) -> "HashRing":
        """The ring after ``node`` leaves.

        Raises ``ValueError`` when removing the last member — an empty ring
        can place nothing.
        """
        remaining = [member for member in self._nodes if member != node]
        if not remaining:
            raise ValueError("cannot remove the last node from a HashRing")
        return HashRing(remaining, vnodes=self._vnodes)

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (the first replica)."""
        return self.replicas_for(key, 1)[0]

    def replicas_for(self, key: str, count: int) -> list[str]:
        """The ordered replica set for ``key``: ``count`` *distinct* nodes.

        Walks the ring clockwise from the key's position, collecting each
        distinct node once, so replica 0 is the consistent-hash owner and
        later replicas are its ring successors.  ``count`` is capped at the
        member count (a 2-node ring cannot hold 3 distinct replicas).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        count = min(count, len(self._nodes))
        start = bisect.bisect_right(self._positions, _ring_digest(key))
        replicas: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            _, node = self._points[(start + step) % len(self._points)]
            if node not in seen:
                seen.add(node)
                replicas.append(node)
                if len(replicas) == count:
                    break
        return replicas


def place_replicas(
    keys: Sequence[str], ring: HashRing, replication_factor: int = 1
) -> dict[str, list[str]]:
    """Place every key on its ordered replica set.

    The bulk form of :meth:`HashRing.replicas_for`, used by
    :meth:`ClusterTopology.assignments` to compute one shard→nodes map per
    index.
    """
    return {key: ring.replicas_for(key, replication_factor) for key in keys}


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
