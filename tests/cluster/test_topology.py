"""Unit tests for the consistent-hash ring and the cluster topology over it."""

import random

import pytest

from repro.cluster.topology import ClusterTopology, HashRing, place_replicas

PEERS = (
    "http://10.0.0.1:8080",
    "http://10.0.0.2:8080",
    "http://10.0.0.3:8080",
)


class TestClusterTopology:
    def test_peers_and_len(self):
        topology = ClusterTopology(PEERS)
        assert set(topology.peers) == set(PEERS)
        assert len(topology) == 3

    def test_duplicate_peers_are_dropped(self):
        topology = ClusterTopology(PEERS + PEERS)
        assert len(topology) == 3

    def test_replication_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusterTopology(PEERS, replication_factor=0)

    def test_shard_key_is_stable_and_zero_padded(self):
        assert ClusterTopology.shard_key("logs", 3) == "logs/shard-0003"
        assert ClusterTopology.shard_key("logs", 123) == "logs/shard-0123"

    def test_replicas_are_distinct_and_sized(self):
        topology = ClusterTopology(PEERS, replication_factor=2)
        for ordinal in range(16):
            replicas = topology.replicas("logs", ordinal)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
            assert set(replicas) <= set(PEERS)

    def test_replication_factor_is_capped_at_peer_count(self):
        topology = ClusterTopology(PEERS, replication_factor=5)
        replicas = topology.replicas("logs", 0)
        assert sorted(replicas) == sorted(PEERS)

    def test_assignments_cover_every_ordinal(self):
        topology = ClusterTopology(PEERS)
        assignments = topology.assignments("logs", 16)
        assert sorted(assignments) == list(range(16))
        for ordinal in range(16):
            assert assignments[ordinal] == topology.replicas("logs", ordinal)

    def test_assignments_reject_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            ClusterTopology(PEERS).assignments("logs", 0)

    def test_placement_is_deterministic_across_instances(self):
        a = ClusterTopology(PEERS).assignments("logs", 32)
        b = ClusterTopology(reversed(PEERS)).assignments("logs", 32)
        assert a == b

    def test_join_moves_a_bounded_fraction_of_owners(self):
        before = ClusterTopology(PEERS)
        after = before.with_peer("http://10.0.0.4:8080")
        num_shards = 128
        old = before.assignments("logs", num_shards)
        new = after.assignments("logs", num_shards)
        moved = sum(1 for o in range(num_shards) if old[o][0] != new[o][0])
        # Consistent hashing: a join should move roughly 1/n of the owners,
        # never rebalance everything.
        assert moved <= num_shards // 2

    def test_leave_only_reassigns_the_leavers_shards(self):
        before = ClusterTopology(PEERS, replication_factor=1)
        leaver = PEERS[0]
        after = before.without_peer(leaver)
        num_shards = 128
        old = before.assignments("logs", num_shards)
        new = after.assignments("logs", num_shards)
        for ordinal in range(num_shards):
            if old[ordinal][0] != leaver:
                assert new[ordinal][0] == old[ordinal][0]

    def test_describe_includes_optional_assignments(self):
        topology = ClusterTopology(PEERS, replication_factor=2)
        plain = topology.describe()
        assert plain["replication_factor"] == 2
        assert set(plain["peers"]) == set(PEERS)
        assert "assignments" not in plain
        detailed = topology.describe(indexes=[("logs", 4)])
        assert set(detailed["assignments"]["logs"]) == {"0", "1", "2", "3"}


def _shard_keys(count: int = 256) -> list[str]:
    return [f"bench-index/shard-{ordinal:04d}" for ordinal in range(count)]


class TestHashRing:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_rejects_non_positive_vnodes(self):
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_single_node_owns_everything(self):
        ring = HashRing(["solo"])
        assert all(ring.node_for(key) == "solo" for key in _shard_keys(32))

    def test_placement_is_deterministic_across_instances(self):
        # Two independently constructed rings (e.g. a router and a node in
        # different processes) must agree on every placement.
        first = HashRing(["a", "b", "c"])
        second = HashRing(["c", "a", "b"])  # membership order must not matter
        for key in _shard_keys(64):
            assert first.replicas_for(key, 2) == second.replicas_for(key, 2)

    def test_replicas_are_distinct_and_capped(self):
        ring = HashRing(["a", "b", "c"])
        for key in _shard_keys(64):
            replicas = ring.replicas_for(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
        # More replicas than members: capped, never padded or duplicated.
        assert len(ring.replicas_for("x", 9)) == 3

    def test_replica_zero_is_the_owner(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in _shard_keys(64):
            assert ring.replicas_for(key, 3)[0] == ring.node_for(key)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).replicas_for("key", 0)

    def test_balance_within_small_factor(self):
        ring = HashRing([f"node-{i}" for i in range(8)])
        counts: dict[str, int] = {}
        for key in _shard_keys(4096):
            counts[ring.node_for(key)] = counts.get(ring.node_for(key), 0) + 1
        assert set(counts) == set(ring.nodes)  # every node owns something
        expected = 4096 / 8
        for owned in counts.values():
            assert expected / 3 <= owned <= expected * 3

    def test_join_moves_only_a_bounded_fraction(self):
        keys = _shard_keys(2048)
        ring = HashRing([f"node-{i}" for i in range(7)])
        before = {key: ring.node_for(key) for key in keys}
        grown = ring.with_node("node-7")
        moved = sum(1 for key in keys if grown.node_for(key) != before[key])
        # Expected movement is 1/8 of the keys; allow generous slack but far
        # below the ~7/8 a naive mod-N rehash would move.
        assert moved <= len(keys) * 0.30
        # Every moved key moved TO the joining node, never between survivors.
        for key in keys:
            if grown.node_for(key) != before[key]:
                assert grown.node_for(key) == "node-7"

    def test_leave_moves_only_the_leavers_keys(self):
        keys = _shard_keys(2048)
        ring = HashRing([f"node-{i}" for i in range(8)])
        before = {key: ring.node_for(key) for key in keys}
        shrunk = ring.without_node("node-3")
        for key in keys:
            if before[key] != "node-3":
                assert shrunk.node_for(key) == before[key]

    def test_cannot_remove_last_node(self):
        with pytest.raises(ValueError):
            HashRing(["only"]).without_node("only")

    def test_randomized_membership_churn_invariants(self):
        """Replica-set invariants hold through a random join/leave history."""
        rng = random.Random(11)
        keys = _shard_keys(512)
        members = [f"node-{i}" for i in range(4)]
        ring = HashRing(members)
        next_id = 4
        for _ in range(24):
            if len(ring) > 2 and rng.random() < 0.5:
                ring = ring.without_node(rng.choice(ring.nodes))
            else:
                ring = ring.with_node(f"node-{next_id}")
                next_id += 1
            placement = place_replicas(keys, ring, replication_factor=2)
            for key, replicas in placement.items():
                assert 1 <= len(replicas) <= 2
                assert len(replicas) == min(2, len(ring))
                assert len(set(replicas)) == len(replicas)
                assert all(node in ring for node in replicas)
                assert replicas == ring.replicas_for(key, 2)  # deterministic

    def test_churn_key_movement_stays_bounded_per_step(self):
        rng = random.Random(29)
        keys = _shard_keys(1024)
        ring = HashRing([f"node-{i}" for i in range(6)])
        next_id = 6
        for _ in range(16):
            before = {key: ring.node_for(key) for key in keys}
            if len(ring) > 3 and rng.random() < 0.5:
                ring = ring.without_node(rng.choice(ring.nodes))
            else:
                ring = ring.with_node(f"node-{next_id}")
                next_id += 1
            moved = sum(1 for key in keys if ring.node_for(key) != before[key])
            # One membership change reassigns about 1/n of the keys; assert
            # it stays well under half (a full reshuffle would move ~all).
            assert moved <= len(keys) * 0.5
