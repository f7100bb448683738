"""Unit tests for sharded builds and the shard manifest format."""

import json

import numpy as np
import pytest
from harness.legacy_header import retire_format

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder, BuiltShardedIndex
from repro.index.metadata import ShardEntry, ShardManifest, merge_shard_metadata
from repro.index.sharding import route_rows, shard_index_name
from repro.index.stats import build_stats
from repro.index.store_layout import open_headers
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.tokenizer import WhitespaceAnalyzer


def read_shard_manifest(store, name):
    """The shard manifest of build ``name`` as the opener finds it (``None``: plain)."""
    return open_headers(store, [name]).builds[0].manifest


def _rows(documents):
    return build_stats(documents, WhitespaceAnalyzer())


class TestPartitioning:
    def test_partitions_are_disjoint_and_complete(self, small_documents):
        shards = route_rows(_rows(small_documents), 3)
        assert len(shards) == len(small_documents)
        assert set(shards.tolist()) <= {0, 1, 2}

    def test_hash_partitioning_is_stable_across_orderings(self, small_documents):
        forward, backward = _rows(small_documents), _rows(list(reversed(small_documents)))
        assert dict(zip(forward.docs, route_rows(forward, 4).tolist())) == dict(
            zip(backward.docs, route_rows(backward, 4).tolist())
        )

    def test_invalid_arguments_rejected(self, small_documents):
        with pytest.raises(ValueError):
            route_rows(_rows(small_documents), 0)


class TestShardManifest:
    def test_round_trips_through_json(self):
        manifest = ShardManifest(
            index_name="idx",
            shards=(ShardEntry("idx/shard-0000", 3, 9), ShardEntry("idx/shard-0001", 2, 4)),
        )
        assert ShardManifest.from_dict(json.loads(json.dumps(manifest.to_dict()))) == manifest

    def test_records_hash_routing_and_reads_any_partitioner_alike(self):
        manifest = ShardManifest("idx", shards=(ShardEntry("idx/shard-0000"),))
        payload = manifest.to_dict()
        assert payload["partitioner"] == "hash"
        # An older build's manifest may name round-robin: the field is not read.
        assert ShardManifest.from_dict({**payload, "partitioner": "round-robin"}) == manifest

    def test_rejects_wrong_magic(self):
        with pytest.raises(ValueError):
            ShardManifest.from_dict({"format_version": 1, "index_name": "x"})

    def test_rejects_future_version(self):
        payload = ShardManifest(index_name="idx").to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            ShardManifest.from_dict(payload)

    def test_shards_must_be_the_builds_own(self):
        own = ShardManifest("x", shards=(ShardEntry("x/shard-0000"), ShardEntry("x/shard-0001")))
        assert own.validated("x") is own
        foreign = ShardManifest("x", shards=(ShardEntry("q/shard-0000"), ShardEntry("q/shard-0001")))
        for manifest in (foreign, ShardManifest("x"), ShardManifest("x", shards=own.shards[1:])):
            with pytest.raises(ValueError):
                manifest.validated("x")


class TestShardedBuild:
    def test_sharded_build_persists_manifest_and_the_plain_blobs(
        self, sim_store, small_documents, small_config
    ):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=4)
        built = builder.build_from_documents(small_documents, index_name="sharded")
        assert isinstance(built, BuiltShardedIndex)
        assert built.num_shards == 4
        assert built.num_documents == len(small_documents)
        manifest = read_shard_manifest(sim_store, "sharded")
        assert manifest is not None
        assert manifest.shard_names == [shard_index_name("sharded", i) for i in range(4)]
        # The build's one header and one superpost blob hold every shard's
        # share of one sketch, and its one stats blob every shard's
        # statistics: a shard owns no blob.
        assert sim_store.list_blobs("sharded/") == [
            "sharded/header.json",
            "sharded/stats.json",
            "sharded/superposts.bin",
        ]

    @pytest.mark.parametrize("num_shards", [1, 4, 16])
    def test_the_statistics_are_the_one_shard_builds_byte_for_byte(
        self, memory_store, sim_store, small_documents, small_config, num_shards
    ):
        AirphantBuilder(memory_store, config=small_config).build_from_documents(
            small_documents, index_name="one"
        )
        AirphantBuilder(sim_store, config=small_config, num_shards=num_shards).build_from_documents(
            small_documents, index_name="idx"
        )
        assert sim_store.get("idx/stats.json") == memory_store.get("one/stats.json")
        assert sim_store.list_blobs("idx/shard-") == []

    def test_manifest_stats_match_partition_sizes(
        self, sim_store, small_documents, small_config
    ):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=3)
        built = builder.build_from_documents(small_documents, index_name="sharded")
        sizes = np.bincount(route_rows(_rows(small_documents), 3), minlength=3)
        assert [entry.num_documents for entry in built.manifest.shards] == sizes.tolist()

    def test_single_shard_build_keeps_legacy_layout(
        self, sim_store, small_documents, small_config
    ):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=1)
        built = builder.build_from_documents(small_documents, index_name="plain")
        assert not isinstance(built, BuiltShardedIndex)
        assert sim_store.exists("plain/header.json")
        assert read_shard_manifest(sim_store, "plain") is None

    def test_shard_metadata_records_its_place(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=2)
        built = builder.build_from_documents(small_documents, index_name="sharded")
        for shard_index, shard in enumerate(built.shards):
            extra = shard.metadata.extra
            assert extra["shard_index"] == shard_index
            assert extra["num_shards"] == 2
            assert extra["partitioner"] == "hash"
            assert extra["parent_index"] == "sharded"

    def test_empty_partitions_build_empty_shards(self, sim_store, small_documents, small_config):
        # More shards than documents guarantees at least one empty partition.
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=16)
        built = builder.build_from_documents(small_documents, index_name="wide")
        assert built.num_shards == 16
        assert built.num_documents == len(small_documents)
        assert 0 in [entry.num_documents for entry in built.manifest.shards]

    def test_single_shard_rebuild_removes_stale_sharded_layout(
        self, sim_store, small_documents, small_config
    ):
        AirphantBuilder(sim_store, config=small_config, num_shards=4).build_from_documents(
            small_documents, index_name="idx"
        )
        AirphantBuilder(sim_store, config=small_config).build_from_documents(
            small_documents, index_name="idx"
        )
        # The manifest and every shard sub-index are gone: readers must not
        # keep answering from the old sharded corpus.
        assert read_shard_manifest(sim_store, "idx") is None
        assert sim_store.list_blobs("idx/") == [
            "idx/header.json",
            "idx/stats.json",
            "idx/superposts.bin",
        ]

    def test_sharded_rebuild_removes_stale_single_shard_layout(
        self, sim_store, small_documents, small_config
    ):
        AirphantBuilder(sim_store, config=small_config).build_from_documents(
            small_documents, index_name="idx"
        )
        plain = {blob: sim_store.get(blob) for blob in sim_store.list_blobs("idx/")}
        AirphantBuilder(sim_store, config=small_config, num_shards=2).build_from_documents(
            small_documents, index_name="idx"
        )
        assert read_shard_manifest(sim_store, "idx").num_shards == 2
        # The same three blobs: the sketch's two rewritten, the statistics
        # those of the plain build.
        assert sim_store.list_blobs("idx/") == sorted(plain)
        assert sim_store.get("idx/stats.json") == plain["idx/stats.json"]
        assert sim_store.get("idx/header.json") != plain["idx/header.json"]

    def test_resharding_to_fewer_shards_drops_orphans(
        self, sim_store, small_documents, small_config
    ):
        AirphantBuilder(sim_store, config=small_config, num_shards=4).build_from_documents(
            small_documents, index_name="idx"
        )
        # Four shards' statistics, as sharded builds once kept them.
        retire_format(sim_store, "idx", "shard-stats")
        assert len(sim_store.list_blobs("idx/shard-")) == 4
        manager = AppendOnlyIndexManager(sim_store, "idx", config=small_config)
        manager.build_base(small_documents, num_shards=2)
        base = manager.manifest().active_base
        assert read_shard_manifest(sim_store, base).num_shards == 2
        # The old layout is retired, readable for one swap of grace; the
        # next swap purges it.
        assert len(sim_store.list_blobs("idx/shard-")) == 4
        manager.build_base(small_documents, num_shards=2)
        assert sim_store.list_blobs("idx/shard-") == []
        assert not sim_store.exists("idx/stats.json")
        assert sim_store.exists(f"{manager.manifest().active_base}/stats.json")

    def test_invalid_shard_configuration_rejected(self, sim_store, small_config):
        with pytest.raises(ValueError):
            AirphantBuilder(sim_store, config=small_config, num_shards=0)
        with pytest.raises(TypeError):
            AirphantBuilder(sim_store, config=small_config, num_shards=2, partitioner="hash")


class TestShardedBaseWithDeltas:
    def test_append_and_compact_work_on_a_sharded_base(
        self, sim_store, small_documents, small_config
    ):
        from repro.parsing.documents import Document, Posting

        AirphantBuilder(sim_store, config=small_config, num_shards=4).build_from_documents(
            small_documents, index_name="idx"
        )
        extra_blob = "corpus/extra.txt"
        extra_text = "error brand new failure"
        sim_store.put(extra_blob, extra_text.encode("utf-8"))
        extra = [Document(ref=Posting(extra_blob, 0, len(extra_text)), text=extra_text)]

        manager = AppendOnlyIndexManager(sim_store, base_index="idx", config=small_config)
        manager.append(extra)
        searcher = manager.open_searcher()
        assert [d.ref for d in searcher.search("brand").documents] == [extra[0].ref]
        searcher.close()

        compacted = manager.compact()
        # Compaction folds the deltas in while preserving the base's sharded
        # layout: the new generational base has the same shard count, and the
        # manifest no longer lists any delta.
        assert compacted.num_documents == len(small_documents) + 1
        manifest = manager.manifest()
        assert manifest.delta_indexes == ()
        assert read_shard_manifest(sim_store, manifest.active_base).num_shards == 4
        # Readers that opened the pre-compaction manifest get one generation
        # of grace: the folded delta's blobs are retired, not yet deleted.
        assert manifest.retired == ("idx", "idx/delta-0000")
        assert sim_store.list_blobs("idx/delta-")
        searcher = manager.open_searcher()
        assert extra_text in {d.text for d in searcher.search("error").documents}
        # The next compaction purges what the previous swap stranded.
        manager.compact()
        assert not sim_store.list_blobs("idx/delta-")
        assert not sim_store.list_blobs("idx/shard-")

    def test_open_searcher_spans_sharded_base_and_deltas(
        self, sim_store, small_documents, small_config
    ):
        from repro.parsing.documents import Document, Posting

        AirphantBuilder(sim_store, config=small_config, num_shards=2).build_from_documents(
            small_documents, index_name="idx"
        )
        extra_blob = "corpus/extra.txt"
        extra_text = "error appended later"
        sim_store.put(extra_blob, extra_text.encode("utf-8"))
        extra = [Document(ref=Posting(extra_blob, 0, len(extra_text)), text=extra_text)]
        manager = AppendOnlyIndexManager(sim_store, base_index="idx", config=small_config)
        manager.append(extra)

        searcher = manager.open_searcher()
        texts = {document.text for document in searcher.search("error").documents}
        expected = {d.text for d in small_documents if "error" in d.text.split()}
        assert texts == expected | {extra_text}


class TestMergedMetadata:
    def test_counts_sum_and_structure_comes_from_first_shard(
        self, sim_store, small_documents, small_config
    ):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=3)
        built = builder.build_from_documents(small_documents, index_name="sharded")
        merged = merge_shard_metadata([shard.metadata for shard in built.shards])
        assert merged.num_documents == len(small_documents)
        assert merged.num_bins == built.shards[0].metadata.num_bins
        assert merged.corpus_name == "corpus"
        assert merged.extra["num_shards"] == 3

    def test_empty_input_merges_to_none(self):
        assert merge_shard_metadata([]) is None
