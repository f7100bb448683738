"""Unit tests for the Airphant Builder."""

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import decode_header
from repro.parsing.documents import Document, DocumentRef
from repro.parsing.tokenizer import SimpleAnalyzer


class TestBuildFromBlobs:
    def test_persists_header_and_superposts(self, sim_store, small_corpus_blob, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_blobs([small_corpus_blob], index_name="idx")
        assert sim_store.exists(built.header_blob)
        assert sim_store.exists(built.superpost_blob)
        assert built.header_blob == "idx/header.json"
        assert built.superpost_blob == "idx/superposts.bin"

    def test_metadata_matches_corpus(self, sim_store, small_corpus_blob, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_blobs([small_corpus_blob], corpus_name="small")
        assert built.metadata.corpus_name == "small"
        assert built.metadata.num_documents == 10
        assert built.metadata.num_terms == built.profile.num_terms
        assert built.metadata.num_layers >= 1

    def test_storage_bytes_counts_all_blobs(self, sim_store, small_corpus_blob, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_blobs([small_corpus_blob], index_name="idx")
        expected = (
            sim_store.size(built.header_blob)
            + sim_store.size(built.superpost_blob)
            + sim_store.size(built.stats_blob)
        )
        assert built.storage_bytes(sim_store) == expected


class TestBuildFromDocuments:
    def test_header_round_trips_through_storage(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_documents(small_documents, index_name="idx")
        decoded = decode_header(sim_store.backend.get(built.header_blob))
        assert decoded.mht.num_layers == built.mht.num_layers
        for column in ("bin_ids", "offsets", "lengths", "common_offsets", "common_lengths"):
            assert getattr(decoded.mht, column) == getattr(built.mht, column)
        assert len(decoded.mht.bin_ids) > 0
        assert decoded.mht.blob_bytes == sim_store.size(built.superpost_blob)

    def test_expected_false_positives_respects_target(
        self, sim_store, small_documents, small_config
    ):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_documents(small_documents)
        assert built.metadata.expected_false_positives <= small_config.target_false_positives

    def test_explicit_layer_count_skips_optimizer(self, sim_store, small_documents):
        config = SketchConfig(num_bins=64, num_layers=3, seed=1)
        builder = AirphantBuilder(sim_store, config=config)
        built = builder.build_from_documents(small_documents)
        assert built.metadata.num_layers == 3

    def test_common_words_receive_exact_bins(self, sim_store, small_documents):
        # With 100 bins and a 10% common fraction, the most frequent words get
        # exact pointers in the MHT.
        config = SketchConfig(num_bins=100, common_word_fraction=0.1, seed=2)
        builder = AirphantBuilder(sim_store, config=config)
        built = builder.build_from_documents(small_documents)
        assert built.metadata.num_common_words > 0
        assert len(built.mht.common_words) == built.metadata.num_common_words
        assert all(built.mht.is_common(word) for word in built.mht.common_words)

    def test_empty_corpus_builds_an_empty_index(self, sim_store, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_documents([])
        assert built.metadata.num_documents == 0
        assert built.metadata.num_layers == 1

    def test_custom_tokenizer_changes_vocabulary(self, sim_store, small_documents):
        config = SketchConfig(num_bins=64)
        lowercase = AirphantBuilder(sim_store, config=config, tokenizer=SimpleAnalyzer())
        built = lowercase.build_from_documents(
            [Document(DocumentRef("b", 0, 12), "Error ERROR!")], index_name="lower"
        )
        assert built.profile.num_terms == 1

    def test_two_indexes_can_coexist_in_one_store(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        first = builder.build_from_documents(small_documents, index_name="one")
        second = builder.build_from_documents(small_documents, index_name="two")
        assert sim_store.exists(first.header_blob)
        assert sim_store.exists(second.header_blob)
        assert first.header_blob != second.header_blob

    def test_config_property_exposed(self, sim_store, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        assert builder.config is small_config
