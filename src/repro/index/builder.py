"""Airphant Builder.

The Builder is the offline component that turns a corpus into a persisted
IoU Sketch (Figure 3, left half).  Its one input is a build's exact inverted
index — the ranking statistics columns of :mod:`repro.index.stats` — and
everything else derives from those columns:

1. cut the corpus blobs into one table of byte-range references and texts
   (:meth:`~repro.parsing.corpus.CorpusParser.table`, no object per
   document), and tokenize each document once into the statistics
   (:func:`build_stats`) — or, when compacting, merge the members'
   statistics (:func:`union_stats`);
2. profile the corpus from the columns, its documents grouped by size once;
3. optimize the number of layers with Algorithm 1 (unless pinned), at most
   :data:`MAX_LAYERS` of them;
4. select the common words that receive exact bins;
5. hash every other term once and union its document rows into its bins,
   as sorted columns;
6. lay the superposts out along those same hash chains
   (:mod:`~repro.index.layout`), compact them into a single blob and
   persist it;
7. persist the statistics themselves, then, last, the header blob (hash
   seeds, bin pointers, string table, metadata): the header is the build's
   commit point, so every build that opens has its statistics.

A sharded build runs 2–7 once, over the whole build, with each bin's and
common word's list cut by shard (:func:`~repro.index.compaction.compact_sketch`),
and writes the same three blobs as a plain one: the statistics are the
build's, byte for byte what a one-shard build of the corpus writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Union

import numpy as np

from repro.core.analysis import SizeClasses, expected_false_positives, size_classes
from repro.core.config import SketchConfig
from repro.core.hashing import LayeredHasher
from repro.core.mht import MultilayerHashTable
from repro.core.optimizer import minimize_layers
from repro.core.sketch import PostingColumns, SketchColumns
from repro.index.compaction import compact_sketch, encode_header
from repro.index.layout import CoAccess
from repro.index.metadata import PARTITIONER, IndexMetadata, ShardEntry, ShardManifest
from repro.index.serialization import CODEC_VERSION
from repro.index.sharding import check_partitioning, route_rows
from repro.index.stats import IndexStats, build_stats, encode_stats, shard_profiles
from repro.index.store_layout import (
    build_bytes,
    header_blob_name,
    shard_index_name,
    stats_blob_name,
    superpost_blob_name,
)
from repro.parsing.corpus import CorpusParser, LineDelimitedCorpusParser
from repro.parsing.documents import Document
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.profiling.profiler import CorpusProfile
from repro.storage.base import ObjectStore

#: Cap on the layer count Algorithm 1 may choose, bounding query fan-out.
MAX_LAYERS = 64


@dataclass
class BuiltIndex:
    """Handle to a freshly built (and persisted) index."""

    index_name: str
    #: Empty for a shard: its header and statistics, like its superposts and
    #: ``mht``, are its build's.
    header_blob: str
    superpost_blob: str
    metadata: IndexMetadata
    mht: MultilayerHashTable
    #: What the metadata was made from; its per-word maps stay empty.
    profile: CorpusProfile
    config: SketchConfig
    stats_blob: str = ""

    def storage_bytes(self, store: ObjectStore) -> int:
        """Total bytes the index occupies in cloud storage."""
        return build_bytes(store, self.index_name)


@dataclass
class BuiltShardedIndex:
    """Handle to a freshly built sharded index (N per-shard sub-indexes)."""

    index_name: str
    manifest: ShardManifest
    shards: list[BuiltIndex] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        """Number of shards built."""
        return len(self.shards)

    @property
    def num_documents(self) -> int:
        """Documents indexed across all shards."""
        return sum(shard.metadata.num_documents for shard in self.shards)

    def storage_bytes(self, store: ObjectStore) -> int:
        """Total bytes the sharded index occupies in cloud storage."""
        return build_bytes(store, self.index_name)


class AirphantBuilder:
    """Creates and persists IoU Sketch indexes on an object store.

    With ``num_shards > 1`` the builder runs in *sharded mode*: documents are
    partitioned by document hash and the build is one sketch
    whose every list is cut by shard; one header — a versioned
    :class:`~repro.index.metadata.ShardManifest` and each shard's split of
    the runs — ties them together; the statistics stay whole, one blob for
    the build.  Single-shard builds keep the plain header.
    """

    def __init__(
        self,
        store: ObjectStore,
        config: SketchConfig | None = None,
        tokenizer: Tokenizer | None = None,
        num_shards: int = 1,
    ) -> None:
        check_partitioning(num_shards)
        self._store = store
        self._config = config if config is not None else SketchConfig()
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._num_shards = num_shards
        # The configured hashed bins for each shard, so that adding shards
        # does not crowd the bins (the header stores only the occupied ones).
        self._sketch_bins = self._config.sketch_bins * num_shards

    @property
    def config(self) -> SketchConfig:
        """The sketch configuration used for builds."""
        return self._config

    @property
    def num_shards(self) -> int:
        """Shard count of this builder (1 = legacy single-shard layout)."""
        return self._num_shards

    # -- public build entry points -----------------------------------------------

    def build_from_blobs(
        self,
        blob_names: Sequence[str],
        corpus_parser: CorpusParser | None = None,
        index_name: str = "airphant-index",
        corpus_name: str = "corpus",
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Build an index over the documents contained in the named blobs."""
        parser = corpus_parser if corpus_parser is not None else LineDelimitedCorpusParser()
        table = parser.table(self._store, blob_names)
        return self._build(build_stats(table, self._tokenizer), index_name, corpus_name)

    def build_from_documents(
        self,
        documents: Iterable[Document],
        index_name: str = "airphant-index",
        corpus_name: str = "corpus",
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Build an index over already-parsed documents.

        Returns a :class:`BuiltIndex` in single-shard mode and a
        :class:`BuiltShardedIndex` when the builder was created with
        ``num_shards > 1``; a document goes to the shard
        :func:`~repro.index.sharding.route_rows` gives its row.
        """
        return self._build(build_stats(documents, self._tokenizer), index_name, corpus_name)

    def build_from_stats(
        self,
        stats: IndexStats,
        index_name: str = "airphant-index",
        corpus_name: str = "corpus",
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Build an index over statistics already in hand (compaction's
        merged columns): no document is read or analysed again."""
        return self._build(stats, index_name, corpus_name)

    def _build(
        self,
        stats: IndexStats,
        index_name: str,
        corpus_name: str,
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Persist the build of ``stats`` as its three blobs under
        ``index_name``, touching nothing else there (where a base over a name
        lands is :meth:`~repro.index.updates.AppendOnlyIndexManager.build_base`'s
        decision).  A sharded build is one sketch too, its
        lists cut by shard, and writes the same three blobs: its statistics
        are the build's, whatever the shard count."""
        profile = stats.profile()
        documents = size_classes(profile)
        num_layers = self._choose_layers(profile, documents)
        sketch, coaccess = self._sketch(stats, num_layers)
        superpost_blob, header_blob = superpost_blob_name(index_name), header_blob_name(index_name)
        stats_blob = stats_blob_name(index_name)
        built: Union[BuiltIndex, BuiltShardedIndex]
        if self._num_shards == 1:
            metadata = self._make_metadata(corpus_name, profile, sketch, num_layers, documents)
            compacted = compact_sketch(sketch, superpost_blob, metadata, coaccess)
            built = BuiltIndex(
                index_name, header_blob, superpost_blob, metadata, compacted.mht, profile,
                self._config, stats_blob,
            )
        else:
            shard_of_row = route_rows(stats, self._num_shards)
            names = [shard_index_name(index_name, shard) for shard in range(self._num_shards)]
            profiles = shard_profiles(stats, shard_of_row, self._num_shards)
            parts = [
                self._make_metadata(
                    f"{corpus_name}#shard-{shard:04d}", part_profile, sketch, num_layers,
                    size_classes(part_profile),
                    dict(
                        shard_index=shard, num_shards=self._num_shards,
                        partitioner=PARTITIONER, parent_index=index_name,
                    ),
                )
                for shard, part_profile in enumerate(profiles)
            ]
            entries = [
                ShardEntry(name, metadata.num_documents, metadata.num_terms)
                for name, metadata in zip(names, parts)
            ]
            manifest = ShardManifest(index_name, tuple(entries))
            compacted = compact_sketch(
                sketch, superpost_blob, coaccess=coaccess, manifest=manifest,
                shard_metadata=parts, shard_of_row=shard_of_row,
            )
            shards = [
                BuiltIndex(name, "", superpost_blob, metadata, compacted.mht, part, self._config)
                for name, metadata, part in zip(names, parts, profiles)
            ]
            built = BuiltShardedIndex(index_name, manifest, shards)
        # The header is the build's commit point, written last: a crash
        # mid-build leaves no header (the name does not open) or a header
        # whose superposts and ranking statistics are both there.
        self._store.put(superpost_blob, compacted.superpost_blob_data)
        self._store.put(stats_blob, encode_stats(stats))
        self._store.put(header_blob, encode_header(compacted))
        return built

    # -- build steps ----------------------------------------------------------------

    def _choose_layers(self, profile: CorpusProfile, documents: SizeClasses) -> int:
        """Pin the configured layer count or run Algorithm 1 over the
        profile's ``documents``."""
        if self._config.num_layers is not None:
            return self._config.num_layers
        if profile.num_documents == 0 or profile.num_terms == 0:
            return 1
        result = minimize_layers(
            num_bins=self._sketch_bins,
            target_false_positives=self._config.target_false_positives,
            profile=documents,
            max_layers=MAX_LAYERS,
        )
        return result.num_layers

    def _sketch(self, stats: IndexStats, num_layers: int) -> tuple[SketchColumns, CoAccess]:
        """The IoU Sketch of the exact inverted index ``stats``: the common
        words — the most frequent, ties to the lower term — keep their own
        entries as exact lists, and every other term's document rows are
        unioned into its bin of each layer.  Those terms' hash chains, with
        their document frequencies, are what the layout walks."""
        words = stats.words()
        sizes = np.diff(stats.term_starts.astype(np.int64))
        common = np.zeros(len(sizes), bool)
        common[np.argsort(-sizes, kind="stable")[: self._config.common_word_bins]] = True
        total_bins = max(self._sketch_bins, num_layers)
        hasher = LayeredHasher.build(
            num_layers, max(1, total_bins // num_layers), seed=self._config.seed
        )
        hashed_terms = np.flatnonzero(~common)
        # Each hashed term's flat bin id in every layer, one row a term.
        chains = hasher.layer_bins([words[term] for term in hashed_terms.tolist()])
        chains = np.array(chains, np.int64).reshape(num_layers, -1).T
        chains += np.arange(num_layers) * hasher.bins_per_layer
        # Entry by entry: its term, and that term's place among the hashed ones.
        term = np.repeat(np.arange(len(sizes)), sizes)
        slot = np.cumsum(~common) - 1
        rows = stats.entry_doc.astype(np.int64)
        hashed = ~common[term]
        width = max(stats.num_documents, 1)
        # (flat bin, row) pairs of every layer, sorted and de-duplicated (a
        # plain ``np.unique`` would import ``numpy.ma`` for a masked check).
        keys = np.sort((chains[slot[term[hashed]]] * width + rows[hashed, None]).ravel())
        keys = keys[np.diff(keys, prepend=-1) != 0]
        bin_ids, bin_starts = np.unique(keys // width, return_index=True)
        # The bins' lists, then the common words' (their own entries).
        counts = np.concatenate([np.diff(np.append(bin_starts, len(keys))), sizes[common]])
        sketch = SketchColumns(
            hasher,
            bin_ids,
            [words[term] for term in np.flatnonzero(common).tolist()],
            PostingColumns(
                stats.blobs,
                stats.doc_blob.astype(np.int64),
                stats.doc_offset,
                stats.doc_length,
                np.concatenate([keys % width, rows[~hashed]]),
                np.cumsum(counts) - counts,
                counts,
            ),
        )
        return sketch, CoAccess(chains, sizes[hashed_terms])

    def _make_metadata(
        self,
        corpus_name: str,
        profile: CorpusProfile,
        sketch: SketchColumns,
        num_layers: int,
        documents: SizeClasses,
        extra: dict[str, Any] | None = None,
    ) -> IndexMetadata:
        if profile.num_documents > 0 and profile.num_terms > 0:
            expected = expected_false_positives(num_layers, sketch.total_bins, documents)
        else:
            expected = 0.0
        return IndexMetadata(
            corpus_name=corpus_name,
            extra=dict(extra or {}),
            num_documents=profile.num_documents,
            num_terms=profile.num_terms,
            num_words=profile.num_words,
            num_layers=num_layers,
            num_bins=self._config.num_bins,
            bins_per_layer=sketch.bins_per_layer,
            num_common_words=len(sketch.common_words),
            seed=self._config.seed,
            target_false_positives=self._config.target_false_positives,
            expected_false_positives=expected,
            format_version=CODEC_VERSION,
        )
