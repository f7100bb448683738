"""Airphant Builder.

The Builder is the offline component that turns a corpus into a persisted
IoU Sketch (Figure 3, left half).  Its one input is a build's exact inverted
index — the ranking statistics columns of :mod:`repro.index.stats` — and
everything else derives from those columns:

1. parse the corpus blobs into documents with byte-range references, and
   tokenize each document once into the statistics (:func:`build_stats`) —
   or, when compacting, merge the members' statistics (:func:`union_stats`);
2. profile the corpus from the columns;
3. optimize the number of layers with Algorithm 1 (unless pinned);
4. select the common words that receive exact bins;
5. union the other terms' document rows into their bins, as sorted columns;
6. compact the superposts into a single blob and persist it;
7. persist the header blob (hash seeds, bin pointers, string table, metadata)
   and, last, the statistics themselves.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, Union

import numpy as np

from repro.core.common_words import select_common_words
from repro.core.config import SketchConfig
from repro.core.hashing import LayeredHasher
from repro.core.mht import MultilayerHashTable
from repro.core.optimizer import minimize_layers
from repro.core.analysis import expected_false_positives
from repro.core.sketch import PostingColumns, SketchColumns
from repro.index.compaction import CompactedSketch, compact_sketch, encode_header
from repro.index.layout import LAYOUTS
from repro.index.metadata import IndexMetadata, ShardEntry, ShardManifest
from repro.index.serialization import DEFAULT_FORMAT_VERSION, SUPPORTED_FORMAT_VERSIONS
from repro.index.sharding import PARTITIONERS, partition_documents, shard_of
from repro.index.stats import IndexStats, build_stats, encode_stats, union_stats
from repro.index.store_layout import (
    build_blobs,
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


@dataclass
class BuiltIndex:
    """Handle to a freshly built (and persisted) index."""

    index_name: str
    header_blob: str
    superpost_blob: str
    metadata: IndexMetadata
    mht: MultilayerHashTable
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
    partitioned (document-hash or round-robin), one ordinary sub-index is
    built per shard on a thread pool, and a versioned
    :class:`~repro.index.metadata.ShardManifest` blob ties them together.
    Single-shard builds keep the exact legacy blob layout, so old indexes and
    old readers are unaffected.
    """

    def __init__(
        self,
        store: ObjectStore,
        config: SketchConfig | None = None,
        tokenizer: Tokenizer | None = None,
        num_shards: int = 1,
        partitioner: str = "hash",
        build_concurrency: int | None = None,
        format_version: int | None = None,
        layout: str | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; expected one of {', '.join(PARTITIONERS)}"
            )
        if build_concurrency is not None and build_concurrency < 1:
            raise ValueError("build_concurrency must be positive when set")
        if format_version is not None and format_version not in SUPPORTED_FORMAT_VERSIONS:
            raise ValueError(
                f"unsupported format_version {format_version}; expected one of "
                f"{SUPPORTED_FORMAT_VERSIONS}"
            )
        if layout is not None and layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; expected one of {', '.join(LAYOUTS)}"
            )
        self._store = store
        self._config = config if config is not None else SketchConfig()
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._num_shards = num_shards
        self._partitioner = partitioner
        self._build_concurrency = build_concurrency
        self._format_version = (
            format_version if format_version is not None else DEFAULT_FORMAT_VERSION
        )
        self._layout = layout
        self._metadata_extra: dict[str, Any] = {}

    @property
    def config(self) -> SketchConfig:
        """The sketch configuration used for builds."""
        return self._config

    @property
    def num_shards(self) -> int:
        """Shard count of this builder (1 = legacy single-shard layout)."""
        return self._num_shards

    @property
    def partitioner(self) -> str:
        """Document partitioner used in sharded mode."""
        return self._partitioner

    @property
    def format_version(self) -> int:
        """Superpost codec version this builder writes."""
        return self._format_version

    @property
    def layout(self) -> str | None:
        """Superpost placement order (``None`` = default for the codec)."""
        return self._layout

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
        documents = list(parser.parse(self._store, blob_names))
        return self.build_from_documents(documents, index_name=index_name, corpus_name=corpus_name)

    def build_from_documents(
        self,
        documents: Iterable[Document],
        index_name: str = "airphant-index",
        corpus_name: str = "corpus",
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Build an index over already-parsed documents.

        Returns a :class:`BuiltIndex` in single-shard mode and a
        :class:`BuiltShardedIndex` when the builder was created with
        ``num_shards > 1``.
        """
        documents = list(documents)
        if self._num_shards > 1:
            partitions = partition_documents(documents, self._num_shards, self._partitioner)
        else:
            partitions = [documents]
        parts = [build_stats(partition, self._tokenizer) for partition in partitions]
        return self._build(parts, index_name, corpus_name)

    def build_from_stats(
        self,
        stats: IndexStats,
        index_name: str = "airphant-index",
        corpus_name: str = "corpus",
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Build an index over statistics already in hand (compaction's
        merged columns): no document is read or analysed again.

        A sharded builder routes the rows as :func:`partition_documents`
        routes documents listed in row order.
        """
        if self._num_shards == 1:
            return self._build([stats], index_name, corpus_name)
        route = [
            shard_of(ref, row, self._num_shards, self._partitioner)
            for row, ref in enumerate(stats.docs)
        ]
        shards = np.array(route, np.int64)
        parts = [union_stats([stats], keep=shards == shard) for shard in range(self._num_shards)]
        return self._build(parts, index_name, corpus_name)

    def _build(
        self, parts: Sequence[IndexStats], index_name: str, corpus_name: str
    ) -> Union[BuiltIndex, BuiltShardedIndex]:
        """Persist one build per part (one part: the plain layout)."""
        if self._num_shards > 1:
            built: Union[BuiltIndex, BuiltShardedIndex] = self._build_sharded(
                parts, index_name, corpus_name
            )
            shards = built.shards
            written = {ShardManifest.blob_name(index_name)}
        else:
            built = self._build_single(parts[0], index_name, corpus_name)
            shards = [built]
            written = set()
        for shard in shards:
            written.update((shard.header_blob, shard.superpost_blob, shard.stats_blob))
        # The builder makes a rebuild authoritative: whatever a previous
        # layout of this name left behind (the shard manifest readers check
        # first, a top-level header, shards beyond the new count) goes.  Once
        # per top-level build, never per shard sub-build.
        for blob in build_blobs(self._store, index_name):
            if blob not in written:
                self._store.delete(blob)
        return built

    # -- single-shard build ---------------------------------------------------------

    def _build_single(self, stats: IndexStats, index_name: str, corpus_name: str) -> BuiltIndex:
        profile = stats.profile()
        num_layers = self._choose_layers(profile)
        sketch = self._sketch(stats, profile, num_layers)
        metadata = self._make_metadata(corpus_name, profile, sketch, num_layers)
        compacted = self._persist(sketch, metadata, index_name, profile.document_frequencies)
        # Ranking statistics ride along with every build: exact doc lengths
        # and term frequencies (mode="topk_bm25" scores from them without
        # touching document text; compaction merges them).  Written last, so
        # a crash mid-build leaves a membership-only index rather than stats
        # for a missing sketch.
        stats_blob = stats_blob_name(index_name)
        self._store.put(stats_blob, encode_stats(stats))
        return BuiltIndex(
            index_name=index_name,
            header_blob=header_blob_name(index_name),
            superpost_blob=compacted.superpost_blob_name,
            metadata=metadata,
            mht=compacted.mht,
            profile=profile,
            config=self._config,
            stats_blob=stats_blob,
        )

    # -- sharded build --------------------------------------------------------------

    def _build_sharded(
        self,
        parts: Sequence[IndexStats],
        index_name: str,
        corpus_name: str,
    ) -> BuiltShardedIndex:
        """Build one sub-index per shard's statistics, then write the manifest.

        Shards are independent, so they build concurrently on a thread pool;
        each writes only its own ``shard-NNNN/`` blobs, which keeps the
        (single-writer) store contract intact per blob.
        """

        def build_shard(shard: int) -> BuiltIndex:
            shard_builder = AirphantBuilder(
                self._store,
                config=self._config,
                tokenizer=self._tokenizer,
                format_version=self._format_version,
                layout=self._layout,
            )
            shard_builder._metadata_extra = {
                "shard_index": shard,
                "num_shards": self._num_shards,
                "partitioner": self._partitioner,
                "parent_index": index_name,
            }
            return shard_builder._build_single(
                parts[shard],
                shard_index_name(index_name, shard),
                f"{corpus_name}#shard-{shard:04d}",
            )

        workers = self._build_concurrency
        if workers is None:
            workers = min(self._num_shards, os.cpu_count() or 1)
        if workers > 1:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="airphant-build"
            ) as pool:
                shards = list(pool.map(build_shard, range(self._num_shards)))
        else:
            shards = [build_shard(shard) for shard in range(self._num_shards)]

        manifest = ShardManifest(
            index_name=index_name,
            partitioner=self._partitioner,
            index_format_version=self._format_version,
            shards=tuple(
                ShardEntry(
                    name=shard.index_name,
                    num_documents=shard.metadata.num_documents,
                    num_terms=shard.metadata.num_terms,
                )
                for shard in shards
            ),
        )
        self._store.put(ShardManifest.blob_name(index_name), manifest.to_json().encode("utf-8"))
        return BuiltShardedIndex(index_name=index_name, manifest=manifest, shards=shards)

    # -- build steps ----------------------------------------------------------------

    def _choose_layers(self, profile: CorpusProfile) -> int:
        """Pin the configured layer count or run Algorithm 1."""
        if self._config.num_layers is not None:
            return self._config.num_layers
        if profile.num_documents == 0 or profile.num_terms == 0:
            return 1
        result = minimize_layers(
            num_bins=self._config.sketch_bins,
            target_false_positives=self._config.target_false_positives,
            profile=profile,
            distribution=None,
            max_layers=self._config.max_layers,
        )
        return result.num_layers

    def _sketch(self, stats: IndexStats, profile: CorpusProfile, num_layers: int) -> SketchColumns:
        """The IoU Sketch of the exact inverted index ``stats``: the common
        words keep their own entries as exact lists, and every other term's
        document rows are unioned into its bin of each layer."""
        words = stats.words()
        sizes = np.diff(stats.term_starts.astype(np.int64))
        common = np.zeros(len(sizes), bool)
        for word in select_common_words(profile, self._config.common_word_bins):
            common[bisect_left(words, word)] = True
        total_bins = max(self._config.sketch_bins, num_layers)
        hasher = LayeredHasher.build(
            num_layers, max(1, total_bins // num_layers), seed=self._config.seed
        )
        hashed_terms = np.flatnonzero(~common).tolist()
        chains = np.array([hasher.bins_of(words[term]) for term in hashed_terms], np.int64)
        chains = chains.reshape(-1, num_layers) + np.arange(num_layers) * hasher.bins_per_layer
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
        return SketchColumns(
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

    def _make_metadata(
        self,
        corpus_name: str,
        profile: CorpusProfile,
        sketch: SketchColumns,
        num_layers: int,
    ) -> IndexMetadata:
        if profile.num_documents > 0 and profile.num_terms > 0:
            expected = expected_false_positives(
                num_layers, sketch.total_bins, profile, distribution=None
            )
        else:
            expected = 0.0
        return IndexMetadata(
            corpus_name=corpus_name,
            extra=dict(self._metadata_extra),
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
            format_version=self._format_version,
        )

    def _persist(
        self,
        sketch: SketchColumns,
        metadata: IndexMetadata,
        index_name: str,
        word_weights: dict[str, int] | None = None,
    ) -> CompactedSketch:
        superpost_blob = superpost_blob_name(index_name)
        header_blob = header_blob_name(index_name)
        compacted = compact_sketch(
            sketch,
            superpost_blob,
            metadata=metadata,
            format_version=self._format_version,
            layout=self._layout,
            word_weights=word_weights,
        )
        self._store.put(superpost_blob, compacted.superpost_blob_data)
        self._store.put(header_blob, encode_header(compacted))
        return compacted
