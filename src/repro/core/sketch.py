"""The in-memory IoU Sketch, and the columns it is persisted from.

:class:`IoUSketch` is the logical data structure of Section IV-A: L layers
of bins, each bin holding a super postings list as a set of postings.  The
false-positive experiments of Figures 5 and 16 run directly against it
without any storage.

The Builder never materialises those sets.  It derives the sketch straight
from a build's exact inverted index as :class:`SketchColumns` — per
non-empty bin and per common word, a sorted run of rows of one document
table — which compaction splits into the cloud-persisted superposts and the
in-memory Multilayer Hash Table.  :meth:`IoUSketch.columns` gives the same
form for a set-based sketch.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.common_words import CommonWordTable
from repro.core.hashing import LayeredHasher
from repro.core.superpost import POSTING_ORDER, Superpost
from repro.parsing.documents import Posting


class PostingColumns(NamedTuple):
    """Posting lists as runs of rows of one document table.

    Document ``r`` is ``(names[rank[r]], offset[r], length[r])``, with
    ``names`` sorted and the rows in ``(blob, offset, length)`` order.  List
    ``i`` is the documents ``rows[starts[i]:starts[i] + counts[i]]``,
    ascending.
    """

    names: Sequence[str]
    rank: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class SketchColumns:
    """An IoU Sketch whose lists are :class:`PostingColumns`.

    The first ``len(bin_ids)`` lists are the non-empty hashed bins, by flat
    id ``layer * bins_per_layer + bin`` (ascending in ``bin_ids``); the rest
    are the exact lists of ``common_words`` (sorted).
    """

    hasher: LayeredHasher
    bin_ids: np.ndarray
    common_words: Sequence[str]
    lists: PostingColumns

    @property
    def num_layers(self) -> int:
        return self.hasher.num_layers

    @property
    def bins_per_layer(self) -> int:
        return self.hasher.bins_per_layer

    @property
    def total_bins(self) -> int:
        return self.num_layers * self.bins_per_layer


@dataclass
class IoUSketch:
    """An L-layer intersection-of-unions sketch over keywords.

    Supports the two operations of the paper:

    * :meth:`insert` — union a word's postings into its bin in every layer.
    * :meth:`query` — intersect the word's superposts across all layers.

    Words registered in the optional :class:`CommonWordTable` are answered
    exactly and never touch the hashed layers.
    """

    hasher: LayeredHasher
    #: Per layer, the non-empty bins only: bin index → the postings unioned
    #: into it.  A sketch costs what it holds, not the bin budget B.
    layers: list[dict[int, set[Posting]]]
    common_words: CommonWordTable

    @classmethod
    def build(
        cls,
        num_layers: int,
        total_bins: int,
        seed: int = 0,
        common_words: CommonWordTable | None = None,
    ) -> "IoUSketch":
        """Create an empty sketch with ``total_bins`` split across layers.

        ``total_bins`` is the paper's B; each layer receives ``B // L`` bins
        (at least one).
        """
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if total_bins < num_layers:
            raise ValueError("total_bins must be at least num_layers")
        bins_per_layer = max(1, total_bins // num_layers)
        hasher = LayeredHasher.build(num_layers, bins_per_layer, seed=seed)
        return cls(
            hasher=hasher,
            layers=[{} for _ in range(num_layers)],
            common_words=common_words if common_words is not None else CommonWordTable(),
        )

    # -- structure ----------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Number of layers L."""
        return len(self.layers)

    @property
    def bins_per_layer(self) -> int:
        """Number of bins in each layer."""
        return self.hasher.bins_per_layer

    @property
    def total_bins(self) -> int:
        """Total number of hashed bins across all layers."""
        return self.num_layers * self.bins_per_layer

    def bin_of(self, word: str) -> list[int]:
        """Bin index of ``word`` in each layer."""
        return self.hasher.bins_of(word)

    # -- operations -----------------------------------------------------------------

    def insert(self, word: str, postings: Iterable[Posting]) -> None:
        """Union ``postings`` into the word's bin in every layer.

        Common words go to their exact table instead of the hashed layers.
        """
        postings = list(postings)
        if word in self.common_words:
            self.common_words.add(word, postings)
            return
        for layer_index, bin_index in enumerate(self.hasher.bins_of(word)):
            self.layers[layer_index].setdefault(bin_index, set()).update(postings)

    def insert_postings_map(self, postings_by_word: Mapping[str, Iterable[Posting]]) -> None:
        """Insert an entire word → postings mapping (builder convenience)."""
        for word, postings in postings_by_word.items():
            self.insert(word, postings)

    def layer_superposts(self, word: str) -> list[AbstractSet[Posting]]:
        """The L superposts a query for ``word`` would fetch."""
        return [
            self.layers[layer_index].get(bin_index, frozenset())
            for layer_index, bin_index in enumerate(self.hasher.bins_of(word))
        ]

    def query(self, word: str) -> Superpost:
        """Final postings list for ``word``: intersection of its superposts.

        Never misses a relevant document; may contain false positives that a
        later document fetch filters out.
        """
        if word in self.common_words:
            return self.common_words.query(word)
        first, *rest = self.layer_superposts(word)
        return Superpost(set(first).intersection(*rest))

    # -- diagnostics -----------------------------------------------------------------

    def false_positives(self, word: str, true_postings: set[Posting]) -> int:
        """Number of irrelevant postings returned for ``word``.

        Used by the accuracy experiments to compare the observed count with
        the analytical expectation F(L).
        """
        return len(set(self.query(word)) - true_postings)

    def columns(self) -> SketchColumns:
        """This sketch as :class:`SketchColumns` (empty bins left out; a
        registered common word nothing used keeps its empty list)."""
        bins = sorted(
            (
                (layer * self.bins_per_layer + index, postings)
                for layer, bins in enumerate(self.layers)
                for index, postings in bins.items()
                if postings
            ),
            key=lambda item: item[0],
        )
        common = sorted(self.common_words.postings_by_word.items())
        every = set().union(*(postings for _, postings in chain(bins, common)))
        docs = sorted(every, key=POSTING_ORDER)
        row = {posting: at for at, posting in enumerate(docs)}
        names = sorted({posting.blob for posting in docs})
        position = {name: at for at, name in enumerate(names)}
        lists = [sorted(row[posting] for posting in postings) for _, postings in chain(bins, common)]
        counts = np.array([len(rows) for rows in lists], np.int64)
        return SketchColumns(
            self.hasher,
            np.array([bin_id for bin_id, _ in bins], np.int64),
            [word for word, _ in common],
            PostingColumns(
                names,
                np.array([position[posting.blob] for posting in docs], np.int64),
                np.array([posting.offset for posting in docs], np.uint64),
                np.array([posting.length for posting in docs], np.uint64),
                np.array([*chain(*lists)], np.int64),
                np.cumsum(counts) - counts,
                counts,
            ),
        )

    def bin_sizes(self) -> list[list[int]]:
        """Superpost sizes per layer, for storage-usage analysis."""
        return [
            [len(layer.get(bin_index, ())) for bin_index in range(self.bins_per_layer)]
            for layer in self.layers
        ]
