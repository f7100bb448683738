"""Index metadata persisted alongside the MHT in the header block.

Also defines the versioned *shard manifest* of a sharded build, naming its
shards and their basic statistics: it rides in the preamble of the build's
one header (:func:`~repro.index.compaction.encode_header`).  Single-shard
indexes have none.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.index.store_layout import shard_index_name

#: Magic marker of the shard-manifest format.
_SHARD_MANIFEST_MAGIC = "airphant-shards"
SHARD_MANIFEST_VERSION = 1
#: The document partitioner a sharded header records, in its manifest and in
#: each shard's metadata.  Routing is always by document hash
#: (:mod:`repro.index.sharding`); readers ignore the field.
PARTITIONER = "hash"


@dataclass(frozen=True)
class IndexMetadata:
    """Describes one built Airphant index.

    Stored in the header blob so a Searcher (or an operator) can inspect what
    the index covers without re-profiling the corpus.
    """

    corpus_name: str
    num_documents: int
    num_terms: int
    num_words: int
    num_layers: int
    num_bins: int
    bins_per_layer: int
    num_common_words: int
    seed: int
    target_false_positives: float
    expected_false_positives: float
    format_version: int = 1
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IndexMetadata":
        """Rebuild metadata from its serialized dictionary."""
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})


@dataclass(frozen=True)
class ShardEntry:
    """One shard of a sharded index: its sub-index name plus basic stats."""

    name: str
    num_documents: int = 0
    num_terms: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "num_documents": self.num_documents,
            "num_terms": self.num_terms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardEntry":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            num_documents=int(data.get("num_documents", 0)),
            num_terms=int(data.get("num_terms", 0)),
        )


@dataclass(frozen=True)
class ShardManifest:
    """Versioned description of a sharded index's layout.

    Persisted in the preamble of the build's header.  ``shards`` lists the
    shard names (their superposts and statistics are the build's) in shard
    order, which routing relies on: documents go to ``shards[partition(doc)]``.
    """

    index_name: str
    shards: tuple[ShardEntry, ...] = ()
    format_version: int = SHARD_MANIFEST_VERSION

    @property
    def num_shards(self) -> int:
        """Number of shards the index was built with."""
        return len(self.shards)

    @property
    def shard_names(self) -> list[str]:
        """Sub-index names in shard order."""
        return [shard.name for shard in self.shards]

    def validated(self, build: str) -> "ShardManifest":
        """This manifest, if it names exactly ``build``'s shards, in order
        (``ValueError`` otherwise: none at all, or another index's)."""
        expected = [shard_index_name(build, shard) for shard in range(self.num_shards)]
        if not expected or self.shard_names != expected:
            raise ValueError(f"the shard manifest of {build!r} names {self.shard_names}")
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (includes magic + version)."""
        return {
            "magic": _SHARD_MANIFEST_MAGIC,
            "format_version": self.format_version,
            "index_name": self.index_name,
            "partitioner": PARTITIONER,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardManifest":
        """Rebuild from :meth:`to_dict` output, validating magic and version."""
        if data.get("magic") != _SHARD_MANIFEST_MAGIC:
            raise ValueError("not an Airphant shard manifest")
        version = int(data.get("format_version", 0))
        if version < 1 or version > SHARD_MANIFEST_VERSION:
            raise ValueError(f"unsupported shard manifest version {version}")
        return cls(
            index_name=str(data["index_name"]),
            shards=tuple(ShardEntry.from_dict(entry) for entry in data.get("shards", [])),
            format_version=version,
        )


def index_metadata(
    manifest: ShardManifest | None, metadatas: list[IndexMetadata | None]
) -> IndexMetadata | None:
    """The metadata of one opened build: its header's, or its shards' merged."""
    if manifest is None:
        return metadatas[0]
    return merge_shard_metadata([entry for entry in metadatas if entry is not None])


def merge_shard_metadata(metadatas: "list[IndexMetadata]") -> "IndexMetadata | None":
    """Aggregate per-shard metadata into one corpus-wide description.

    Counts sum across shards (the partitions are disjoint); ``num_terms``
    therefore counts a term once per shard it appears in.  Expected false
    positives add too: each shard contributes its own candidate set to a
    merged query answer.  The rest — layers, bins, common words, seed,
    accuracy target — is the build's, shared by every shard.
    """
    if not metadatas:
        return None
    first = metadatas[0]
    return IndexMetadata(
        corpus_name=first.corpus_name.split("#shard-")[0],
        num_documents=sum(metadata.num_documents for metadata in metadatas),
        num_terms=sum(metadata.num_terms for metadata in metadatas),
        num_words=sum(metadata.num_words for metadata in metadatas),
        num_layers=max(metadata.num_layers for metadata in metadatas),
        num_bins=first.num_bins,
        bins_per_layer=first.bins_per_layer,
        num_common_words=max(metadata.num_common_words for metadata in metadatas),
        seed=first.seed,
        target_false_positives=first.target_false_positives,
        expected_false_positives=sum(
            metadata.expected_false_positives for metadata in metadatas
        ),
        format_version=first.format_version,
        extra={"num_shards": len(metadatas)},
    )
