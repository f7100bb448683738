"""Index building and persistence.

The Builder turns a corpus into a persisted IoU Sketch: it parses and
profiles the documents, runs the layer optimizer, constructs superposts,
compacts them into a single blob, and writes a header blob containing the
hash seeds, bin pointers, string table, and metadata (Sections III-C and
IV-C).
"""

from repro.index.builder import AirphantBuilder, BuiltIndex, BuiltShardedIndex
from repro.index.compaction import (
    CompactedSketch,
    compact_sketch,
    decode_header,
    encode_header,
)
from repro.index.metadata import IndexMetadata, ShardEntry, ShardManifest
from repro.index.sharding import PARTITIONERS, partition_documents
from repro.index.store_layout import (
    HEADER_BLOB_SUFFIX,
    SHARD_MANIFEST_SUFFIX,
    SHARD_MARKER,
    SUPERPOST_BLOB_SUFFIX,
    read_shard_manifest,
    shard_index_name,
)
from repro.index.layout import (
    LAYOUT_COACCESS,
    LAYOUT_PLAIN,
    LAYOUTS,
    coaccess_order,
    plain_order,
)
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.index.serialization import (
    DEFAULT_FORMAT_VERSION,
    FORMAT_V1,
    FORMAT_V2,
    SUPPORTED_FORMAT_VERSIONS,
    StringTable,
    decode_superpost,
    decode_varint,
    encode_superpost,
    encode_varint,
    uncompressed_superpost_bytes,
)

__all__ = [
    "AirphantBuilder",
    "AppendOnlyIndexManager",
    "IndexManifest",
    "BuiltIndex",
    "BuiltShardedIndex",
    "CompactedSketch",
    "DEFAULT_FORMAT_VERSION",
    "FORMAT_V1",
    "FORMAT_V2",
    "HEADER_BLOB_SUFFIX",
    "IndexMetadata",
    "LAYOUTS",
    "LAYOUT_COACCESS",
    "LAYOUT_PLAIN",
    "PARTITIONERS",
    "SHARD_MANIFEST_SUFFIX",
    "SHARD_MARKER",
    "SUPERPOST_BLOB_SUFFIX",
    "SUPPORTED_FORMAT_VERSIONS",
    "ShardEntry",
    "ShardManifest",
    "StringTable",
    "coaccess_order",
    "compact_sketch",
    "decode_header",
    "decode_superpost",
    "decode_varint",
    "encode_header",
    "encode_superpost",
    "encode_varint",
    "partition_documents",
    "plain_order",
    "read_shard_manifest",
    "shard_index_name",
    "uncompressed_superpost_bytes",
]
