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
from repro.index.sharding import route_rows
from repro.index.store_layout import (
    HEADER_BLOB_SUFFIX,
    SHARD_MANIFEST_SUFFIX,
    SHARD_MARKER,
    SUPERPOST_BLOB_SUFFIX,
    CorruptIndexError,
    shard_index_name,
)
from repro.index.layout import CoAccess, coaccess_order
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.index.serialization import (
    CODEC_VERSION,
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
    "CODEC_VERSION",
    "CompactedSketch",
    "CorruptIndexError",
    "HEADER_BLOB_SUFFIX",
    "IndexMetadata",
    "SHARD_MANIFEST_SUFFIX",
    "SHARD_MARKER",
    "SUPERPOST_BLOB_SUFFIX",
    "ShardEntry",
    "ShardManifest",
    "StringTable",
    "CoAccess",
    "coaccess_order",
    "compact_sketch",
    "decode_header",
    "decode_superpost",
    "decode_varint",
    "encode_header",
    "encode_superpost",
    "encode_varint",
    "route_rows",
    "shard_index_name",
    "uncompressed_superpost_bytes",
]
