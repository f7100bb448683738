"""Superpost compaction and the header block.

Section IV-C: to avoid creating one tiny blob per bin (or one enormous blob
containing everything), the Builder serializes every superpost and
concatenates them into a single *superpost blob*; a *header blob* stores, for
every non-empty bin, the (offset, length) of its superpost within that blob,
plus the hash seeds, string table, common-word pointers, and metadata.  A
Searcher downloads only the header at initialization and can afterwards fetch
any superpost with a single range read.

The header is **container format v3** (byte layout in
``docs/ARCHITECTURE.md``): magic, container version and a small JSON
preamble, then the sparse pointer table of :mod:`repro.core.mht` as
little-endian integer columns that are handed to the table without a copy.
Its preamble carries the superpost ``codec_version`` (see
:mod:`repro.index.serialization`) — a different number from the container
version: v1-coded superposts are readable forever, and the Searcher
dispatches its decoder on whatever codec the header declares.  The JSON
headers of earlier builds (leading ``{``) stay readable through one legacy
decoder; every writer emits v3, so the next compaction upgrades them.  A
sharded build's header wraps its manifest and shards' v3 headers in one more
container (:func:`encode_sharded_header`), so one read opens the whole build.
Every build writes codec v2 and places the superposts inside the blob in
co-access order (:mod:`repro.index.layout`); placement is invisible to
readers, which only ever follow pointers, so the layer-major blobs of older
builds read the same way.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.mht import MultilayerHashTable
from repro.core.hashing import LayeredHasher
from repro.core.sketch import IoUSketch, SketchColumns
from repro.index.layout import coaccess_order
from repro.index.metadata import IndexMetadata, ShardManifest
from repro.index.serialization import (
    DEFAULT_FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    StringTable,
    encode_superposts,
    uncompressed_superpost_bytes,
)
from repro.index.store_layout import HEADER_BLOB_SUFFIX, SUPERPOST_BLOB_SUFFIX  # noqa: F401
from repro.index.store_layout import CorruptIndexError, header_blob_name
from repro.observability.registry import get_registry

#: Leading bytes of a v3 header; a legacy JSON header starts with ``{``.
HEADER_MAGIC = b"AIRPHDR\n"
#: Version of the header container (not of the superpost codec).
HEADER_CONTAINER_VERSION = 3
#: Magic, then container version and preamble length as little-endian u32.
_HEADER_PREFIX = struct.Struct("<8sII")
#: Magic marker inside legacy JSON headers.
_LEGACY_HEADER_MAGIC = "airphant-header"
#: Leading bytes and container version of a sharded build's header.
SHARDED_HEADER_MAGIC = b"AIRPSHD\n"
SHARDED_HEADER_VERSION = 1
#: Its trailer: CRC-32 of every byte before it.
_CHECKSUM = struct.Struct("<I")
#: What a malformed blob makes the decoders' parsing steps raise.
_MALFORMED = (KeyError, TypeError, AttributeError, OverflowError, struct.error)


@dataclass
class CompactedSketch:
    """Result of compacting an in-memory IoU Sketch.

    ``superpost_blob_data`` is the byte concatenation of all serialized
    superposts (empty when decoded from a header — the superposts themselves
    stay in cloud storage); ``mht`` holds the pointers into it.
    ``format_version`` names the superpost codec the blob was written with —
    readers must hand it to ``decode_superpost``.
    """

    superpost_blob_data: bytes
    mht: MultilayerHashTable
    string_table: StringTable
    metadata: IndexMetadata | None = None
    format_version: int = DEFAULT_FORMAT_VERSION

    @property
    def superpost_blob_name(self) -> str:
        """Name of the blob the pointers point into."""
        return self.mht.blob


def _pointer_dtype(blob_bytes: int) -> type:
    """u32 pointer columns, widening to u64 only when an offset needs it."""
    return np.uint32 if blob_bytes < 1 << 32 else np.uint64


def compact_sketch(
    sketch: IoUSketch | SketchColumns,
    superpost_blob_name: str,
    metadata: IndexMetadata | None = None,
    word_weights: Mapping[str, int] | None = None,
) -> CompactedSketch:
    """Serialize and concatenate all superposts of ``sketch`` with the v2 codec.

    The bins are placed in co-access order (:func:`coaccess_order`): each
    word's layer chain adjacent, weighted by ``word_weights`` (word →
    document frequency, supplied by the builder), so the read pipeline can
    coalesce a query's fetches.  Without weights that order is layer-major.

    Only non-empty bins are placed, encoded and given a pointer row; a bin
    without a row is empty and the Searcher skips it without a request.  The
    placed bins, then the common words in word order, are encoded straight
    from their document rows (:func:`~repro.index.serialization.encode_superposts`);
    an :class:`IoUSketch` is turned into columns first.
    """
    if isinstance(sketch, IoUSketch):
        sketch = sketch.columns()

    placement = coaccess_order(sketch, word_weights or {})
    bin_ids = np.array(
        [layer * sketch.bins_per_layer + bin_index for layer, bin_index in placement], np.int64
    )
    # Every superpost in blob order: the placed bins, then the common words.
    lists = sketch.lists
    order = np.concatenate(
        [np.searchsorted(sketch.bin_ids, bin_ids), np.arange(len(sketch.bin_ids), len(lists.counts))]
    )
    columns = lists._replace(starts=lists.starts[order], counts=lists.counts[order])
    string_table = StringTable()
    blob, sizes = encode_superposts(columns, string_table)
    _record_codec_bytes(uncompressed_superpost_bytes(columns), len(blob))

    # Superposts are concatenated without padding, so offsets are the running
    # sum of lengths in placement order; the table wants them in bin-id order.
    dtype = _pointer_dtype(len(blob))
    offsets, lengths = (np.cumsum(sizes) - sizes).astype(dtype), sizes.astype(dtype)
    count = len(placement)
    by_id = np.argsort(bin_ids)
    mht = MultilayerHashTable(
        sketch.hasher, superpost_blob_name, len(blob),
        bin_ids[by_id].astype(np.uint32), offsets[:count][by_id], lengths[:count][by_id],
        list(sketch.common_words), offsets[count:], lengths[count:],
    )
    return CompactedSketch(blob, mht, string_table, metadata)


def _record_codec_bytes(raw_bytes: int, encoded_bytes: int) -> None:
    """Expose compression effectiveness on live nodes via ``/metrics``."""
    registry = get_registry()
    labels = {"format": f"v{DEFAULT_FORMAT_VERSION}"}
    registry.counter(
        "airphant_codec_bytes_raw_total",
        help="Superpost bytes before compression (inline names, absolute offsets).",
        label_names=("format",),
    ).inc(raw_bytes, **labels)
    registry.counter(
        "airphant_codec_bytes_encoded_total",
        help="Superpost bytes actually written, by codec format version.",
        label_names=("format",),
    ).inc(encoded_bytes, **labels)


def encode_header(compacted: CompactedSketch) -> bytes:
    """Serialize the header blob (hash seeds, pointers, string table, metadata).

    Container v3: ``magic | u32 version | u32 preamble length | JSON preamble
    (space-padded to 8 bytes) | offsets | lengths | common offsets | common
    lengths | bin ids``.  Its size is proportional to what the index holds —
    12 bytes per non-empty bin — not to the bin budget B.
    """
    mht = compacted.mht
    preamble = json.dumps(
        {
            "codec_version": compacted.format_version,
            "seed": mht.hasher.seed,
            "num_layers": mht.num_layers,
            "bins_per_layer": mht.bins_per_layer,
            "superpost_blob": mht.blob,
            "superpost_bytes": mht.blob_bytes,
            "num_pointers": len(mht.bin_ids),
            "pointer_width": mht.offsets.itemsize,
            "common_words": list(mht.common_words),
            "string_table": compacted.string_table.to_list(),
            "metadata": compacted.metadata.to_dict() if compacted.metadata else None,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = _HEADER_PREFIX.pack(HEADER_MAGIC, HEADER_CONTAINER_VERSION, len(preamble))
    columns = (np.asarray(c).astype(f"<u{c.itemsize}", copy=False) for c in mht.columns)
    return b"".join([prefix, preamble, *(column.tobytes() for column in columns)])


def decode_header(data: bytes) -> CompactedSketch:
    """Inverse of :func:`encode_header`; also reads legacy JSON headers.

    The leading byte negotiates the container (``{`` is a v1/v2-era JSON
    header, converted straight into the same pointer columns); any supported
    superpost codec version is accepted.  Nothing in ``data`` is trusted:
    every malformed, truncated or out-of-bounds header is a ``ValueError``.
    The returned :class:`CompactedSketch` has an empty
    ``superpost_blob_data``; its ``mht`` and ``string_table`` are complete.
    """
    try:
        if data[:1] == b"{":
            return _decode_legacy_header(data)
        return _decode_v3_header(data)
    except _MALFORMED as error:
        raise ValueError(f"malformed Airphant header: {error!r}") from error


def encode_sharded_header(manifest: ShardManifest, headers: Sequence[bytes]) -> bytes:
    """A sharded build's header: ``magic | u32 version | u32 preamble length
    | JSON preamble (the manifest and each shard header's length; space-padded
    to 8 bytes) | the shards' v3 headers in order | u32 CRC-32 of the rest``."""
    lengths = {"header_lengths": [len(header) for header in headers]}
    preamble = json.dumps({**manifest.to_dict(), **lengths}, separators=(",", ":")).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = _HEADER_PREFIX.pack(SHARDED_HEADER_MAGIC, SHARDED_HEADER_VERSION, len(preamble))
    body = b"".join([prefix, preamble, *headers])
    return body + _CHECKSUM.pack(zlib.crc32(body))


def decode_build_header(
    data: bytes, build: str
) -> tuple[ShardManifest | None, list[tuple[str, CompactedSketch]]]:
    """What ``build``'s header says it is — no manifest and its own header,
    or a sharded build's manifest and ``(shard, header)`` pairs — negotiated
    by the leading bytes: ``{`` legacy JSON, :data:`HEADER_MAGIC` v3,
    :data:`SHARDED_HEADER_MAGIC` a container whose checksum must hold and
    whose shards must be ``build``'s own.  Any failure: ``CorruptIndexError``."""
    try:
        if not data.startswith(SHARDED_HEADER_MAGIC):
            return None, [(build, decode_header(data))]
        end = len(data) - _CHECKSUM.size
        if zlib.crc32(memoryview(data)[:end]) != _CHECKSUM.unpack_from(data, end)[0]:
            raise ValueError("sharded header fails its checksum")
        _, version, preamble_bytes = _HEADER_PREFIX.unpack_from(data)
        if version != SHARDED_HEADER_VERSION:
            raise ValueError(f"unsupported sharded header version {version}")
        position = _HEADER_PREFIX.size + preamble_bytes
        fields = json.loads(data[_HEADER_PREFIX.size : position])
        manifest, lengths = ShardManifest.from_dict(fields).validated(build), fields["header_lengths"]
        if len(lengths) != manifest.num_shards or position + sum(lengths) != end:
            raise ValueError("shard header lengths do not match the blob")
        members = []
        for shard, length in zip(manifest.shard_names, lengths):
            members.append((shard, decode_header(data[position : position + length])))
            position += length
        return manifest, members
    except (ValueError, *_MALFORMED) as error:
        raise CorruptIndexError(header_blob_name(build), error) from error


def _decode_v3_header(data: bytes) -> CompactedSketch:
    magic, version, preamble_bytes = _HEADER_PREFIX.unpack_from(data)
    if magic != HEADER_MAGIC:
        raise ValueError("not an Airphant header blob")
    if version != HEADER_CONTAINER_VERSION:
        raise ValueError(f"unsupported header container version {version}")
    position = _HEADER_PREFIX.size + preamble_bytes
    if position > len(data):
        raise ValueError("header truncated inside its preamble")
    fields = json.loads(data[_HEADER_PREFIX.size : position])
    count, width = fields["num_pointers"], fields["pointer_width"]
    common_words = fields["common_words"]
    if width not in (4, 8) or not isinstance(count, int) or count < 0:
        raise ValueError("bad pointer column description")
    shapes = [(count, width)] * 2 + [(len(common_words), width)] * 2 + [(count, 4)]
    if position + sum(rows * size for rows, size in shapes) != len(data):
        raise ValueError("header length does not match its pointer columns")
    columns = []
    for rows, size in shapes:
        column = np.frombuffer(data, dtype=f"<u{size}", count=rows, offset=position)
        columns.append(column.astype(column.dtype.newbyteorder("="), copy=False))
        position += rows * size
    offsets, lengths, common_offsets, common_lengths, bin_ids = columns
    mht = MultilayerHashTable(
        _hasher_of(fields), fields["superpost_blob"], fields["superpost_bytes"],
        bin_ids, offsets, lengths, common_words, common_offsets, common_lengths,
    )
    return _decoded_sketch(mht, fields, fields["codec_version"])


def _decode_legacy_header(data: bytes) -> CompactedSketch:
    """Read a JSON header (one ``[offset, length]`` pair per bin, empty or not)."""
    fields = json.loads(data)
    if fields["magic"] != _LEGACY_HEADER_MAGIC:
        raise ValueError("not an Airphant header blob")
    hasher = _hasher_of(fields)
    table = np.array(fields["pointers"], dtype=np.uint64)
    table = table.reshape(hasher.num_layers * hasher.bins_per_layer, 2)
    common_words = sorted(fields["common_words"])
    common = np.array([fields["common_words"][word] for word in common_words], np.uint64)
    common = common.reshape(len(common_words), 2)
    bin_ids = np.flatnonzero(table[:, 1])
    table = table[bin_ids]
    blob_bytes = int(max(table.sum(axis=1).max(initial=0), common.sum(axis=1).max(initial=0)))
    dtype = _pointer_dtype(blob_bytes)
    mht = MultilayerHashTable(
        hasher, fields["superpost_blob"], blob_bytes,
        bin_ids.astype(np.uint32), table[:, 0].astype(dtype), table[:, 1].astype(dtype),
        common_words, common[:, 0].astype(dtype), common[:, 1].astype(dtype),
    )
    return _decoded_sketch(mht, fields, fields["format_version"])


def _hasher_of(fields: Mapping[str, object]) -> LayeredHasher:
    layers, bins = fields["num_layers"], fields["bins_per_layer"]
    if not (isinstance(layers, int) and isinstance(bins, int) and 0 < layers * bins <= 1 << 32):
        raise ValueError("header layer shape out of range")
    return LayeredHasher.build(num_layers=layers, bins_per_layer=bins, seed=fields["seed"])


def _decoded_sketch(
    mht: MultilayerHashTable, fields: Mapping[str, object], codec_version: object
) -> CompactedSketch:
    if codec_version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(f"unsupported superpost codec version {codec_version}")
    metadata = fields.get("metadata")
    return CompactedSketch(
        superpost_blob_data=b"",
        mht=mht,
        string_table=StringTable.from_list(fields["string_table"]),
        metadata=IndexMetadata.from_dict(metadata) if metadata else None,
        format_version=codec_version,
    )
