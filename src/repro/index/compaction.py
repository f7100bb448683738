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
version.  There is one format epoch: container v3 over codec 2 is what every
build writes and all the engine reads.  A header in any other format — the
JSON headers of early builds, codec v1, the retired sharded container,
another container version — is :class:`UnsupportedIndexFormatError`: the
index is derived data, and the way forward is to rebuild it from its corpus.
A sharded build is one sketch whose header points at *runs* — a bin's shard
superposts back to back — and splits them (:class:`ShardedRuns`); a run is
read whole and decoded by cutting it at the split
(:meth:`CompactedSketch.decode_run`).  Every
build places the superposts inside the blob in co-access order
(:mod:`repro.index.layout`); placement is invisible to readers, which only
ever follow pointers.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.core.mht import MultilayerHashTable
from repro.core.hashing import LayeredHasher
from repro.core.sketch import IoUSketch, PostingColumns, SketchColumns
from repro.core.superpost import Superpost
from repro.index.layout import CoAccess, coaccess_order
from repro.index.metadata import IndexMetadata, ShardManifest, index_metadata
from repro.index.serialization import (
    CODEC_VERSION,
    StringTable,
    decode_superpost,
    encode_superposts,
    uncompressed_superpost_bytes,
)
from repro.index.stats import narrowest
from repro.index.store_layout import HEADER_BLOB_SUFFIX, SUPERPOST_BLOB_SUFFIX  # noqa: F401
from repro.index.store_layout import (
    CorruptIndexError,
    UnsupportedIndexFormatError,
    header_blob_name,
)
from repro.observability.registry import get_registry

#: Leading bytes of a v3 header.
HEADER_MAGIC = b"AIRPHDR\n"
#: Version of the header container (not of the superpost codec).
HEADER_CONTAINER_VERSION = 3
#: Magic, then container version and preamble length as little-endian u32.
_HEADER_PREFIX = struct.Struct("<8sII")
#: Leading bytes of the retired sharded-build container (a header per shard).
RETIRED_SHARDED_MAGIC = b"AIRPSHD\n"
#: Leading bytes of each header format this engine no longer reads -> what
#: the blob holds.
_RETIRED_HEADERS = {
    b"{": "a JSON header",
    RETIRED_SHARDED_MAGIC: "a sharded header container v1",
}
#: The one header format read.
_READ_FORMAT = f"header container v{HEADER_CONTAINER_VERSION} over superpost codec v{CODEC_VERSION}"
#: A sharded header's trailer: CRC-32 of every byte before it.
_CHECKSUM = struct.Struct("<I")
#: What a malformed blob makes the decoders' parsing steps raise.
_MALFORMED = (KeyError, TypeError, AttributeError, OverflowError, struct.error)


@dataclass(frozen=True)
class ShardedRuns:
    """How a sharded build's runs — each bin's and common word's shard
    superposts, back to back in shard order — divide among its shards (and
    each shard's metadata): ``lengths`` and ``common_lengths`` have a row per
    shard and a column per run, parallel to the pointer columns."""

    manifest: ShardManifest
    metadata: tuple[IndexMetadata | None, ...]
    lengths: np.ndarray
    common_lengths: np.ndarray

    @cached_property
    def by_run(self) -> np.ndarray:
        """The split with a row per run — the hashed bins', then the common
        words' — as :attr:`~repro.core.mht.BinPointer.row` indexes them."""
        return np.ascontiguousarray(np.concatenate([self.lengths, self.common_lengths], 1).T)


@dataclass
class CompactedSketch:
    """Result of compacting an in-memory IoU Sketch.

    ``superpost_blob_data`` is the byte concatenation of all serialized
    superposts (empty when decoded from a header — the superposts themselves
    stay in cloud storage); ``mht`` holds the pointers into it.  A sharded
    build's ``mht`` points at whole runs and ``shards`` splits them.
    """

    superpost_blob_data: bytes
    mht: MultilayerHashTable
    string_table: StringTable
    metadata: IndexMetadata | None = None
    shards: ShardedRuns | None = None

    @property
    def superpost_blob_name(self) -> str:
        """Name of the blob the pointers point into."""
        return self.mht.blob

    @property
    def manifest(self) -> ShardManifest | None:
        """A sharded build's shard manifest (``None`` for a plain build)."""
        return None if self.shards is None else self.shards.manifest

    def metadata_of(self) -> IndexMetadata | None:
        """Corpus-wide metadata: a plain build's own, a sharded build's
        merged over its shards."""
        if self.shards is None:
            return self.metadata
        return index_metadata(self.manifest, list(self.shards.metadata))

    def decode_run(self, run: int, payload: bytes | memoryview) -> Superpost:
        """The postings of run ``run`` (a pointer's row), whose shards'
        shares ``payload`` holds back to back — a plain build's run is one
        superpost.

        Each non-empty share decodes on its own and the shares union: shards
        partition the documents, so the union is exact.  A payload that is
        not its shares' length, or a share that does not decode, is a
        :class:`~repro.index.store_layout.CorruptIndexError` naming the blob.
        """
        runs, pieces, start = self.shards, [], 0
        shares = [len(payload)] if runs is None else runs.by_run[run].tolist()
        try:
            if sum(shares) != len(payload):
                raise ValueError(f"run {run} holds {len(payload)} bytes, its shares {sum(shares)}")
            for share in filter(None, shares):
                pieces.append(decode_superpost(payload[start : start + share], self.string_table))
                start += share
        except (ValueError, KeyError) as error:
            raise CorruptIndexError(self.mht.blob, error) from error
        return Superpost.union_all(pieces)


def compact_sketch(
    sketch: IoUSketch | SketchColumns,
    superpost_blob_name: str,
    metadata: IndexMetadata | None = None,
    coaccess: CoAccess | None = None,
    *,
    manifest: ShardManifest | None = None,
    shard_metadata: Sequence[IndexMetadata] = (),
    shard_of_row: np.ndarray | None = None,
) -> CompactedSketch:
    """Serialize and concatenate all superposts of ``sketch`` with the v2 codec.

    The bins are placed in co-access order (:func:`coaccess_order`): each
    word's layer chain adjacent, weighted by its document frequency (the
    builder's ``coaccess`` chains), so the read pipeline can coalesce a
    query's fetches.  Without chains that order is layer-major.

    Only non-empty bins are placed, encoded and given a pointer row; a bin
    without a row is empty and the Searcher skips it without a request.  The
    placed bins, then the common words in word order, are encoded straight
    from their document rows (:func:`~repro.index.serialization.encode_superposts`);
    an :class:`IoUSketch` is turned into columns first.

    With a shard ``manifest``, ``shard_of_row`` gives each document row's
    shard: the pointers point at runs, and :class:`ShardedRuns` the split.
    """
    if isinstance(sketch, IoUSketch):
        sketch = sketch.columns()

    bin_ids = coaccess_order(sketch, coaccess)
    # Every superpost in blob order: the placed bins, then the common words.
    lists = sketch.lists
    order = np.concatenate(
        [np.searchsorted(sketch.bin_ids, bin_ids), np.arange(len(sketch.bin_ids), len(lists.counts))]
    )
    columns = lists._replace(starts=lists.starts[order], counts=lists.counts[order])
    num_shards = 1 if manifest is None else manifest.num_shards
    if manifest is not None:
        columns = _split_lists(columns, shard_of_row, num_shards)
    string_table = StringTable()
    blob, sizes = encode_superposts(columns, string_table)
    _record_codec_bytes(uncompressed_superpost_bytes(columns), len(blob))
    split = sizes.reshape(-1, num_shards)
    sizes = split.sum(axis=1)

    # Superposts are concatenated without padding, so offsets are the running
    # sum of lengths in placement order; the table wants them in bin-id order,
    # as u32 columns widened to u64 only when an offset needs it.
    dtype = np.uint32 if len(blob) < 1 << 32 else np.uint64
    offsets, lengths = (np.cumsum(sizes) - sizes).astype(dtype), sizes.astype(dtype)
    count = len(bin_ids)
    by_id = np.argsort(bin_ids)
    mht = MultilayerHashTable(
        sketch.hasher, superpost_blob_name, len(blob),
        bin_ids[by_id].astype(np.uint32), offsets[:count][by_id], lengths[:count][by_id],
        list(sketch.common_words), offsets[count:], lengths[count:],
    )
    shards = None
    if manifest is not None:
        hashed, common = narrowest(split[:count][by_id].T), narrowest(split[count:].T)
        shards = ShardedRuns(manifest, tuple(shard_metadata), hashed, common)
    return CompactedSketch(blob, mht, string_table, metadata, shards=shards)


def _split_lists(
    columns: PostingColumns, shard_of_row: np.ndarray, num_shards: int
) -> PostingColumns:
    """Each list of ``columns`` cut into one per shard, in shard order."""
    counts = np.asarray(columns.counts, np.int64)
    heads = np.cumsum(counts) - counts
    entries = np.arange(int(counts.sum())) + np.repeat(columns.starts - heads, counts)
    rows = columns.rows[entries]
    key = np.repeat(np.arange(len(counts)), counts) * num_shards + shard_of_row[rows]
    counts = np.bincount(key, minlength=len(counts) * num_shards)
    return columns._replace(
        rows=rows[np.argsort(key, kind="stable")], starts=np.cumsum(counts) - counts, counts=counts
    )


def _record_codec_bytes(raw_bytes: int, encoded_bytes: int) -> None:
    """Expose compression effectiveness on live nodes via ``/metrics``."""
    registry = get_registry()
    labels = {"format": f"v{CODEC_VERSION}"}
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
    12 bytes per non-empty bin — not to the bin budget B.  A sharded build's
    preamble adds its manifest, each shard's metadata and the split's widths;
    length columns hold the split instead — each shard's length in every
    run, shard by shard, as narrow as their largest — every column of it is
    zero-padded to the pointer width, and a CRC-32 of every byte before it
    ends the blob.  A plain header's columns are unpadded.
    """
    mht, runs = compacted.mht, compacted.shards
    fields = {
        "codec_version": CODEC_VERSION,
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
    }
    offsets, lengths, common_offsets, common_lengths, bin_ids = mht.columns
    if runs is not None:
        lengths, common_lengths = narrowest(runs.lengths), narrowest(runs.common_lengths)
        fields["shards"] = {
            "manifest": runs.manifest.to_dict(),
            "metadata": [entry.to_dict() if entry else None for entry in runs.metadata],
            "widths": [lengths.itemsize, common_lengths.itemsize],
        }
    preamble = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = _HEADER_PREFIX.pack(HEADER_MAGIC, HEADER_CONTAINER_VERSION, len(preamble))
    blob = [prefix, preamble]
    for column in (offsets, lengths, common_offsets, common_lengths, bin_ids):
        blob.append(np.asarray(column).astype(f"<u{column.itemsize}", copy=False).tobytes())
        if runs is not None:
            # Zeros keep every column after a narrow split aligned to the
            # pointer width; a plain header's columns need none.
            blob.append(bytes(-len(blob[-1]) % offsets.itemsize))
    body = b"".join(blob)
    return body if runs is None else body + _CHECKSUM.pack(zlib.crc32(body))


def decode_header(data: bytes, blob: str = HEADER_BLOB_SUFFIX) -> CompactedSketch:
    """Inverse of :func:`encode_header`.

    A header in a format this engine does not read (a JSON header, the
    retired sharded container, another container version or superpost
    codec) is :class:`UnsupportedIndexFormatError` naming ``blob``.  Nothing
    else in ``data`` is trusted: every malformed, truncated or out-of-bounds
    header is a ``ValueError``.  The returned :class:`CompactedSketch` has
    an empty ``superpost_blob_data``; its ``mht`` and ``string_table`` are
    complete.
    """
    for magic, found in _RETIRED_HEADERS.items():
        if data.startswith(magic):
            raise UnsupportedIndexFormatError(blob, found, _READ_FORMAT)
    try:
        return _decode_v3_header(data, blob)
    except _MALFORMED as error:
        raise ValueError(f"malformed Airphant header: {error!r}") from error


def decode_build_header(data: bytes, build: str) -> CompactedSketch:
    """``build``'s header, plain or sharded (whose manifest must name
    ``build``'s own shards).  A header in a format this engine does not read
    is :class:`UnsupportedIndexFormatError`, any other failure corrupt."""
    blob = header_blob_name(build)
    try:
        header = decode_header(data, blob)
        if header.manifest is not None:
            header.manifest.validated(build)
        return header
    except UnsupportedIndexFormatError:
        raise
    except (ValueError, *_MALFORMED) as error:
        raise CorruptIndexError(blob, error) from error


def _decode_v3_header(data: bytes, blob: str) -> CompactedSketch:
    magic, version, preamble_bytes = _HEADER_PREFIX.unpack_from(data)
    if magic != HEADER_MAGIC:
        raise ValueError("not an Airphant header blob")
    if version != HEADER_CONTAINER_VERSION:
        raise UnsupportedIndexFormatError(blob, f"header container v{version}", _READ_FORMAT)
    position = _HEADER_PREFIX.size + preamble_bytes
    if position > len(data):
        raise ValueError("header truncated inside its preamble")
    fields = json.loads(data[_HEADER_PREFIX.size : position])
    sharded = fields.get("shards")
    if sharded is not None:
        end = len(data) - _CHECKSUM.size
        if end < position or _CHECKSUM.pack(zlib.crc32(memoryview(data)[:end])) != data[end:]:
            raise ValueError("sharded header fails its checksum")
        data = memoryview(data)[:end]
    codec = fields["codec_version"]
    if codec != CODEC_VERSION:
        raise UnsupportedIndexFormatError(blob, f"superpost codec v{codec}", _READ_FORMAT)
    count, width = fields["num_pointers"], fields["pointer_width"]
    common_words = fields["common_words"]
    if width not in (4, 8) or not isinstance(count, int) or count < 0:
        raise ValueError("bad pointer column description")
    num_shards, split_width, common_width, align = 1, width, width, 1
    if sharded is not None:
        manifest = ShardManifest.from_dict(sharded["manifest"])
        num_shards, (split_width, common_width) = manifest.num_shards, sharded["widths"]
        align = width
        if not {split_width, common_width} <= {1, 2, 4, 8}:
            raise ValueError("bad split column description")
    common = len(common_words)
    shapes = [(count, width), (count * num_shards, split_width), (common, width)]
    shapes += [(common * num_shards, common_width), (count, 4)]
    padded = [length * size + (-length * size % align) for length, size in shapes]
    if position + sum(padded) != len(data):
        raise ValueError("header length does not match its pointer columns")
    columns = []
    for (length, size), stored in zip(shapes, padded):
        column = np.frombuffer(data, dtype=f"<u{size}", count=length, offset=position)
        columns.append(column.astype(column.dtype.newbyteorder("="), copy=False))
        position += stored
    offsets, lengths, common_offsets, common_lengths, bin_ids = columns
    runs = None
    if sharded is not None:
        split = lengths.reshape(num_shards, count), common_lengths.reshape(num_shards, common)
        metadata = tuple(IndexMetadata.from_dict(m) if m else None for m in sharded["metadata"])
        if len(metadata) != num_shards:
            raise ValueError("the shards' metadata does not match the manifest")
        runs = ShardedRuns(manifest, metadata, *split)
        # A run is its shares added up (a float sum cannot wrap): a pointer holds it.
        if any(part.size and part.sum(0, float).max() >= 2.0 ** (8 * width) for part in split):
            raise ValueError("a run's shares do not add up to a run")
        lengths, common_lengths = (part.sum(axis=0, dtype=offsets.dtype) for part in split)
    mht = MultilayerHashTable(
        _hasher_of(fields), fields["superpost_blob"], fields["superpost_bytes"],
        bin_ids, offsets, lengths, common_words, common_offsets, common_lengths,
    )
    metadata = fields.get("metadata")
    return CompactedSketch(
        superpost_blob_data=b"",
        mht=mht,
        string_table=StringTable.from_list(fields["string_table"]),
        metadata=IndexMetadata.from_dict(metadata) if metadata else None,
        shards=runs,
    )


def _hasher_of(fields: Mapping[str, object]) -> LayeredHasher:
    layers, bins = fields["num_layers"], fields["bins_per_layer"]
    if not (isinstance(layers, int) and isinstance(bins, int) and 0 < layers * bins <= 1 << 32):
        raise ValueError("header layer shape out of range")
    return LayeredHasher.build(num_layers=layers, bins_per_layer=bins, seed=fields["seed"])
