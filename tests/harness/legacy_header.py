"""Forgers of retired on-store formats and the reference blob placement.

Each kind of stored blob has one format the engine reads; an index in an
older one — a JSON header, superpost codec v1, a JSON stats blob, a stats
container v2, either retired sharded layout, statistics kept per shard — is
a typed "rebuild" error, not a reader kept forever.  This module keeps what
the tests need to prove that, and that nothing else changed:

* :func:`encode_plain_v3_header` — a plain build's v3 header written column
  after column with no padding, as every v3 writer has laid it out, which
  the reader must keep opening byte for byte;
* :func:`retire_sharded_layout` — makes a sharded build look, to the opener,
  like one of the retired sharded layouts;
* :func:`retire_format` — rewrites a build in any retired format: those,
  or its header or statistics from a few literal bytes or one replaced
  field;
* :func:`build_round_robin` — a sharded build as the retired round-robin
  partitioner wrote it, routing and all;
* :func:`legacy_superpost_blob` — the old placement walk over *all* bins and
  the concatenation it produced, as the reference ``superposts.bin`` must
  stay byte-identical to;
* :func:`reference_sketch` — the sketch as the builder once populated it,
  word by word into sets of postings, for that walk to lay out;
* :func:`coaccess_of` — a set-based sketch's words as the layout's
  :class:`~repro.index.layout.CoAccess` chains, hashed word by word.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import defaultdict
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from repro.core.common_words import CommonWordTable, select_common_words
from repro.core.config import SketchConfig
from repro.core.sketch import IoUSketch
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    HEADER_MAGIC,
    RETIRED_SHARDED_MAGIC,
    CompactedSketch,
    decode_build_header,
)
from repro.index.layout import CoAccess
from repro.index.serialization import CODEC_VERSION, StringTable, encode_superpost
from repro.index.store_layout import header_blob_name, shard_manifest_blob_name, stats_blob_name
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.profiling.profiler import profile_documents
from repro.storage.base import ObjectStore

LayoutNode = tuple[int, int]

#: A v1 stats blob, as the builds of the JSON era began it.
JSON_STATS_BLOB = b'{"magic":"airphant-stats","version":1}'
#: A stats container v2 blob as far as a reader looks at it: its magic,
#: version 2 and a preamble no longer read (its columns were uncompressed and
#: unchecksummed).
V2_STATS_BLOB = struct.pack("<8sII", b"AIRPSTA\n", 2, 8) + b'{}      '


def encode_plain_v3_header(compacted: CompactedSketch) -> bytes:
    """A plain (unsharded) build's v3 header: prefix, preamble, then the five
    pointer columns back to back — u32 bin ids after ``W``-wide pointers, so
    with ``W`` = 8 and an odd number of bins the blob ends off an 8-byte
    boundary, with nothing after the last id."""
    mht = compacted.mht
    preamble = json.dumps(
        {
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
        },
        separators=(",", ":"),
    ).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = struct.pack("<8sII", HEADER_MAGIC, 3, len(preamble))
    columns = [np.asarray(c).astype(f"<u{c.itemsize}", copy=False) for c in mht.columns]
    return b"".join([prefix, preamble, *(column.tobytes() for column in columns)])


def retire_sharded_layout(store: ObjectStore, build: str, layout: str) -> None:
    """Rewrite sharded ``build`` as far as its leading bytes in a retired
    layout: ``"container"`` (a header container per shard behind the
    ``AIRPSHD`` magic) or ``"shards.json"`` (a JSON manifest and no header
    at the build)."""
    header = header_blob_name(build)
    payload = store.get(header)
    if layout == "container":
        store.put(header, RETIRED_SHARDED_MAGIC + payload[len(RETIRED_SHARDED_MAGIC) :])
        return
    manifest = decode_build_header(payload, build).manifest
    store.put(shard_manifest_blob_name(build), json.dumps(manifest.to_dict()).encode("utf-8"))
    store.delete(header)


#: The retired stats formats :func:`retire_format` writes, by name.
STATS_LAYOUTS = {"json-stats": JSON_STATS_BLOB, "stats-v2": V2_STATS_BLOB}


def stats_of_version(data: bytes, version: int) -> bytes:
    """``data``, a current stats container, as an intact container of
    ``version``: the checksum is recomputed, so only the version is wrong."""
    body = bytearray(data[:-4])
    struct.pack_into("<I", body, 8, version)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def retire_format(store: ObjectStore, build: str, layout: str) -> None:
    """Rewrite one blob of ``build`` in a format this engine no longer reads:
    either retired sharded layout (:func:`retire_sharded_layout`),
    ``"json-header"`` (a JSON header, as builds before header container v3
    wrote), ``"codec-v1"`` (its v3 header declaring superpost codec v1, a sharded
    header's checksum recomputed to match), ``"json-stats"`` or
    ``"stats-v2"`` (a v1 JSON stats blob, or a stats container v2 one, in
    place of its statistics) or, for a sharded build, ``"shard-stats"`` (its
    statistics moved to ``shard-NNNN/stats.json``, one per shard, as sharded
    builds kept them, and none at the build)."""
    header = header_blob_name(build)
    payload = store.get(header)
    if layout in ("container", "shards.json"):
        retire_sharded_layout(store, build, layout)
    elif layout in STATS_LAYOUTS:
        store.put(stats_blob_name(build), STATS_LAYOUTS[layout])
    elif layout == "shard-stats":
        manifest = decode_build_header(payload, build).manifest
        statistics = store.get(stats_blob_name(build))
        for shard in manifest.shard_names:
            store.put(stats_blob_name(shard), statistics)
        store.delete(stats_blob_name(build))
    elif layout == "json-header":
        store.put(header, b'{"magic":"airphant-header","format_version":2}')
    else:
        assert layout == "codec-v1" and b'"codec_version":2' in payload
        forged = payload.replace(b'"codec_version":2', b'"codec_version":1')
        if decode_build_header(payload, build).manifest is not None:
            # A sharded header ends in a CRC-32 of the rest: keep it valid,
            # so the forged header declares codec v1 rather than corruption.
            forged = forged[:-4] + struct.pack("<I", zlib.crc32(forged[:-4]))
        store.put(header, forged)


def build_round_robin(
    store: ObjectStore,
    documents: Sequence[Document],
    index_name: str,
    config: SketchConfig,
    num_shards: int,
) -> None:
    """Build ``documents`` as ``num_shards`` shards the way the retired
    round-robin partitioner did: a document goes to shard (its first place
    in ``documents``) mod N, and the header's shard manifest and every
    shard's metadata say ``"partitioner":"round-robin"`` — its preamble
    length and CRC-32 recomputed to match."""
    first = {document.ref: at for at, document in reversed(list(enumerate(documents)))}

    def round_robin(stats, shards: int) -> np.ndarray:
        return np.asarray([first[ref] for ref in stats.docs], np.int64) % shards

    with mock.patch("repro.index.builder.route_rows", round_robin):
        AirphantBuilder(store, config=config, num_shards=num_shards).build_from_documents(
            documents, index_name=index_name
        )
    header = header_blob_name(index_name)
    payload = store.get(header)
    _, version, length = struct.unpack_from("<8sII", payload)
    preamble = payload[16 : 16 + length].rstrip(b" ")
    assert preamble.count(b'"partitioner":"hash"') == num_shards + 1
    preamble = preamble.replace(b'"partitioner":"hash"', b'"partitioner":"round-robin"')
    preamble += b" " * (-len(preamble) % 8)
    body = b"".join(
        [
            struct.pack("<8sII", HEADER_MAGIC, version, len(preamble)),
            preamble,
            payload[16 + length : -4],
        ]
    )
    store.put(header, body + struct.pack("<I", zlib.crc32(body)))


def _legacy_plain_order(num_layers: int, bins_per_layer: int) -> list[LayoutNode]:
    return [
        (layer, bin_index)
        for layer in range(num_layers)
        for bin_index in range(bins_per_layer)
    ]


def _legacy_coaccess_order(
    sketch: IoUSketch, word_weights: Mapping[str, int]
) -> list[LayoutNode]:
    """The co-access walk as it was when it seeded from every node of the budget."""
    every_node = _legacy_plain_order(sketch.num_layers, sketch.bins_per_layer)
    if sketch.num_layers < 2 or not word_weights:
        return every_node

    edge_weights: dict[tuple[LayoutNode, LayoutNode], int] = defaultdict(int)
    node_weights: dict[LayoutNode, int] = defaultdict(int)
    for word, weight in word_weights.items():
        if weight <= 0 or word in sketch.common_words:
            continue
        chain = list(enumerate(sketch.hasher.bins_of(word)))
        for node in chain:
            node_weights[node] += weight
        for left, right in zip(chain, chain[1:]):
            edge_weights[(left, right)] += weight

    neighbours: dict[LayoutNode, list[tuple[int, LayoutNode]]] = defaultdict(list)
    for (left, right), weight in edge_weights.items():
        neighbours[left].append((weight, right))
        neighbours[right].append((weight, left))
    for candidates in neighbours.values():
        candidates.sort(key=lambda item: (-item[0], item[1]))

    seeds = sorted(every_node, key=lambda node: (-node_weights.get(node, 0), node))
    order: list[LayoutNode] = []
    placed: set[LayoutNode] = set()
    for seed in seeds:
        if seed in placed:
            continue
        current = seed
        order.append(current)
        placed.add(current)
        while True:
            following = next(
                (node for _, node in neighbours.get(current, ()) if node not in placed),
                None,
            )
            if following is None:
                break
            order.append(following)
            placed.add(following)
            current = following
    return order


def legacy_superpost_blob(
    sketch: IoUSketch, word_weights: Mapping[str, int] | None = None
) -> tuple[bytes, list[str]]:
    """``superposts.bin`` and the string table as the old compactor wrote them.

    Co-access placement when ``word_weights`` are given (the builder's
    default), layer-major otherwise; every bin of the budget is visited and
    the empty ones contribute no bytes.
    """
    if word_weights:
        placement = _legacy_coaccess_order(sketch, word_weights)
    else:
        placement = _legacy_plain_order(sketch.num_layers, sketch.bins_per_layer)
    superposts = [sketch.layers[layer].get(bin_index, ()) for layer, bin_index in placement]
    superposts += [
        sketch.common_words.postings_by_word[word]
        for word in sorted(sketch.common_words.postings_by_word)
    ]
    string_table = StringTable()
    blob = bytearray()
    for superpost in superposts:
        if len(superpost):
            blob += encode_superpost(superpost, string_table)
    return bytes(blob), string_table.to_list()


def reference_sketch(
    documents: list[Document], tokenizer: Tokenizer, config: SketchConfig, num_layers: int
) -> tuple[IoUSketch, dict[str, int]]:
    """The in-memory sketch over ``documents`` and each word's document
    frequency, populated one word's set of postings at a time."""
    common_table = CommonWordTable()
    profile = profile_documents(documents, tokenizer)
    for word in select_common_words(profile, config.common_word_bins):
        common_table.register(word)
    sketch = IoUSketch.build(
        num_layers=num_layers,
        total_bins=max(config.sketch_bins, num_layers),
        seed=config.seed,
        common_words=common_table,
    )
    postings_by_word: dict[str, set[Posting]] = defaultdict(set)
    for document in documents:
        for word in tokenizer.distinct_terms(document.text):
            postings_by_word[word].add(document.ref)
    for word, postings in postings_by_word.items():
        sketch.insert(word, postings)
    return sketch, {word: len(postings) for word, postings in postings_by_word.items()}


def coaccess_of(sketch: IoUSketch, word_weights: Mapping[str, int]) -> CoAccess:
    """The chains the builder hands the layout, for ``sketch``'s non-common
    words of ``word_weights`` (word -> weight), each hashed here."""
    words = [word for word in word_weights if word not in sketch.common_words]
    chains = np.array([sketch.hasher.bins_of(word) for word in words], np.int64)
    chains = chains.reshape(-1, sketch.num_layers)
    chains += np.arange(sketch.num_layers) * sketch.bins_per_layer
    return CoAccess(chains, np.array([word_weights[word] for word in words], np.int64))
