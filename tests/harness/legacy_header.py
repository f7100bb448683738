"""Legacy (pre-v3) header fixtures and the reference blob placement.

Until header container v3 every index carried a JSON ``header.json`` with one
``[offset, length]`` pair for *every* bin of the budget, and the compactor
placed (and tried to encode) every bin, empty or not.  Production code keeps
only a *reader* for that format; this module keeps what the tests need to
prove nothing else changed:

* :func:`encode_legacy_header` — the old ``encode_header``, kept as the
  fixture writer for JSON-headed indexes;
* :func:`downgrade_headers` — rewrites the headers of already-built indexes
  in a store to that JSON form, yielding the index an older build would have
  left behind (same ``superposts.bin``, same pointers);
* :func:`legacy_superpost_blob` — the old placement walk over *all* bins and
  the concatenation it produced, as the reference ``superposts.bin`` must
  stay byte-identical to;
* :func:`reference_sketch` — the sketch as the builder once populated it,
  word by word into sets of postings, for that walk to lay out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Mapping

from repro.core.common_words import CommonWordTable, select_common_words
from repro.core.config import SketchConfig
from repro.core.sketch import IoUSketch
from repro.index.compaction import (
    HEADER_BLOB_SUFFIX,
    CompactedSketch,
    decode_header,
)
from repro.index.serialization import StringTable, encode_superpost
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.profiling.profiler import profile_documents
from repro.storage.base import ObjectStore

LayoutNode = tuple[int, int]


def encode_legacy_header(compacted: CompactedSketch) -> bytes:
    """The JSON header of format versions 1 and 2, dense over the bin budget.

    Empty bins carried a zero length and whatever offset the blob had reached
    when they were visited; the end of the blob stands in for that here, so a
    reader that keyed emptiness on the offset would be caught.
    """
    mht = compacted.mht
    pointers = [
        [[mht.blob_bytes, 0] for _ in range(mht.bins_per_layer)]
        for _ in range(mht.num_layers)
    ]
    for flat, offset, length in zip(mht.bin_ids, mht.offsets, mht.lengths):
        pointers[flat // mht.bins_per_layer][flat % mht.bins_per_layer] = [offset, length]
    payload = {
        "magic": "airphant-header",
        "format_version": compacted.format_version,
        "seed": mht.hasher.seed,
        "num_layers": mht.num_layers,
        "bins_per_layer": mht.bins_per_layer,
        "superpost_blob": compacted.superpost_blob_name,
        "string_table": compacted.string_table.to_list(),
        "pointers": pointers,
        "common_words": {
            word: [offset, length]
            for word, offset, length in zip(
                mht.common_words, mht.common_offsets, mht.common_lengths
            )
        },
        "metadata": compacted.metadata.to_dict() if compacted.metadata else None,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def downgrade_headers(store: ObjectStore, prefix: str = "") -> list[str]:
    """Rewrite every header under ``prefix`` as legacy JSON; returns their names."""
    headers = [
        name
        for name in store.list_blobs(prefix=prefix)
        if name.endswith(f"/{HEADER_BLOB_SUFFIX}")
    ]
    for name in headers:
        store.put(name, encode_legacy_header(decode_header(store.get(name))))
    return headers


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
    sketch: IoUSketch,
    format_version: int,
    word_weights: Mapping[str, int] | None = None,
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
            blob += encode_superpost(superpost, string_table, format_version)
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
