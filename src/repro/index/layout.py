"""Co-access-aware superpost layout.

Where a superpost sits inside the compacted blob never affects correctness —
but it decides what the coalescing read pipeline can do with a query's batch.
A query for one word fetches L superposts (one per layer); laid out
layer-major (all of layer 0, then all of layer 1, …) those L ranges sit
megabytes apart and the pipeline must issue L physical requests.  Laid out
*co-access-aware* — the bins a word hashes to placed next to each other —
the same batch collapses into one fat contiguous range read.

The layout problem is a weighted linear arrangement (NP-hard in general), so
the builder uses a deterministic greedy chain walk over the co-access graph:

* **nodes** are ``(layer, bin)`` pairs;
* **edges** connect the consecutive-layer bins of each word's hash chain,
  weighted by the word's document frequency (how many documents — and hence
  how much query traffic under an occurrence-shaped workload — share those
  bins);
* starting from the heaviest node, the walk repeatedly appends the heaviest
  unplaced neighbour of the node just placed, starting a new chain from the
  heaviest remaining node whenever it runs out of neighbours.

Frequent words therefore get their whole chain laid out contiguously (the
superposts are concatenated with no padding, so chain members are *exactly*
adjacent and the pipeline merges them without fetching a byte more), and
words sharing bins with frequent words land nearby.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.core.sketch import SketchColumns

#: One placement slot: (layer index, bin index).
LayoutNode = tuple[int, int]


def plain_order(sketch: SketchColumns) -> list[LayoutNode]:
    """Layer-major placement of the non-empty bins: layer 0, then layer 1, ..."""
    bins_per_layer = sketch.bins_per_layer
    return [divmod(bin_id, bins_per_layer) for bin_id in sketch.bin_ids.tolist()]


def coaccess_order(sketch: SketchColumns, word_weights: Mapping[str, int]) -> list[LayoutNode]:
    """Blob placement order of the non-empty hashed bins, heaviest co-access first.

    ``word_weights`` maps each inserted word to its weight (document
    frequency); common words are skipped — they are answered from a single
    exact pointer, so adjacency buys them nothing.  The returned order
    contains every non-empty ``(layer, bin)`` node exactly once and is
    deterministic for a given sketch + weights (ties break on node index).
    Empty bins occupy no bytes and are left out; the walk still passes
    *through* weighted empty nodes, so the non-empty ones keep the relative
    order they had when every bin was placed (``superposts.bin`` is
    byte-identical across that change).
    """
    nonempty = plain_order(sketch)
    if sketch.num_layers < 2 or not word_weights:
        return nonempty

    common = set(sketch.common_words)
    edge_weights: dict[tuple[LayoutNode, LayoutNode], int] = defaultdict(int)
    node_weights: dict[LayoutNode, int] = defaultdict(int)
    for word, weight in word_weights.items():
        if weight <= 0 or word in common:
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

    # Unweighted nodes have no neighbours, so they are never reached by the
    # walk: they follow it in plain order.
    seeds = sorted(node_weights, key=lambda node: (-node_weights[node], node))
    seeds += [node for node in nonempty if node not in node_weights]
    keep = set(nonempty)
    order: list[LayoutNode] = []
    placed: set[LayoutNode] = set()
    for seed in seeds:
        if seed in placed:
            continue
        current = seed
        while current is not None:
            if current in keep:
                order.append(current)
            placed.add(current)
            current = next(
                (node for _, node in neighbours.get(current, ()) if node not in placed),
                None,
            )
    return order
