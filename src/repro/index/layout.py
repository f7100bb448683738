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

* **nodes** are bins, by flat id ``layer * bins_per_layer + bin``;
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
words sharing bins with frequent words land nearby.  The walk runs on the
chains the builder hashed for the sketch (:class:`CoAccess`), over arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.sketch import SketchColumns


class CoAccess(NamedTuple):
    """The words the layout walks: one row of ``chains`` a word — its flat
    bin id in every layer — and its weight (its document frequency) in
    ``weights``.  Words of weight 0 or less are left out of the graph."""

    chains: np.ndarray
    weights: np.ndarray


def coaccess_order(sketch: SketchColumns, coaccess: CoAccess | None) -> np.ndarray:
    """Blob placement order of the non-empty hashed bins (flat ids), heaviest
    co-access first.

    Without chains, or with one layer, that order is layer-major: the
    ascending ``sketch.bin_ids``.  Otherwise the order contains every
    non-empty bin exactly once and is deterministic for a given sketch +
    chains (ties break on the lower flat id).  Empty bins occupy no bytes and
    are left out; the walk still passes *through* weighted empty nodes, so
    the non-empty ones keep the relative order they had when every bin was
    placed.  Non-empty bins no weighted chain reaches follow the walk in
    plain order.
    """
    nonempty = sketch.bin_ids
    weighted = None if coaccess is None else coaccess.weights > 0
    if weighted is None or sketch.num_layers < 2 or not weighted.any():
        return nonempty
    chains, weights = coaccess.chains[weighted], coaccess.weights[weighted].astype(np.int64)
    layers = chains.shape[1]
    nodes, node_of = np.unique(chains, return_inverse=True)
    node_of = node_of.reshape(chains.shape)
    count = len(nodes)
    node_weight = np.bincount(node_of.ravel(), np.repeat(weights, layers), count)
    # Each (layer i, layer i + 1) pair of a chain, its words' weights summed.
    pairs = (node_of[:, :-1] * count + node_of[:, 1:]).ravel()
    edges, edge_of = np.unique(pairs, return_inverse=True)
    edge_weight = np.bincount(edge_of, np.repeat(weights, layers - 1), len(edges))
    # Both directions, each node's neighbours heaviest first (then lower id).
    source = np.concatenate([edges // count, edges % count])
    target = np.concatenate([edges % count, edges // count])
    by_source = np.lexsort((target, -np.tile(edge_weight, 2), source))
    neighbours = target[by_source].tolist()
    bounds = np.searchsorted(source[by_source], np.arange(count + 1)).tolist()

    placed = bytearray(count)
    walk: list[int] = []
    for node in np.argsort(-node_weight, kind="stable").tolist():
        while not placed[node]:
            placed[node] = 1
            walk.append(node)
            # Each node is left once, so its list is scanned once.
            for neighbour in neighbours[bounds[node] : bounds[node + 1]]:
                if not placed[neighbour]:
                    node = neighbour
                    break
    order = nodes[walk]
    return np.concatenate([order[np.isin(order, nonempty)], nonempty[~np.isin(nonempty, nodes)]])
