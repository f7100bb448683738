"""Unit tests for the co-access superpost layout pass."""

from collections import defaultdict
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from harness.legacy_header import coaccess_of

from repro.core.sketch import IoUSketch, SketchColumns
from repro.index.compaction import compact_sketch
from repro.index.layout import coaccess_order
from repro.parsing.documents import Posting


def _posting(index: int) -> Posting:
    return Posting("corpus.txt", index * 32, 24)


def _sketch(num_layers: int = 3, total_bins: int = 24, seed: int = 5) -> IoUSketch:
    return IoUSketch.build(num_layers=num_layers, total_bins=total_bins, seed=seed)


def _nonempty(sketch: IoUSketch) -> list[int]:
    return [
        layer * sketch.bins_per_layer + bin_index
        for layer in range(sketch.num_layers)
        for bin_index in range(sketch.bins_per_layer)
        if sketch.layers[layer].get(bin_index)
    ]


def _order(sketch: IoUSketch, word_weights: Mapping[str, int] | None) -> list[int]:
    coaccess = None if word_weights is None else coaccess_of(sketch, word_weights)
    return coaccess_order(sketch.columns(), coaccess).tolist()


def _reference_walk(sketch: SketchColumns, word_weights: Mapping[str, int]) -> list[int]:
    """The greedy walk as it was first written, over dicts of ``(layer, bin)``
    nodes: the reference the array walk must equal, node for node."""
    bins_per_layer = sketch.bins_per_layer
    nonempty = [divmod(bin_id, bins_per_layer) for bin_id in sketch.bin_ids.tolist()]
    if sketch.num_layers < 2 or not word_weights:
        return [layer * bins_per_layer + index for layer, index in nonempty]
    common = set(sketch.common_words)
    edge_weights = defaultdict(int)
    node_weights = defaultdict(int)
    for word, weight in word_weights.items():
        if weight <= 0 or word in common:
            continue
        chain = list(enumerate(sketch.hasher.bins_of(word)))
        for node in chain:
            node_weights[node] += weight
        for left, right in zip(chain, chain[1:]):
            edge_weights[(left, right)] += weight
    neighbours = defaultdict(list)
    for (left, right), weight in edge_weights.items():
        neighbours[left].append((weight, right))
        neighbours[right].append((weight, left))
    for candidates in neighbours.values():
        candidates.sort(key=lambda item: (-item[0], item[1]))
    seeds = sorted(node_weights, key=lambda node: (-node_weights[node], node))
    seeds += [node for node in nonempty if node not in node_weights]
    keep = set(nonempty)
    order = []
    placed = set()
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
    return [layer * bins_per_layer + index for layer, index in order]


class TestPlainOrder:
    def test_layer_major_enumeration(self):
        sketch = IoUSketch.build(num_layers=2, total_bins=6, seed=0)
        assert _order(sketch, None) == []  # empty bins occupy no bytes: not placed
        for layer in sketch.layers:
            for bin_index in reversed(range(sketch.bins_per_layer)):
                layer[bin_index] = {_posting(0)}
        assert _order(sketch, None) == [0, 1, 2, 3, 4, 5]
        sketch.layers[0][1] = set()
        assert _order(sketch, None) == [0, 2, 3, 4, 5]


class TestCoaccessOrder:
    def test_is_a_permutation_of_all_nodes(self):
        sketch = _sketch()
        sketch.insert("alpha", [_posting(0), _posting(1)])
        sketch.insert("beta", [_posting(2)])
        sketch.insert("unweighted", [_posting(3)])
        # "ghost" was never inserted: the walk may pass through its (possibly
        # empty) bins but must not place them.
        order = _order(sketch, {"alpha": 2, "beta": 1, "ghost": 5})
        assert sorted(order) == _nonempty(sketch) == _order(sketch, None)
        assert len(order) == len(set(order))

    def test_heaviest_word_chain_is_contiguous(self):
        sketch = _sketch()
        sketch.insert("heavy", [_posting(index) for index in range(50)])
        sketch.insert("light", [_posting(0)])
        order = _order(sketch, {"heavy": 50, "light": 1})
        chain = [
            layer * sketch.bins_per_layer + bin_index
            for layer, bin_index in enumerate(sketch.hasher.bins_of("heavy"))
        ]
        positions = sorted(order.index(node) for node in set(chain))
        assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_deterministic_for_same_inputs(self):
        sketch = _sketch()
        weights = {"a": 3, "b": 2, "c": 1}
        for word in weights:
            sketch.insert(word, [_posting(0)])
        assert _order(sketch, weights) == _order(sketch, weights)

    def test_no_weights_falls_back_to_plain(self):
        sketch = _sketch()
        sketch.insert("alpha", [_posting(0)])
        assert _order(sketch, {}) == _order(sketch, None) == _nonempty(sketch)

    @given(
        num_layers=st.integers(1, 4),
        bins_per_layer=st.integers(1, 6),
        seed=st.integers(0, 50),
        inserted=st.lists(st.integers(0, 11), max_size=12),
        weights=st.dictionaries(st.integers(0, 15), st.integers(-1, 3), max_size=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_walk_equals_the_reference_walk(
        self, num_layers, bins_per_layer, seed, inserted, weights
    ):
        # Few bins and weights from {-1 .. 3}: tied node and edge weights,
        # shared bins, and weighted words never inserted (empty bins on the
        # walk) are the common case, not the exception.
        sketch = _sketch(num_layers, num_layers * bins_per_layer, seed)
        for at, word in enumerate(inserted):
            sketch.insert(f"w{word}", [_posting(at)])
        word_weights = {f"w{word}": weight for word, weight in weights.items()}
        assert _order(sketch, word_weights) == _reference_walk(sketch.columns(), word_weights)


class TestLayoutInCompaction:
    def test_coaccess_layout_places_heavy_chain_adjacently_in_blob(self):
        sketch = _sketch(num_layers=2, total_bins=16)
        sketch.insert("heavy", [_posting(index) for index in range(40)])
        sketch.insert("noise", [_posting(41)])
        compacted = compact_sketch(
            sketch, "s.bin", coaccess=coaccess_of(sketch, {"heavy": 40, "noise": 1})
        )
        chain = list(enumerate(sketch.hasher.bins_of("heavy")))
        pointers = sorted(
            (compacted.mht.pointer_of(layer, bin_index) for layer, bin_index in set(chain)),
            key=lambda pointer: pointer.offset,
        )
        # Each chain member's superpost ends exactly where the next begins, so
        # the read pipeline can merge the query's fetches even at gap 0.
        for left, right in zip(pointers, pointers[1:]):
            assert left.offset + left.length == right.offset

    def test_layouts_produce_identical_decoded_content(self):
        from repro.index.serialization import decode_superpost

        sketch = _sketch(num_layers=2, total_bins=8)
        sketch.insert("alpha", [_posting(0), _posting(1)])
        sketch.insert("beta", [_posting(2), _posting(3)])
        weights = {"alpha": 2, "beta": 2}
        plain = compact_sketch(sketch, "s.bin")  # no chains: layer-major
        coaccess = compact_sketch(sketch, "s.bin", coaccess=coaccess_of(sketch, weights))
        for layer in range(sketch.num_layers):
            for bin_index in range(sketch.bins_per_layer):
                expected = sketch.layers[layer].get(bin_index, set())
                for compacted in (plain, coaccess):
                    pointer = compacted.mht.pointer_of(layer, bin_index)
                    if pointer.is_empty:
                        assert expected == set()
                        continue
                    payload = compacted.superpost_blob_data[
                        pointer.offset : pointer.offset + pointer.length
                    ]
                    decoded = decode_superpost(payload, compacted.string_table)
                    assert set(decoded) == expected
