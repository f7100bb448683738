"""Unit tests for the co-access superpost layout pass."""

from repro.core.sketch import IoUSketch
from repro.index.layout import LAYOUT_COACCESS, coaccess_order, plain_order
from repro.index.compaction import compact_sketch
from repro.parsing.documents import Posting


def _posting(index: int) -> Posting:
    return Posting("corpus.txt", index * 32, 24)


def _sketch(num_layers: int = 3, total_bins: int = 24, seed: int = 5) -> IoUSketch:
    return IoUSketch.build(num_layers=num_layers, total_bins=total_bins, seed=seed)


def _nonempty(sketch: IoUSketch) -> list[tuple[int, int]]:
    return [
        (layer, bin_index)
        for layer in range(sketch.num_layers)
        for bin_index in range(sketch.bins_per_layer)
        if sketch.layers[layer].get(bin_index)
    ]


class TestPlainOrder:
    def test_layer_major_enumeration(self):
        sketch = IoUSketch.build(num_layers=2, total_bins=6, seed=0)
        assert plain_order(sketch.columns()) == []  # empty bins occupy no bytes: not placed
        for layer in sketch.layers:
            for bin_index in reversed(range(sketch.bins_per_layer)):
                layer[bin_index] = {_posting(0)}
        assert plain_order(sketch.columns()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        sketch.layers[0][1] = set()
        assert plain_order(sketch.columns()) == [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]


class TestCoaccessOrder:
    def test_is_a_permutation_of_all_nodes(self):
        sketch = _sketch()
        sketch.insert("alpha", [_posting(0), _posting(1)])
        sketch.insert("beta", [_posting(2)])
        sketch.insert("unweighted", [_posting(3)])
        # "ghost" was never inserted: the walk may pass through its (possibly
        # empty) bins but must not place them.
        order = coaccess_order(sketch.columns(), {"alpha": 2, "beta": 1, "ghost": 5})
        assert sorted(order) == _nonempty(sketch) == plain_order(sketch.columns())
        assert len(order) == len(set(order))

    def test_heaviest_word_chain_is_contiguous(self):
        sketch = _sketch()
        sketch.insert("heavy", [_posting(index) for index in range(50)])
        sketch.insert("light", [_posting(0)])
        order = coaccess_order(sketch.columns(), {"heavy": 50, "light": 1})
        chain = list(enumerate(sketch.hasher.bins_of("heavy")))
        positions = sorted(order.index(node) for node in set(chain))
        assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_deterministic_for_same_inputs(self):
        sketch = _sketch()
        weights = {"a": 3, "b": 2, "c": 1}
        for word in weights:
            sketch.insert(word, [_posting(0)])
        columns = sketch.columns()
        assert coaccess_order(columns, weights) == coaccess_order(columns, weights)

    def test_no_weights_falls_back_to_plain(self):
        sketch = _sketch()
        sketch.insert("alpha", [_posting(0)])
        columns = sketch.columns()
        assert coaccess_order(columns, {}) == plain_order(columns) == _nonempty(sketch)


class TestLayoutInCompaction:
    def test_coaccess_layout_places_heavy_chain_adjacently_in_blob(self):
        sketch = _sketch(num_layers=2, total_bins=16)
        sketch.insert("heavy", [_posting(index) for index in range(40)])
        sketch.insert("noise", [_posting(41)])
        compacted = compact_sketch(
            sketch,
            "s.bin",
            layout=LAYOUT_COACCESS,
            word_weights={"heavy": 40, "noise": 1},
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
        plain = compact_sketch(sketch, "s.bin", layout="plain")
        coaccess = compact_sketch(
            sketch, "s.bin", layout=LAYOUT_COACCESS, word_weights=weights
        )
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
                    decoded = decode_superpost(
                        payload, compacted.string_table, compacted.format_version
                    )
                    assert set(decoded) == expected
