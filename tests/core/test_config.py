"""Unit tests for the sketch configuration."""

import pytest

from repro.core.config import BYTES_PER_BIN_POINTER, SketchConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = SketchConfig()
        assert config.num_bins == 100_000
        assert config.target_false_positives == 1.0
        assert config.common_word_fraction == pytest.approx(0.01)
        assert config.top_k_delta == pytest.approx(1e-6)
        assert config.num_layers is None

    def test_common_word_bins_are_one_percent(self):
        config = SketchConfig(num_bins=100_000)
        assert config.common_word_bins == 1000
        assert config.sketch_bins == 99_000

    def test_estimated_memory_is_a_few_megabytes_at_paper_scale(self):
        config = SketchConfig(num_bins=100_000)
        assert 1_000_000 <= config.estimated_memory_bytes <= 4_000_000


class TestValidation:
    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            SketchConfig(num_bins=0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            SketchConfig(target_false_positives=-1)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            SketchConfig(num_layers=0)

    def test_invalid_common_fraction(self):
        with pytest.raises(ValueError):
            SketchConfig(common_word_fraction=1.0)
        with pytest.raises(ValueError):
            SketchConfig(common_word_fraction=-0.1)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            SketchConfig(top_k_delta=0.0)
        with pytest.raises(ValueError):
            SketchConfig(top_k_delta=1.0)

    def test_invalid_max_layers(self):
        with pytest.raises(ValueError):
            SketchConfig(max_layers=0)

    def test_download_concurrency_is_not_an_index_setting(self):
        with pytest.raises(TypeError):
            SketchConfig(max_concurrency=32)


class TestDerivedConstructors:
    def test_from_memory_budget(self):
        config = SketchConfig.from_memory_budget(2 * 1024 * 1024)
        assert config.num_bins == (2 * 1024 * 1024) // BYTES_PER_BIN_POINTER

    def test_from_memory_budget_passes_overrides(self):
        config = SketchConfig.from_memory_budget(1_000_000, target_false_positives=0.01)
        assert config.target_false_positives == 0.01

    def test_from_memory_budget_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SketchConfig.from_memory_budget(0)

    def test_with_layers_returns_copy(self):
        base = SketchConfig(num_bins=500, seed=3)
        pinned = base.with_layers(4)
        assert pinned.num_layers == 4
        assert pinned.num_bins == 500
        assert pinned.seed == 3
        assert base.num_layers is None

    def test_sketch_bins_never_zero(self):
        config = SketchConfig(num_bins=1, common_word_fraction=0.0)
        assert config.sketch_bins >= 1
