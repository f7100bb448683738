"""User-facing IoU Sketch configuration.

Mirrors the knobs described in Sections III-C and V-A: the bin budget B (or a
memory limit from which B is derived), the accuracy target F₀, the fraction
of bins reserved for common words and the top-K failure probability δ.  The
download concurrency is a query-side knob (``AirphantSearcher``,
``ServiceConfig``), not part of an index.  The number of layers is normally
chosen by the optimizer; users can pin it explicitly to skip profiling and
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: In-memory (and on-disk) bytes of one non-empty bin's pointer row: a u32 bin
#: id, offset and length.  (20 once a superpost blob outgrows 4 GiB and the
#: offset/length columns widen to u64.)
BYTES_PER_BIN_POINTER = 12


@dataclass(frozen=True)
class SketchConfig:
    """Configuration of one IoU Sketch / Airphant index.

    Attributes
    ----------
    num_bins:
        Total bin budget B across all layers (paper default 10⁵).
    target_false_positives:
        Accuracy constraint F₀: expected irrelevant documents per query
        (paper default 1.0).
    num_layers:
        Optional explicit layer count; ``None`` lets the Builder run
        Algorithm 1.
    common_word_fraction:
        Fraction of bins set aside to store *exact* postings lists for the
        most common words (paper default 1 %).
    top_k_delta:
        Failure probability δ of the top-K sampling guarantee (paper default
        10⁻⁶).
    seed:
        Seed of the layer hash functions.
    max_layers:
        Hard cap on the optimizer's layer count, bounding query fan-out.
    """

    num_bins: int = 100_000
    target_false_positives: float = 1.0
    num_layers: int | None = None
    common_word_fraction: float = 0.01
    top_k_delta: float = 1e-6
    seed: int = 0
    max_layers: int = 64
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if self.target_false_positives < 0:
            raise ValueError("target_false_positives must be non-negative")
        if self.num_layers is not None and self.num_layers <= 0:
            raise ValueError("num_layers must be positive when specified")
        if not 0.0 <= self.common_word_fraction < 1.0:
            raise ValueError("common_word_fraction must be in [0, 1)")
        if not 0.0 < self.top_k_delta < 1.0:
            raise ValueError("top_k_delta must be in (0, 1)")
        if self.max_layers <= 0:
            raise ValueError("max_layers must be positive")

    @classmethod
    def from_memory_budget(
        cls, memory_bytes: int, **overrides: object
    ) -> "SketchConfig":
        """Derive the bin budget from a Searcher memory limit.

        The MHT holds one pointer row per non-empty bin, so a budget of B
        bins can never cost more than B × bytes-per-pointer.
        """
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        num_bins = max(1, memory_bytes // BYTES_PER_BIN_POINTER)
        return cls(num_bins=int(num_bins), **overrides)  # type: ignore[arg-type]

    @property
    def sketch_bins(self) -> int:
        """Bins available to the hashed sketch (excludes common-word bins)."""
        reserved = self.common_word_bins
        return max(1, self.num_bins - reserved)

    @property
    def common_word_bins(self) -> int:
        """Bins reserved for exact postings lists of the most common words."""
        return int(self.num_bins * self.common_word_fraction)

    @property
    def estimated_memory_bytes(self) -> int:
        """Upper bound on the Searcher-resident MHT: every bin non-empty.

        The table is sparse (:meth:`MultilayerHashTable.memory_bytes` reports
        what an opened index really holds), so small corpora cost far less.
        """
        return self.num_bins * BYTES_PER_BIN_POINTER

    def with_layers(self, num_layers: int) -> "SketchConfig":
        """Return a copy with an explicit layer count."""
        return SketchConfig(
            num_bins=self.num_bins,
            target_false_positives=self.target_false_positives,
            num_layers=num_layers,
            common_word_fraction=self.common_word_fraction,
            top_k_delta=self.top_k_delta,
            seed=self.seed,
            max_layers=self.max_layers,
            metadata=dict(self.metadata),
        )
