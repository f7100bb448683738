"""Seeded pairwise-independent hashing for IoU Sketch layers.

Each IoU Sketch layer needs its own hash function mapping keywords to bins.
The accuracy analysis (Section IV-A) assumes a pairwise-independent family,
which we realize with the classic Carter–Wegman construction
``h(x) = ((a·x + b) mod p) mod m`` over a 61-bit Mersenne prime, applied to a
stable 64-bit digest of the keyword.  Only the integer seeds need to be
persisted to reconstruct the functions at Searcher initialization time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

#: Mersenne prime 2^61 - 1, comfortably larger than any 60-bit digest.
_MERSENNE_PRIME = (1 << 61) - 1


def stable_word_digest(word: str) -> int:
    """Deterministic 60-bit integer digest of a keyword.

    Python's builtin ``hash`` is randomized per process, so we use BLAKE2b to
    obtain a digest that is stable across runs (the sketch must hash words to
    the same bins at build time and at query time, possibly in different
    processes).
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % _MERSENNE_PRIME


@dataclass(frozen=True)
class HashFamily:
    """One pairwise-independent hash function ``h: str -> [0, num_bins)``."""

    multiplier: int
    addend: int
    num_bins: int

    def __post_init__(self) -> None:
        if self.num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if not 1 <= self.multiplier < _MERSENNE_PRIME:
            raise ValueError("multiplier must be in [1, p)")
        if not 0 <= self.addend < _MERSENNE_PRIME:
            raise ValueError("addend must be in [0, p)")

    @classmethod
    def from_seed(cls, seed: int, num_bins: int) -> "HashFamily":
        """Derive (a, b) deterministically from an integer seed."""
        digest = hashlib.blake2b(seed.to_bytes(8, "big", signed=False), digest_size=16).digest()
        multiplier = (int.from_bytes(digest[:8], "big") % (_MERSENNE_PRIME - 1)) + 1
        addend = int.from_bytes(digest[8:], "big") % _MERSENNE_PRIME
        return cls(multiplier=multiplier, addend=addend, num_bins=num_bins)

    def bin_of(self, word: str) -> int:
        """Bin index of ``word`` within this layer."""
        return self.bin_of_digest(stable_word_digest(word))

    def bin_of_digest(self, digest: int) -> int:
        """Bin index of a pre-computed word digest."""
        return ((self.multiplier * digest + self.addend) % _MERSENNE_PRIME) % self.num_bins


@dataclass(frozen=True)
class LayeredHasher:
    """The full set of L layer hash functions of one IoU Sketch.

    Reconstructible from ``(seed, bins_per_layer)`` alone, which is exactly
    what the Builder persists in the index header block.
    """

    layers: tuple[HashFamily, ...]
    seed: int

    @classmethod
    def build(cls, num_layers: int, bins_per_layer: int, seed: int = 0) -> "LayeredHasher":
        """Construct ``num_layers`` independent hash functions."""
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if bins_per_layer <= 0:
            raise ValueError("bins_per_layer must be positive")
        layers = tuple(
            HashFamily.from_seed(seed * 1_000_003 + layer_index, bins_per_layer)
            for layer_index in range(num_layers)
        )
        return cls(layers=layers, seed=seed)

    @property
    def num_layers(self) -> int:
        """Number of layers L."""
        return len(self.layers)

    @property
    def bins_per_layer(self) -> int:
        """Number of bins per layer (B / L)."""
        return self.layers[0].num_bins

    def bins_of(self, word: str) -> list[int]:
        """The bin index of ``word`` in every layer (length L)."""
        digest = stable_word_digest(word)
        return [layer.bin_of_digest(digest) for layer in self.layers]

    def layer_bins(self, words: Sequence[str]) -> list[list[int]]:
        """Per layer, the bin index of each of ``words``: :meth:`bins_of`
        transposed, each word digested once."""
        digests = list(map(stable_word_digest, words))
        return [list(map(layer.bin_of_digest, digests)) for layer in self.layers]
