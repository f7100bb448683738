"""Built-in replication against long-tail requests (Section IV-G).

Because a query fetches its L superposts in parallel, the slowest request
determines the lookup latency.  The multi-layer structure doubles as a
replication mechanism: the Searcher can issue all L requests but continue as
soon as ``L - drop_slowest`` of them complete, discarding the stragglers.
Dropping layers never loses relevant documents (each layer's superpost is a
superset of the true postings list); it only admits more false positives,
which the document-filtering step removes anyway.

The same long-tail reasoning applies one level up, across *nodes* of a
scale-out query tier: see :mod:`repro.cluster.topology` for the replica
placement a router hedges across.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HedgingPolicy:
    """How many trailing superpost requests a query may abandon.

    ``drop_slowest = 0`` disables hedging (wait for all layers).  A policy is
    typically paired with an over-provisioned layer count L⁺ chosen at build
    time so that accuracy stays within the target even after drops.
    """

    drop_slowest: int = 0

    def __post_init__(self) -> None:
        if self.drop_slowest < 0:
            raise ValueError("drop_slowest must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether hedging is active."""
        return self.drop_slowest > 0

    def required_of(self, num_requests: int) -> int:
        """Number of requests that must complete out of ``num_requests``."""
        if num_requests <= 0:
            return 0
        return max(1, num_requests - self.drop_slowest)
