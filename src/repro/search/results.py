"""Search results and latency accounting."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence

from repro.core.superpost import Superpost
from repro.parsing.documents import Document, Posting
from repro.storage.parallel import FetchResult


@dataclass
class LatencyBreakdown:
    """Simulated latency of one query, split the way the paper reports it.

    * ``lookup_ms`` — term-index lookup: fetching (and intersecting) the
      superposts, i.e., everything before document retrieval (Figure 14).
    * ``retrieval_ms`` — fetching candidate documents.
    * ``wait_ms`` / ``download_ms`` — the network-communication split of
      Figures 8 and 11 (time blocked on first bytes vs time receiving data),
      summed over both phases.

    Each phase adds the :class:`~repro.storage.parallel.FetchResult` of the
    waves it waited for, so ``wait_ms + download_ms == total_ms``.  This is
    also the ``latency`` block of a service response.
    """

    lookup_ms: float = 0.0
    retrieval_ms: float = 0.0
    wait_ms: float = 0.0
    download_ms: float = 0.0
    bytes_fetched: int = 0
    round_trips: int = 0

    @property
    def total_ms(self) -> float:
        """End-to-end simulated search latency."""
        return self.lookup_ms + self.retrieval_ms

    def add_lookup(self, fetch: FetchResult) -> None:
        """Account one lookup-phase wave."""
        self.lookup_ms += fetch.total_ms
        self._add_wave(fetch)

    def add_retrieval(self, fetch: FetchResult) -> None:
        """Account one document-retrieval wave."""
        self.retrieval_ms += fetch.total_ms
        self._add_wave(fetch)

    def _add_wave(self, fetch: FetchResult) -> None:
        self.wait_ms += fetch.wait_ms
        self.download_ms += fetch.download_ms
        self.bytes_fetched += fetch.nbytes
        self.round_trips += 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (includes the derived total)."""
        return {**vars(self), "total_ms": self.total_ms}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyBreakdown":
        """Rebuild from :meth:`to_dict` output (the derived total is ignored)."""
        known = {declared.name for declared in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


class Candidates(Sequence[Posting]):
    """A query's merged candidates, in member order.

    Each member's *share* — the postings no earlier member produced, as the
    sorted :class:`~repro.core.superpost.Superpost` it computed — follows the
    previous member's, so the first member producing a posting owns it.
    ``len`` is the candidate count; ``Posting`` objects are created only for
    the positions somebody asks for (:meth:`owned`), which on the query path
    is the prefix wave 2 fetches.
    """

    def __init__(
        self, shares: Sequence[tuple[int, Superpost]] = (), expected_false_positives: float = 0.0
    ) -> None:
        #: ``(owning member's index, its share)``, in member order.
        self.shares = shares
        #: F₀ of Equation 6: the members' plans' expected false positives, summed.
        self.expected_false_positives = expected_false_positives
        self._length = sum([len(share) for _, share in shares])

    def __len__(self) -> int:
        return self._length

    def owned(self, start: int = 0, stop: int | None = None) -> tuple[list[Posting], list[int]]:
        """Candidates ``[start:stop]`` and, aligned, the member owning each."""
        stop = self._length if stop is None else stop
        postings: list[Posting] = []
        owners: list[int] = []
        for owner, share in self.shares:
            size = len(share)
            if start < size and stop > 0:
                taken = share.take(max(start, 0), min(stop, size))
                postings += taken
                owners += [owner] * len(taken)
            start -= size
            stop -= size
        return postings, owners

    def __getitem__(self, index: int | slice) -> Posting | list[Posting]:
        if isinstance(index, slice):
            return list(self)[index]
        at = range(self._length)[index]
        return self.owned(at, at + 1)[0][0]

    def __iter__(self) -> Iterator[Posting]:
        return chain.from_iterable(share for _, share in self.shares)


@dataclass
class SearchResult:
    """Outcome of one search query."""

    query: str
    documents: list[Document] = field(default_factory=list)
    #: Every candidate the lookup produced — a lazy sequence on the query
    #: path (:class:`Candidates`, or one sorted ``Superpost`` for a ranked
    #: query), whose ``len`` is :attr:`num_candidates`.
    candidate_postings: Sequence[Posting] = field(default_factory=list)
    #: Fetched documents that did not match (ranked: refuted candidates).
    false_positive_count: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    #: Ranked modes only: normalized BM25 scores aligned with ``documents``
    #: (best first).  ``None`` for membership/Boolean results.
    scores: list[float] | None = None
    #: Matching documents fetched beyond ``top_k`` (the sample's surplus).
    oversampled: int = 0

    @property
    def num_results(self) -> int:
        """Number of documents that truly match the query."""
        return len(self.documents)

    @property
    def num_candidates(self) -> int:
        """Number of candidate postings fetched before filtering."""
        return len(self.candidate_postings)

    @property
    def postings(self) -> list[Posting]:
        """Postings of the documents that truly match."""
        return [document.ref for document in self.documents]

    @property
    def latency_ms(self) -> float:
        """End-to-end simulated latency of this query."""
        return self.latency.total_ms
