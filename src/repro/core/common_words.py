"""Exact handling of common words.

Merging the huge postings lists of very frequent words into hashed bins would
pollute every superpost that shares those bins.  Airphant instead reserves a
small fraction of the bin budget (1 % by default) to store the *exact*
postings lists of the most common words; queries for those words bypass the
hashed layers entirely (Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.superpost import Superpost
from repro.parsing.documents import Posting
from repro.profiling.profiler import CorpusProfile


def select_common_words(profile: CorpusProfile, num_slots: int) -> list[str]:
    """Choose the words that get exact bins: highest document frequency first.

    Returns at most ``num_slots`` words, deterministically ordered.
    """
    if num_slots <= 0:
        return []
    return profile.most_common_words(num_slots)


@dataclass
class CommonWordTable:
    """Exact word → postings map for the reserved common-word bins."""

    postings_by_word: dict[str, set[Posting]] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self.postings_by_word

    def __len__(self) -> int:
        return len(self.postings_by_word)

    @property
    def words(self) -> set[str]:
        """The words handled exactly."""
        return set(self.postings_by_word)

    def register(self, word: str) -> None:
        """Reserve an exact bin for ``word`` before any postings arrive.

        The Builder registers the selected common words up front so that the
        sketch's insert path routes their postings here instead of polluting
        the hashed bins.
        """
        self.postings_by_word.setdefault(word, set())

    def add(self, word: str, postings: Iterable[Posting]) -> None:
        """Record (or extend) the exact postings list of ``word``."""
        self.postings_by_word.setdefault(word, set()).update(postings)

    def query(self, word: str) -> Superpost:
        """Exact postings list of ``word`` (empty if not a common word)."""
        return Superpost(self.postings_by_word.get(word, ()))
