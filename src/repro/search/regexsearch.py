"""Regular-expression search accelerated by the IoU Sketch (Section IV-F).

RegEx engines built on inverted indexes (e.g., Google Code Search style
trigram indexes) use the index as a *filter*: literal fragments that every
match must contain are looked up first, and only the candidate documents are
scanned with the full regular expression.  False positives in the candidate
set do not affect correctness because the final regex match removes them —
exactly the property IoU Sketch already relies on.

:class:`RegexSearcher` applies the same idea at word granularity: it extracts
the literal words that any match must contain, runs an AND query over them
through the sketch, and then evaluates the regex against the fetched
documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.parsing.documents import Document
from repro.search.boolean import And, BooleanQuery, Term
from repro.search.results import SearchResult
from repro.search.searcher import AirphantSearcher

#: Regex metacharacters that end a literal run.
_META_CHARACTERS = set(".^$*+?{}[]\\|()")


def extract_required_terms(pattern: str, min_length: int = 2) -> list[str]:
    """Extract literal *words* that every match of ``pattern`` must contain.

    Because the sketch indexes whitespace-delimited keywords, a literal run is
    only usable as an index filter when the pattern guarantees it appears as a
    standalone word: the run must be delimited on both sides by whitespace
    (a literal space, ``\\s``, or an anchor / string boundary) and must not be
    made optional by a following ``?``, ``*`` or ``{0,`` quantifier.  Patterns
    containing a top-level alternation, or whose matches cannot be pinned to
    any whole literal word, yield an empty list — in which case index
    acceleration is impossible and the searcher refuses the query.
    """
    if "|" in pattern:
        # A top-level alternation means no single literal is required.  A
        # full implementation would intersect the alternatives' literals; we
        # conservatively give up (the searcher then refuses the query).
        return []
    literals: list[str] = []
    current: list[str] = []
    starts_at_boundary = True
    index = 0

    def flush(ends_at_boundary: bool) -> None:
        nonlocal starts_at_boundary
        word = "".join(current)
        if starts_at_boundary and ends_at_boundary and len(word) >= min_length:
            literals.append(word)
        current.clear()

    while index < len(pattern):
        char = pattern[index]
        next_char = pattern[index + 1] if index + 1 < len(pattern) else ""
        if char == "\\":
            # \s is a whitespace class (a word boundary); every other escape
            # is some non-whitespace class or escaped metacharacter.  A '+'
            # quantifier keeps \s a guaranteed boundary; '*' or '?' make the
            # whitespace optional and therefore not a boundary.
            following = pattern[index + 2] if index + 2 < len(pattern) else ""
            is_whitespace_class = next_char == "s" and following not in {"*", "?"}
            flush(ends_at_boundary=is_whitespace_class)
            starts_at_boundary = is_whitespace_class
            index += 2
            if next_char == "s" and following == "+":
                index += 1
            continue
        if char == "[":
            # A character class matches many alternatives; skip it entirely.
            flush(ends_at_boundary=False)
            starts_at_boundary = False
            closing = pattern.find("]", index + 1)
            index = len(pattern) if closing == -1 else closing + 1
            continue
        if char in {"^", "$"}:
            # Anchors are boundaries but contribute no characters.
            flush(ends_at_boundary=True)
            starts_at_boundary = True
            index += 1
            continue
        if char.isspace():
            flush(ends_at_boundary=True)
            starts_at_boundary = True
            index += 1
            continue
        if char in _META_CHARACTERS:
            flush(ends_at_boundary=False)
            starts_at_boundary = False
            index += 1
            continue
        if next_char in {"?", "*"} or (next_char == "{" and pattern[index + 1 :].startswith("{0")):
            # This character is optional; it ends (and invalidates) the run.
            flush(ends_at_boundary=False)
            starts_at_boundary = False
            index += 2
            continue
        current.append(char)
        index += 1
    flush(ends_at_boundary=True)
    return literals


@dataclass
class RegexSearcher:
    """Regex queries over an Airphant index.

    Parameters
    ----------
    searcher:
        An initialized :class:`AirphantSearcher`.
    min_literal_length:
        Minimum length of extracted literal words used for filtering.
    """

    searcher: AirphantSearcher
    min_literal_length: int = 2

    def search(self, pattern: str, top_k: int | None = None) -> SearchResult:
        """Return documents whose text matches ``pattern``.

        Raises ``ValueError`` if no literal word can be extracted from the
        pattern (the index cannot accelerate such a query; a full corpus scan
        would be required).
        """
        literals = extract_required_terms(pattern, self.min_literal_length)
        if not literals:
            raise ValueError(
                f"pattern {pattern!r} has no required literal terms; "
                "index-accelerated regex search is not possible"
            )
        filter_query: BooleanQuery = (
            Term(literals[0]) if len(literals) == 1 else And(*(Term(word) for word in literals))
        )
        candidate_result = self.searcher.search_boolean(filter_query, top_k=None)
        compiled = re.compile(pattern)
        # Candidates were already fetched and term-filtered; re-filter by regex.
        matched: list[Document] = [
            document
            for document in candidate_result.documents
            if compiled.search(document.text) is not None
        ]
        if top_k is not None:
            matched = matched[:top_k]
        return SearchResult(
            query=pattern,
            documents=matched,
            candidate_postings=candidate_result.candidate_postings,
            false_positive_count=candidate_result.false_positive_count
            + (len(candidate_result.documents) - len(matched)),
            latency=candidate_result.latency,
        )
