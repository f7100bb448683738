"""Brute-force oracle: what every query must answer, from the raw documents.

A token -> document-reference map built with the service's configured
tokenizer, kept current by :meth:`Oracle.add` / :meth:`Oracle.remove` for
the write workloads (a model of the live documents).  A document is
identified by its storage reference ``(blob, offset, length)``, which is
what search responses carry and what stays stable across flush and
compaction.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.parsing.documents import Document
from repro.parsing.tokenizer import Tokenizer

Ref = tuple[str, int, int]


class Oracle:
    """Exact inverted map over the live documents."""

    def __init__(self, tokenizer: Tokenizer, documents: Iterable[Document] = ()) -> None:
        self._tokenizer = tokenizer
        self._by_token: dict[str, set[Ref]] = {}
        self._tokens_of: dict[Ref, frozenset[str]] = {}
        for document in documents:
            self.add((document.blob, document.offset, document.length), document.text)

    def __len__(self) -> int:
        return len(self._tokens_of)

    def add(self, ref: Ref, text: str) -> None:
        tokens = frozenset(self._tokenizer.tokenize(text))
        self._tokens_of[ref] = tokens
        for token in tokens:
            self._by_token.setdefault(token, set()).add(ref)

    def remove(self, ref: Ref) -> None:
        for token in self._tokens_of.pop(ref, ()):
            self._by_token[token].discard(ref)

    def tokens_of(self, ref: Ref) -> frozenset[str]:
        return self._tokens_of[ref]

    def document_frequencies(self) -> dict[str, int]:
        """Token -> number of live documents containing it."""
        return {token: len(refs) for token, refs in self._by_token.items() if refs}

    def matching(self, tokens: Sequence[str]) -> set[Ref]:
        """References of the live documents containing *all* ``tokens``."""
        sets = sorted((self._by_token.get(token, set()) for token in tokens), key=len)
        if not sets:
            return set()
        return set(sets[0]).intersection(*sets[1:])


def violation(
    truth: set[Ref], response: dict[str, Any], top_k: int | None, ranked: bool = False
) -> str | None:
    """Why ``response`` (a decoded ``SearchResponse`` JSON) is wrong, or ``None``.

    ``top_k=None`` answers must equal the truth set; bounded answers must be
    a subset of it with ``min(top_k, |truth|)`` hits; ranked answers must
    additionally carry non-increasing scores.
    """
    if response.get("partial"):
        return "partial answer"
    documents = response["documents"]
    refs = [(hit["blob"], hit["offset"], hit["length"]) for hit in documents]
    found = set(refs)
    if len(found) != len(refs):
        return "duplicate hits"
    if not found <= truth:
        return f"{len(found - truth)} hit(s) outside the truth set"
    expected = len(truth) if top_k is None else min(top_k, len(truth))
    if len(refs) != expected:
        return f"{len(refs)} hit(s), expected {expected}"
    if ranked:
        scores = [hit.get("score") for hit in documents]
        if any(score is None for score in scores):
            return "ranked hit without a score"
        if any(later > earlier for earlier, later in zip(scores, scores[1:])):
            return "scores not in non-increasing order"
    return None
