"""Typed request/response surface of the Airphant query service.

Everything a client exchanges with :class:`~repro.service.facade.AirphantService`
— directly in Python or over the HTTP API — is one of the dataclasses below.
They are plain data: construction validates the payload, ``to_dict``/``to_json``
produce the wire representation, and ``from_dict``/``from_json`` rebuild them,
so the same types serve as the Python SDK and the HTTP schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

# The per-shard stats on the wire are exactly the shard manifest's entries;
# the alias keeps one definition while giving the API surface its own name.
from repro.index.metadata import ShardEntry as ShardInfo
from repro.search.results import LatencyBreakdown, SearchResult

#: Query modes the service can dispatch.
SEARCH_MODES = ("keyword", "boolean", "regex", "topk_bm25")

__all__ = [
    "SEARCH_MODES",
    "DocumentHit",
    "ErrorInfo",
    "IndexInfo",
    "SearchRequest",
    "SearchResponse",
    "ServiceError",
    "ShardInfo",
]


class ServiceError(Exception):
    """A request the service rejects, carrying an HTTP-style status code."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.info = ErrorInfo(status=status, error=error, message=message)

    @property
    def status(self) -> int:
        """HTTP status code of the rejection."""
        return self.info.status


@dataclass(frozen=True)
class ErrorInfo:
    """Structured error body returned by the service and the HTTP API."""

    status: int
    error: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {"status": self.status, "error": self.error, "message": self.message}

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorInfo":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            status=int(data["status"]),
            error=str(data["error"]),
            message=str(data["message"]),
        )

    @classmethod
    def from_json(cls, payload: str | bytes) -> "ErrorInfo":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class SearchRequest:
    """One query against a named index.

    ``mode`` selects how ``query`` is interpreted:

    * ``"keyword"`` — whitespace keywords, implicitly AND-ed;
    * ``"boolean"`` — ``error AND (timeout OR refused)`` syntax;
    * ``"regex"`` — a regular expression accelerated via its literal words;
    * ``"topk_bm25"`` — BM25-ranked retrieval: the best ``top_k`` documents
      matching all keywords, each with a score normalized into [0, 1].

    ``top_k`` caps the number of returned documents; a membership query then
    fetches the fewest candidates holding ``top_k`` true matches with
    probability ≥ 1 − δ (Equation 6 of the paper; exactly ``top_k`` over exact
    lists).  For ``"topk_bm25"`` it is the ranked ``k``, defaulting to the
    service's configured value.  ``include_text`` controls whether document
    bodies are returned or only their ``(blob, offset, length)`` references.

    ``weights`` (ranked mode only) boosts or damps individual query terms:
    a ``{term: positive multiplier}`` mapping applied to each term's BM25
    contribution.  Terms not named keep weight 1.0.

    ``explain`` asks the service to attach the query's full span tree (plus
    a per-wave summary) to the response — see ``docs/OBSERVABILITY.md``.
    """

    query: str
    index: str = "airphant-index"
    mode: str = "keyword"
    top_k: int | None = None
    include_text: bool = True
    weights: tuple[tuple[str, float], ...] | None = None
    explain: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.query, str) or not self.query.strip():
            raise ValueError("query must be a non-empty string")
        if not isinstance(self.explain, bool):
            raise ValueError(f"explain must be a boolean, got {self.explain!r}")
        if not isinstance(self.index, str) or not self.index:
            raise ValueError("index must be a non-empty string")
        if self.mode not in SEARCH_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(SEARCH_MODES)}"
            )
        if self.top_k is not None:
            if not isinstance(self.top_k, int) or isinstance(self.top_k, bool):
                raise ValueError(f"top_k must be an integer, got {self.top_k!r}")
            if self.top_k <= 0:
                raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.weights is not None:
            if self.mode != "topk_bm25":
                raise ValueError("weights are only valid with mode='topk_bm25'")
            if isinstance(self.weights, (str, bytes)) or not isinstance(
                self.weights, (dict, list, tuple)
            ):
                raise ValueError(
                    f"weights must map terms to positive numbers, got {self.weights!r}"
                )
            pairs = (
                tuple(self.weights.items())
                if isinstance(self.weights, dict)
                else tuple(tuple(pair) for pair in self.weights)
            )
            for pair in pairs:
                if len(pair) != 2:
                    raise ValueError(f"malformed weight entry {pair!r}")
                term, weight = pair
                if not isinstance(term, str) or not term:
                    raise ValueError(f"weight terms must be non-empty strings, got {term!r}")
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ValueError(f"weight for {term!r} must be a number, got {weight!r}")
                if not weight > 0:
                    raise ValueError(f"weight for {term!r} must be positive, got {weight}")
            # Canonical form: sorted by term, floats, immutable (the request
            # stays hashable for caching layers).
            canonical = tuple(
                sorted((term, float(weight)) for term, weight in dict(pairs).items())
            )
            object.__setattr__(self, "weights", canonical)

    @property
    def weight_map(self) -> dict[str, float] | None:
        """The canonicalized weights as a plain mapping (``None`` if unset)."""
        if self.weights is None:
            return None
        return dict(self.weights)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (``weights`` only when set)."""
        payload: dict[str, Any] = {
            "query": self.query,
            "index": self.index,
            "mode": self.mode,
            "top_k": self.top_k,
            "include_text": self.include_text,
        }
        if self.weights is not None:
            payload["weights"] = dict(self.weights)
        if self.explain:
            payload["explain"] = True
        return payload

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchRequest":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown search request field(s): {', '.join(sorted(unknown))}")
        if "query" not in data:
            raise ValueError("search request is missing the required 'query' field")
        return cls(**dict(data))

    @classmethod
    def from_json(cls, payload: str | bytes) -> "SearchRequest":
        """Rebuild from :meth:`to_json` output."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("search request body must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class DocumentHit:
    """One matching document: its storage reference plus (optionally) its text."""

    blob: str
    offset: int
    length: int
    text: str | None = None
    #: Ranked modes only: the document's normalized BM25 score in [0, 1].
    score: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (text/score omitted when absent)."""
        entry: dict[str, Any] = {
            "blob": self.blob,
            "offset": self.offset,
            "length": self.length,
        }
        if self.score is not None:
            entry["score"] = self.score
        if self.text is not None:
            entry["text"] = self.text
        return entry

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DocumentHit":
        """Rebuild from :meth:`to_dict` output."""
        score = data.get("score")
        return cls(
            blob=str(data["blob"]),
            offset=int(data["offset"]),
            length=int(data["length"]),
            text=data.get("text"),
            score=float(score) if score is not None else None,
        )


@dataclass(frozen=True)
class SearchResponse:
    """The service's answer to one :class:`SearchRequest`.

    ``trace`` carries the query's serialized span tree (plus a per-wave
    summary): attached on explain queries and on sub-requests that received
    trace-propagation headers, omitted from the wire otherwise.
    """

    query: str
    index: str
    mode: str
    documents: tuple[DocumentHit, ...] = ()
    num_candidates: int = 0
    #: Fetched documents that did not match; ``oversampled``: matching ones
    #: fetched beyond ``top_k``.
    false_positive_count: int = 0
    oversampled: int = 0
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    trace: Mapping[str, Any] | None = None

    @property
    def num_results(self) -> int:
        """Number of documents that truly match the query."""
        return len(self.documents)

    @classmethod
    def from_result(cls, request: SearchRequest, result: SearchResult) -> "SearchResponse":
        """Build the response for ``request`` from a searcher's ``result``."""
        scores = result.scores
        documents = tuple(
            DocumentHit(
                blob=document.blob,
                offset=document.offset,
                length=document.length,
                text=document.text if request.include_text else None,
                score=(
                    scores[position]
                    if scores is not None and position < len(scores)
                    else None
                ),
            )
            for position, document in enumerate(result.documents)
        )
        return cls(
            query=request.query,
            index=request.index,
            mode=request.mode,
            documents=documents,
            num_candidates=result.num_candidates,
            false_positive_count=result.false_positive_count,
            oversampled=result.oversampled,
            latency=result.latency,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (``trace`` only when set)."""
        payload: dict[str, Any] = {
            "query": self.query,
            "index": self.index,
            "mode": self.mode,
            "num_results": self.num_results,
            "num_candidates": self.num_candidates,
            "false_positive_count": self.false_positive_count,
            "oversampled": self.oversampled,
            "documents": [document.to_dict() for document in self.documents],
            "latency": self.latency.to_dict(),
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchResponse":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            query=str(data["query"]),
            index=str(data["index"]),
            mode=str(data["mode"]),
            documents=tuple(
                DocumentHit.from_dict(entry) for entry in data.get("documents", [])
            ),
            num_candidates=int(data.get("num_candidates", 0)),
            false_positive_count=int(data.get("false_positive_count", 0)),
            oversampled=int(data.get("oversampled", 0)),
            latency=LatencyBreakdown.from_dict(data.get("latency", {})),
            trace=data.get("trace"),
        )

    @classmethod
    def from_json(cls, payload: str | bytes) -> "SearchResponse":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class IndexInfo:
    """What the service knows about one named index in its catalog.

    ``num_shards`` is 1 and ``shards`` empty for a plain single-shard index;
    a sharded index reports one :class:`ShardInfo` per shard (``num_terms``
    then sums *per-shard* distinct terms, so a term spanning shards counts
    once per shard it appears in).
    """

    name: str
    num_documents: int = 0
    num_terms: int = 0
    num_layers: int = 0
    num_common_words: int = 0
    expected_false_positives: float = 0.0
    delta_indexes: tuple[str, ...] = ()
    storage_bytes: int = 0
    is_open: bool = False
    num_shards: int = 1
    shards: tuple[ShardInfo, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "name": self.name,
            "num_documents": self.num_documents,
            "num_terms": self.num_terms,
            "num_layers": self.num_layers,
            "num_common_words": self.num_common_words,
            "expected_false_positives": self.expected_false_positives,
            "delta_indexes": list(self.delta_indexes),
            "storage_bytes": self.storage_bytes,
            "is_open": self.is_open,
            "num_shards": self.num_shards,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IndexInfo":
        """Rebuild from :meth:`to_dict` output."""
        known = set(cls.__dataclass_fields__)
        fields = {key: value for key, value in data.items() if key in known}
        fields["delta_indexes"] = tuple(fields.get("delta_indexes", ()))
        fields["shards"] = tuple(
            ShardInfo.from_dict(entry) for entry in fields.get("shards", ())
        )
        return cls(**fields)

    @classmethod
    def from_json(cls, payload: str | bytes) -> "IndexInfo":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))
