"""Round-tripping and validation of the service request/response types."""

import json

import pytest

from repro.parsing.documents import Document, Posting
from repro.search.results import LatencyBreakdown, SearchResult
from repro.service.api import (
    DocumentHit,
    ErrorInfo,
    IndexInfo,
    LatencyInfo,
    SearchRequest,
    SearchResponse,
    ServiceError,
    ShardErrorInfo,
)


class TestSearchRequest:
    def test_json_round_trip(self):
        request = SearchRequest(
            query="error AND disk", index="logs", mode="boolean", top_k=7, include_text=False
        )
        assert SearchRequest.from_json(request.to_json()) == request

    def test_defaults(self):
        request = SearchRequest(query="error")
        assert request.mode == "keyword"
        assert request.top_k is None
        assert request.include_text

    def test_rejects_empty_query(self):
        with pytest.raises(ValueError):
            SearchRequest(query="   ")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SearchRequest(query="x", mode="fuzzy")

    def test_rejects_non_positive_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            SearchRequest(query="x", top_k=0)

    def test_rejects_non_string_query(self):
        with pytest.raises(ValueError, match="query"):
            SearchRequest(query=5)

    def test_rejects_non_integer_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            SearchRequest(query="x", top_k="many")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            SearchRequest.from_dict({"query": "x", "fuzziness": 2})

    def test_from_dict_requires_query(self):
        with pytest.raises(ValueError, match="query"):
            SearchRequest.from_dict({"index": "logs"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            SearchRequest.from_json(json.dumps(["not", "an", "object"]))


class TestSearchResponse:
    def _result(self) -> SearchResult:
        posting = Posting(blob="corpus/a.txt", offset=0, length=9)
        latency = LatencyBreakdown()
        latency.add_lookup(4.0, 1.0, 3.0, 128)
        latency.add_retrieval(6.0, 2.0, 4.0, 256)
        return SearchResult(
            query="error",
            documents=[Document(ref=posting, text="error one")],
            candidate_postings=[posting, Posting(blob="corpus/a.txt", offset=10, length=8)],
            false_positive_count=1,
            latency=latency,
        )

    def test_from_result_copies_everything(self):
        request = SearchRequest(query="error", index="logs")
        response = SearchResponse.from_result(request, self._result())
        assert response.num_results == 1
        assert response.num_candidates == 2
        assert response.false_positive_count == 1
        assert response.documents[0].text == "error one"
        assert response.latency.total_ms == pytest.approx(10.0)
        assert response.latency.round_trips == 2

    def test_include_text_false_drops_bodies(self):
        request = SearchRequest(query="error", index="logs", include_text=False)
        response = SearchResponse.from_result(request, self._result())
        assert response.documents[0].text is None
        assert "text" not in response.documents[0].to_dict()
        assert response.documents[0].blob == "corpus/a.txt"

    def test_json_round_trip(self):
        request = SearchRequest(query="error", index="logs")
        response = SearchResponse.from_result(request, self._result())
        rebuilt = SearchResponse.from_json(response.to_json())
        assert rebuilt == response

    def test_to_dict_reports_derived_totals(self):
        request = SearchRequest(query="error", index="logs")
        payload = SearchResponse.from_result(request, self._result()).to_dict()
        assert payload["num_results"] == 1
        assert payload["latency"]["total_ms"] == pytest.approx(10.0)


class TestDocumentHit:
    def test_round_trip_with_text(self):
        hit = DocumentHit(blob="b", offset=1, length=2, text="hi")
        assert DocumentHit.from_dict(hit.to_dict()) == hit

    def test_round_trip_without_text(self):
        hit = DocumentHit(blob="b", offset=1, length=2)
        assert DocumentHit.from_dict(hit.to_dict()) == hit


class TestLatencyInfo:
    def test_round_trip_ignores_derived_total(self):
        info = LatencyInfo(lookup_ms=3.0, retrieval_ms=4.0, bytes_fetched=10, round_trips=2)
        assert LatencyInfo.from_dict(info.to_dict()) == info


class TestIndexInfo:
    def test_json_round_trip(self):
        info = IndexInfo(
            name="logs",
            num_documents=100,
            num_terms=42,
            num_layers=3,
            num_common_words=5,
            expected_false_positives=0.7,
            delta_indexes=("logs/delta-0000",),
            storage_bytes=2048,
            is_open=True,
        )
        assert IndexInfo.from_json(info.to_json()) == info


class TestErrorInfo:
    def test_json_round_trip(self):
        info = ErrorInfo(status=404, error="index_not_found", message="no index named 'x'")
        assert ErrorInfo.from_json(info.to_json()) == info

    def test_service_error_carries_info(self):
        error = ServiceError(400, "bad_query", "unbalanced parenthesis")
        assert error.status == 400
        assert error.info.error == "bad_query"
        assert "parenthesis" in str(error)


class TestSearchRequestShards:
    def test_shards_default_to_none_and_are_omitted(self):
        request = SearchRequest(query="error")
        assert request.shards is None
        assert "shards" not in request.to_dict()

    def test_shards_are_sorted_and_deduplicated(self):
        request = SearchRequest(query="error", shards=[3, 1, 3, 0])
        assert request.shards == (0, 1, 3)
        assert request.to_dict()["shards"] == [0, 1, 3]

    def test_shards_round_trip(self):
        request = SearchRequest(query="error", shards=(2, 5))
        assert SearchRequest.from_json(request.to_json()) == request

    @pytest.mark.parametrize("shards", [[], "0", 3, [0, -1], [True], [1.5]])
    def test_invalid_shards_rejected(self, shards):
        with pytest.raises(ValueError):
            SearchRequest(query="error", shards=shards)


class TestRankedRequest:
    def test_mode_round_trips_with_weights(self):
        request = SearchRequest(
            query="error disk",
            index="logs",
            mode="topk_bm25",
            top_k=5,
            weights={"disk": 2.5},
        )
        assert SearchRequest.from_json(request.to_json()) == request
        assert request.weight_map == {"disk": 2.5}

    def test_weights_are_canonicalized(self):
        request = SearchRequest(
            query="a b", mode="topk_bm25", weights={"b": 2, "a": 1.0}
        )
        assert request.weights == (("a", 1.0), ("b", 2.0))

    def test_weights_accept_pair_lists(self):
        request = SearchRequest(
            query="a b", mode="topk_bm25", weights=[["b", 2.0], ["a", 1.5]]
        )
        assert request.weight_map == {"a": 1.5, "b": 2.0}

    def test_weights_require_ranked_mode(self):
        with pytest.raises(ValueError, match="weights"):
            SearchRequest(query="x", weights={"x": 2.0})

    @pytest.mark.parametrize(
        "weights",
        ["disk=2", {"": 2.0}, {"disk": 0}, {"disk": -1.0}, {"disk": "heavy"}, {3: 1.0}],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            SearchRequest(query="x", mode="topk_bm25", weights=weights)

    def test_weights_omitted_from_dict_when_unset(self):
        request = SearchRequest(query="x", mode="topk_bm25")
        assert "weights" not in request.to_dict()
        assert request.weight_map is None


class TestRankedResponse:
    def test_scores_ride_on_document_hits(self):
        posting = Posting(blob="corpus/a.txt", offset=0, length=9)
        result = SearchResult(
            query="error",
            documents=[Document(ref=posting, text="error one")],
            scores=[0.75],
        )
        request = SearchRequest(query="error", index="logs", mode="topk_bm25", top_k=1)
        response = SearchResponse.from_result(request, result)
        assert response.documents[0].score == 0.75
        payload = response.to_dict()
        assert payload["documents"][0]["score"] == 0.75
        assert SearchResponse.from_json(response.to_json()) == response

    def test_unranked_hits_omit_score(self):
        hit = DocumentHit(blob="b", offset=1, length=2, text="hi")
        assert "score" not in hit.to_dict()
        scored = DocumentHit(blob="b", offset=1, length=2, text="hi", score=0.5)
        assert DocumentHit.from_dict(scored.to_dict()) == scored


class TestShardErrorInfo:
    def test_round_trip(self):
        error = ShardErrorInfo(
            shard=3, node="http://n1:8080", error="node_timeout", message="5s elapsed"
        )
        assert ShardErrorInfo.from_dict(error.to_dict()) == error

    def test_partial_response_round_trip(self):
        response = SearchResponse(
            query="error",
            index="logs",
            mode="keyword",
            partial=True,
            shard_errors=(
                ShardErrorInfo(shard=1, node="http://n2", error="node_unreachable", message="refused"),
            ),
        )
        payload = response.to_dict()
        assert payload["partial"] is True
        assert payload["shard_errors"][0]["shard"] == 1
        assert SearchResponse.from_json(response.to_json()) == response

    def test_complete_response_omits_partial_fields(self):
        response = SearchResponse(query="error", index="logs", mode="keyword")
        payload = response.to_dict()
        assert "partial" not in payload
        assert "shard_errors" not in payload
        rebuilt = SearchResponse.from_dict(payload)
        assert rebuilt.partial is False
        assert rebuilt.shard_errors == ()


class TestServiceConfigRoundTrip:
    def test_to_dict_names_every_field(self):
        from dataclasses import fields

        from repro.service.config import ServiceConfig

        config = ServiceConfig()
        assert set(config.to_dict()) == {field.name for field in fields(ServiceConfig)}
        assert len(fields(ServiceConfig)) == 32
        json.dumps(config.to_dict())  # what /healthz serializes

    def test_non_default_config_survives_the_round_trip(self):
        from repro.service.config import ServiceConfig

        config = ServiceConfig(
            tokenizer="simple",
            max_concurrency=7,
            query_cache_size=3,
            coalesce_gap=512,
            read_cache_bytes=4096,
            retries=2,
            request_timeout_s=1.5,
            hedge_ms=12.0,
            ingest_flush_docs=99,
            ingest_max_memtable_docs=1000,
            peers=("http://n1:1/", "http://n2:2"),
            replication_factor=2,
            metrics_enabled=False,
            trace_sample_rate=0.25,
            slow_query_ms=80.0,
        )
        payload = config.to_dict()
        assert payload["peers"] == ["http://n1:1", "http://n2:2"]
        assert ServiceConfig.from_dict(payload) == config
        assert ServiceConfig.from_dict(json.loads(json.dumps(payload))) == config
