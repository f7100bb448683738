"""Round-tripping and validation of the service request/response types."""

import json

import pytest

from repro.parsing.documents import Document, Posting
from repro.search.results import LatencyBreakdown, SearchResult
from repro.service.api import (
    DocumentHit,
    ErrorInfo,
    IndexInfo,
    SearchRequest,
    SearchResponse,
    ServiceError,
)
from repro.storage.parallel import FetchResult


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
        latency.add_lookup(FetchResult(requests=1, nbytes=128, wait_ms=1.0, download_ms=3.0))
        latency.add_retrieval(FetchResult(requests=1, nbytes=256, wait_ms=2.0, download_ms=4.0))
        return SearchResult(
            query="error",
            documents=[Document(ref=posting, text="error one")],
            candidate_postings=[posting, Posting(blob="corpus/a.txt", offset=10, length=8)],
            false_positive_count=1,
            latency=latency,
            oversampled=3,
        )

    def test_from_result_copies_everything(self):
        request = SearchRequest(query="error", index="logs")
        response = SearchResponse.from_result(request, self._result())
        assert response.num_results == 1
        assert response.num_candidates == 2
        assert response.false_positive_count == 1
        assert response.oversampled == 3
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

    def test_wire_format_is_pinned(self):
        request = SearchRequest(query="error", index="logs")
        response = SearchResponse.from_result(request, self._result())
        assert response.to_json() == (
            '{"query": "error", "index": "logs", "mode": "keyword", "num_results": 1, '
            '"num_candidates": 2, "false_positive_count": 1, "oversampled": 3, '
            '"documents": [{"blob": '
            '"corpus/a.txt", "offset": 0, "length": 9, "text": "error one"}], "latency": '
            '{"lookup_ms": 4.0, "retrieval_ms": 6.0, "wait_ms": 3.0, "download_ms": 7.0, '
            '"bytes_fetched": 384, "round_trips": 2, "total_ms": 10.0}}'
        )
        assert SearchResponse.from_dict(json.loads(response.to_json())) == response

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


class TestLatencyBreakdownFromDict:
    def test_round_trip_ignores_derived_total(self):
        info = LatencyBreakdown(lookup_ms=3.0, retrieval_ms=4.0, bytes_fetched=10, round_trips=2)
        assert LatencyBreakdown.from_dict(info.to_dict()) == info


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


class TestSearchRequestHasNoShardPin:
    def test_a_request_naming_shards_is_refused(self):
        with pytest.raises(ValueError, match="shards"):
            SearchRequest.from_dict({"query": "error", "shards": [0]})


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


class TestServiceConfigRoundTrip:
    def test_to_dict_names_every_field(self):
        from dataclasses import fields

        from repro.service.config import ServiceConfig

        config = ServiceConfig()
        assert set(config.to_dict()) == {field.name for field in fields(ServiceConfig)}
        assert len(fields(ServiceConfig)) == 23
        json.dumps(config.to_dict())  # what /healthz serializes

    def test_non_default_config_survives_the_round_trip(self):
        from repro.service.config import ServiceConfig

        config = ServiceConfig(
            tokenizer="simple",
            max_concurrency=7,
            read_cache_bytes=4096,
            retries=2,
            request_timeout_s=1.5,
            hedge_ms=12.0,
            ingest_flush_docs=99,
            ingest_max_memtable_docs=1000,
            peers=("http://n1:1/", "http://n2:2"),
            metrics_enabled=False,
            trace_sample_rate=0.25,
            slow_query_ms=80.0,
        )
        payload = config.to_dict()
        assert payload["peers"] == ["http://n1:1", "http://n2:2"]
        assert ServiceConfig.from_dict(payload) == config
        assert ServiceConfig.from_dict(json.loads(json.dumps(payload))) == config

    def test_a_saved_config_with_the_retired_hedge_percentile_still_loads(self):
        from repro.service.config import ServiceConfig

        saved = {**ServiceConfig(hedge_ms=12.0).to_dict(), "hedge_percentile": 99.0}
        config = ServiceConfig.from_dict(saved)
        assert config == ServiceConfig(hedge_ms=12.0)
        assert "hedge_percentile" not in config.to_dict()

    def test_a_saved_config_with_the_retired_top_k_knobs_still_loads(self):
        from repro.service.config import ServiceConfig

        saved = {
            **ServiceConfig(max_concurrency=7).to_dict(),
            "default_top_k": 5,
            "top_k_delta": 0.01,
        }
        config = ServiceConfig.from_dict(saved)
        assert config == ServiceConfig(max_concurrency=7)
        assert not {"default_top_k", "top_k_delta"} & set(config.to_dict())

    def test_a_saved_config_with_the_retired_compaction_ratio_still_loads(self):
        from repro.service.config import ServiceConfig

        saved = {**ServiceConfig(ingest_compact_deltas=3).to_dict(), "ingest_compact_ratio": 0.5}
        config = ServiceConfig.from_dict(saved)
        assert config == ServiceConfig(ingest_compact_deltas=3)
        assert "ingest_compact_ratio" not in config.to_dict()

    def test_a_saved_config_with_the_retired_regex_and_trace_knobs_still_loads(self):
        from repro.service.config import ServiceConfig

        saved = {**ServiceConfig().to_dict(), "min_literal_length": 3, "trace_buffer": 64}
        config = ServiceConfig.from_dict(saved)
        assert config == ServiceConfig()
        assert not {"min_literal_length", "trace_buffer"} & set(config.to_dict())

    def test_a_saved_config_with_the_retired_replication_factor_still_loads(self):
        from repro.service.config import ServiceConfig

        peers = ("http://n1:1", "http://n2:2")
        saved = {**ServiceConfig(peers=peers).to_dict(), "replication_factor": 3}
        config = ServiceConfig.from_dict(saved)
        assert config == ServiceConfig(peers=peers)
        assert "replication_factor" not in config.to_dict()
