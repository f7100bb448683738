"""Tests for the AirphantService facade: dispatch, errors, building."""

import pytest

from repro.core.config import SketchConfig
from repro.service.config import READ_CACHE_BYTES
from repro.service import (
    AirphantService,
    SearchRequest,
    ServiceConfig,
    ServiceError,
)


@pytest.fixture
def service(sim_store, built_small_index) -> AirphantService:
    return AirphantService(sim_store, ServiceConfig())


class TestSearchDispatch:
    def test_keyword_mode(self, service, small_documents):
        response = service.search(SearchRequest(query="error", index="small-index"))
        expected = {d.text for d in small_documents if "error" in d.text.split()}
        assert {hit.text for hit in response.documents} == expected

    def test_keyword_multi_word_is_conjunctive(self, service):
        response = service.search(SearchRequest(query="error timeout", index="small-index"))
        assert all("error" in hit.text and "timeout" in hit.text for hit in response.documents)
        assert response.num_results == 2

    def test_keyword_mode_finds_tokens_that_look_like_boolean_syntax(self, service, sim_store):
        sim_store.put("corpus/syntax.txt", b"alpha (beta) gamma\nalpha beta")
        service.build_index(
            "syntax", ["corpus/syntax.txt"], sketch_config=SketchConfig(num_bins=64, seed=7)
        )
        response = service.search(SearchRequest(query="alpha (beta)", index="syntax"))
        assert [hit.text for hit in response.documents] == ["alpha (beta) gamma"]

    def test_boolean_mode(self, service):
        response = service.search(
            SearchRequest(query="error AND (disk OR timeout)", index="small-index", mode="boolean")
        )
        assert response.num_results == 4

    def test_regex_mode(self, service):
        response = service.search(
            SearchRequest(query=r"error timeout \w+", index="small-index", mode="regex")
        )
        assert response.num_results == 2
        assert all("error timeout" in hit.text for hit in response.documents)

    def test_top_k_caps_results(self, service):
        response = service.search(SearchRequest(query="error", index="small-index", top_k=2))
        assert response.num_results == 2

    def test_keyword_search_without_top_k_returns_every_match(self, service):
        capped = service.search(SearchRequest(query="error", index="small-index", top_k=1))
        response = service.search(SearchRequest(query="error", index="small-index"))
        assert capped.num_results == 1 < response.num_results

    def test_latency_breakdown_reported(self, service):
        response = service.search(SearchRequest(query="error", index="small-index"))
        assert response.latency.total_ms > 0
        assert response.latency.round_trips >= 2  # one lookup wave + one retrieval wave

    def test_the_block_cache_is_on_and_shared_across_requests(self, service):
        cold = service.search(SearchRequest(query="error", index="small-index"))
        pipeline = service.catalog.open("small-index").pipeline
        assert pipeline.cache_bytes == READ_CACHE_BYTES
        assert pipeline.stats.cache_hits == 0
        warm = service.search(SearchRequest(query="error", index="small-index"))
        assert pipeline.stats.cache_hits == pipeline.stats.cache_misses > 0
        assert cold.latency.round_trips == 2 and warm.latency.round_trips == 0
        assert warm.to_dict()["documents"] == cold.to_dict()["documents"]


class TestErrors:
    def test_unknown_index_is_404(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.search(SearchRequest(query="error", index="missing-index"))
        assert exc_info.value.status == 404
        assert exc_info.value.info.error == "index_not_found"

    def test_malformed_boolean_query_is_400(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.search(
                SearchRequest(query="error AND (disk", index="small-index", mode="boolean")
            )
        assert exc_info.value.status == 400
        assert exc_info.value.info.error == "bad_query"

    def test_unfilterable_regex_is_400(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.search(SearchRequest(query=r"a|b", index="small-index", mode="regex"))
        assert exc_info.value.status == 400

    def test_index_info_unknown_is_404(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.index_info("missing-index")
        assert exc_info.value.status == 404


class TestBuildIndex:
    def test_build_then_search(self, service, sim_store):
        sim_store.put("corpus/new.txt", b"alpha beta\ngamma alpha\nbeta gamma")
        info = service.build_index(
            "new-index", ["corpus/new.txt"], sketch_config=SketchConfig(num_bins=32)
        )
        assert info.num_documents == 3
        response = service.search(SearchRequest(query="alpha", index="new-index"))
        assert response.num_results == 2

    def test_rebuild_invalidates_cached_searcher(self, service, sim_store):
        sim_store.put("corpus/new.txt", b"alpha beta")
        service.build_index("new-index", ["corpus/new.txt"], SketchConfig(num_bins=32))
        service.search(SearchRequest(query="alpha", index="new-index"))
        sim_store.put("corpus/new2.txt", b"alpha beta\nalpha gamma")
        service.build_index("new-index", ["corpus/new2.txt"], SketchConfig(num_bins=32))
        response = service.search(SearchRequest(query="alpha", index="new-index"))
        assert response.num_results == 2

    def test_build_missing_blob_is_404(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.build_index("x", ["corpus/missing.txt"])
        assert exc_info.value.status == 404
        assert exc_info.value.info.error == "blob_not_found"

    def test_build_without_blobs_is_400(self, service):
        with pytest.raises(ServiceError) as exc_info:
            service.build_index("x", [])
        assert exc_info.value.status == 400

    def test_build_bad_name_is_400(self, service, sim_store):
        sim_store.put("corpus/new.txt", b"alpha")
        with pytest.raises(ServiceError) as exc_info:
            service.build_index("base/delta-0001", ["corpus/new.txt"])
        assert exc_info.value.status == 400


class TestHealthAndListing:
    def test_health_payload(self, service):
        payload = service.health()
        assert payload["status"] == "ok"
        assert payload["indexes"] == 1
        assert payload["open_indexes"] == 0
        assert payload["config"]["read_cache_bytes"] == READ_CACHE_BYTES

    def test_list_indexes(self, service):
        infos = service.list_indexes()
        assert [info.name for info in infos] == ["small-index"]

    def test_lookup_postings_passthrough(self, service, small_documents):
        postings, latency = service.lookup_postings("small-index", "error")
        expected = sum(1 for d in small_documents if "error" in d.text.split())
        # The sketch may admit false positives but never misses a posting.
        assert len(postings) >= expected
        assert latency.round_trips >= 1
