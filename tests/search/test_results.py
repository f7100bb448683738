"""Unit tests for search results and latency accounting."""

import pytest

from repro.parsing.documents import Document, DocumentRef
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.parallel import FetchResult


class TestLatencyBreakdown:
    def test_add_lookup_accumulates(self):
        latency = LatencyBreakdown()
        latency.add_lookup(FetchResult(requests=1, nbytes=1024, wait_ms=45.0, download_ms=5.0))
        latency.add_lookup(FetchResult(requests=1, nbytes=2048, wait_ms=55.0, download_ms=5.0))
        assert latency.lookup_ms == pytest.approx(110.0)
        assert latency.wait_ms == pytest.approx(100.0)
        assert latency.download_ms == pytest.approx(10.0)
        assert latency.bytes_fetched == 3072
        assert latency.round_trips == 2

    def test_add_retrieval_accumulates_separately(self):
        latency = LatencyBreakdown()
        latency.add_lookup(FetchResult(requests=1, nbytes=10, wait_ms=50.0, download_ms=0.0))
        latency.add_retrieval(FetchResult(requests=1, nbytes=500, wait_ms=60.0, download_ms=10.0))
        assert latency.lookup_ms == pytest.approx(50.0)
        assert latency.retrieval_ms == pytest.approx(70.0)
        assert latency.total_ms == pytest.approx(120.0)

    def test_zero_initialized(self):
        latency = LatencyBreakdown()
        assert latency.total_ms == 0.0
        assert latency.bytes_fetched == 0


class TestSearchResult:
    def _document(self, index: int) -> Document:
        return Document(DocumentRef("b", index * 10, 5), f"text {index}")

    def test_counts(self):
        result = SearchResult(
            query="q",
            documents=[self._document(1), self._document(2)],
            candidate_postings=[self._document(i).ref for i in range(4)],
            false_positive_count=2,
        )
        assert result.num_results == 2
        assert result.num_candidates == 4

    def test_postings_are_refs_of_matched_documents(self):
        documents = [self._document(3)]
        result = SearchResult(query="q", documents=documents)
        assert result.postings == [documents[0].ref]

    def test_latency_ms_property(self):
        latency = LatencyBreakdown()
        latency.add_lookup(FetchResult(requests=1, nbytes=1, wait_ms=10.0, download_ms=0.0))
        result = SearchResult(query="q", latency=latency)
        assert result.latency_ms == pytest.approx(10.0)

    def test_empty_result_defaults(self):
        result = SearchResult(query="q")
        assert result.documents == []
        assert result.num_candidates == 0
        assert result.latency_ms == 0.0


class TestSerialization:
    def test_latency_to_dict_includes_derived_total(self):
        latency = LatencyBreakdown()
        latency.add_lookup(FetchResult(requests=1, nbytes=512, wait_ms=30.0, download_ms=10.0))
        latency.add_retrieval(FetchResult(requests=1, nbytes=256, wait_ms=15.0, download_ms=5.0))
        payload = latency.to_dict()
        assert payload["lookup_ms"] == pytest.approx(40.0)
        assert payload["retrieval_ms"] == pytest.approx(20.0)
        assert payload["total_ms"] == pytest.approx(60.0)
        assert payload["bytes_fetched"] == 768
        assert payload["round_trips"] == 2
