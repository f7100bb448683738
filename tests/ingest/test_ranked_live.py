"""Ranked retrieval over the live view (memtable ∪ deltas ∪ base).

The write-path contract for ``mode="topk_bm25"``: appended documents are
ranked immediately (read-your-writes), and after any interleaving of
flushes and compactions the live ranking is identical — same order, same
scores — to a fresh index rebuilt from the union of all documents.  The
corpus is crafted so every matching document has a distinct (tf, length)
pair, making the expected order unique.
"""

from __future__ import annotations

import pytest

from harness.legacy_header import STATS_LAYOUTS, stats_of_version

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.stats import stats_blob_name
from repro.index.updates import AppendOnlyIndexManager
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.storage.memory import InMemoryObjectStore

BASE_LINES = [
    "error disk full",
    "info service ok",
    "warn slow response",
]

#: No background worker: the tests drive flush/compaction deterministically.
MANUAL = ServiceConfig(ingest_interval_s=0)

QUERY = "error"
K = 10


def _service(store: InMemoryObjectStore) -> AirphantService:
    service = AirphantService(store, MANUAL, metrics=MetricsRegistry())
    store.put("corpus/base.txt", ("\n".join(BASE_LINES) + "\n").encode())
    service.build_index("idx", ["corpus/base.txt"], sketch_config=SketchConfig(num_bins=64))
    return service


def _live_ranking(service: AirphantService) -> list[tuple[float, str]]:
    result = service.execute(SearchRequest(query=QUERY, index="idx", mode="topk_bm25", top_k=K))
    return [(score, document.text) for score, document in zip(result.scores, result.documents)]


def _rebuilt_ranking(all_lines: list[str]) -> list[tuple[float, str]]:
    """The oracle: a fresh index over the same documents in one clean store."""
    store = InMemoryObjectStore()
    store.put("corpus/all.txt", ("\n".join(all_lines) + "\n").encode())
    documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/all.txt"]))
    AirphantBuilder(store, config=SketchConfig(num_bins=64)).build_from_documents(
        documents, index_name="oracle"
    )
    searcher = AirphantSearcher.open(store, index_name="oracle")
    result = searcher.search_topk(QUERY, k=K)
    return [(score, document.text) for score, document in zip(result.scores, result.documents)]


def _assert_same_ranking(live: list[tuple[float, str]], oracle: list[tuple[float, str]]) -> None:
    assert [text for _, text in live] == [text for _, text in oracle]
    assert [score for score, _ in live] == pytest.approx([score for score, _ in oracle])


class TestReadYourWritesRanking:
    def test_appended_document_is_ranked_before_flush(self):
        service = _service(InMemoryObjectStore())
        service.append_documents("idx", ["error error error cascading failure"])
        ranking = _live_ranking(service)
        assert ranking[0][1] == "error error error cascading failure"
        assert {text for _, text in ranking} == {
            "error disk full",
            "error error error cascading failure",
        }
        service.close()

    def test_scores_do_not_change_across_a_flush(self):
        service = _service(InMemoryObjectStore())
        service.append_documents("idx", ["error error replication stalled"])
        before = _live_ranking(service)
        service.flush_index("idx")
        assert _live_ranking(service) == pytest.approx(before)
        service.close()


class TestLiveMatchesRebuild:
    def test_every_flush_compact_interleaving_matches_a_fresh_rebuild(self):
        # Each stage leaves the live view in a different member shape:
        # memtable+base, delta+base, memtable+delta+base, compacted base,
        # and memtable+compacted base.  All must rank like a clean rebuild.
        service = _service(InMemoryObjectStore())
        lines = list(BASE_LINES)

        def check():
            _assert_same_ranking(_live_ranking(service), _rebuilt_ranking(lines))

        service.append_documents("idx", ["error error replication stalled"])
        lines.append("error error replication stalled")
        check()  # memtable + base

        service.flush_index("idx")
        check()  # delta + base

        service.append_documents(
            "idx", ["error error error cascading failure now", "error timeout"]
        )
        lines += ["error error error cascading failure now", "error timeout"]
        check()  # memtable + delta + base

        service.flush_index("idx")
        check()  # two deltas + base

        service.compact_index("idx")
        check()  # compacted base only

        service.append_documents("idx", ["late error arrival with padding words"])
        lines.append("late error arrival with padding words")
        check()  # memtable + compacted base
        service.close()


class TestMissingStatisticsThroughService:
    def test_missing_stats_blob_is_a_typed_409(self):
        store = InMemoryObjectStore()
        service = _service(store)
        store.delete(stats_blob_name("idx"))
        with pytest.raises(ServiceError) as excinfo:
            service.execute(SearchRequest(query=QUERY, index="idx", mode="topk_bm25"))
        assert excinfo.value.status == 409
        assert excinfo.value.info.error == "index_format"
        assert "idx/stats.json" in str(excinfo.value) and "rebuild" in str(excinfo.value)
        # Membership queries on the same index still answer.
        result = service.execute(SearchRequest(query=QUERY, index="idx"))
        assert result.num_results > 0
        service.close()

    @pytest.mark.parametrize("member", ["base", "delta"])
    @pytest.mark.parametrize("state", ["missing", *STATS_LAYOUTS, "v99"])
    def test_a_member_without_current_statistics_is_a_typed_409(self, member, state):
        store = InMemoryObjectStore()
        service = _service(store)
        service.append_documents("idx", ["error error replication stalled"])
        service.flush_index("idx")
        service.close()
        manifest = AppendOnlyIndexManager(store, "idx").manifest()
        blob = stats_blob_name(manifest.delta_indexes[0] if member == "delta" else "idx")
        if state == "missing":
            store.delete(blob)
        elif state == "v99":
            store.put(blob, stats_of_version(store.get(blob), 99))
        else:
            store.put(blob, STATS_LAYOUTS[state])

        # A node that opens the index afterwards refuses only its ranked queries.
        service = AirphantService(store, MANUAL, metrics=MetricsRegistry())
        with pytest.raises(ServiceError) as excinfo:
            service.execute(SearchRequest(query=QUERY, index="idx", mode="topk_bm25"))
        assert (excinfo.value.status, excinfo.value.info.error) == (409, "index_format")
        assert blob in str(excinfo.value) and "rebuild" in str(excinfo.value)
        result = service.execute(SearchRequest(query=QUERY, index="idx"))
        assert {document.text for document in result.documents} == {
            "error disk full",
            "error error replication stalled",
        }
        service.close()
