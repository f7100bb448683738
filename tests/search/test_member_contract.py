"""The member contract, checked once over every kind of member.

Every tier a query runs over — a plain index, a 4-shard index, a
shard-restricted view of it, a live memtable — answers the same
:class:`~repro.search.member.Member` contract, and the one executor
(:class:`~repro.search.searcher.AirphantSearcher`) does everything else.
This suite pins both halves: the per-member obligations (a resolved ``plan``
is a superset of the truth and the member itself reads nothing, ``restrict``
partitions exactly, scores under pending deletes equal a rebuild over the
survivors, an excluded document's bytes are never requested), each with and
without pending deletes, and — at the executor level — that one corpus
served as a plain index, as 4 shards, or as base + 2 deltas + memtable
yields the same answers in every query mode.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.sharding import partition_documents
from repro.ingest.memtable import MemtableMember, memtable_from_documents
from repro.parsing.documents import Document
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.member import IndexMember, Member
from repro.search.regexsearch import RegexSearcher
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

TOKENIZER = WhitespaceAnalyzer()
CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
NUM_SHARDS = 4
#: The ordinals the shard-restricted view answers for.
VIEW_ORDINALS = (1, 3)
WORDS = ("ERROR", "INFO", "block", "WRITE_BLOCK", "nonexistentzzz")
MEMBER_KINDS = ("plain", "sharded", "view", "memtable")


class ReadLogStore(InMemoryObjectStore):
    """An in-memory store remembering every range it was asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: list[tuple[str, int, int | None]] = []
        self._log_lock = threading.Lock()

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        with self._log_lock:
            self.reads.append((name, offset, length))
        return super().get_range(name, offset, length)

    def touched(self, document: Document) -> bool:
        """Whether any logged read overlaps ``document``'s bytes."""
        return any(
            name == document.blob
            and offset < document.offset + document.length
            and (length is None or offset + length > document.offset)
            for name, offset, length in self.reads
        )


class Site:
    """One corpus on one store, with a member of the requested kind over it."""

    def __init__(self, kind: str) -> None:
        self.store = ReadLogStore()
        self.documents = generate_log_corpus(
            self.store, "hdfs", num_documents=240, seed=13
        ).documents
        #: What the member holds (a view holds only its shards' partitions).
        self.held = self.documents
        #: What its ranking statistics cover (a view's cover the whole index).
        self.ranked = self.documents
        self.owner: IndexMember | None = None
        if kind == "memtable":
            self.member: Member = MemtableMember(memtable_from_documents(self.documents))
            return
        shards = 1 if kind == "plain" else NUM_SHARDS
        AirphantBuilder(self.store, config=CONFIG, num_shards=shards).build_from_documents(
            self.documents, index_name="idx"
        )
        (self.owner,) = AirphantSearcher.open(self.store, "idx").opened
        self.member = self.owner
        if kind == "view":
            view = self.owner.restrict(VIEW_ORDINALS)
            assert view is not None and view is not self.owner
            self.member = view
            partitions = partition_documents(self.documents, NUM_SHARDS)
            self.held = [d for ordinal in VIEW_ORDINALS for d in partitions[ordinal]]

    def truth(self, word: str) -> set:
        return {d.ref for d in self.held if word in TOKENIZER.distinct_terms(d.text)}

    def excluded(self, pending: bool) -> frozenset:
        """Every third holder of "ERROR" condemned — or nothing."""
        if not pending:
            return frozenset()
        return frozenset(sorted(self.truth("ERROR"))[::3])

    def resolve(self, words, fail_fast: bool = False) -> dict:
        """The member's plan, read the way the executor reads it: one batch."""
        plan = self.member.plan(words, fail_fast)
        assert self.reads == [], "planning must not touch the store"
        return plan.resolve(self.store.read_batch(plan.reads).payloads)

    @property
    def reads(self) -> list:
        return self.store.reads


@pytest.fixture(params=MEMBER_KINDS)
def site(request):
    site = Site(request.param)
    site.reads.clear()
    return site


@pytest.fixture(params=[False, True], ids=["no-deletes", "pending-deletes"])
def pending(request) -> bool:
    return request.param


class TestMemberContract:
    def test_a_resolved_plan_is_a_superset_of_the_truth(self, site):
        per_word = site.resolve(WORDS)
        assert set(per_word) == set(WORDS)
        for word in WORDS:
            assert set(per_word[word]) >= site.truth(word), word
        assert set(per_word["nonexistentzzz"]) == set()

    def test_a_doomed_conjunction_plans_nothing(self, site):
        if site.owner is None:
            # An exact member never has anything to read: it answers either way.
            plan = site.member.plan(["ERROR", "absent"], True)
            assert list(plan.reads) == []
            per_word = plan.resolve([])
            assert set(per_word["ERROR"]) == site.truth("ERROR")
            assert set(per_word["absent"]) == set()
            return
        # A word is doomed when it hashes to an empty bin in every shard.
        doomed = next(
            word
            for word in (f"absent{n}" for n in range(100_000))
            if all(
                any(pointer.is_empty for pointer in shard.mht.pointers_for(word))
                for shard in site.member.shards
            )
        )
        plan = site.member.plan(["ERROR", doomed], fail_fast=True)
        assert list(plan.reads) == []
        per_word = plan.resolve([])
        assert set(per_word["ERROR"]) == set(per_word[doomed]) == set()
        assert site.reads == []
        # Without fail_fast the other word is still planned and resolved.
        per_word = site.resolve(["ERROR", doomed])
        assert set(per_word["ERROR"]) >= site.truth("ERROR")
        assert set(per_word[doomed]) == set()

    def test_only_an_exact_member_holds_documents_resident(self, site):
        wanted = site.held[:5]
        resident = [site.member.resident(d.ref) for d in wanted]
        assert resident == (wanted if site.owner is None else [None] * 5)
        assert site.reads == []

    def test_exact_members_expect_no_false_positives(self, site):
        if site.owner is None:
            assert site.member.expected_false_positives == 0.0
        else:
            assert site.member.expected_false_positives > 0.0

    def test_restrict_partitions_exactly(self, site, pending):
        exclude = site.excluded(pending)
        whole = AirphantSearcher(members=[site.member], exclude=exclude)
        expected = {d.ref for d in whole.search("ERROR").documents}
        assert expected == site.truth("ERROR") - exclude
        union: set = set()
        for ordinals in [(0, 2), (1, 3)]:
            part = site.member.restrict(ordinals)
            if part is None:
                continue
            refs = {
                d.ref
                for d in AirphantSearcher(members=[part], exclude=exclude)
                .search("ERROR")
                .documents
            }
            assert union.isdisjoint(refs)
            union |= refs
        assert union == expected
        assert site.member.restrict(()) is None

    def test_unsharded_members_ride_with_ordinal_zero(self, site):
        even, odd = site.member.restrict([0, 2]), site.member.restrict([1, 3])
        if site.owner is not None and site.owner.shard_manifest is not None:
            # Sharded members hold their own ordinals: two proper views.
            assert even is not None and odd is not None
            assert site.member not in (even, odd)
            assert even.num_shards + odd.num_shards == site.member.num_shards
        else:
            assert even is site.member
            assert odd is None

    def test_scores_under_pending_tombstones_equal_a_rebuild_over_survivors(self, site, pending):
        exclude = site.excluded(pending)
        survivors = [d for d in site.ranked if d.ref not in exclude]
        AirphantBuilder(site.store, config=CONFIG).build_from_documents(
            survivors, index_name="rebuilt"
        )
        rebuilt = AirphantSearcher.open(site.store, "rebuilt")
        searcher = AirphantSearcher(members=[site.member], exclude=exclude)
        held = {d.ref for d in site.held}
        for query in ("ERROR", "INFO block"):
            # A view ranks its own shards' documents against the whole index.
            expected = rebuilt.search_topk(query, k=500)
            expected = [(r, s) for r, s in zip(expected.postings, expected.scores) if r in held]
            result = searcher.search_topk(query, k=500)
            assert list(zip(result.postings, result.scores)) == expected, query

    def test_excluded_bytes_are_never_requested(self, site, pending):
        exclude = site.excluded(pending)
        condemned = [d for d in site.held if d.ref in exclude]
        searcher = AirphantSearcher(members=[site.member], exclude=exclude)
        site.store.reads.clear()
        results = [
            searcher.search("ERROR"),
            searcher.search("ERROR", top_k=3),
            searcher.search_boolean("ERROR OR INFO"),
            searcher.search_topk("ERROR", k=5),
            RegexSearcher(searcher).search(r"ERROR\s+\S+"),
        ]
        for result in results:
            assert exclude.isdisjoint(result.postings)
            assert exclude.isdisjoint(result.candidate_postings)
        assert exclude.isdisjoint(searcher.lookup_postings("ERROR")[0])
        assert not any(site.store.touched(document) for document in condemned)
        assert {d.ref for d in results[0].documents} == site.truth("ERROR") - exclude


# -- one corpus, three layouts, one answer -------------------------------------------


def _matching(documents, predicate) -> set:
    return {d.ref for d in documents if predicate(TOKENIZER.distinct_terms(d.text), d.text)}


@pytest.fixture(scope="module")
def layouts():
    """The same corpus as a plain index, as 4 shards, and as base + 2 deltas
    + memtable — each with the same documents condemned."""
    store = InMemoryObjectStore()
    documents = generate_log_corpus(store, "hdfs", num_documents=240, seed=13).documents
    condemned = frozenset(d.ref for d in documents[::7])
    builder = AirphantBuilder(store, config=CONFIG)
    builder.build_from_documents(documents, index_name="plain")
    AirphantBuilder(store, config=CONFIG, num_shards=NUM_SHARDS).build_from_documents(
        documents, index_name="sharded"
    )
    builder.build_from_documents(documents[:120], index_name="live")
    builder.build_from_documents(documents[120:170], index_name="live/delta-0000")
    builder.build_from_documents(documents[170:210], index_name="live/delta-0001")
    # Deletes are physical in a memtable: it never holds a condemned document.
    memtable = memtable_from_documents(
        [d for d in documents[210:] if d.ref not in condemned]
    )
    persisted = AirphantSearcher.open(
        store, ["live", "live/delta-0000", "live/delta-0001"]
    )
    plain = AirphantSearcher.open(store, "plain")
    sharded = AirphantSearcher.open(store, "sharded")
    searchers = {
        "plain": plain.with_members(plain.searchers, condemned),
        "sharded": sharded.with_members(sharded.searchers, condemned),
        "live": persisted.with_members(
            [*persisted.searchers, MemtableMember(memtable)], condemned
        ),
    }
    yield [d for d in documents if d.ref not in condemned], searchers
    for owner in (persisted, plain, sharded):
        owner.close()


class TestOneCorpusThreeLayouts:
    """Candidate and false-positive counts legitimately differ between
    sketches, so whole results are not compared — the documents are."""

    def test_keyword(self, layouts):
        survivors, searchers = layouts
        for query in ("ERROR", "INFO block", "ERROR WRITE_BLOCK", "nonexistentzzz"):
            words = query.split()
            expected = _matching(survivors, lambda terms, _: all(w in terms for w in words))
            for name, searcher in searchers.items():
                assert {d.ref for d in searcher.search(query).documents} == expected, (
                    name,
                    query,
                )

    def test_boolean(self, layouts):
        survivors, searchers = layouts
        expected = _matching(
            survivors,
            lambda terms, _: "ERROR" in terms
            and ("WRITE_BLOCK" in terms or "READ_BLOCK" in terms),
        )
        query = "ERROR AND (WRITE_BLOCK OR READ_BLOCK)"
        for name, searcher in searchers.items():
            assert {d.ref for d in searcher.search_boolean(query).documents} == expected, name

    def test_regex(self, layouts):
        survivors, searchers = layouts
        pattern = r"ERROR\s+\S+"
        expected = _matching(
            survivors,
            lambda terms, text: "ERROR" in terms and re.search(pattern, text) is not None,
        )
        assert expected
        for name, searcher in searchers.items():
            found = RegexSearcher(searcher).search(pattern).documents
            assert {d.ref for d in found} == expected, name

    def test_topk_bm25_ranks_identically_with_identical_scores(self, layouts):
        _, searchers = layouts
        for query in ("ERROR", "INFO block", "ERROR WRITE_BLOCK"):
            ranked = {
                name: searcher.search_topk(query, k=10)
                for name, searcher in searchers.items()
            }
            reference = ranked["plain"]
            assert reference.scores, query
            for name, result in ranked.items():
                assert result.postings == reference.postings, (name, query)
                assert result.scores == reference.scores, (name, query)

    def test_lookup_postings_cover_the_survivors(self, layouts):
        survivors, searchers = layouts
        expected = _matching(survivors, lambda terms, _: "ERROR" in terms)
        for name, searcher in searchers.items():
            postings, _ = searcher.lookup_postings("ERROR")
            assert len(postings) == len(set(postings)), name
            assert set(postings) >= expected, name
