"""Unit tests for common-word selection and the exact table."""

from repro.core.common_words import CommonWordTable, select_common_words
from repro.parsing.documents import Document, DocumentRef, Posting
from repro.profiling.profiler import profile_documents


def _posting(index: int) -> Posting:
    return Posting("b", index, 1)


def _profile(texts: list[str]):
    documents = [Document(DocumentRef("b", i * 10, len(t)), t) for i, t in enumerate(texts)]
    return profile_documents(documents)


class TestSelection:
    def test_selects_highest_document_frequency_words(self):
        profile = _profile(["the cat", "the dog", "the bird", "rare word"])
        assert select_common_words(profile, 1) == ["the"]

    def test_respects_slot_count(self):
        profile = _profile(["a b c", "a b", "a"])
        assert select_common_words(profile, 2) == ["a", "b"]

    def test_zero_slots(self):
        profile = _profile(["a b"])
        assert select_common_words(profile, 0) == []

    def test_more_slots_than_vocabulary(self):
        profile = _profile(["x y"])
        assert set(select_common_words(profile, 10)) == {"x", "y"}


class TestCommonWordTable:
    def test_register_reserves_a_slot(self):
        table = CommonWordTable()
        table.register("the")
        assert "the" in table
        assert len(table.query("the")) == 0

    def test_add_accumulates_postings(self):
        table = CommonWordTable()
        table.add("the", [_posting(1)])
        table.add("the", [_posting(2)])
        assert set(table.query("the")) == {_posting(1), _posting(2)}

    def test_query_unknown_word_is_empty(self):
        assert len(CommonWordTable().query("missing")) == 0

    def test_query_returns_a_snapshot(self):
        table = CommonWordTable()
        table.add("the", [_posting(1)])
        result = table.query("the")
        table.add("the", [_posting(99)])
        assert list(result) == [_posting(1)]
        assert set(table.query("the")) == {_posting(1), _posting(99)}

    def test_len_and_words(self):
        table = CommonWordTable()
        table.register("a")
        table.add("b", [_posting(1)])
        assert len(table) == 2
        assert table.words == {"a", "b"}

    def test_register_does_not_clobber_existing_postings(self):
        table = CommonWordTable()
        table.add("a", [_posting(1)])
        table.register("a")
        assert set(table.query("a")) == {_posting(1)}
