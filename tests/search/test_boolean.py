"""Unit tests for the Boolean query tree and parser."""

import pytest

from repro.core.superpost import Superpost
from repro.parsing.documents import Posting
from repro.search.boolean import And, Or, Term, parse_boolean_query


def _posting(index: int) -> Posting:
    return Posting("b", index, 1)


def _lookup(word: str) -> Superpost:
    table = {
        "a": {_posting(1), _posting(2)},
        "b": {_posting(2), _posting(3)},
        "c": {_posting(4)},
    }
    return Superpost(set(table.get(word, set())))


class TestQueryTree:
    def test_term_candidates_and_terms(self):
        term = Term("a")
        assert term.terms() == {"a"}
        assert set(term.candidates(_lookup)) == {_posting(1), _posting(2)}

    def test_term_matches(self):
        assert Term("a").matches({"a", "x"})
        assert not Term("a").matches({"b"})

    def test_and_intersects_candidates(self):
        query = And(Term("a"), Term("b"))
        assert set(query.candidates(_lookup)) == {_posting(2)}

    def test_or_unions_candidates(self):
        query = Or(Term("a"), Term("c"))
        assert set(query.candidates(_lookup)) == {_posting(1), _posting(2), _posting(4)}

    def test_nested_distribution(self):
        query = Or(And(Term("a"), Term("b")), Term("c"))
        assert set(query.candidates(_lookup)) == {_posting(2), _posting(4)}

    def test_and_or_matches_predicate(self):
        query = And(Term("a"), Or(Term("b"), Term("c")))
        assert query.matches({"a", "c"})
        assert query.matches({"a", "b"})
        assert not query.matches({"a"})
        assert not query.matches({"b", "c"})

    def test_terms_collects_all_leaves(self):
        query = Or(And(Term("a"), Term("b")), Term("c"))
        assert query.terms() == {"a", "b", "c"}

    def test_empty_operators_rejected(self):
        with pytest.raises(ValueError):
            And()
        with pytest.raises(ValueError):
            Or()


class TestParser:
    def test_single_word(self):
        assert parse_boolean_query("hello") == Term("hello")

    def test_and_chain(self):
        query = parse_boolean_query("a AND b AND c")
        assert query == And(Term("a"), Term("b"), Term("c"))

    def test_bare_adjacency_means_and(self):
        assert parse_boolean_query("a b") == And(Term("a"), Term("b"))

    def test_or_has_lower_precedence_than_and(self):
        query = parse_boolean_query("a AND b OR c")
        assert query == Or(And(Term("a"), Term("b")), Term("c"))

    def test_parentheses_override_precedence(self):
        query = parse_boolean_query("a AND (b OR c)")
        assert query == And(Term("a"), Or(Term("b"), Term("c")))

    def test_operators_case_insensitive(self):
        assert parse_boolean_query("a and b or c") == Or(And(Term("a"), Term("b")), Term("c"))

    def test_nested_parentheses(self):
        query = parse_boolean_query("((a OR b) AND (c OR d))")
        assert query == And(Or(Term("a"), Term("b")), Or(Term("c"), Term("d")))

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            parse_boolean_query("   ")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ValueError):
            parse_boolean_query("(a OR b")
        with pytest.raises(ValueError):
            parse_boolean_query("a OR b)")

    def test_dangling_operator_rejected(self):
        with pytest.raises(ValueError):
            parse_boolean_query("a AND")
        with pytest.raises(ValueError):
            parse_boolean_query("OR a")
