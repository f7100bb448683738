"""Airphant Searcher: query-time components.

The Searcher is the lightweight component that answers keyword queries from
a persisted IoU Sketch.  It downloads the header blob once at initialization
(hash seeds + bin pointers), then answers each query with one parallel batch
of superpost range reads followed by one parallel batch of document fetches,
filtering out false positives after the documents arrive.  One executor
(:class:`AirphantSearcher`) runs that algorithm over any list of tiers
answering the :class:`Member` contract.
"""

from repro.search.boolean import And, BooleanQuery, Or, Term, parse_boolean_query
from repro.search.member import IndexMember, Member, ShardState
from repro.search.regexsearch import RegexSearcher, extract_required_terms
from repro.search.replication import HedgingPolicy
from repro.search.results import LatencyBreakdown, SearchResult
from repro.search.searcher import AirphantSearcher

__all__ = [
    "AirphantSearcher",
    "And",
    "BooleanQuery",
    "HedgingPolicy",
    "IndexMember",
    "LatencyBreakdown",
    "Member",
    "Or",
    "RegexSearcher",
    "SearchResult",
    "ShardState",
    "Term",
    "extract_required_terms",
    "parse_boolean_query",
]
