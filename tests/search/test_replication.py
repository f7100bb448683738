"""Unit tests for the L⁺ hedging policy."""

import pytest

from repro.search.replication import HedgingPolicy


class TestHedgingPolicy:
    def test_disabled_by_default(self):
        assert not HedgingPolicy().enabled

    def test_enabled_when_dropping_requests(self):
        assert HedgingPolicy(drop_slowest=1).enabled

    def test_required_of_reduces_by_drop_count(self):
        policy = HedgingPolicy(drop_slowest=2)
        assert policy.required_of(5) == 3

    def test_required_of_never_below_one(self):
        policy = HedgingPolicy(drop_slowest=10)
        assert policy.required_of(3) == 1

    def test_required_of_zero_requests(self):
        assert HedgingPolicy(drop_slowest=1).required_of(0) == 0

    def test_negative_drop_rejected(self):
        with pytest.raises(ValueError):
            HedgingPolicy(drop_slowest=-1)
