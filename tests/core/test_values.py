"""Tests for FuzzyValue semantics."""

import pytest

from repro.core.values import FuzzyValue
from repro.fuzzy import FuzzyInterval


def value(interval, env=(), source="c"):
    return FuzzyValue(interval, frozenset(env), source)


class TestBasics:
    def test_sources(self):
        assert value(FuzzyInterval.crisp(1.0), source="seed").is_seed
        assert not value(FuzzyInterval.crisp(1.0), source="measurement").is_seed

    def test_width(self):
        assert value(FuzzyInterval(1.0, 2.0, 0.5, 0.5)).width == pytest.approx(2.0)


class TestSubsumption:
    def test_narrower_subset_env_subsumes(self):
        narrow = value(FuzzyInterval(1.0, 2.0), env={"a"})
        wide = value(FuzzyInterval(0.0, 3.0), env={"a", "b"})
        assert narrow.subsumes(wide)
        assert not wide.subsumes(narrow)

    def test_incomparable_envs_do_not_subsume(self):
        a = value(FuzzyInterval(1.0, 2.0), env={"a"})
        b = value(FuzzyInterval(0.0, 3.0), env={"b"})
        assert not a.subsumes(b)

    def test_slack_tolerates_jitter(self):
        base = value(FuzzyInterval(1.0, 2.0))
        # Jitter makes the newcomer *narrower* by a hair: without slack it
        # counts as new information, with slack it is redundant.
        jitter = value(FuzzyInterval(1.0 + 1e-9, 2.0 - 1e-9))
        assert base.subsumes(jitter, slack=1e-6)
        assert not base.subsumes(jitter, slack=0.0)

    def test_slack_applies_to_core(self):
        base = value(FuzzyInterval(1.0, 2.0, 0.5, 0.5))
        shifted_core = value(FuzzyInterval(1.0 + 1e-9, 2.0, 0.5 + 1e-9, 0.5))
        assert shifted_core.subsumes(base, slack=1e-6)

    def test_equal_values_subsume_each_other(self):
        a = value(FuzzyInterval(1.0, 2.0), env={"a"})
        b = value(FuzzyInterval(1.0, 2.0), env={"a"})
        assert a.subsumes(b) and b.subsumes(a)
