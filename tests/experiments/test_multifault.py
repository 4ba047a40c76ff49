"""Tests for the multiple-fault experiment."""

import pytest

from repro.experiments.multifault import (
    DOUBLE_FAULT,
    format_multifault,
    run_multifault,
)


@pytest.fixture(scope="module")
def outcomes():
    return run_multifault()


class TestMultiFault:
    def test_single_fault_bound_finds_nothing(self, outcomes):
        by_size = {o.max_size: o for o in outcomes}
        assert by_size[1].result.diagnoses == []
        assert not any(len(c) == 1 for c in by_size[1].candidate_sets)

    def test_pair_found_at_double_bound(self, outcomes):
        by_size = {o.max_size: o for o in outcomes}
        assert by_size[2].pair_found

    def test_pair_is_the_injected_components(self):
        assert {f.component for f in DOUBLE_FAULT} == {"amp2", "amp3"}

    def test_higher_bounds_keep_minimality(self, outcomes):
        by_size = {o.max_size: o for o in outcomes}
        # The minimal pair stays minimal — no triple supersedes it.
        assert by_size[3].candidate_sets == by_size[2].candidate_sets

    def test_suspicions_exclude_healthy_branch(self, outcomes):
        by_size = {o.max_size: o for o in outcomes}
        suspicions = by_size[2].result.suspicions
        assert "amp2" in suspicions and "amp3" in suspicions
        assert "amp1" not in suspicions
        assert "Va" not in suspicions

    def test_format(self, outcomes):
        text = format_multifault(outcomes)
        assert "amp2,amp3" in text
