"""Tests for the fault-dictionary baseline."""

import pytest

from repro.baselines import FaultDictionary, fault_dictionary
from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    three_stage_amplifier,
)


@pytest.fixture(scope="module")
def golden():
    return three_stage_amplifier()


@pytest.fixture(scope="module")
def dictionary(golden):
    return FaultDictionary(golden, ["vs", "v2", "v1"])


class TestConstruction:
    def test_entries_cover_all_components(self, dictionary, golden):
        tabulated = {e.component for e in dictionary.entries}
        expected = {c.name for c in golden.components if c.name != "Vcc"}
        assert expected <= tabulated

    def test_signature_length(self, dictionary):
        assert all(len(e.signature) == 3 for e in dictionary.entries)

    def test_reading_count_validated(self, dictionary):
        with pytest.raises(ValueError):
            dictionary.lookup([1.0, 2.0])


class TestLookup:
    def test_healthy_unit_declared_healthy(self, dictionary, golden):
        match = dictionary.lookup_op(DCSolver(golden).solve())
        assert match.is_healthy

    def test_tabulated_fault_identified_exactly(self, dictionary, golden):
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        match = dictionary.lookup_op(op)
        assert (match.component, match.mode) == ("R2", "short")
        assert match.distance == pytest.approx(0.0, abs=1e-9)

    def test_tabulated_open_identified(self, dictionary, golden):
        op = DCSolver(apply_fault(golden, Fault(FaultKind.OPEN, "R3"))).solve()
        match = dictionary.lookup_op(op)
        assert (match.component, match.mode) == ("R3", "open")

    def test_novel_magnitude_misattributed(self, dictionary, golden):
        """The dictionary's characteristic failure: an unlisted drift
        magnitude matches a different entry with no warning."""
        op = DCSolver(
            apply_fault(golden, Fault(FaultKind.PARAM, "R3", value=33e3))
        ).solve()
        match = dictionary.lookup_op(op)
        assert not match.is_healthy
        assert match.component != "R3"  # misattribution, silently

    def test_untabulated_class_forced_to_answer(self, dictionary, golden):
        op = DCSolver(
            apply_fault(golden, Fault(FaultKind.NODE_OPEN, "T1", pin="b"))
        ).solve()
        match = dictionary.lookup_op(op)
        assert not match.is_healthy  # it always names *something*

    def test_healthy_margin_configurable(self, dictionary, golden, monkeypatch):
        op = DCSolver(
            apply_fault(golden, Fault(FaultKind.PARAM, "R3", value=24.4e3))
        ).solve()
        monkeypatch.setattr(fault_dictionary, "HEALTHY_MARGIN", 1.0)
        lenient = dictionary.lookup_op(op)
        assert lenient.is_healthy
