"""Tests for report rendering."""

import pytest

from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    probe_all,
    three_stage_amplifier,
)
from repro.core import Flames
from repro.core.knowledge import KnowledgeBase
from repro.core import report
from repro.core.report import render_consistency_row, render_nogoods, render_report


@pytest.fixture(scope="module")
def engine():
    return Flames(three_stage_amplifier())


@pytest.fixture(scope="module")
def faulty_result(engine):
    golden = three_stage_amplifier()
    op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
    return engine.diagnose(probe_all(op, ["vs", "v2", "v1"], imprecision=0.02))


@pytest.fixture(scope="module")
def healthy_result(engine):
    op = DCSolver(three_stage_amplifier()).solve()
    return engine.diagnose(probe_all(op, ["vs", "v2", "v1"], imprecision=0.02))


class TestRendering:
    def test_full_report_sections(self, faulty_result):
        text = render_report(faulty_result)
        assert "measurements vs predictions" in text
        assert "minimal nogoods" in text
        assert "component suspicions" in text
        assert "minimal candidates" in text

    def test_healthy_report_short(self, healthy_result):
        text = render_report(healthy_result)
        assert "behaves nominally" in text
        assert "nogoods" not in text

    def test_refinements_included(self, engine, faulty_result):
        golden = three_stage_amplifier()
        kb = KnowledgeBase(golden)
        refinements = kb.refine(
            faulty_result.suspicions, faulty_result.measurements, top_k=3
        )
        text = render_report(faulty_result, refinements)
        assert "fault-mode refinement" in text

    def test_consistency_row_format(self, faulty_result):
        row = render_consistency_row(faulty_result, ["V(vs)", "V(v1)"])
        assert "Dc(V(vs))" in row
        assert "Dc(V(v1))=-1.00" in row

    def test_nogood_lines_capped(self, faulty_result, monkeypatch):
        monkeypatch.setattr(report, "NOGOOD_LINES", 1)
        lines = render_nogoods(faulty_result)
        assert len(lines) <= 2  # one nogood + optional "... more"

    def test_custom_title(self, healthy_result):
        text = render_report(healthy_result, title="bench check")
        assert text.startswith("bench check\n===========")
