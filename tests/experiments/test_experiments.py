"""Tests for the experiment drivers (paper tables/figures regenerate)."""

import pytest

from repro.experiments import (
    FIGURE7_SCENARIOS,
    format_figure2,
    format_figure5,
    format_figure7,
    format_learning_eval,
    format_scaling,
    format_strategy_eval,
    run_figure2,
    run_figure2_masking,
    run_figure5,
    run_figure7,
    run_learning_eval,
    run_scaling,
    run_strategy_eval,
    run_threshold_ablation,
    run_entropy_form_ablation,
    run_granularity_ablation,
)
from repro.experiments import ablations, scaling
from repro.experiments.runner import format_table


class TestRunnerTable:
    def test_alignment(self):
        text = format_table(["a", "long-header"], [("x", 1), ("yy", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "long-header" in lines[0]


class TestFigure2:
    def test_propagation_matches_paper_numbers(self):
        rows = {r.quantity: r for r in run_figure2()}
        assert list(rows) == ["Vb", "Vc", "Vd"]
        # Paper case (1): Vb[2.95, 3.05, 0.15, 0.15] (rounded).
        assert rows["Vb"].crisp_case.core == (2.95, 3.05)
        assert rows["Vb"].crisp_case.alpha == pytest.approx(0.15, abs=0.005)
        # Paper case (2): Vd[9, 9, 0.73, 0.77].
        assert rows["Vd"].fuzzy_case.alpha == pytest.approx(0.73, abs=0.005)
        assert rows["Vd"].fuzzy_case.beta == pytest.approx(0.77, abs=0.005)

    def test_masking_demonstration(self):
        crisp, fuzzy = run_figure2_masking()
        assert crisp.fault_masked
        assert not fuzzy.fault_masked
        assert 0.0 < fuzzy.consistency_degree < 1.0

    def test_format_contains_verdict(self):
        text = format_figure2()
        assert "fault exposed" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_paper_nogoods_reproduced(self, result):
        assert result.paper_nogoods_found

    def test_crisp_engine_gives_no_ordering(self, result):
        assert all(deg >= 0.999 for _, deg in result.crisp_nogoods)

    def test_fuzzy_ranks_candidates(self, result):
        degrees = dict(result.fuzzy_nogoods)
        assert degrees["d1,r1"] < degrees["d1,r2"]

    def test_format(self, result):
        assert "reproduced: yes" in format_figure5()


class TestFigure7:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_figure7()

    def test_every_scenario_detected(self, rows):
        assert not any(row.result.is_consistent for row in rows)

    def test_hard_faults_total_conflicts(self, rows):
        by_label = {row.scenario.label: row for row in rows}
        for label in ("short-R2", "open-R3", "open-N1"):
            dcs = by_label[label].result.consistencies
            assert all(c.degree == pytest.approx(0.0) for c in dcs.values())

    def test_soft_faults_partial_conflicts(self, rows):
        by_label = {row.scenario.label: row for row in rows}
        soft = by_label["soft-stage1"].result.consistencies
        assert any(0.0 < c.degree < 1.0 for c in soft.values())

    def test_stage2_fault_leaves_v1_consistent(self, rows):
        by_label = {row.scenario.label: row for row in rows}
        dcs = by_label["soft-stage2"].result.consistencies
        assert dcs["V(v1)"].degree == pytest.approx(1.0)
        assert dcs["V(v2)"].degree < 1.0

    def test_open_r3_signs_decisive(self, rows):
        by_label = {row.scenario.label: row for row in rows}
        dcs = by_label["open-R3"].result.consistencies
        assert dcs["V(v1)"].direction == 1  # divider output pulled up
        assert dcs["V(vs)"].direction == -1

    def test_injected_component_among_candidates(self, rows):
        for row in rows:
            if row.scenario.fault.kind.name == "NODE_OPEN":
                continue  # the node fault has no component-level candidate
            assert row.scenario.fault.component in row.candidates, row.scenario.label

    def test_fault_mode_refinement_finds_short(self, rows):
        by_label = {row.scenario.label: row for row in rows}
        assert "R2" in by_label["short-R2"].refined[:2]
        assert "R3" in by_label["open-R3"].refined[:1]

    def test_format(self, rows):
        text = format_figure7(rows)
        assert "Short circuit on R2" in text
        assert "Dc(V1)" in text

    def test_scenario_catalogue_complete(self):
        assert len(FIGURE7_SCENARIOS) == 5


class TestScaling:
    def test_rows_and_masking_shape(self, monkeypatch):
        monkeypatch.setattr(scaling, "STAGE_COUNTS", (2, 4, 6, 8))
        rows = run_scaling()
        assert [r.stages for r in rows] == [2, 4, 6, 8]
        for row in rows:
            assert row.fuzzy_detected  # the fuzzy engine sees the drift
            assert row.fuzzy_spread <= row.crisp_spread + 1e-9

    def test_spread_grows_with_depth(self, monkeypatch):
        monkeypatch.setattr(scaling, "STAGE_COUNTS", (2, 6))
        rows = run_scaling()
        assert rows[1].fuzzy_spread > rows[0].fuzzy_spread

    def test_format(self, monkeypatch):
        monkeypatch.setattr(scaling, "STAGE_COUNTS", (2,))
        assert "stages" in format_scaling(run_scaling())


class TestLearningEval:
    def test_learning_never_hurts_and_helps_repeats(self):
        rows = run_learning_eval()
        for row in rows:
            if row.rank_before is not None and row.rank_after is not None:
                assert row.rank_after <= row.rank_before
        assert any(
            row.rank_after is not None
            and row.rank_before is not None
            and row.rank_after < row.rank_before
            for row in rows
        )

    def test_certainty_grows_with_repetition(self):
        rows = run_learning_eval()
        by_fault = {}
        for row in rows:
            by_fault.setdefault(row.culprit, []).append(row.rule_certainty)
        assert max(by_fault["R2"]) > 0.6

    def test_format(self):
        assert "rank after" in format_learning_eval(run_learning_eval())


class TestAblations:
    def test_threshold_monotone(self, monkeypatch):
        monkeypatch.setattr(ablations, "THRESHOLDS", (0.05, 0.5))
        rows = run_threshold_ablation()
        # Higher threshold records fewer (or equal) nogoods.
        assert rows[1][2] <= rows[0][2]

    def test_entropy_forms(self):
        rows = dict(
            (name, (centroid, width))
            for name, centroid, width in run_entropy_form_ablation()
        )
        ext = rows["extension-principle"]
        prod = rows["paper product form"]
        assert prod[1] >= ext[1]  # the literal product form is wider

    def test_granularity_rows(self, monkeypatch):
        monkeypatch.setattr(ablations, "GRANULARITIES", (3, 5, 7))
        rows = run_granularity_ablation()
        assert [g for g, _, _ in rows] == [3, 5, 7]
        assert all(point.startswith("V(") for _, point, _ in rows)


PLANNERS = {"fuzzy-entropy", "gde-probabilistic", "random"}


class TestStrategyEval:
    def test_one_episode_per_planner(self):
        from repro.experiments.strategy_eval import DEFAULT_FAULTS

        outcomes = run_strategy_eval(faults=DEFAULT_FAULTS[:1])
        assert sorted(o.planner for o in outcomes) == sorted(PLANNERS)
        assert "planner" in format_strategy_eval(outcomes)


class TestStrategyLadder:
    def test_deterministic(self):
        from repro.experiments import run_strategy_eval_ladder

        assert run_strategy_eval_ladder() == run_strategy_eval_ladder()

    def test_planners_isolate_with_culprit(self):
        from repro.experiments import run_strategy_eval_ladder

        outcomes = run_strategy_eval_ladder()
        assert {o.planner for o in outcomes} == PLANNERS
        for o in outcomes:
            if o.planner != "random":
                assert o.isolated and o.culprit_found, o


class TestEnvelopeValidation:
    def test_full_monte_carlo_coverage(self, monkeypatch):
        from repro.experiments import ablations, run_envelope_validation

        for samples in (60, 120):
            monkeypatch.setattr(ablations, "ENVELOPE_SAMPLES", samples)
            rows = run_envelope_validation()
            for net, envelope, observed, corner, coverage in rows:
                assert coverage == 1.0, (net, samples)
                assert envelope >= observed - 1e-6, (net, samples)

    def test_envelope_not_absurdly_wide(self, monkeypatch):
        """First-order spread accumulation stays within ~2x the realised
        Monte Carlo range (the one-at-a-time corner band underestimates
        joint-tolerance extremes, so the sampled range is the yardstick)."""
        from repro.experiments import ablations, run_envelope_validation

        monkeypatch.setattr(ablations, "ENVELOPE_SAMPLES", 60)
        rows = run_envelope_validation()
        for net, envelope, observed, corner, coverage in rows:
            assert envelope <= 2.5 * observed + 1e-6, net
