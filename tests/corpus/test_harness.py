"""Unit tests for corpus scoring, reporting and the accuracy floor."""

import pytest

from repro.corpus import (
    ClassStats,
    CorpusReport,
    ScenarioOutcome,
    check_floor,
    generate_corpus,
    low_degree_nogoods,
    no_certain_culprit,
    rank_of_true_fault,
    ranking_from_payload,
    run_corpus,
    scenario_hit,
)

FAULTY = {
    "status": "faulty",
    "suspicions": {"R1": 1.0, "R2": 0.8, "R3": 0.8, "amp1": 0.2},
    "nogoods": [
        {"components": ["R1", "R2"], "degree": 1.0},
        {"components": ["R3"], "degree": 0.4},
    ],
}
CONSISTENT = {"status": "consistent", "suspicions": {}, "nogoods": []}


class TestMetrics:
    def test_ranking_breaks_ties_by_name(self):
        assert [c for c, _ in ranking_from_payload(FAULTY)] == ["R1", "R2", "R3", "amp1"]

    def test_rank_of_true_fault(self):
        assert rank_of_true_fault(FAULTY, ["R1"]) == 1
        assert rank_of_true_fault(FAULTY, ["R3"]) == 3
        assert rank_of_true_fault(FAULTY, ["amp1", "R2"]) == 2  # best of several
        assert rank_of_true_fault(FAULTY, ["nope"]) is None
        assert rank_of_true_fault(FAULTY, []) is None

    def test_stackup_scoring(self):
        assert no_certain_culprit(CONSISTENT)
        assert not no_certain_culprit(FAULTY)  # R1 indicted with certainty
        soft = dict(FAULTY, suspicions={"R1": 0.7, "R2": 0.3})
        assert no_certain_culprit(soft)
        assert scenario_hit([], CONSISTENT, 1)
        assert scenario_hit([], soft, 5)
        assert not scenario_hit([], FAULTY, 1)

    def test_scenario_hit_with_ground_truth(self):
        assert scenario_hit(["R1"], FAULTY, 1)
        assert not scenario_hit(["R3"], FAULTY, 1)
        assert scenario_hit(["R3"], FAULTY, 3)

    def test_low_degree_nogoods(self):
        assert low_degree_nogoods(FAULTY)  # the 0.4 nogood
        hard_only = {"nogoods": [{"components": ["R1"], "degree": 1.0}]}
        assert not low_degree_nogoods(hard_only)
        assert not low_degree_nogoods(CONSISTENT)

    def test_latency_percentiles_are_nearest_rank(self):
        # The same rule /metrics uses: no interpolation between samples.
        stats = ClassStats(latencies=[0.004, 0.001, 0.003, 0.002])
        assert stats.latency_dict()["p50_ms"] == 2.0
        assert stats.latency_dict()["p95_ms"] == 4.0
        assert ClassStats().latency_dict() == {
            "p50_ms": 0.0, "p95_ms": 0.0, "mean_ms": 0.0
        }


def _outcome(cls, rank, top1, elapsed=0.01, status="ok"):
    return ScenarioOutcome(
        id=f"{cls}-x",
        scenario_class=cls,
        status=status,
        rank=rank,
        hits={1: top1, 3: True},
        low_degree=False,
        elapsed=elapsed,
    )


def _report(top1_hits):
    report = CorpusReport(seed=1, top_k=(1, 3))
    for hit in top1_hits:
        report.outcomes.append(_outcome("single-hard", 1, hit))
    return report


class TestReportAndFloor:
    def test_stats_include_overall_row(self):
        report = _report([True, False])
        table = report.to_dict()
        cell = table["kernels"]["reference"]
        assert set(cell) == {"single-hard", "overall"}
        assert cell["single-hard"]["accuracy"]["top1"] == 0.5
        assert cell["overall"]["accuracy"]["n"] == 2
        assert table["scenarios"] == 2

    def test_canonical_report_excludes_latency(self):
        report = _report([True])
        assert "latency" not in report.to_dict()["kernels"]["reference"]["single-hard"]
        withlat = report.to_dict(include_latency=True)
        assert "latency" in withlat["kernels"]["reference"]["single-hard"]

    def test_floor_holds(self):
        report = _report([True, True, False, True])
        floor = {"top1": {"single-hard": 0.75, "overall": 0.7}}
        assert check_floor(report, floor) == []

    def test_floor_breach_reported(self):
        report = _report([True, False, False, False])
        floor = {"top1": {"single-hard": 0.75}}
        breaches = check_floor(report, floor)
        assert len(breaches) == 1
        assert "single-hard" in breaches[0] and "0.250" in breaches[0]

    def test_floor_missing_class_is_a_breach(self):
        report = _report([True])
        breaches = check_floor(report, {"top1": {"intermittent": 0.5}})
        assert breaches and "missing" in breaches[0]

    def test_floor_nested_under_floors_key(self):
        report = _report([True])
        wrapped = {"comment": "x", "floors": {"top1": {"single-hard": 0.5}}}
        assert check_floor(report, wrapped) == []


class TestRunCorpus:
    @pytest.fixture(scope="class")
    def tiny(self):
        return generate_corpus(13, 1, ["single-hard", "tolerance-stackup"])

    def test_serial_run_reports_one_engine(self, tiny):
        report = run_corpus(tiny, workers=1, executor="serial")
        assert set(report.to_dict()["kernels"]) == {"reference"}
        assert len(report.outcomes) == len(tiny)
        assert all(o.completed for o in report.outcomes)

    def test_report_byte_stable_across_runs(self, tiny):
        first = run_corpus(tiny, kernels=("reference",), workers=1, executor="serial")
        second = run_corpus(tiny, kernels=("reference",), workers=1, executor="serial")
        assert first.to_json() == second.to_json()

    def test_unknown_kernel_rejected(self, tiny):
        for name in ("warp", "fast"):
            with pytest.raises(ValueError):
                run_corpus(tiny, kernels=(name,), workers=1, executor="serial")

    def test_top_k_below_one_rejected(self, tiny):
        for top_k in ((0,), (1, -2)):
            with pytest.raises(ValueError, match="top-k"):
                run_corpus(tiny, workers=1, executor="serial", top_k=top_k)
