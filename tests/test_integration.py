"""End-to-end integration: netlist text in, confirmed repair out.

These tests exercise the whole stack the way a downstream user would:
parse a netlist, simulate a defect, run a troubleshooting session with
strategy-driven probing, refine with fault modes, learn, and persist.
"""

import pytest

from repro import (
    DCSolver,
    ExperienceBase,
    Fault,
    FaultKind,
    Flames,
    TroubleshootingSession,
    apply_fault,
    parse_netlist,
    probe,
)

BOARD = """
.title regression board
Vcc vcc 0 15
Rb1 vcc base 100k tol=0.05
Rb2 base 0 47k tol=0.05
Q1 vcc base out 200 vbe=0.7
Rload out 0 4.7k tol=0.05
Rsense out tap 1k tol=0.05
Rtap tap 0 9k tol=0.05
"""


@pytest.fixture(scope="module")
def golden():
    return parse_netlist(BOARD)


class TestEndToEnd:
    def test_healthy_unit_clears(self, golden):
        session = TroubleshootingSession(golden)
        bench = DCSolver(golden).solve()
        for net in ("out", "tap"):
            session.observe_probe(bench, net, imprecision=0.01)
        assert session.unit_looks_healthy

    def test_full_repair_cycle(self, golden):
        fault = Fault(FaultKind.PARAM, "Rload", value=9.4e3)
        bench = DCSolver(apply_fault(golden, fault)).solve()
        shop = ExperienceBase()
        session = TroubleshootingSession(golden, experience=shop)

        session.observe_probe(bench, "tap", imprecision=0.01)
        assert not session.unit_looks_healthy

        # Strategy-driven probing until the pool is exhausted or small.
        for _ in range(4):
            recommendation = session.recommend_next()
            if recommendation is None:
                break
            session.observe_probe(bench, recommendation.point[2:-1], imprecision=0.01)

        assert "Rload" in dict(session.candidates())
        best = session.refinements(top_k=1)[0]
        assert best.component == "Rload"
        assert best.mode == "high"
        session.confirm(best.component, best.mode)
        assert len(shop) == 1

    def test_experience_round_trips_through_disk(self, golden, tmp_path):
        fault = Fault(FaultKind.SHORT, "Rb2")
        bench = DCSolver(apply_fault(golden, fault)).solve()
        shop = ExperienceBase()
        session = TroubleshootingSession(golden, experience=shop)
        for net in ("out", "tap", "base"):
            session.observe_probe(bench, net, imprecision=0.01)
        session.confirm("Rb2", "short")

        store = tmp_path / "shop.json"
        shop.save(store)
        revived = ExperienceBase.load(store)

        # A new session over the same symptoms benefits from the memory.
        session2 = TroubleshootingSession(golden, experience=revived)
        bench2 = DCSolver(apply_fault(golden, fault)).solve()
        for net in ("out", "tap", "base"):
            session2.observe_probe(bench2, net, imprecision=0.01)
        assert session2.experience.suggest(session2.signature())
        assert session2.candidates()[0][0] == "Rb2"

    def test_flames_and_dictionary_agree_on_tabulated_faults(self, golden):
        from repro.baselines import FaultDictionary

        probes = ["out", "tap", "base"]
        dictionary = FaultDictionary(golden, probes)
        engine = Flames(golden)
        fault = Fault(FaultKind.OPEN, "Rtap")
        op = DCSolver(apply_fault(golden, fault)).solve()
        match = dictionary.lookup_op(op)
        assert (match.component, match.mode) == ("Rtap", "open")
        result = engine.diagnose(
            [probe(op, n, imprecision=0.01) for n in probes]
        )
        assert "Rtap" in result.suspicions

    def test_diagnose_is_idempotent(self, golden):
        fault = Fault(FaultKind.PARAM, "Rload", value=9.4e3)
        bench = DCSolver(apply_fault(golden, fault)).solve()
        engine = Flames(golden)
        measurements = [probe(bench, "tap", imprecision=0.01)]
        first = engine.diagnose(measurements)
        second = engine.diagnose(measurements)
        assert [repr(n) for n in first.nogoods] == [repr(n) for n in second.nogoods]
        assert first.suspicions == second.suspicions
