"""Tests for the fuzzy ATMS extension (paper section 6)."""

import pytest

from repro.atms import Environment
from tests.atms.reference_atms import FuzzyATMS
from tests.helpers import environment


def t_norm_product(a, b):
    """The product t-norm."""
    return a * b


@pytest.fixture
def fatms():
    return FuzzyATMS()


class TestUncertainJustifications:
    def test_degree_travels_with_derivation(self, fatms):
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        fatms.justify("rule", [a], x, degree=0.7)
        env = environment(a.assumption)
        assert x.degree_in(env) == pytest.approx(0.7)

    def test_min_t_norm_chains(self, fatms):
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        y = fatms.create_node("y")
        fatms.justify("r1", [a], x, degree=0.7)
        fatms.justify("r2", [x], y, degree=0.9)
        assert y.degree_in(environment(a.assumption)) == pytest.approx(0.7)

    def test_product_t_norm_chains(self):
        fatms = FuzzyATMS(t_norm=t_norm_product)
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        y = fatms.create_node("y")
        fatms.justify("r1", [a], x, degree=0.7)
        fatms.justify("r2", [x], y, degree=0.9)
        assert y.degree_in(environment(a.assumption)) == pytest.approx(0.63)

    def test_stronger_derivation_wins(self, fatms):
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        fatms.justify("weak", [a], x, degree=0.4)
        fatms.justify("strong", [a], x, degree=0.9)
        assert x.degree_in(environment(a.assumption)) == pytest.approx(0.9)

    def test_zero_degree_rejected(self, fatms):
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        with pytest.raises(ValueError):
            fatms.justify("bad", [a], x, degree=0.0)

    def test_larger_env_at_higher_degree_not_subsumed(self, fatms):
        """Minimality is degree-aware: a superset may carry a higher degree."""
        a = fatms.create_assumption("A")
        b = fatms.create_assumption("B")
        x = fatms.create_node("x")
        fatms.justify("weak", [a], x, degree=0.4)
        fatms.justify("strong", [a, b], x, degree=1.0)
        env_a = environment(a.assumption)
        env_ab = environment(a.assumption, b.assumption)
        assert x.degree_in(env_a) == pytest.approx(0.4)
        assert x.degree_in(env_ab) == pytest.approx(1.0)
        assert len(x.label) == 2


class TestSoftNogoods:
    def test_partial_conflict_keeps_environments(self, fatms):
        """A Dc=0.5 conflict weights candidates but does not prune labels."""
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        fatms.justify("j", [a], x)
        fatms.declare_soft_nogood("partial", [a], 0.5)
        assert x.is_in  # still believed
        assert fatms.weighted_nogoods()[0].degree == pytest.approx(0.5)

    def test_total_conflict_prunes(self, fatms):
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        fatms.justify("j", [a], x)
        fatms.declare_soft_nogood("total", [a], 1.0)
        assert not x.is_in

    def test_zero_conflict_ignored(self, fatms):
        a = fatms.create_assumption("A")
        fatms.declare_soft_nogood("corroboration", [a], 0.0)
        assert len(fatms.weighted_nogoods()) == 0

    def test_paper_diode_nogood_ranking(self, fatms):
        """Figure 5: nogoods {r1,d1}@0.5 and {r2,d1}@1, ordered by degree."""
        r1 = fatms.create_assumption("ok(r1)", "r1")
        r2 = fatms.create_assumption("ok(r2)", "r2")
        d1 = fatms.create_assumption("ok(d1)", "d1")
        fatms.declare_soft_nogood("Ir1", [r1, d1], 0.5)
        fatms.declare_soft_nogood("Ir2", [r2, d1], 1.0)
        ranked = fatms.weighted_nogoods()
        assert ranked[0].degree == 1.0
        assert {a.datum for a in ranked[0].environment} == {"r2", "d1"}
        assert ranked[1].degree == 0.5
        assert {a.datum for a in ranked[1].environment} == {"r1", "d1"}

    def test_suspicion_scores(self, fatms):
        r1 = fatms.create_assumption("ok(r1)", "r1")
        r2 = fatms.create_assumption("ok(r2)", "r2")
        d1 = fatms.create_assumption("ok(d1)", "d1")
        fatms.declare_soft_nogood("Ir1", [r1, d1], 0.5)
        fatms.declare_soft_nogood("Ir2", [r2, d1], 1.0)
        scores = {a.datum: s for a, s in fatms.assumption_suspicions().items()}
        assert scores == {"d1": 1.0, "r2": 1.0, "r1": 0.5}

    def test_environment_degree_reflects_conflicts(self, fatms):
        a = fatms.create_assumption("A")
        b = fatms.create_assumption("B")
        fatms.declare_soft_nogood("p", [a], 0.3)
        assert fatms.environment_degree(environment(a.assumption)) == pytest.approx(0.7)
        assert fatms.environment_degree(environment(b.assumption)) == pytest.approx(1.0)

    def test_soft_threshold_configuration(self):
        """Lowering the hard threshold makes partial conflicts prune."""
        fatms = FuzzyATMS(hard_threshold=0.4)
        a = fatms.create_assumption("A")
        x = fatms.create_node("x")
        fatms.justify("j", [a], x)
        fatms.declare_soft_nogood("partial", [a], 0.5)
        assert not x.is_in

    def test_soft_nogood_strengthening(self, fatms):
        a = fatms.create_assumption("A")
        b = fatms.create_assumption("B")
        fatms.declare_soft_nogood("first", [a, b], 0.3)
        fatms.declare_soft_nogood("second", [a, b], 0.8)
        assert fatms.weighted_nogoods()[0].degree == pytest.approx(0.8)


class TestNonHornClauses:
    def test_disjunction_creates_choices(self, fatms):
        x = fatms.create_node("x")
        y = fatms.create_node("y")
        choices = fatms.add_disjunction("d", [x, y])
        assert len(choices) == 2
        assert x.is_in and y.is_in

    def test_disjunct_holds_under_its_choice(self, fatms):
        x = fatms.create_node("x")
        y = fatms.create_node("y")
        cx, cy = fatms.add_disjunction("d", [x, y])
        assert x.holds_in(environment(cx.assumption))
        assert not x.holds_in(environment(cy.assumption))

    def test_rejecting_all_disjuncts_is_contradictory(self, fatms):
        x = fatms.create_node("x")
        y = fatms.create_node("y")
        fatms.add_disjunction("d", [x, y])
        negs = [n for name, n in fatms.nodes.items() if name.startswith("not(")]
        env = Environment(frozenset(n.assumption for n in negs))
        assert not fatms.consistent(env)

    def test_empty_disjunction_rejected(self, fatms):
        with pytest.raises(ValueError):
            fatms.add_disjunction("d", [])

    def test_uncertain_disjunction_degree(self, fatms):
        x = fatms.create_node("x")
        (cx,) = fatms.add_disjunction("d", [x], degree=0.6)
        assert x.degree_in(environment(cx.assumption)) == pytest.approx(0.6)
