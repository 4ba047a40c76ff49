"""Tests for the classic ATMS (labels minimal/sound/consistent/complete)."""

import pytest

from repro.atms import Assumption, Environment
from tests.atms.reference_atms import ATMS
from tests.helpers import environment


@pytest.fixture
def atms():
    return ATMS()


class TestNodeCreation:
    def test_assumption_label_is_singleton(self, atms):
        a = atms.create_assumption("A")
        assert atms.label(a) == [environment(a.assumption)]

    def test_plain_node_starts_out(self, atms):
        x = atms.create_node("x")
        assert not x.is_in

    def test_create_node_idempotent(self, atms):
        assert atms.create_node("x") is atms.create_node("x")

    def test_create_assumption_idempotent(self, atms):
        assert atms.create_assumption("A") is atms.create_assumption("A")

    def test_role_conflicts_rejected(self, atms):
        atms.create_node("x")
        with pytest.raises(ValueError):
            atms.create_assumption("x")
        with pytest.raises(ValueError):
            atms.create_node("x", contradiction=True)

    def test_premise_holds_in_empty_environment(self, atms):
        x = atms.create_node("x")
        atms.add_premise(x)
        assert atms.label(x) == [Environment.empty()]


class TestPropagation:
    def test_single_justification(self, atms):
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        atms.justify("j", [a], x)
        assert atms.label(x) == [environment(a.assumption)]

    def test_conjunction_unions_environments(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j", [a, b], x)
        assert atms.label(x) == [environment(a.assumption, b.assumption)]

    def test_disjunction_of_justifications(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j1", [a], x)
        atms.justify("j2", [b], x)
        assert set(atms.label(x)) == {
            environment(a.assumption),
            environment(b.assumption),
        }

    def test_chained_derivation(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        y = atms.create_node("y")
        atms.justify("j1", [a], x)
        atms.justify("j2", [x, b], y)
        assert atms.label(y) == [environment(a.assumption, b.assumption)]

    def test_label_minimality(self, atms):
        """{A} subsumes {A,B}: only the minimal environment remains."""
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j1", [a, b], x)
        atms.justify("j2", [a], x)
        assert atms.label(x) == [environment(a.assumption)]

    def test_incremental_update_reaches_consumers(self, atms):
        """Justifying an antecedent later still updates downstream labels."""
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        y = atms.create_node("y")
        atms.justify("j2", [x], y)  # consumer registered before x holds
        assert not y.is_in
        atms.justify("j1", [a], x)
        assert atms.label(y) == [environment(a.assumption)]

    def test_premise_collapses_labels(self, atms):
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        atms.justify("j1", [a], x)
        atms.add_premise(x)
        assert atms.label(x) == [Environment.empty()]

    def test_cycle_terminates(self, atms):
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        y = atms.create_node("y")
        atms.justify("jxy", [x], y)
        atms.justify("jyx", [y], x)
        atms.justify("ja", [a], x)
        env = environment(a.assumption)
        assert atms.label(x) == [env]
        assert atms.label(y) == [env]

    def test_diamond_derivation(self, atms):
        a = atms.create_assumption("A")
        left = atms.create_node("left")
        right = atms.create_node("right")
        top = atms.create_node("top")
        atms.justify("jl", [a], left)
        atms.justify("jr", [a], right)
        atms.justify("jt", [left, right], top)
        assert atms.label(top) == [environment(a.assumption)]


class TestNogoods:
    def test_nogood_removes_environment_everywhere(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j", [a, b], x)
        atms.declare_nogood("n", [a, b])
        assert not x.is_in

    def test_nogood_removes_supersets(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        c = atms.create_assumption("C")
        x = atms.create_node("x")
        atms.justify("j", [a, b, c], x)
        atms.declare_nogood("n", [a, b])
        assert not x.is_in

    def test_consistent_alternatives_survive(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        c = atms.create_assumption("C")
        x = atms.create_node("x")
        atms.justify("j1", [a, b], x)
        atms.justify("j2", [c], x)
        atms.declare_nogood("n", [a, b])
        assert atms.label(x) == [environment(c.assumption)]

    def test_future_derivations_respect_nogoods(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        atms.declare_nogood("n", [a, b])
        x = atms.create_node("x")
        atms.justify("j", [a, b], x)
        assert not x.is_in

    def test_nogood_database_minimality(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        atms.declare_nogood("n1", [a, b])
        atms.declare_nogood("n2", [a])
        nogoods = atms.minimal_nogoods()
        assert len(nogoods) == 1
        assert nogoods[0].environment == environment(a.assumption)

    def test_consistency_query(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        atms.declare_nogood("n", [a, b])
        assert atms.consistent(environment(a.assumption))
        assert not atms.consistent(environment(a.assumption, b.assumption))

    def test_contradiction_label_stays_empty(self, atms):
        a = atms.create_assumption("A")
        atms.declare_nogood("n", [a])
        assert not atms.contradiction.is_in


class TestQueries:
    def test_holds_in_superset_environment(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j", [a], x)
        assert x.holds_in(environment(a.assumption, b.assumption))
        assert not x.holds_in(environment(b.assumption))

    def test_stats_counts(self, atms):
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        atms.justify("j", [a], x)
        stats = atms.stats()
        assert stats["assumptions"] == 1
        assert stats["justifications"] == 1
        assert stats["nodes"] == 3  # FALSE, A, x

    def test_label_sizes(self, atms):
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j1", [a], x)
        atms.justify("j2", [b], x)
        assert atms.label_sizes()["x"] == 2


class TestSoundnessCompleteness:
    """Brute-force check of label semantics on a small random-ish graph."""

    def test_labels_match_brute_force(self):
        atms = ATMS()
        names = ["A", "B", "C", "D"]
        assumption_nodes = {n: atms.create_assumption(n) for n in names}
        x = atms.create_node("x")
        y = atms.create_node("y")
        z = atms.create_node("z")
        atms.justify("j1", [assumption_nodes["A"], assumption_nodes["B"]], x)
        atms.justify("j2", [assumption_nodes["C"]], x)
        atms.justify("j3", [x, assumption_nodes["D"]], y)
        atms.justify("j4", [y], z)
        atms.declare_nogood("n1", [assumption_nodes["C"], assumption_nodes["D"]])

        def derivable(env_names):
            """Forward-chain the rules by hand under a crisp environment."""
            holds = set(env_names)
            changed = True
            while changed:
                changed = False
                if ("A" in holds and "B" in holds or "C" in holds) and "x" not in holds:
                    holds.add("x")
                    changed = True
                if "x" in holds and "D" in holds and "y" not in holds:
                    holds.add("y")
                    changed = True
                if "y" in holds and "z" not in holds:
                    holds.add("z")
                    changed = True
            return holds

        import itertools

        for node, datum in ((x, "x"), (y, "y"), (z, "z")):
            for r in range(len(names) + 1):
                for combo in itertools.combinations(names, r):
                    env = Environment(
                        frozenset(Assumption(n, n) for n in combo)
                    )
                    if not atms.consistent(env):
                        continue
                    expected = datum in derivable(combo)
                    assert node.holds_in(env) == expected, (datum, combo)
