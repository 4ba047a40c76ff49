"""Property-based tests for ATMS invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atms import (
    Assumption,
    Environment,
    NogoodDatabase,
    fold_conflicts,
    minimal_hitting_sets,
)
from repro.atms.interpretations import interpretations
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.measurements import probe_all
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from tests.atms.reference_atms import ATMS, FuzzyATMS

_names = st.sampled_from(["a", "b", "c", "d", "e"])
_sets = st.sets(_names, min_size=1, max_size=4).map(
    lambda s: frozenset(Assumption(n, n) for n in s)
)


class TestHittingSetProperties:
    @given(st.lists(_sets, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_every_hitter_hits_everything(self, conflict_sets):
        for h in minimal_hitting_sets(conflict_sets):
            assert all(h & s for s in conflict_sets)

    @given(st.lists(_sets, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_results_form_antichain(self, conflict_sets):
        hs = minimal_hitting_sets(conflict_sets)
        for h1, h2 in itertools.combinations(hs, 2):
            assert not (h1 <= h2 or h2 <= h1)

    @given(st.lists(_sets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, conflict_sets):
        universe = sorted({a for s in conflict_sets for a in s})
        brute = [
            frozenset(combo)
            for r in range(len(universe) + 1)
            for combo in itertools.combinations(universe, r)
            if all(frozenset(combo) & s for s in conflict_sets)
        ]
        brute_minimal = {h for h in brute if not any(h2 < h for h2 in brute)}
        assert set(minimal_hitting_sets(conflict_sets)) == brute_minimal


class TestNogoodDatabaseProperties:
    @given(
        st.lists(
            st.tuples(_sets, st.floats(min_value=0.05, max_value=1.0)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_store_is_degree_antichain(self, entries):
        db = NogoodDatabase()
        for s, d in entries:
            db.add(Environment(s), d)
        stored = db.minimal()
        for n1, n2 in itertools.combinations(stored, 2):
            if n1.environment.is_proper_subset(n2.environment):
                assert n1.degree < n2.degree
            if n2.environment.is_proper_subset(n1.environment):
                assert n2.degree < n1.degree

    @given(
        st.lists(
            st.tuples(_sets, st.floats(min_value=0.05, max_value=1.0)),
            min_size=1,
            max_size=8,
        ),
        _sets,
    )
    @settings(max_examples=60, deadline=None)
    def test_conflict_degree_never_decreases_with_more_nogoods(self, entries, probe):
        db = NogoodDatabase()
        watched = Environment(probe)
        degrees = []
        for s, d in entries:
            db.add(Environment(s), d)
            degrees.append(
                max((n.degree for n in db if n.environment.is_subset(watched)), default=0.0)
            )
        assert all(x <= y + 1e-12 for x, y in zip(degrees, degrees[1:]))


class TestInterpretationProperties:
    @given(st.lists(_sets, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_interpretations_consistent_and_maximal(self, nogood_sets):
        db = NogoodDatabase()
        for s in nogood_sets:
            db.add(Environment(s), 1.0)
        assumptions = [Assumption(n, n) for n in ["a", "b", "c", "d", "e"]]
        maximal = interpretations(assumptions, db)
        for env in maximal:
            assert not db.is_inconsistent(env)
            # Maximal: adding any missing assumption breaks consistency
            # unless another interpretation contains the extension.
            for a in assumptions:
                if a not in env.assumptions:
                    extended = Environment(env.assumptions | {a})
                    covered = any(
                        extended.is_subset(other) for other in maximal
                    )
                    assert db.is_inconsistent(extended) or not covered or extended in maximal


class TestLabelInvariantsAfterNogoods:
    """Label soundness after nogood installation.

    Whatever sequence of justifications and (soft or hard) nogoods is
    installed, every node label must stay a degree-consistent minimal
    antichain of environments none of which is hard-inconsistent.
    """

    @given(
        rules=st.lists(
            st.tuples(st.sets(_names, min_size=1, max_size=3), _names),
            min_size=1,
            max_size=5,
        ),
        nogoods=st.lists(
            st.tuples(
                st.sets(_names, min_size=1, max_size=3),
                st.floats(min_value=0.1, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_stay_sound(self, rules, nogoods):
        atms = FuzzyATMS()
        assumptions = {}

        def assume(name):
            if name not in assumptions:
                assumptions[name] = atms.create_assumption(f"ok({name})", name)
            return assumptions[name]

        for ants, cons in rules:
            consequent = atms.create_node(f"n_{cons}")
            atms.justify("r", [assume(a) for a in sorted(ants)], consequent)
        for i, (members, degree) in enumerate(nogoods):
            atms.declare_soft_nogood(
                f"m{i}", [assume(a) for a in sorted(members)], degree
            )

        for node in atms.nodes.values():
            label = node.label
            for env, degree in label.items():
                assert 0.0 < degree <= 1.0
                # No environment at or past the hard threshold survives.
                assert atms.consistent(env)
            for e1, e2 in itertools.combinations(label, 2):
                # Minimality: a kept proper subset must be strictly
                # weaker, else it would have subsumed the superset.
                if e1.is_proper_subset(e2):
                    assert label[e1] < label[e2]
                if e2.is_proper_subset(e1):
                    assert label[e2] < label[e1]

    @given(
        nogoods=st.lists(
            st.tuples(
                st.sets(_names, min_size=1, max_size=3),
                st.floats(min_value=0.1, max_value=1.0),
            ),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_nogood_degrees_monotone_under_weighting(self, nogoods):
        """Installing more nogoods never weakens an existing one."""
        atms = FuzzyATMS()
        assumptions = {
            n: atms.create_assumption(f"ok({n})", n) for n in ["a", "b", "c", "d", "e"]
        }
        watched = Environment(frozenset(n.assumption for n in assumptions.values()))
        degrees = []
        for i, (members, degree) in enumerate(nogoods):
            atms.declare_soft_nogood(
                f"m{i}", [assumptions[a] for a in sorted(members)], degree
            )
            degrees.append(atms.conflict_degree(watched))
        assert all(x <= y + 1e-12 for x, y in zip(degrees, degrees[1:]))


class TestATMSLabelProperties:
    @given(
        st.lists(
            st.tuples(st.sets(_names, min_size=1, max_size=3), _names),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_are_minimal_antichains(self, rules):
        atms = ATMS()
        for ants, cons in rules:
            ant_nodes = [atms.create_assumption(f"A_{n}") for n in sorted(ants)]
            consequent = atms.create_node(f"n_{cons}")
            atms.justify("r", ant_nodes, consequent)
        for node in atms.nodes.values():
            envs = list(node.label)
            for e1, e2 in itertools.combinations(envs, 2):
                assert not e1.is_proper_subset(e2) or node.label[e1] < node.label[e2]
                assert not e2.is_proper_subset(e1) or node.label[e2] < node.label[e1]


def _atms_replay(conflicts, threshold):
    """The label-weaving reference: replay a conflict log into a fuzzy ATMS."""
    atms = FuzzyATMS()
    nodes = {}
    for names, degree in conflicts:
        if degree < threshold or not names:
            continue
        for name in names:
            if name not in nodes:
                nodes[name] = atms.create_assumption(f"ok({name})", name)
        atms.declare_soft_nogood("c", [nodes[n] for n in sorted(names)], degree)
    return atms.weighted_nogoods(threshold)


def _ordered(nogoods):
    return [(repr(n.environment), n.degree) for n in nogoods]


class TestConflictFold:
    """``fold_conflicts`` equals a fuzzy ATMS replay of the same log.

    Every assumption's label is ``{{A}}`` at degree 1, so each t-norm
    gives the conflict's own degree and the weave adds nothing the
    nogood database's subsumption does not already do.
    """

    @given(
        conflicts=st.lists(
            st.tuples(
                st.frozensets(_names, max_size=4),
                st.one_of(
                    st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
                ),
            ),
            max_size=12,
        ),
        threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_atms_replay(self, conflicts, threshold):
        folded = fold_conflicts(conflicts, threshold)
        assert _ordered(folded) == _ordered(_atms_replay(conflicts, threshold))
        assert all(threshold <= n.degree <= 1.0 and n.environment for n in folded)

    def test_real_ladder_log_matches_atms_replay(self):
        """Ladder-40 with Rs2 open: thousands of conflicts, two nogoods."""
        golden = resistor_ladder(40)
        op = DCSolver(apply_fault(golden, Fault(FaultKind.OPEN, "Rs2"))).solve()
        measurements = probe_all(op, ["n5", "n10", "n20", "n30", "n40"], imprecision=0.02)
        engine = Flames(golden)
        result = engine.diagnose(measurements)
        log = [(c.environment, c.degree) for c in result.conflicts]
        threshold = engine.config.conflict_threshold
        assert len(log) > 1000
        assert _ordered(result.nogoods) == _ordered(_atms_replay(log, threshold))
