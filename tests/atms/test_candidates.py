"""Tests for hitting-set candidate generation and nogood bookkeeping."""

import pytest

from repro.atms import Environment, NogoodDatabase, minimal_diagnoses, minimal_hitting_sets
from repro.atms.assumptions import Assumption
from repro.atms.candidates import suspicion_scores
from repro.atms import nogood
from repro.atms.nogood import WeightedNogood


def asm(*names):
    return frozenset(Assumption(n, n) for n in names)


def env(*names):
    return Environment(asm(*names))


class TestMinimalHittingSets:
    def test_single_set(self):
        hs = minimal_hitting_sets([asm("a", "b")])
        assert set(hs) == {asm("a"), asm("b")}

    def test_no_sets_yields_empty_diagnosis(self):
        assert minimal_hitting_sets([]) == [frozenset()]

    def test_empty_conflict_unhittable(self):
        assert minimal_hitting_sets([asm("a"), frozenset()]) == []

    def test_paper_diode_example(self):
        """Conflicts {r1,d1} and {r2,d1} -> candidates [d1] and [r1,r2]."""
        hs = minimal_hitting_sets([asm("r1", "d1"), asm("r2", "d1")])
        assert set(hs) == {asm("d1"), asm("r1", "r2")}

    def test_three_overlapping_conflicts(self):
        sets = [asm("a", "b"), asm("b", "c"), asm("a", "c")]
        hs = minimal_hitting_sets(sets)
        assert set(hs) == {asm("a", "b"), asm("b", "c"), asm("a", "c")}

    def test_results_are_an_antichain(self):
        sets = [asm("a", "b", "c"), asm("a"), asm("b", "d")]
        hs = minimal_hitting_sets(sets)
        for h1 in hs:
            for h2 in hs:
                assert not (h1 < h2)

    def test_every_result_hits_every_set(self):
        sets = [asm("a", "b"), asm("c", "d"), asm("b", "c")]
        for h in minimal_hitting_sets(sets):
            assert all(h & s for s in sets)

    def test_max_size_bound(self):
        sets = [asm("a"), asm("b"), asm("c")]
        assert minimal_hitting_sets(sets, max_size=2) == []
        assert minimal_hitting_sets(sets, max_size=3) == [asm("a", "b", "c")]

    def test_duplicate_sets_collapse(self):
        hs = minimal_hitting_sets([asm("a"), asm("a")])
        assert hs == [asm("a")]

    def test_brute_force_agreement(self):
        """Compare against exhaustive enumeration on a small universe."""
        import itertools

        sets = [asm("a", "b"), asm("b", "c"), asm("c", "d"), asm("a", "d")]
        universe = sorted({e for s in sets for e in s})
        all_hitters = [
            frozenset(combo)
            for r in range(len(universe) + 1)
            for combo in itertools.combinations(universe, r)
            if all(frozenset(combo) & s for s in sets)
        ]
        brute_minimal = {
            h for h in all_hitters if not any(h2 < h for h2 in all_hitters)
        }
        assert set(minimal_hitting_sets(sets)) == brute_minimal


class TestMinimalDiagnoses:
    def _nogoods(self):
        return [
            WeightedNogood(env("r1", "d1"), 0.5),
            WeightedNogood(env("r2", "d1"), 1.0),
        ]

    def test_diagnoses_structure(self):
        diagnoses = minimal_diagnoses(self._nogoods())
        blamed = {d.components for d in diagnoses}
        assert blamed == {("d1",), ("r1", "r2")}

    def test_degree_is_weakest_explained_conflict(self):
        diagnoses = minimal_diagnoses(self._nogoods())
        assert all(d.degree == pytest.approx(0.5) for d in diagnoses)

    def test_threshold_drops_weak_nogoods(self):
        diagnoses = minimal_diagnoses(self._nogoods(), threshold=0.8)
        blamed = {d.components for d in diagnoses}
        # Only the serious conflict {r2, d1} must be explained.
        assert blamed == {("d1",), ("r2",)}
        assert all(d.degree == pytest.approx(1.0) for d in diagnoses)

    def test_no_nogoods_no_diagnoses(self):
        assert minimal_diagnoses([]) == []

    def test_single_fault_bound(self):
        nogoods = [
            WeightedNogood(env("a", "b"), 1.0),
            WeightedNogood(env("c", "d"), 1.0),
        ]
        assert minimal_diagnoses(nogoods, max_size=1) == []

    def test_sorting_most_serious_first(self):
        nogoods = [
            WeightedNogood(env("a"), 0.4),
            WeightedNogood(env("b"), 0.9),
        ]
        diagnoses = minimal_diagnoses(nogoods, threshold=0.0)
        assert diagnoses[0].size == 2  # must hit both; single candidate
        nogoods_disjoint = [WeightedNogood(env("a"), 0.9)]
        top = minimal_diagnoses(nogoods_disjoint)[0]
        assert top.degree == pytest.approx(0.9)

    def test_suspicion_scores_max_over_nogoods(self):
        scores = suspicion_scores(self._nogoods())
        named = {a.name: s for a, s in scores.items()}
        assert named == {"d1": 1.0, "r2": 1.0, "r1": 0.5}


class TestNogoodDatabase:
    def test_add_and_len(self):
        db = NogoodDatabase()
        assert db.add(env("a", "b"), 1.0)
        assert len(db) == 1

    def test_subset_subsumes_superset(self):
        db = NogoodDatabase()
        db.add(env("a", "b"), 1.0)
        assert not db.add(env("a", "b", "c"), 1.0)
        assert len(db) == 1

    def test_superset_removed_when_subset_arrives(self):
        db = NogoodDatabase()
        db.add(env("a", "b", "c"), 1.0)
        db.add(env("a", "b"), 1.0)
        assert len(db) == 1
        assert db.minimal()[0].environment == env("a", "b")

    def test_degree_aware_subsumption(self):
        """A weak subset does not subsume a serious superset."""
        db = NogoodDatabase()
        db.add(env("a"), 0.3)
        assert db.add(env("a", "b"), 0.9)
        assert len(db) == 2

    def test_hard_threshold(self, monkeypatch):
        monkeypatch.setattr(nogood, "HARD_THRESHOLD", 0.5)
        db = NogoodDatabase()
        db.add(env("a"), 0.4)
        assert not db.is_inconsistent(env("a"))
        db.add(env("b"), 0.5)
        assert db.is_inconsistent(env("b", "c"))

    def test_invalid_degree_rejected(self):
        db = NogoodDatabase()
        with pytest.raises(ValueError):
            db.add(env("a"), 0.0)
        with pytest.raises(ValueError):
            db.add(env("a"), 1.5)

    def test_iteration_yields_sorted(self):
        db = NogoodDatabase()
        db.add(env("a"), 0.5)
        db.add(env("b"), 1.0)
        degrees = [n.degree for n in db]
        assert degrees == [1.0, 0.5]
