"""Unit tests for ATMS node/justification primitives."""

import pytest

from repro.atms import Environment
from tests.atms.reference_atms import ATMS, Justification, Node
from tests.helpers import environment


class TestNodeQueries:
    def test_degree_in_returns_strongest(self):
        atms = ATMS()
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("weak", [a, b], x, degree=0.4)
        atms.justify("strong", [a], x, degree=0.9)
        env = environment(a.assumption, b.assumption)
        assert x.degree_in(env) == pytest.approx(0.9)

    def test_degree_in_zero_when_out(self):
        atms = ATMS()
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        atms.justify("j", [a], x)
        assert x.degree_in(Environment.empty()) == 0.0

    def test_environments_listing(self):
        atms = ATMS()
        a = atms.create_assumption("A")
        b = atms.create_assumption("B")
        x = atms.create_node("x")
        atms.justify("j1", [a], x)
        atms.justify("j2", [b], x)
        assert len(x.environments) == 2

    def test_assumption_flag(self):
        atms = ATMS()
        a = atms.create_assumption("A")
        x = atms.create_node("x")
        assert a.is_assumption and not x.is_assumption


class TestJustificationValidation:
    def test_degree_bounds(self):
        x = Node("x")
        y = Node("y")
        with pytest.raises(ValueError):
            Justification("j", [x], y, degree=0.0)
        with pytest.raises(ValueError):
            Justification("j", [x], y, degree=1.5)

    def test_empty_antecedents_is_a_premise_rule(self):
        atms = ATMS()
        x = atms.create_node("x")
        atms.justify("axiom", [], x)
        assert atms.label(x) == [Environment.empty()]


class TestEnvironmentOperations:
    def test_union_shares_instances_when_trivial(self):
        env = environment()
        other = environment()
        assert env.union(other) == Environment.empty()

    def test_iteration_sorted(self):
        atms = ATMS()
        b = atms.create_assumption("B")
        a = atms.create_assumption("A")
        env = environment(b.assumption, a.assumption)
        assert [x.name for x in env] == ["A", "B"]

    def test_bool_and_len(self):
        assert not Environment.empty()
        atms = ATMS()
        a = atms.create_assumption("A")
        env = environment(a.assumption)
        assert env and len(env) == 1
