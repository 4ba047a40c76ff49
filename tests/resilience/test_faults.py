"""The fault plane itself: determinism, serialisation, scoping, limits."""

import pytest

from repro.resilience import FaultPlan, FaultRule, InjectedFault, faults


class TestFaultRule:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule(point="pool.nonsense")

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(point="pool.worker_crash", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule(point="pool.worker_crash", rate=-0.1)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(point="pool.worker_hang", seconds=-1.0)


class TestDeterminism:
    def test_decide_is_pure(self):
        plan = FaultPlan.build(seed=0, pool_worker_crash=0.5)
        first = [plan.decide("pool.worker_crash", f"k{i}") for i in range(64)]
        second = [plan.decide("pool.worker_crash", f"k{i}") for i in range(64)]
        assert first == second

    def test_same_spec_same_decisions_across_instances(self):
        a = FaultPlan.build(seed=7, cache_corrupt=0.3)
        b = FaultPlan.from_json(a.to_json())
        for i in range(64):
            key = f"entry-{i}"
            assert (a.decide("cache.corrupt", key) is None) == (
                b.decide("cache.corrupt", key) is None
            )

    def test_different_seeds_differ(self):
        a = FaultPlan.build(seed=0, pool_worker_crash=0.5)
        b = FaultPlan.build(seed=1, pool_worker_crash=0.5)
        fires_a = {i for i in range(128) if a.decide("pool.worker_crash", f"k{i}")}
        fires_b = {i for i in range(128) if b.decide("pool.worker_crash", f"k{i}")}
        assert fires_a != fires_b

    def test_rate_roughly_honoured(self):
        plan = FaultPlan.build(seed=0, pool_worker_crash=0.25)
        fired = sum(
            1 for i in range(1000) if plan.decide("pool.worker_crash", f"k{i}")
        )
        assert 180 <= fired <= 320  # ~250 expected; sha256 draw, not RNG

    def test_rate_zero_never_fires_rate_one_always(self):
        silent = FaultPlan.build(seed=0, pool_worker_crash=0.0)
        loud = FaultPlan.build(seed=0, pool_worker_crash=1.0)
        assert all(silent.decide("pool.worker_crash", f"k{i}") is None for i in range(32))
        assert all(loud.decide("pool.worker_crash", f"k{i}") is not None for i in range(32))


class TestSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule("pool.worker_hang", rate=0.5, seconds=1.5),
                FaultRule("cache.corrupt", rate=0.1, limit=4),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan.build(seed=9, server_io=0.5)
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.uninstall_plan()  # forget the fixture's explicit disarm
        assert faults.active_plan() == plan

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan.build(seed=1, pool_worker_crash=0.5)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInjectionHelpers:
    def test_disarmed_is_noop(self):
        assert faults.maybe_fire("pool.worker_crash", "k") is None
        faults.maybe_raise("pool.worker_crash", "k")  # must not raise
        assert faults.maybe_sleep("pool.worker_hang") == 0.0

    def test_maybe_raise_fires(self):
        faults.install_plan(FaultPlan.build(seed=0, pool_worker_crash=1.0))
        with pytest.raises(InjectedFault) as err:
            faults.maybe_raise("pool.worker_crash", "job-1")
        assert err.value.point == "pool.worker_crash"

    def test_limit_caps_firings(self):
        faults.install_plan(
            FaultPlan(seed=0, rules=(FaultRule("pool.worker_crash", rate=1.0, limit=2),))
        )
        fired = sum(
            1
            for i in range(10)
            if faults.maybe_fire("pool.worker_crash", f"k{i}") is not None
        )
        assert fired == 2
        assert faults.fire_counts()["pool.worker_crash"] == 2

    def test_key_scope_binds_the_key(self):
        plan = FaultPlan.build(seed=0, measurement_malformed=0.5)
        faults.install_plan(plan)
        hot = next(
            f"k{i}" for i in range(64) if plan.decide("measurement.malformed", f"k{i}")
        )
        cold = next(
            f"k{i}"
            for i in range(64)
            if plan.decide("measurement.malformed", f"k{i}") is None
        )
        with faults.key_scope(hot):
            assert faults.maybe_fire("measurement.malformed") is not None
            with faults.key_scope(cold):  # nesting restores on exit
                assert faults.maybe_fire("measurement.malformed") is None
            assert faults.current_key() == hot

    def test_maybe_exit_refuses_in_main_process(self):
        faults.install_plan(FaultPlan.build(seed=0, pool_worker_exit=1.0))
        faults.maybe_exit("pool.worker_exit")  # still alive = pass

    def test_install_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan.build(seed=1).to_json())
        explicit = FaultPlan.build(seed=2, cache_corrupt=1.0)
        faults.install_plan(explicit)
        assert faults.active_plan() == explicit
