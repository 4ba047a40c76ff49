"""RunContext unit behaviour: deadlines, cancellation, budgets, spans."""

import threading

import pytest

from repro.runtime import RunContext, Span, render_trace


class TestCancellation:
    def test_latches(self):
        ctx = RunContext()
        assert not ctx.cancelled
        ctx.cancel()
        assert ctx.cancelled
        ctx.cancel()  # idempotent
        assert ctx.cancelled
        assert ctx.should_stop()
        assert ctx.stop_reason == "cancelled"

    def test_visible_across_threads(self):
        ctx = RunContext()
        seen = threading.Event()

        def worker():
            while not ctx.should_stop():
                pass
            seen.set()

        t = threading.Thread(target=worker)
        t.start()
        ctx.cancel()
        assert seen.wait(timeout=5), "worker never observed the cancellation"
        t.join(timeout=5)


class TestDeadline:
    def _fake_clock(self, step=1.0):
        now = [0.0]

        def clock():
            now[0] += step
            return now[0]

        return clock

    def test_no_deadline_is_unbounded(self):
        ctx = RunContext()
        assert ctx.remaining() is None
        for _ in range(100):
            assert not ctx.tick()
        assert not ctx.interrupted

    def test_with_timeout_none_never_expires(self):
        ctx = RunContext.with_timeout(None)
        assert ctx.deadline is None
        assert not ctx.should_stop()

    def test_deadline_expiry_latches_reason(self):
        # clock: 1.0 at construction -> deadline 4.0; checks at 2, 3, 4.
        clock = self._fake_clock()
        ctx = RunContext(deadline=clock() + 3.0, clock=clock)
        assert not ctx.should_stop()
        assert not ctx.should_stop()
        assert ctx.should_stop()
        assert ctx.interrupted
        assert ctx.stop_reason == "deadline"

    def test_remaining_floors_at_zero(self):
        clock = self._fake_clock()
        ctx = RunContext(deadline=clock() + 0.5, clock=clock)
        assert ctx.remaining() == 0.0

    def test_first_reason_wins(self):
        clock = self._fake_clock()
        ctx = RunContext(deadline=clock(), clock=clock)
        assert ctx.should_stop()
        assert ctx.stop_reason == "deadline"
        ctx.cancel()
        assert ctx.should_stop()
        assert ctx.stop_reason == "deadline"  # latched, not overwritten


class TestStepBudget:
    def test_budget_charges_deterministically(self):
        ctx = RunContext(step_budget=3)
        assert not ctx.tick()
        assert not ctx.tick()
        assert ctx.tick()
        assert ctx.steps_used == 3
        assert ctx.stop_reason == "step-budget"

    def test_bulk_charge(self):
        ctx = RunContext(step_budget=10)
        assert not ctx.tick(5)
        assert ctx.tick(5)

    def test_no_budget_counts_but_never_stops(self):
        ctx = RunContext()
        for _ in range(50):
            assert not ctx.tick()
        assert ctx.steps_used == 50


class TestSpans:
    def test_tracing_off_shares_noop_handle(self):
        ctx = RunContext()
        a = ctx.span("x")
        b = ctx.span("y", k=1)
        assert a is b  # one shared no-op object: zero per-call allocation
        with a as span:
            assert span is None
        assert ctx.spans == []

    def test_nested_spans_build_a_tree(self):
        ctx = RunContext(tracing=True)
        with ctx.span("outer", kind="test"):
            with ctx.span("inner-1"):
                pass
            with ctx.span("inner-2"):
                pass
        assert len(ctx.spans) == 1
        outer = ctx.spans[0]
        assert outer.name == "outer"
        assert outer.meta == {"kind": "test"}
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert outer.seconds >= 0.0

    def test_trace_dict_round_trips(self):
        ctx = RunContext(trace_id="abc123", tracing=True)
        with ctx.span("stage", steps=7):
            pass
        trace = ctx.trace()
        assert trace["trace_id"] == "abc123"
        assert trace["interrupted"] is False
        span = Span.from_dict(trace["spans"][0])
        assert span.name == "stage"
        assert span.meta == {"steps": 7}
        assert span.seconds >= 0.0

    def test_render_trace_marks_interruption(self):
        ctx = RunContext(trace_id="t1", tracing=True, step_budget=0)
        with ctx.span("diagnose"):
            ctx.tick()
        text = render_trace(ctx.trace())
        assert "trace t1" in text
        assert "interrupted: step-budget" in text
        assert "diagnose" in text

    def test_render_trace_empty(self):
        assert "(no spans recorded)" in render_trace({"trace_id": "x", "spans": []})


class TestConstruction:
    def test_trace_ids_are_unique_by_default(self):
        ids = {RunContext().trace_id for _ in range(20)}
        assert len(ids) == 20

    def test_supplied_trace_id_is_kept(self):
        assert RunContext(trace_id="req-7").trace_id == "req-7"

    def test_repr_smoke(self):
        ctx = RunContext.with_timeout(5.0)
        ctx.step_budget = 10
        text = repr(ctx)
        assert "remaining" in text and "budget" in text
