"""Snapshot assembly and tolerance-gated diffing."""

import pytest

from repro.stream import Reading, SnapshotBuilder


def snap(t, **volts_by_net):
    builder = SnapshotBuilder()
    for net, volts in volts_by_net.items():
        builder.ingest(Reading(t, net, volts))
    return builder.build()


class TestBuilder:
    def test_keeps_latest_reading_per_point(self):
        builder = SnapshotBuilder()
        builder.ingest(Reading(0.0, "n1", 1.0))
        builder.ingest(Reading(0.1, "n1", 2.0))
        snapshot = builder.build()
        assert dict(snapshot.readings)["V(n1)"] == 2.0
        assert snapshot.t == 0.1

    def test_clock_never_runs_backwards(self):
        builder = SnapshotBuilder()
        builder.ingest(Reading(0.5, "n1", 1.0))
        builder.ingest(Reading(0.2, "n2", 1.0))  # late-arriving sample
        assert builder.build().t == 0.5

    def test_points_sorted_and_measurements_fuzzy(self):
        builder = SnapshotBuilder(imprecision=0.2)
        builder.ingest(Reading(0.0, "n2", 2.0))
        builder.ingest(Reading(0.0, "n1", 1.0))
        snapshot = builder.build()
        assert [p for p, _ in snapshot.readings] == ["V(n1)", "V(n2)"]
        m = snapshot.measurements[0]
        assert m.point == "V(n1)"
        assert m.value.membership(1.0) == pytest.approx(1.0)
        assert m.value.membership(1.5) == pytest.approx(0.0)

    def test_unknown_point_reads_none(self):
        assert "V(zz)" not in dict(snap(0.0, n1=1.0).readings)


class TestDiff:
    def test_first_diff_is_all_added(self):
        builder = SnapshotBuilder()
        builder.ingest(Reading(0.0, "n1", 1.0))
        diff = builder.diff_against(None)
        assert diff.added == {"V(n1)"}
        assert not diff.changed and not diff.removed
        assert diff.dirty == {"V(n1)"}
        assert bool(diff)

    def test_changed_added_removed(self):
        old = snap(0.0, n1=1.0, n2=2.0)
        new = snap(1.0, n2=2.5, n3=3.0)
        diff = old.diff(new)
        assert diff.changed == {"V(n2)"}
        assert diff.added == {"V(n3)"}
        assert diff.removed == {"V(n1)"}
        assert diff.dirty == {"V(n2)", "V(n3)"}

    def test_epsilon_gates_noise(self):
        old = snap(0.0, n1=1.0, n2=2.0)
        new = snap(1.0, n1=1.0005, n2=2.5)
        diff = old.diff(new, epsilon=1e-3)
        assert diff.changed == {"V(n2)"}  # n1's jitter is sub-epsilon
        assert old.diff(new, epsilon=0.0).changed == {"V(n1)", "V(n2)"}

    def test_identical_snapshots_diff_falsy(self):
        old = snap(0.0, n1=1.0)
        new = snap(1.0, n1=1.0)
        diff = old.diff(new)
        assert not diff
        assert not diff.dirty

    def test_builder_diff_uses_its_epsilon(self):
        builder = SnapshotBuilder(epsilon=0.01)
        builder.ingest(Reading(0.0, "n1", 1.0))
        last = builder.build()
        builder.ingest(Reading(0.1, "n1", 1.001))
        assert not builder.diff_against(last)
        builder.ingest(Reading(0.2, "n1", 1.5))
        assert builder.diff_against(last).changed == {"V(n1)"}
