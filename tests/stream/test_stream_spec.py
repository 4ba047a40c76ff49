"""Stream requests are checked in full before the stream opens."""

import pytest

from repro.circuit import resistor_ladder
from repro.core.diagnosis import Flames
from repro.server.http import HttpError
from repro.server.stream import StreamSpec
from repro.stream.session import StreamingSession
from repro.stream.snapshot import SnapshotBuilder
from repro.stream.sources import LiveSimulatorSource


@pytest.mark.parametrize(
    "query",
    [
        {"imprecision": "-1"},
        {"imprecision": "nan"},
        {"duration": "nan"},
        {"alpha": "2"},
        {"threshold": "nan"},
        {"threshold": "5"},
        {"epsilon": "-1"},
        {"noise": "-1"},
        {"top": "-1"},
        {"top": "0"},
        {"tick_deadline": "inf"},
    ],
)
def test_out_of_range_values_are_rejected_up_front(query):
    with pytest.raises(HttpError) as err:
        StreamSpec.from_query(query)
    assert err.value.status == 400


def test_defaults_still_validate():
    assert StreamSpec.from_query({}) == StreamSpec()


class TestOwnersCheckTheirRanges:
    def test_snapshot_builder(self):
        with pytest.raises(ValueError, match="imprecision"):
            SnapshotBuilder(imprecision=-0.1)
        with pytest.raises(ValueError, match="epsilon"):
            SnapshotBuilder(epsilon=-1e-3)

    def test_live_source_noise(self):
        with pytest.raises(ValueError, match="noise"):
            LiveSimulatorSource(resistor_ladder(2), ["n1"], duration=0.002, noise=-0.1)

    def test_session_top(self):
        source = LiveSimulatorSource(resistor_ladder(2), ["n1"], duration=0.002, dt=1e-3)
        with pytest.raises(ValueError, match="top"):
            StreamingSession(Flames(resistor_ladder(2)), source, top=0)
