"""The ``GET /v1/stream`` endpoint's plumbing.

The server side of streaming diagnosis: parse the stream request off
the query string (:class:`StreamSpec`), build a
:class:`~repro.stream.session.StreamingSession` over a live simulated
unit, and pump its blocking update generator from a worker thread into
the event loop (:class:`StreamRunner`) so the asyncio writer can frame
each update as a Server-Sent Event between heartbeats.

The simulated-unit source keeps the endpoint self-contained — a client
opens a stream with nothing but query parameters and watches a fault
appear mid-observation.  Real telemetry would slot in as another
``Reading`` iterable without touching anything here.
"""

from __future__ import annotations

import asyncio
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.circuit.faults import Fault, FaultKind
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import rc_lowpass
from repro.circuit.netlist import Circuit
from repro.circuit.transient import step_waveform
from repro.core.diagnosis import Flames
from repro.server.http import HttpError
from repro.service.telemetry import Telemetry
from repro.stream.detector import DetectorConfig, DriftDetector
from repro.stream.session import StreamingSession, StreamUpdate, check_top
from repro.stream.snapshot import SnapshotBuilder
from repro.stream.sources import LiveSimulatorSource

__all__ = ["StreamSpec", "StreamRunner"]

#: Queue sentinel: the producer finished (value = uncaught error, if any).
_DONE = object()


def _float(query: Dict[str, str], name: str, default: float) -> float:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise HttpError(400, f"query parameter {name!r} must be a finite number")
    return value


def _int(query: Dict[str, str], name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise HttpError(400, f"query parameter {name!r} must be an integer") from None


def _parse_fault(raw: str) -> Fault:
    """``kind:component[:value]`` — e.g. ``short:Rp3``, ``param:Rs2:30e3``."""
    parts = raw.split(":")
    kinds = {k.value: k for k in FaultKind}
    if len(parts) < 2 or parts[0] not in kinds or not parts[1]:
        raise HttpError(
            400,
            f"bad fault {raw!r}; want kind:component[:value] with kind one of "
            + ", ".join(sorted(kinds)),
        )
    kind = kinds[parts[0]]
    if kind is FaultKind.PARAM:
        if len(parts) != 3:
            raise HttpError(400, f"param fault {raw!r} needs a value: param:comp:value")
        try:
            return Fault(kind, parts[1], value=float(parts[2]))
        except ValueError:
            raise HttpError(400, f"bad fault value {parts[2]!r}") from None
    if len(parts) != 2:
        raise HttpError(400, f"fault {raw!r} takes no value for kind {parts[0]!r}")
    return Fault(kind, parts[1])


@dataclass(frozen=True)
class StreamSpec:
    """A validated ``/v1/stream`` request (also built by ``repro watch``)."""

    circuit: str = "ladder"  # "ladder" (resistive) or "rc" (dynamic)
    size: int = 6  # ladder sections / RC stages
    nets: Tuple[str, ...] = ()  # empty = every probe net of the family
    fault: Optional[Fault] = None
    fault_at: float = 0.0
    duration: float = 0.01
    dt: float = 1e-3
    imprecision: float = 0.05
    noise: float = 0.0
    seed: int = 0
    threshold: float = 0.5
    hysteresis: float = 0.2
    alpha: float = 0.4
    epsilon: float = 1e-3  # snapshot dirty gate, volts
    top: int = 5
    tick_deadline: Optional[float] = None

    @classmethod
    def from_query(cls, query: Dict[str, str]) -> "StreamSpec":
        """Validate a query-string mapping; raises :class:`HttpError` 400."""
        circuit = query.get("circuit", "ladder")
        if circuit not in ("ladder", "rc"):
            raise HttpError(400, f"unknown circuit family {circuit!r}; use ladder or rc")
        size = _int(query, "size", 6)
        if not 1 <= size <= 64:
            raise HttpError(400, "size must be in [1, 64]")
        nets = tuple(n for n in query.get("nets", "").split(",") if n)
        fault_raw = query.get("fault", "")
        duration = _float(query, "duration", 0.01)
        dt = _float(query, "dt", 1e-3)
        if duration <= 0 or dt <= 0:
            raise HttpError(400, "duration and dt must be positive")
        if duration / dt > 100_000:
            raise HttpError(400, "duration/dt asks for more than 100000 samples")
        deadline = _float(query, "tick_deadline", 0.0)
        try:
            spec = cls(
                circuit=circuit,
                size=size,
                nets=nets,
                fault=_parse_fault(fault_raw) if fault_raw else None,
                fault_at=_float(query, "fault_at", 0.0),
                duration=duration,
                dt=dt,
                imprecision=_float(query, "imprecision", 0.05),
                noise=_float(query, "noise", 0.0),
                seed=_int(query, "seed", 0),
                threshold=_float(query, "threshold", 0.5),
                hysteresis=_float(query, "hysteresis", 0.2),
                alpha=_float(query, "alpha", 0.4),
                epsilon=_float(query, "epsilon", 1e-3),
                top=_int(query, "top", 5),
                tick_deadline=deadline if deadline > 0 else None,
            )
            spec.build_session(Telemetry(), dry_run=True)  # fail fast on bad combos
        except HttpError:
            raise
        except (KeyError, ValueError) as exc:
            raise HttpError(400, f"bad stream request: {exc}") from None
        return spec

    # ------------------------------------------------------------------
    def golden_circuit(self) -> Circuit:
        if self.circuit == "rc":
            return rc_lowpass(stages=self.size)
        return resistor_ladder(self.size)

    def default_nets(self) -> List[str]:
        prefix = "m" if self.circuit == "rc" else "n"
        return [f"{prefix}{i}" for i in range(1, self.size + 1)]

    def build_session(
        self, telemetry: Telemetry, dry_run: bool = False
    ) -> Optional[StreamingSession]:
        """Construct the session (validating everything); None on dry runs."""
        circuit = self.golden_circuit()
        nets = list(self.nets) or self.default_nets()
        known = {net.name for net in circuit.nets}
        for net in nets:
            if net not in known:
                raise HttpError(400, f"circuit has no net {net!r}")
        if self.fault is not None:
            try:
                circuit.component(self.fault.component)
            except KeyError:
                raise HttpError(
                    400, f"circuit has no component {self.fault.component!r}"
                ) from None
        # The RC family needs its step drive to produce a transient worth
        # watching; the resistive ladder is driven by its DC source.
        waveforms = (
            {"Vin": step_waveform(0.0, 5.0, at=0.0)} if self.circuit == "rc" else None
        )
        source = LiveSimulatorSource(
            circuit,
            nets,
            duration=self.duration,
            dt=self.dt,
            fault=self.fault,
            fault_at=self.fault_at,
            waveforms=waveforms,
            noise=self.noise,
            seed=self.seed,
        )
        detector = DriftDetector(
            DetectorConfig(
                threshold=self.threshold, hysteresis=self.hysteresis, alpha=self.alpha
            )
        )
        builder = SnapshotBuilder(imprecision=self.imprecision, epsilon=self.epsilon)
        if dry_run:
            check_top(self.top)  # the one check the session would make
            return None
        return StreamingSession(
            engine=Flames(circuit),
            source=source,
            detector=detector,
            builder=builder,
            telemetry=telemetry,
            tick_deadline=self.tick_deadline,
            top=self.top,
        )


class StreamRunner:
    """Pump a session's blocking generator into an asyncio queue.

    The session does real CPU work (transient simulation + incremental
    re-diagnosis), so it runs on an executor thread; updates cross into
    the event loop through ``loop.call_soon_threadsafe``.  ``stop()``
    makes the source iterator exit at the next reading, after which the
    session's final drain tick still runs — a stopped stream ends with
    a ranking that reflects everything ingested so far.
    """

    def __init__(self, session: StreamingSession) -> None:
        self.session = session
        self._stop = threading.Event()
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.Queue[Union[StreamUpdate, object]]" = asyncio.Queue()
        self.error: Optional[BaseException] = None

    # -- producer side (worker thread) ---------------------------------
    def produce(self) -> None:
        """Run the session to completion; always ends with the sentinel."""
        original = self.session.source
        self.session.source = self._stoppable(original)
        try:
            for update in self.session.run():
                self._put(update)
        except BaseException as exc:  # surfaced to the consumer, not lost
            self.error = exc
        finally:
            self.session.source = original
            self._put(_DONE)

    def _stoppable(self, source):
        for reading in source:
            if self._stop.is_set():
                return
            yield reading

    def _put(self, item: object) -> None:
        self._loop.call_soon_threadsafe(self._queue.put_nowait, item)

    # -- consumer side (event loop) ------------------------------------
    def stop(self) -> None:
        self._stop.set()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    async def next_update(self, timeout: float) -> Optional[object]:
        """The next queue item, ``None`` on timeout, ``_DONE`` at the end."""
        try:
            return await asyncio.wait_for(self._queue.get(), timeout=timeout)
        except asyncio.TimeoutError:
            return None

    def pending(self) -> List[StreamUpdate]:
        """Updates still queued after the sentinel (drained synchronously)."""
        items: List[StreamUpdate] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return items
            if not self.is_done(item):
                items.append(item)  # type: ignore[arg-type]

    @staticmethod
    def is_done(item: object) -> bool:
        return item is _DONE
