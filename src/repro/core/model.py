"""The model database of one circuit design (paper §6.2, §7).

What the database unit and the knowledge unit's fault modes know about
a circuit does not depend on any unit's measurements:

* the designed operating region of each nonlinear device (a golden DC
  solve);
* the nominal predictions, tolerances propagated
  (:func:`~repro.core.predict.predict_nominal`);
* the node voltages under each hypothesised fault.

A :class:`CircuitModel` holds those facts.  Each is computed from the
caller's own parsed circuit the first time it is asked for, then handed
out read-only.  :class:`~repro.core.diagnosis.Flames` and
:class:`~repro.core.knowledge.KnowledgeBase` always read through a
model; one built without a model gets a private one, so it computes
exactly what it always did.  :func:`shared_model` is the per-process
LRU through which the fleet's jobs share one model per netlist text.

The LRU keys on the exact netlist text, not on
:meth:`~repro.circuit.netlist.Circuit.fingerprint`: ``predict_nominal``
sums tolerance spreads in card order, so two card orders of one circuit
can predict, and diagnose, differently.  The same text parses to the
same components in the same order, so a shared model returns the very
floats a private one would.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.circuit.faults import Fault, apply_fault
from repro.circuit.netlist import Circuit
from repro.circuit.simulate import DCSolver, SimulationError
from repro.core.predict import Prediction, predict_nominal

__all__ = ["CircuitModel", "MODEL_CACHE_SIZE", "clear_models", "shared_model"]

#: Netlists whose models one process keeps; the least recently used goes first.
MODEL_CACHE_SIZE = 16


class CircuitModel:
    """Measurement-independent facts of one circuit design, filled lazily.

    Every fill runs under the model's lock, so threads sharing a model
    compute each fact once.  A failed nominal solve is not stored: it
    raises again on the next request.  ``nominal_builds`` and
    ``fault_simulations`` count the fills, so callers can check the
    work done without a stopwatch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._design_modes: Optional[Mapping[str, str]] = None
        self._nominal: Optional[Mapping[str, Prediction]] = None
        self._faults: Dict[Fault, Optional[Mapping[str, float]]] = {}
        self.nominal_builds = 0
        self.fault_simulations = 0

    def design_modes(self, circuit: Circuit) -> Mapping[str, str]:
        """Designed operating region of each nonlinear device.

        Obtained from a golden DC solve of the nominal circuit — the
        model database records how the unit is *meant* to operate (the
        paper: "the chosen values of the components ensure the linear
        region of transistors").  Empty, so the network falls back to
        the conducting regions, when the nominal circuit cannot be
        solved.
        """
        with self._lock:
            if self._design_modes is None:
                try:
                    modes = DCSolver(circuit).solve().device_states
                except (SimulationError, ValueError):
                    modes = {}
                self._design_modes = MappingProxyType(modes)
            return self._design_modes

    def nominal(self, circuit: Circuit) -> Tuple[Mapping[str, Prediction], bool]:
        """The nominal predictions, and whether the model already held them.

        Raises :class:`~repro.circuit.simulate.SimulationError` when the
        golden circuit has no DC operating point.
        """
        with self._lock:
            if self._nominal is not None:
                return self._nominal, True
            self._nominal = MappingProxyType(predict_nominal(circuit))
            self.nominal_builds += 1
            return self._nominal, False

    def fault_voltages(self, circuit: Circuit, fault: Fault) -> Optional[Mapping[str, float]]:
        """Node voltages of ``circuit`` with ``fault`` applied (None: no solution)."""
        with self._lock:
            if fault not in self._faults:
                try:
                    op = DCSolver(apply_fault(circuit, fault)).solve()
                except (SimulationError, ValueError):
                    self._faults[fault] = None
                else:
                    self._faults[fault] = MappingProxyType(dict(op.voltages))
                self.fault_simulations += 1
            return self._faults[fault]


_models: "OrderedDict[str, CircuitModel]" = OrderedDict()
_models_lock = threading.Lock()


def shared_model(netlist_text: str) -> CircuitModel:
    """This process's model for ``netlist_text`` (an empty one on a miss)."""
    with _models_lock:
        model = _models.get(netlist_text)
        if model is None:
            model = _models[netlist_text] = CircuitModel()
            if len(_models) > MODEL_CACHE_SIZE:
                _models.popitem(last=False)
        else:
            _models.move_to_end(netlist_text)
        return model


def clear_models() -> None:
    """Forget every shared model (tests that need a cold process)."""
    with _models_lock:
        _models.clear()
