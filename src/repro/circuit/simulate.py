"""DC operating-point simulator (modified nodal analysis).

This is the "physical circuit" stand-in: FLAMES was evaluated against
real boards probed on a bench; we synthesise ground-truth measurements
by solving the faulty circuit numerically.  The solver is a standard
MNA formulation with *device-state iteration* for the piecewise-linear
nonlinear devices:

* diodes are either OFF (open) or ON (a ``v_on`` drop),
* BJTs are in cutoff, the linear (active) region (``Vbe = vbe_on``,
  ``Ic = beta * Ib``) or saturation (``Vce = vce_sat``).

Each state assignment yields a linear system; the solver iterates state
flips until the solution is consistent with every device's region
checks, falling back to exhaustive state enumeration for small device
counts.  A tiny ``gmin`` conductance from every net to ground keeps the
matrix regular when faults float a net.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.circuit.components import (
    Amplifier,
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit, Component, Net

__all__ = ["DCSolver", "OperatingPoint", "SimulationError"]

#: Leak conductance to ground on every net (regularises floating nets).
GMIN = 1e-9

#: Region-check slack (amps / volts).
_TOL = 1e-9

#: Device-state flips tried before falling back to exhaustive enumeration.
MAX_ITERATIONS = 60


class SimulationError(RuntimeError):
    """The DC operating point could not be established."""


@dataclass
class OperatingPoint:
    """Solved DC state: node voltages and component currents."""

    voltages: Dict[str, float]
    currents: Dict[str, float]
    device_states: Dict[str, str] = field(default_factory=dict)

    def voltage(self, net: "Net | str") -> float:
        name = net.name if isinstance(net, Net) else net
        if name == "0":
            return 0.0
        return self.voltages[name]

    def current(self, component: str, which: str = "") -> float:
        """Current through ``component`` (``which`` selects BJT terminals)."""
        key = f"{component}.{which}" if which else component
        return self.currents[key]

    def state(self, component: str) -> str:
        return self.device_states.get(component, "linear")


class DCSolver:
    """Assembles and solves the MNA system for a circuit."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate(strict=False)  # fault-injected clones may dangle nets
        self.circuit = circuit
        self._nets = [n for n in circuit.nets if not n.is_ground]
        self._net_index = {n.name: i for i, n in enumerate(self._nets)}
        self._nonlinear = [
            c for c in circuit.components if isinstance(c, (Diode, BJT))
        ]

    # ------------------------------------------------------------------
    def solve(self) -> OperatingPoint:
        """Find a consistent operating point or raise SimulationError."""
        states = {c.name: self._initial_state(c) for c in self._nonlinear}
        seen = set()
        for _ in range(MAX_ITERATIONS):
            key = tuple(sorted(states.items()))
            if key in seen:
                break  # cycling between state assignments
            seen.add(key)
            solution = self._solve_linear(states)
            if solution is None:
                break
            violations = self._violations(states, solution)
            if not violations:
                return self._operating_point(states, solution)
            for name, new_state in violations.items():
                states[name] = new_state
        return self._exhaustive()

    # ------------------------------------------------------------------
    def _initial_state(self, comp: Component) -> str:
        return "on" if isinstance(comp, Diode) else "active"

    def _exhaustive(self) -> OperatingPoint:
        if len(self._nonlinear) > 10:
            raise SimulationError(
                f"{self.circuit.name}: state iteration diverged and "
                f"{len(self._nonlinear)} nonlinear devices is too many to enumerate"
            )
        options = [
            ("on", "off") if isinstance(c, Diode) else ("active", "cutoff", "saturation")
            for c in self._nonlinear
        ]
        for combo in itertools.product(*options):
            states = {c.name: s for c, s in zip(self._nonlinear, combo)}
            solution = self._solve_linear(states)
            if solution is None:
                continue
            if not self._violations(states, solution):
                return self._operating_point(states, solution)
        raise SimulationError(f"{self.circuit.name}: no consistent operating point")

    # ------------------------------------------------------------------
    # Linear system assembly
    # ------------------------------------------------------------------
    def _branch_layout(self, states: Dict[str, str]) -> Dict[str, int]:
        """Extra unknowns: one per independent/controlled voltage branch."""
        layout: Dict[str, int] = {}

        def claim(key: str) -> None:
            layout[key] = len(self._nets) + len(layout)

        for comp in self.circuit.components:
            if isinstance(comp, VoltageSource):
                claim(comp.name)
            elif isinstance(comp, Amplifier):
                claim(comp.name)
            elif isinstance(comp, Diode) and states[comp.name] == "on":
                claim(comp.name)
            elif isinstance(comp, BJT):
                state = states[comp.name]
                if state in ("active", "saturation"):
                    claim(f"{comp.name}.be")
                if state == "saturation":
                    claim(f"{comp.name}.ce")
        return layout

    def _solve_linear(self, states: Dict[str, str]) -> Optional[Dict[str, float]]:
        layout = self._branch_layout(states)
        size = len(self._nets) + len(layout)
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)

        idx = self._net_index

        def node(net: Net) -> Optional[int]:
            return None if net.is_ground else idx[net.name]

        def stamp_conductance(a: Net, b: Net, g: float) -> None:
            ia, ib = node(a), node(b)
            if ia is not None:
                matrix[ia, ia] += g
            if ib is not None:
                matrix[ib, ib] += g
            if ia is not None and ib is not None:
                matrix[ia, ib] -= g
                matrix[ib, ia] -= g

        def stamp_branch_kcl(row: int, p: Net, n: Net) -> None:
            """Branch current (column ``row``) leaves ``p`` and enters ``n``."""
            ip, inn = node(p), node(n)
            if ip is not None:
                matrix[ip, row] += 1.0
            if inn is not None:
                matrix[inn, row] -= 1.0

        def stamp_voltage_eq(row: int, p: Net, n: Net, value: float) -> None:
            ip, inn = node(p), node(n)
            if ip is not None:
                matrix[row, ip] += 1.0
            if inn is not None:
                matrix[row, inn] -= 1.0
            rhs[row] += value

        # gmin leak on every net
        for i in range(len(self._nets)):
            matrix[i, i] += GMIN

        for comp in self.circuit.components:
            if isinstance(comp, Resistor):
                stamp_conductance(comp.net("a"), comp.net("b"), 1.0 / comp.resistance)
            elif isinstance(comp, Capacitor):
                continue  # open at DC
            elif isinstance(comp, VoltageSource):
                row = layout[comp.name]
                stamp_branch_kcl(row, comp.net("p"), comp.net("n"))
                stamp_voltage_eq(row, comp.net("p"), comp.net("n"), comp.voltage)
            elif isinstance(comp, CurrentSource):
                # Pushes `current` out of p into the external circuit
                # (i.e. the branch current flows n -> p inside the source).
                ip, inn = node(comp.net("p")), node(comp.net("n"))
                if ip is not None:
                    rhs[ip] += comp.current
                if inn is not None:
                    rhs[inn] -= comp.current
            elif isinstance(comp, Amplifier):
                # VCVS: V(out) = gain * V(in); output branch current unknown.
                row = layout[comp.name]
                stamp_branch_kcl(row, comp.net("out"), Net("0"))
                iout, iin = node(comp.net("out")), node(comp.net("inp"))
                if iout is not None:
                    matrix[row, iout] += 1.0
                if iin is not None:
                    matrix[row, iin] -= comp.gain
                # rhs stays 0
            elif isinstance(comp, Diode):
                if states[comp.name] == "on":
                    row = layout[comp.name]
                    stamp_branch_kcl(row, comp.net("anode"), comp.net("cathode"))
                    stamp_voltage_eq(
                        row, comp.net("anode"), comp.net("cathode"), comp.v_on
                    )
                # off: no stamp (gmin covers floating nets)
            elif isinstance(comp, BJT):
                state = states[comp.name]
                if state == "cutoff":
                    continue
                be_row = layout[f"{comp.name}.be"]
                stamp_branch_kcl(be_row, comp.net("b"), comp.net("e"))
                stamp_voltage_eq(be_row, comp.net("b"), comp.net("e"), comp.vbe_on)
                if state == "active":
                    # CCCS: Ic = beta * Ib from collector to emitter.
                    ic_from, ic_to = node(comp.net("c")), node(comp.net("e"))
                    if ic_from is not None:
                        matrix[ic_from, be_row] += comp.beta
                    if ic_to is not None:
                        matrix[ic_to, be_row] -= comp.beta
                else:  # saturation
                    ce_row = layout[f"{comp.name}.ce"]
                    stamp_branch_kcl(ce_row, comp.net("c"), comp.net("e"))
                    stamp_voltage_eq(
                        ce_row, comp.net("c"), comp.net("e"), comp.vce_sat
                    )
            else:
                raise SimulationError(
                    f"{self.circuit.name}: cannot simulate component kind "
                    f"{comp.kind}"
                )

        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(solution)):
            return None
        values = {net.name: float(solution[i]) for net, i in zip(self._nets, range(len(self._nets)))}
        for key, row in layout.items():
            values[f"I({key})"] = float(solution[row])
        return values

    # ------------------------------------------------------------------
    # Region checks
    # ------------------------------------------------------------------
    def _violations(
        self, states: Dict[str, str], sol: Dict[str, float]
    ) -> Dict[str, str]:
        def v(net: Net) -> float:
            return 0.0 if net.is_ground else sol[net.name]

        flips: Dict[str, str] = {}
        for comp in self._nonlinear:
            if isinstance(comp, Diode):
                vd = v(comp.net("anode")) - v(comp.net("cathode"))
                if states[comp.name] == "on":
                    if sol[f"I({comp.name})"] < -_TOL:
                        flips[comp.name] = "off"
                else:
                    if vd > comp.v_on + _TOL:
                        flips[comp.name] = "on"
            else:  # BJT
                state = states[comp.name]
                vbe = v(comp.net("b")) - v(comp.net("e"))
                vce = v(comp.net("c")) - v(comp.net("e"))
                if state == "cutoff":
                    if vbe > comp.vbe_on + _TOL:
                        flips[comp.name] = "active"
                elif state == "active":
                    ib = sol[f"I({comp.name}.be)"]
                    if ib < -_TOL:
                        flips[comp.name] = "cutoff"
                    elif vce < comp.vce_sat - _TOL:
                        flips[comp.name] = "saturation"
                else:  # saturation
                    ib = sol[f"I({comp.name}.be)"]
                    ic = sol[f"I({comp.name}.ce)"]
                    if ib < -_TOL:
                        flips[comp.name] = "cutoff"
                    elif ic > comp.beta * ib + _TOL:
                        flips[comp.name] = "active"
        return flips

    # ------------------------------------------------------------------
    def _operating_point(
        self, states: Dict[str, str], sol: Dict[str, float]
    ) -> OperatingPoint:
        def v(net: Net) -> float:
            return 0.0 if net.is_ground else sol[net.name]

        voltages = {net.name: sol[net.name] for net in self._nets}
        currents: Dict[str, float] = {}
        device_states: Dict[str, str] = {}
        for comp in self.circuit.components:
            if isinstance(comp, Resistor):
                currents[comp.name] = (
                    v(comp.net("a")) - v(comp.net("b"))
                ) / comp.resistance
            elif isinstance(comp, Capacitor):
                currents[comp.name] = 0.0
            elif isinstance(comp, (VoltageSource, Amplifier)):
                currents[comp.name] = sol[f"I({comp.name})"]
            elif isinstance(comp, CurrentSource):
                currents[comp.name] = comp.current
            elif isinstance(comp, Diode):
                state = states[comp.name]
                device_states[comp.name] = state
                currents[comp.name] = (
                    sol[f"I({comp.name})"] if state == "on" else 0.0
                )
            elif isinstance(comp, BJT):
                state = states[comp.name]
                device_states[comp.name] = state
                if state == "cutoff":
                    ib = ic = 0.0
                elif state == "active":
                    ib = sol[f"I({comp.name}.be)"]
                    ic = comp.beta * ib
                else:
                    ib = sol[f"I({comp.name}.be)"]
                    ic = sol[f"I({comp.name}.ce)"]
                currents[f"{comp.name}.b"] = ib
                currents[f"{comp.name}.c"] = ic
                currents[f"{comp.name}.e"] = ib + ic
        return OperatingPoint(voltages, currents, device_states)
