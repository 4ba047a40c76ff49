"""Analog-circuit substrate.

The paper diagnoses physical circuits; we synthesise their behaviour
with a small DC operating-point simulator (modified nodal analysis with
device-state iteration for diodes and BJTs), inject faults, and expose a
constraint-network view of each circuit that the FLAMES engine reasons
over.  The simulator and the diagnosis models are deliberately separate
code paths, mirroring the paper's separation between the unit under test
and its model database.
"""

from repro.circuit.netlist import Circuit, Component, Net, GROUND
from repro.circuit.components import (
    Amplifier,
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.circuit.simulate import DCSolver, OperatingPoint, SimulationError
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.measurements import Measurement, probe, probe_all
from repro.circuit.constraints import Constraint, ConstraintNetwork, Variable
from repro.circuit.library import (
    amplifier_cascade,
    diode_resistor_circuit,
    rc_lowpass,
    three_stage_amplifier,
)
from repro.circuit.transient import (
    TransientResult,
    TransientSolver,
    Waveform,
    step_waveform,
)
from repro.circuit.generators import (
    resistor_ladder,
    amplifier_chain,
    divider_tree,
    mesh_grid,
    bridge_cascade,
)
from repro.circuit.spice import NetlistError, parse_netlist, parse_value, write_netlist
from repro.circuit.analysis import (
    MonteCarloResult,
    WorstCaseResult,
    monte_carlo,
    worst_case,
)

__all__ = [
    "Circuit",
    "Component",
    "Net",
    "GROUND",
    "Resistor",
    "Capacitor",
    "Diode",
    "BJT",
    "Amplifier",
    "VoltageSource",
    "CurrentSource",
    "DCSolver",
    "OperatingPoint",
    "SimulationError",
    "Fault",
    "FaultKind",
    "apply_fault",
    "Measurement",
    "probe",
    "probe_all",
    "Constraint",
    "ConstraintNetwork",
    "Variable",
    "amplifier_cascade",
    "diode_resistor_circuit",
    "rc_lowpass",
    "three_stage_amplifier",
    "TransientResult",
    "TransientSolver",
    "Waveform",
    "step_waveform",
    "MonteCarloResult",
    "WorstCaseResult",
    "monte_carlo",
    "worst_case",
    "NetlistError",
    "parse_netlist",
    "parse_value",
    "write_netlist",
    "resistor_ladder",
    "amplifier_chain",
    "divider_tree",
    "mesh_grid",
    "bridge_cascade",
]
