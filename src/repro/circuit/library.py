"""The paper's circuits.

* :func:`amplifier_cascade` — figure 2's three cascaded gain blocks
  (A -> amp1 -> B, B -> amp2 -> C, B -> amp3 -> D).
* :func:`diode_resistor_circuit` — figure 5's diode + two resistors
  (the DIANA comparison example).
* :func:`three_stage_amplifier` — figure 6's three-stage BJT amplifier.
  The schematic itself is a drawing we do not have; the component values
  and device parameters are published, and the paper states every
  transistor operates in the linear region.  We reconstruct the wiring
  accordingly (see DESIGN.md): T1 is an emitter follower biased by the
  R1/R3 divider with R2 as emitter load (V1 at the emitter), T2 a
  common-emitter stage (R4 collector load — V2 — and R5 emitter
  degeneration), T3 an output emitter follower loaded by R6 (Vs at the
  emitter).  All three transistors verify active-region operation under
  DC simulation with the published values.
"""

from __future__ import annotations

from repro.circuit.components import (
    Amplifier,
    BJT,
    Capacitor,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit, GROUND

__all__ = [
    "amplifier_cascade",
    "diode_resistor_circuit",
    "three_stage_amplifier",
    "rc_lowpass",
    "THREE_STAGE_PROBES",
]

#: The probe points figure 7 reports on, output first.
THREE_STAGE_PROBES = ("vs", "v2", "v1")
#: Relative tolerance of every component value in the paper's circuits.
TOLERANCE = 0.05
#: Relative tolerance of figure 6's transistor betas.
BETA_TOLERANCE = 0.1
#: Figure 2's source voltage at A.
CASCADE_INPUT = 3.0
#: Figure 6's supply.
VCC = 18.0
#: Per-stage resistance and capacitance of the RC low-pass ladder.
RC_RESISTANCE = 1e3
RC_CAPACITANCE = 1e-6


def amplifier_cascade() -> Circuit:
    """Figure 2: three ideal gain blocks with +/-`TOLERANCE` fuzzy gains.

    Topology (from the figure's values): the source drives A; amp1 (gain
    1) produces B; amp2 (gain 2) and amp3 (gain 3) both read B, producing
    C = 6 V and D = 9 V at nominal.
    """
    ckt = Circuit("amplifier-cascade", description="figure 2 gain cascade")
    ckt.add(VoltageSource("Va", CASCADE_INPUT, p="a", n=GROUND))
    ckt.add(Amplifier("amp1", 1.0, TOLERANCE, inp="a", out="b"))
    ckt.add(Amplifier("amp2", 2.0, TOLERANCE, inp="b", out="c"))
    ckt.add(Amplifier("amp3", 3.0, TOLERANCE, inp="b", out="d"))
    return ckt


def diode_resistor_circuit() -> Circuit:
    """Figure 5: Vin -> r1 -> n1 -> d1 -> n2 -> r2 -> ground.

    The paper measures Vr1 = 1.05 V, Vd1 = 0.2 V, Vr2 = 2 V — the diode
    sits below threshold, so its model only bounds the current
    (``Id <= 100 uA`` as the fuzzy set [-1, 100, 0, 10] uA).  The input
    source value (3.25 V nominal) follows from the published drops.

    Component values are *crisp* (zero tolerance), matching the paper's
    treatment of this example: the only fuzziness is in the diode's
    current bound, so ``Ir1 = 105 uA`` yields exactly the published
    membership degree of 0.5.
    """
    ckt = Circuit("diode-resistor", description="figure 5 DIANA example")
    ckt.add(VoltageSource("Vin", 3.25, p="vin", n=GROUND))
    ckt.add(Resistor("r1", 10e3, 0.0, a="vin", b="n1"))
    ckt.add(
        Diode("d1", v_on=0.6, leak_bound=100e-6, leak_soft=10e-6,
              tolerance=0.0, anode="n1", cathode="n2")
    )
    ckt.add(Resistor("r2", 10e3, 0.0, a="n2", b=GROUND))
    return ckt


def three_stage_amplifier() -> Circuit:
    """Figure 6: the three-stage amplifier with the published values.

    Vcc = 18 V; R1 = 200k, R2 = 12k, R3 = 24k, R4 = 3k, R5 = 2.2k,
    R6 = 1.8k; Vbe = 0.7 V; beta1/2/3 = 300/200/100.  Probe points:
    V1 (stage-1 output), V2 (stage-2 output), Vs (final output).
    """
    ckt = Circuit("three-stage-amplifier", description="figure 6 unit under test")
    ckt.add(VoltageSource("Vcc", VCC, p="vcc", n=GROUND))
    # Stage 1: emitter follower biased by the R1/R3 divider.
    ckt.add(Resistor("R1", 200e3, TOLERANCE, a="vcc", b="n1"))
    ckt.add(Resistor("R3", 24e3, TOLERANCE, a="n1", b=GROUND))
    ckt.add(BJT("T1", beta=300.0, beta_tolerance=BETA_TOLERANCE, c="vcc", b="n1", e="v1"))
    ckt.add(Resistor("R2", 12e3, TOLERANCE, a="v1", b=GROUND))
    # Stage 2: common emitter with degeneration.
    ckt.add(Resistor("R4", 3e3, TOLERANCE, a="vcc", b="v2"))
    ckt.add(BJT("T2", beta=200.0, beta_tolerance=BETA_TOLERANCE, c="v2", b="v1", e="n2"))
    ckt.add(Resistor("R5", 2.2e3, TOLERANCE, a="n2", b=GROUND))
    # Stage 3: output emitter follower.
    ckt.add(BJT("T3", beta=100.0, beta_tolerance=BETA_TOLERANCE, c="vcc", b="v2", e="vs"))
    ckt.add(Resistor("R6", 1.8e3, TOLERANCE, a="vs", b=GROUND))
    return ckt


def rc_lowpass(stages: int = 2) -> Circuit:
    """An RC low-pass ladder — the dynamic-mode workload.

    Each stage is a series resistor into a shunt capacitor; probe nets
    are ``m1 .. m<stages>``.  A capacitor fault here is invisible at DC
    (capacitors are open at the operating point) and only the transient
    engine can implicate it, which is exactly the experiment the paper's
    "dynamic mode" remark calls for.
    """
    if stages < 1:
        raise ValueError("need at least one RC stage")
    ckt = Circuit(f"rc-lowpass-{stages}", description="dynamic-mode workload")
    # The source idles at the post-step level so the *static* engine sees
    # the settled state; the dynamic driver overrides it with the step
    # waveform during transient runs.
    ckt.add(VoltageSource("Vin", 5.0, p="in", n=GROUND))
    prev = "in"
    for i in range(1, stages + 1):
        node = f"m{i}"
        ckt.add(Resistor(f"R{i}", RC_RESISTANCE, TOLERANCE, a=prev, b=node))
        ckt.add(Capacitor(f"C{i}", RC_CAPACITANCE, TOLERANCE, a=node, b=GROUND))
        prev = node
    return ckt
