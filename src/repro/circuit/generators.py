"""Parametric circuit families for the scaling and strategy studies.

The paper claims fuzzy intervals "avoid possible explosions either in
treating tolerances or in sets of candidates"; these generators produce
circuits of controlled size so the benchmarks can sweep circuit size and
measure value spread, nogood counts and candidate counts for the crisp
and fuzzy engines.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.circuit.components import Amplifier, Resistor, VoltageSource
from repro.circuit.netlist import Circuit, GROUND

__all__ = [
    "resistor_ladder",
    "amplifier_chain",
    "divider_tree",
    "mesh_grid",
    "bridge_cascade",
]

#: Relative tolerance of every generated resistor and gain.
TOLERANCE = 0.05
#: Source voltage of the ladder, mesh and bridge families.
SUPPLY = 10.0
#: Source voltage at the root of the divider tree.
TREE_SUPPLY = 12.0
#: Input voltage of the amplifier chain.
CHAIN_INPUT = 1.0


def _pick(rng: Optional[random.Random], nominal: float, lo: float, hi: float) -> float:
    """Nominal when unseeded, a draw from [lo, hi] when ``rng`` is given."""
    return nominal if rng is None else rng.uniform(lo, hi)


def resistor_ladder(
    sections: int,
    rng: Optional[random.Random] = None,
) -> Circuit:
    """An R-2R-style ladder with ``sections`` series/shunt pairs.

    Nets are ``n1 .. n<sections>``; probe any of them.  Resistances are
    drawn from a decade around 10 kOhm when ``rng`` is given, otherwise
    fixed at 10k/20k so results are deterministic.
    """
    if sections < 1:
        raise ValueError("need at least one ladder section")
    ckt = Circuit(f"ladder-{sections}")
    ckt.add(VoltageSource("Vin", SUPPLY, p="in", n=GROUND))
    prev = "in"
    for i in range(1, sections + 1):
        node = f"n{i}"
        series = 10e3 if rng is None else rng.uniform(5e3, 50e3)
        shunt = 20e3 if rng is None else rng.uniform(5e3, 50e3)
        ckt.add(Resistor(f"Rs{i}", series, TOLERANCE, a=prev, b=node))
        ckt.add(Resistor(f"Rp{i}", shunt, TOLERANCE, a=node, b=GROUND))
        prev = node
    return ckt


def amplifier_chain(
    stages: int,
    rng: Optional[random.Random] = None,
) -> Circuit:
    """A single-path chain of gain blocks (the paper's "single path" shape).

    Gains default to an alternating 2.0 / 0.5 pattern to keep voltages
    bounded; with ``rng`` they are drawn in [0.5, 2.0].
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    ckt = Circuit(f"amp-chain-{stages}")
    ckt.add(VoltageSource("Vin", CHAIN_INPUT, p="s0", n=GROUND))
    for i in range(1, stages + 1):
        gain = (2.0 if i % 2 else 0.5) if rng is None else rng.uniform(0.5, 2.0)
        ckt.add(Amplifier(f"amp{i}", gain, TOLERANCE, inp=f"s{i-1}", out=f"s{i}"))
    return ckt


def divider_tree(
    depth: int,
    rng: Optional[random.Random] = None,
) -> Circuit:
    """A binary tree of voltage dividers (multiple interacting paths).

    Each level halves the parent voltage through a 10k/10k divider; the
    tree has ``2**depth - 1`` internal nodes, exercising candidate
    generation with overlapping support sets.  With ``rng`` the divider
    resistances are drawn from a decade around 10 kOhm.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    ckt = Circuit(f"divider-tree-{depth}")
    ckt.add(VoltageSource("Vin", TREE_SUPPLY, p="t", n=GROUND))
    counter = [0]

    def grow(parent: str, level: int) -> None:
        if level >= depth:
            return
        for side in ("l", "r"):
            counter[0] += 1
            node = f"{parent}{side}"
            upper = _pick(rng, 10e3, 5e3, 50e3)
            lower = _pick(rng, 10e3, 5e3, 50e3)
            ckt.add(Resistor(f"Ra{counter[0]}", upper, TOLERANCE, a=parent, b=node))
            ckt.add(Resistor(f"Rb{counter[0]}", lower, TOLERANCE, a=node, b=GROUND))
            grow(node, level + 1)

    grow("t", 0)
    return ckt


def mesh_grid(
    rows: int,
    cols: int,
    rng: Optional[random.Random] = None,
) -> Circuit:
    """A ``rows x cols`` resistive mesh (the many-loop stress shape).

    Nodes are ``m<r>c<c>``; horizontal resistors ``Rh*`` and vertical
    resistors ``Rv*`` join lattice neighbours, the supply drives the
    ``m0c0`` corner and ``Rload`` returns the far corner to ground.
    Every interior node sits on at least two loops, so supports overlap
    heavily and conflict localisation is genuinely hard.
    """
    if rows < 2 or cols < 2:
        raise ValueError("mesh needs at least 2x2 nodes")
    ckt = Circuit(f"mesh-{rows}x{cols}")

    def node(r: int, c: int) -> str:
        return f"m{r}c{c}"

    ckt.add(VoltageSource("Vin", SUPPLY, p=node(0, 0), n=GROUND))
    counter = 0
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                counter += 1
                ckt.add(Resistor(f"Rh{counter}", _pick(rng, 10e3, 5e3, 50e3),
                                 TOLERANCE, a=node(r, c), b=node(r, c + 1)))
            if r + 1 < rows:
                counter += 1
                ckt.add(Resistor(f"Rv{counter}", _pick(rng, 10e3, 5e3, 50e3),
                                 TOLERANCE, a=node(r, c), b=node(r + 1, c)))
    ckt.add(Resistor("Rload", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                     a=node(rows - 1, cols - 1), b=GROUND))
    return ckt


def bridge_cascade(
    sections: int,
    rng: Optional[random.Random] = None,
) -> Circuit:
    """A chain of loaded Wheatstone bridges.

    Section ``i`` splits its input ``b<i-1>`` into two divider arms
    (``Ra``/``Rb`` to ``x<i>``, ``Rc``/``Rd`` to ``y<i>``) tied by the
    bridge resistor ``Re<i>``; ``Rf<i>`` couples ``x<i>`` into the next
    section.  Bridges are the classic "balanced measurements hide the
    defect" topology, so probing both arms is required to localise.
    """
    if sections < 1:
        raise ValueError("need at least one bridge section")
    ckt = Circuit(f"bridge-{sections}")
    ckt.add(VoltageSource("Vin", SUPPLY, p="b0", n=GROUND))
    for i in range(1, sections + 1):
        ckt.add(Resistor(f"Ra{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"b{i-1}", b=f"x{i}"))
        ckt.add(Resistor(f"Rb{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"x{i}", b=GROUND))
        ckt.add(Resistor(f"Rc{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"b{i-1}", b=f"y{i}"))
        ckt.add(Resistor(f"Rd{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"y{i}", b=GROUND))
        ckt.add(Resistor(f"Re{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"x{i}", b=f"y{i}"))
        ckt.add(Resistor(f"Rf{i}", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                         a=f"x{i}", b=f"b{i}"))
    ckt.add(Resistor("Rload", _pick(rng, 10e3, 5e3, 50e3), TOLERANCE,
                     a=f"b{sections}", b=GROUND))
    return ckt
