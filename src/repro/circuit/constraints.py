"""Constraint-network view of a circuit: the model database (paper §6.2).

Every component contributes *correct-behaviour* constraints guarded by
the propositional assumption ``Correct(component)``; Kirchhoff's current
law is applied at every net (unguarded by default — wiring is trusted
unless ``assumable_nodes`` is set, in which case each net's KCL carries
its own assumption and wiring faults become diagnosable).

Constraints are bidirectional: each can solve for any of its variables
given fuzzy values for the others, which is what lets the propagation
engine reason from measurements *backwards* through the models.

Nonlinear devices (diode, BJT) contribute *modal* constraints: the
equation set depends on the operating region, and the region test reads
the best current estimate of the controlling voltage (the paper's
qualitative rule "If T is correct and Vbe(T) >= 0.4 then it should be in
an ON state" is exactly such a mode guard).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.circuit.components import (
    Amplifier,
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit, Net
from repro.fuzzy import FuzzyInterval
from repro.fuzzy.interval import _interval_mul

__all__ = ["Variable", "Constraint", "ConstraintNetwork", "ModeGuard"]

#: The implicit ``x_minus`` of a one-sided :class:`ScaledDifferenceConstraint`.
_ZERO = FuzzyInterval.crisp(0.0)

#: Default physical seed bounds.
VOLTAGE_RAIL = 60.0
CURRENT_RAIL = 10.0

#: Vbe level separating cutoff from conduction in the mode guard —
#: the paper's published qualitative threshold.
VBE_GUARD = 0.4
#: Vbe level above which conduction is entailed regardless of the
#: designed mode (comfortably past the guard so tolerances cannot flip
#: a healthy device).
VBE_ENTAIL_ON = 0.55
#: Vce margin around vce_sat for saturation entailment.
VCE_SAT_MARGIN = 0.1


@dataclass(frozen=True)
class Variable:
    """A circuit quantity: a node voltage or a branch current."""

    name: str
    kind: str  # "voltage" | "current"

    @property
    def seed(self) -> FuzzyInterval:
        """Physically justified initial range (assumption-free)."""
        rail = VOLTAGE_RAIL if self.kind == "voltage" else CURRENT_RAIL
        return FuzzyInterval.crisp_interval(-rail, rail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: A mode guard inspects current best estimates and decides whether a
#: modal constraint applies right now.  Estimates may be plain
#: ``FuzzyInterval`` values or propagation values carrying ``.interval``
#: and ``.environment``.  A guard returns either a bare bool or a
#: ``(applicable, evidence_env)`` pair: when evidence *overrides* the
#: designed operating region, the assumptions that evidence rests on
#: must travel with every value the activated constraints derive —
#: otherwise a mode flip inferred from (say) a nominal prediction would
#: blame the device alone for conflicts the prediction's components
#: caused.
ModeGuard = Callable[[Dict[str, object]], "bool | Tuple[bool, FrozenSet[str]]"]


def _estimate_interval(estimate: object) -> Optional[FuzzyInterval]:
    if estimate is None:
        return None
    if isinstance(estimate, FuzzyInterval):
        return estimate
    return getattr(estimate, "interval", None)


def _estimate_environment(estimate: object) -> FrozenSet[str]:
    return getattr(estimate, "environment", frozenset())


class Constraint:
    """Base: a relation over variables, guarded by assumptions.

    Subclasses implement :meth:`project`, computing the target variable's
    value from fuzzy values of the remaining variables (``None`` when the
    direction is not invertible).
    """

    def __init__(
        self,
        name: str,
        variables: Sequence[Variable],
        assumptions: FrozenSet[str] = frozenset(),
        guard: Optional[ModeGuard] = None,
        guard_variables: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.variables = tuple(variables)
        self.assumptions = frozenset(assumptions)
        self.guard = guard
        #: Variables the mode guard reads; changes to them must re-trigger
        #: this constraint even when they are not among its own variables.
        self.guard_variables = tuple(guard_variables)

    def applicable_with_environment(
        self, estimates: Dict[str, object]
    ) -> Tuple[bool, FrozenSet[str]]:
        """(applicable, evidence env the guard's decision rests on)."""
        if self.guard is None:
            return True, frozenset()
        outcome = self.guard(estimates)
        if isinstance(outcome, tuple):
            return bool(outcome[0]), frozenset(outcome[1])
        return bool(outcome), frozenset()

    def project(
        self, target: Variable, values: Dict[str, FuzzyInterval]
    ) -> Optional[FuzzyInterval]:
        raise NotImplementedError

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}>"


class LinearConstraint(Constraint):
    """``sum_i coef_i * x_i = rhs`` with crisp coefficients, fuzzy rhs."""

    def __init__(
        self,
        name: str,
        terms: Dict[Variable, float],
        rhs: FuzzyInterval,
        assumptions: FrozenSet[str] = frozenset(),
        guard: Optional[ModeGuard] = None,
        guard_variables: Sequence[str] = (),
    ) -> None:
        if not terms:
            raise ValueError(f"{name}: a linear constraint needs terms")
        if any(c == 0.0 for c in terms.values()):
            raise ValueError(f"{name}: zero coefficient")
        super().__init__(name, list(terms), assumptions, guard, guard_variables)
        self.terms = {v.name: c for v, c in terms.items()}
        self.rhs = rhs

    def project(self, target, values):
        """``(rhs - sum of the other c_i * x_i) / coef`` in one interval.

        Runs exactly the float operations of the chained
        ``acc - values[name].scale(c)`` form on the four fields and
        builds (and validates) one interval at the end.  For valid
        operands the chain's intermediates are already normal (rounding
        is monotone, so ``m1 - c*m2 <= m2 - c*m1``, and slope sums stay
        non-negative), so skipping them changes no bit; an overflow
        stays non-finite and is rejected by the final constructor.
        """
        tname = target.name
        rhs = self.rhs
        m1, m2, alpha, beta = rhs.m1, rhs.m2, rhs.alpha, rhs.beta
        for name, c in self.terms.items():
            if name == tname:
                continue
            x = values[name]
            if c >= 0:
                m1, m2 = m1 - c * x.m2, m2 - c * x.m1
                alpha, beta = alpha + c * x.beta, beta + c * x.alpha
            else:
                m1, m2 = m1 - c * x.m1, m2 - c * x.m2
                alpha, beta = alpha + -c * x.alpha, beta + -c * x.beta
        k = 1.0 / self.terms[tname]
        if k >= 0:
            return FuzzyInterval(k * m1, k * m2, k * alpha, k * beta)
        return FuzzyInterval(k * m2, k * m1, -k * beta, -k * alpha)


class ScaledDifferenceConstraint(Constraint):
    """``x_plus - x_minus = k * y`` with fuzzy coefficient ``k``.

    Covers Ohm's law (``Va - Vb = R*I``), gain blocks
    (``Vout - 0 = A*Vin``) and the BJT current gain (``Ic = beta*Ib``).
    ``x_minus`` may be ``None`` (treated as zero).
    """

    def __init__(
        self,
        name: str,
        x_plus: Variable,
        x_minus: Optional[Variable],
        y: Variable,
        k: FuzzyInterval,
        assumptions: FrozenSet[str] = frozenset(),
        guard: Optional[ModeGuard] = None,
        guard_variables: Sequence[str] = (),
    ) -> None:
        variables = [x_plus] + ([x_minus] if x_minus else []) + [y]
        super().__init__(name, variables, assumptions, guard, guard_variables)
        self.x_plus = x_plus
        self.x_minus = x_minus
        self.y = y
        self.k = k
        self._k_core = k.core
        self._k_support = k.support
        k_lo, k_hi = self._k_support
        self._k_invertible = not (k_lo <= 0.0 <= k_hi)

    def project(self, target, values):
        """Solve for ``target``; the ``k * y`` directions build one interval.

        ``x -/+ k * y`` runs the float operations of the chained form
        (``FuzzyInterval.__mul__``, then ``-`` or ``+``) on the fields.
        The product's ``from_support_core`` clamp and collapse never
        fire for valid operands: the core is nested in the support, the
        exact product is inclusion-monotone, and rounding is monotone,
        so the rounded core products lie within the rounded support
        products.  An overflow leaves a non-finite field that the final
        constructor rejects, as the chain's intermediate would.
        """
        name = target.name
        minus = self.x_minus
        to_minus = minus is not None and name == minus.name
        if to_minus or name == self.x_plus.name:
            y = values[self.y.name]
            c_lo, c_hi = _interval_mul(self._k_core, (y.m1, y.m2))
            s_lo, s_hi = _interval_mul(self._k_support, (y.m1 - y.alpha, y.m2 + y.beta))
            p_alpha, p_beta = c_lo - s_lo, s_hi - c_hi
            if to_minus:
                x = values[self.x_plus.name]
                return FuzzyInterval(
                    x.m1 - c_hi, x.m2 - c_lo, x.alpha + p_beta, x.beta + p_alpha
                )
            x = values[minus.name] if minus is not None else _ZERO
            return FuzzyInterval(
                x.m1 + c_lo, x.m2 + c_hi, x.alpha + p_alpha, x.beta + p_beta
            )
        if name == self.y.name:
            if not self._k_invertible:
                return None
            x = values[minus.name] if minus is not None else _ZERO
            return (values[self.x_plus.name] - x) / self.k
        raise KeyError(f"{name} not in {self.name}")


class RangeConstraint(Constraint):
    """``x in interval`` — a one-variable model prediction.

    The diode's sub-threshold current bound (the paper's
    ``Id <= 100 uA`` as ``[-1, 100, 0, 10]``) is the canonical instance.
    """

    def __init__(
        self,
        name: str,
        variable: Variable,
        interval: FuzzyInterval,
        assumptions: FrozenSet[str] = frozenset(),
        guard: Optional[ModeGuard] = None,
        guard_variables: Sequence[str] = (),
    ) -> None:
        super().__init__(name, [variable], assumptions, guard, guard_variables)
        self.interval = interval

    def project(self, target, values):
        return self.interval


def _estimate_difference(
    estimates: Dict[str, object], hi: str, lo: str
) -> Optional[Tuple[FuzzyInterval, FrozenSet[str]]]:
    raw_a, raw_b = estimates.get(hi), estimates.get(lo)
    a, b = _estimate_interval(raw_a), _estimate_interval(raw_b)
    if a is None or b is None:
        return None
    env = _estimate_environment(raw_a) | _estimate_environment(raw_b)
    return a - b, env


def _bjt_conducting(b: str, e: str, nominal_conducting: bool) -> ModeGuard:
    """Conducting-mode guard: the designed region unless evidence entails
    otherwise.

    A modal constraint must only fire when its mode actually holds;
    applying a merely *possible* mode is unsound (both diode modes firing
    at once contradicts every circuit).  The designed (nominal) operating
    region is part of the model database; current value estimates can
    override it only when they confidently entail the other region.
    """

    def guard(estimates: Dict[str, object]):
        pair = _estimate_difference(estimates, b, e)
        if pair is None:
            return nominal_conducting, frozenset()
        vbe, env = pair
        if vbe.support[1] < VBE_GUARD:
            # Entailed cutoff (paper's Vbe >= 0.4 rule, negated); the env
            # matters to the *cutoff* constraints, not the disabled ones.
            return False, env
        if vbe.support[0] >= VBE_ENTAIL_ON:
            return True, (frozenset() if nominal_conducting else env)
        return nominal_conducting, frozenset()

    return guard


def _bjt_cutoff(b: str, e: str, nominal_conducting: bool) -> ModeGuard:
    conducting = _bjt_conducting(b, e, nominal_conducting)

    def guard(estimates: Dict[str, object]):
        ok, env = conducting(estimates)
        return (not ok), env

    return guard


def _bjt_saturated(
    c: str, e: str, vce_sat: float, nominal_saturated: bool
) -> ModeGuard:
    """Saturation guard: designed region unless Vce evidence overrides.

    In saturation ``Ic < beta*Ib`` — the linear current-gain relation no
    longer holds — so the Beta constraints must switch off the moment
    the collector-emitter voltage is confidently pinned near ``vce_sat``
    (the classic trap: a fault elsewhere saturates a healthy transistor
    and an active-only model would condemn it).
    """

    def guard(estimates: Dict[str, object]):
        pair = _estimate_difference(estimates, c, e)
        if pair is None:
            return nominal_saturated, frozenset()
        vce, env = pair
        if vce.support[1] < vce_sat + VCE_SAT_MARGIN:
            return True, (frozenset() if nominal_saturated else env)
        if vce.support[0] > vce_sat + VCE_SAT_MARGIN:
            return False, env
        return nominal_saturated, frozenset()

    return guard


def _diode_conducting(a: str, c: str, v_on: float, nominal_on: bool) -> ModeGuard:
    def guard(estimates: Dict[str, object]):
        pair = _estimate_difference(estimates, a, c)
        if pair is None:
            return nominal_on, frozenset()
        vd, env = pair
        if vd.support[1] < v_on - 0.1:
            return False, env  # entailed blocking
        if vd.support[0] >= v_on - 0.05:
            return True, (frozenset() if nominal_on else env)
        return nominal_on, frozenset()

    return guard


def _diode_blocking(a: str, c: str, v_on: float, nominal_on: bool) -> ModeGuard:
    conducting = _diode_conducting(a, c, v_on, nominal_on)

    def guard(estimates: Dict[str, object]):
        ok, env = conducting(estimates)
        return (not ok), env

    return guard


class ConstraintNetwork:
    """Variables + constraints + assumption inventory for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        assumable_nodes: bool = False,
        nominal_modes: Optional[Mapping[str, str]] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.assumable_nodes = assumable_nodes
        #: Designed operating region per nonlinear device ("active" /
        #: "cutoff" / "saturation" for BJTs, "on" / "off" for diodes).
        #: Defaults to the conducting region, which is what well-biased
        #: analog circuits are designed for; :class:`repro.core.diagnosis.
        #: Flames` fills this from a golden DC solve.
        self.nominal_modes = dict(nominal_modes or {})
        self.variables: Dict[str, Variable] = {}
        self.constraints: List[Constraint] = []
        self._build()

    # ------------------------------------------------------------------
    def voltage(self, net: "Net | str") -> Variable:
        name = net.name if isinstance(net, Net) else net
        return self._var(f"V({name})", "voltage")

    def current(self, component: str, terminal: str = "") -> Variable:
        key = f"I({component}.{terminal})" if terminal else f"I({component})"
        return self._var(key, "current")

    def _var(self, name: str, kind: str) -> Variable:
        if name not in self.variables:
            self.variables[name] = Variable(name, kind)
        return self.variables[name]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for comp in self.circuit.components:
            builder = getattr(self, f"_build_{comp.kind.lower()}", None)
            if builder is None:
                raise ValueError(f"no diagnosis model for component kind {comp.kind}")
            builder(comp)
        self._build_kcl()

    def _build_kcl(self) -> None:
        """One current-law constraint per non-ground net."""
        for net in self.circuit.non_ground_nets:
            terms: Dict[Variable, float] = {}
            for comp, pin in self.circuit.components_on(net):
                var, sign = self._pin_current(comp, pin)
                if var is None:
                    continue
                terms[var] = terms.get(var, 0.0) + sign
            terms = {v: c for v, c in terms.items() if c != 0.0}
            if not terms:
                continue
            assumptions = frozenset({f"node:{net.name}"}) if self.assumable_nodes else frozenset()
            self.constraints.append(
                LinearConstraint(
                    f"KCL({net.name})", terms, FuzzyInterval.crisp(0.0), assumptions
                )
            )

    def _pin_current(self, comp, pin: str):
        """(variable, sign) of the current *leaving the net* into ``comp``."""
        if isinstance(comp, Resistor):
            return self.current(comp.name), (1.0 if pin == "a" else -1.0)
        if isinstance(comp, Capacitor):
            return None, 0.0  # open at DC
        if isinstance(comp, (VoltageSource, CurrentSource)):
            return self.current(comp.name), (1.0 if pin == "p" else -1.0)
        if isinstance(comp, Diode):
            return self.current(comp.name), (1.0 if pin == "anode" else -1.0)
        if isinstance(comp, BJT):
            # Ib and Ic flow into the device, Ie flows out of it.
            if pin == "b":
                return self.current(comp.name, "b"), 1.0
            if pin == "c":
                return self.current(comp.name, "c"), 1.0
            return self.current(comp.name, "e"), -1.0
        if isinstance(comp, Amplifier):
            if pin == "inp":
                return None, 0.0  # infinite input impedance
            return self.current(comp.name), 1.0  # free output current
        raise ValueError(f"unknown component kind {comp.kind}")

    # ------------------------------------------------------------------
    # Per-component models
    # ------------------------------------------------------------------
    def _build_resistor(self, comp: Resistor) -> None:
        r = comp.fuzzy_params()["resistance"]
        self.constraints.append(
            ScaledDifferenceConstraint(
                f"Ohm({comp.name})",
                self.voltage(comp.net("a")),
                self.voltage(comp.net("b")),
                self.current(comp.name),
                r,
                frozenset({comp.name}),
            )
        )

    def _build_capacitor(self, comp: Capacitor) -> None:
        # Open at DC: no constraint ties its pins; its correctness is not
        # testable from DC measurements.
        return

    def _build_voltagesource(self, comp: VoltageSource) -> None:
        v = comp.fuzzy_params()["voltage"]
        self.constraints.append(
            LinearConstraint(
                f"Source({comp.name})",
                {self.voltage(comp.net("p")): 1.0, self.voltage(comp.net("n")): -1.0},
                v,
                frozenset({comp.name}),
            )
        )

    def _build_currentsource(self, comp: CurrentSource) -> None:
        # The network's I() is the p->n branch current, while the source
        # pushes `current` internally n->p, hence the negation.
        i = comp.fuzzy_params()["current"].scale(-1.0)
        self.constraints.append(
            RangeConstraint(
                f"Source({comp.name})",
                self.current(comp.name),
                i,
                frozenset({comp.name}),
            )
        )

    def _build_amplifier(self, comp: Amplifier) -> None:
        gain = comp.fuzzy_params()["gain"]
        self.constraints.append(
            ScaledDifferenceConstraint(
                f"Gain({comp.name})",
                self.voltage(comp.net("out")),
                None,
                self.voltage(comp.net("inp")),
                gain,
                frozenset({comp.name}),
            )
        )

    def _build_diode(self, comp: Diode) -> None:
        params = comp.fuzzy_params()
        a = self.voltage(comp.net("anode"))
        c = self.voltage(comp.net("cathode"))
        i = self.current(comp.name)
        nominal_on = self.nominal_modes.get(comp.name, "on") == "on"
        conducting = _diode_conducting(a.name, c.name, comp.v_on, nominal_on)
        blocking = _diode_blocking(a.name, c.name, comp.v_on, nominal_on)
        gvars = (a.name, c.name)
        # Conducting: a fixed junction drop.
        self.constraints.append(
            LinearConstraint(
                f"DiodeOn({comp.name})",
                {a: 1.0, c: -1.0},
                params["v_on"],
                frozenset({comp.name}),
                guard=conducting,
                guard_variables=gvars,
            )
        )
        # Blocking / sub-threshold: the fuzzy leak bound on current.
        self.constraints.append(
            RangeConstraint(
                f"DiodeLeak({comp.name})",
                i,
                params["leak"],
                frozenset({comp.name}),
                guard=blocking,
                guard_variables=gvars,
            )
        )

    def _build_bjt(self, comp: BJT) -> None:
        params = comp.fuzzy_params()
        vb = self.voltage(comp.net("b"))
        ve = self.voltage(comp.net("e"))
        vc = self.voltage(comp.net("c"))
        ib = self.current(comp.name, "b")
        ic = self.current(comp.name, "c")
        ie = self.current(comp.name, "e")
        asm = frozenset({comp.name})
        mode = self.nominal_modes.get(comp.name, "active")
        nominal_conducting = mode != "cutoff"
        conducting = _bjt_conducting(vb.name, ve.name, nominal_conducting)
        cutoff = _bjt_cutoff(vb.name, ve.name, nominal_conducting)
        saturated = _bjt_saturated(
            vc.name, ve.name, comp.vce_sat, mode == "saturation"
        )
        gvars = (vb.name, ve.name, vc.name)

        def linear(estimates):
            ok_conducting, env_conducting = conducting(estimates)
            ok_saturated, env_saturated = saturated(estimates)
            return (
                ok_conducting and not ok_saturated,
                env_conducting | env_saturated,
            )
        # Conducting (linear region): Vbe = vbe_on, Ic = beta * Ib.
        self.constraints.append(
            LinearConstraint(
                f"Vbe({comp.name})", {vb: 1.0, ve: -1.0}, params["vbe_on"], asm,
                guard=conducting, guard_variables=gvars,
            )
        )
        self.constraints.append(
            ScaledDifferenceConstraint(
                f"Beta({comp.name})", ic, None, ib, params["beta"], asm,
                guard=linear, guard_variables=gvars,
            )
        )
        # Saturation: Vce pinned at vce_sat (with tolerance), beta law off.
        self.constraints.append(
            LinearConstraint(
                f"VceSat({comp.name})",
                {vc: 1.0, ve: -1.0},
                # the whole physical saturation band, not just vce_sat
                FuzzyInterval(0.0, comp.vce_sat + 0.1, 0.0, 0.1),
                asm,
                guard=saturated,
                guard_variables=gvars,
            )
        )
        self.constraints.append(
            RangeConstraint(
                f"IbPositive({comp.name})",
                ib,
                FuzzyInterval(0.0, CURRENT_RAIL, 1e-7, 0.0),
                asm,
                guard=conducting,
                guard_variables=gvars,
            )
        )
        # Cutoff: junction currents vanish.
        tiny = FuzzyInterval(0.0, 0.0, 1e-7, 1e-7)
        self.constraints.append(
            RangeConstraint(
                f"CutoffIb({comp.name})", ib, tiny, asm,
                guard=cutoff, guard_variables=gvars,
            )
        )
        self.constraints.append(
            RangeConstraint(
                f"CutoffIc({comp.name})", ic, tiny, asm,
                guard=cutoff, guard_variables=gvars,
            )
        )
        # Always: Kirchhoff at the device, Ie = Ib + Ic.
        self.constraints.append(
            LinearConstraint(
                f"Ie({comp.name})",
                {ie: 1.0, ib: -1.0, ic: -1.0},
                FuzzyInterval.crisp(0.0),
                asm,
            )
        )
        # Algebraic consequences of {Ic = beta*Ib, Ie = Ib + Ic} in the
        # conducting region.  Interval propagation cannot solve the pair
        # for Ib given Ie (the loop has gain beta), so the closed forms
        # are added explicitly — standard redundant-constraint practice.
        beta = params["beta"]
        self.constraints.append(
            ScaledDifferenceConstraint(
                f"IeFromIb({comp.name})", ie, None, ib, beta + 1.0, asm,
                guard=linear, guard_variables=gvars,
            )
        )
        self.constraints.append(
            ScaledDifferenceConstraint(
                f"IeFromIc({comp.name})", ie, None, ic,
                (beta + 1.0) / beta, asm,
                guard=linear, guard_variables=gvars,
            )
        )
