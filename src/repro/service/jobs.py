"""Diagnosis jobs and machine-readable results — the fleet data plane.

The paper runs one troubleshooting session per unit under test; a
repair shop runs *fleets* of units, most of them exhibiting the same
few defects.  This module defines the unit of work the fleet engine
schedules:

* :class:`DiagnosisJob` — one unit to diagnose, described entirely as
  plain data (netlist text, fuzzy measurement tuples, scalar config
  overrides) so jobs pickle cleanly into worker processes and hash
  deterministically;
* :class:`JobResult` — the structured outcome (ranked candidates,
  minimal candidate sets, consistency table, fault-mode refinements,
  error details), JSON round-trippable;
* :func:`diagnosis_to_dict` — the JSON shape shared between
  ``python -m repro diagnose --json`` and the batch service, so a
  diagnose run's output slots straight into a batch manifest;
* :func:`job_from_spec` — turns one JSON job spec into a job; shared
  by the manifest reader and the diagnosis server's request parsing;
* :func:`load_manifest` — reads the JSON job manifest the ``batch``
  CLI consumes.

Content hashing: a job's :attr:`~DiagnosisJob.content_hash` is a sha256
over the circuit's :meth:`~repro.circuit.netlist.Circuit.fingerprint`
(order-independent electrical content), the measurement set and the
config overrides — the key of the service's content-addressed result
cache.  The unit label and the optional confirmed repair are *not*
hashed: they do not change what the engine computes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.circuit.measurements import Measurement, MeasurementTuple
from repro.circuit.netlist import Circuit
from repro.circuit.spice import parse_netlist, write_netlist
from repro.core.diagnosis import DiagnosisResult, FlamesConfig
from repro.core.knowledge import ModeMatch

__all__ = [
    "CONFIG_FIELDS",
    "DiagnosisJob",
    "JobResult",
    "diagnosis_to_dict",
    "measurement_to_dict",
    "job_from_spec",
    "load_manifest",
    "ManifestError",
]

#: FlamesConfig knobs a job may override, each with the range its value
#: must lie in — plain scalars only, so jobs stay JSON- and pickle-safe
#: (the propagator tuning stays at engine defaults).  NaN fails every test.
CONFIG_FIELDS: Dict[str, Callable[[float], bool]] = {
    "assumable_nodes": lambda v: v in (0.0, 1.0),
    "conflict_threshold": lambda v: 0.0 <= v <= 1.0,
    "max_candidate_size": lambda v: v >= 1.0 and v.is_integer(),
}

class ManifestError(ValueError):
    """A batch manifest (or one of its job specs) is malformed."""


def _resolve_sanitize(policy: str) -> str:
    from repro.resilience.sanitize import POLICIES

    policy = str(policy or "strict")
    if policy not in POLICIES:
        raise ManifestError(
            f"unknown sanitize policy {policy!r}; choices: {', '.join(POLICIES)}"
        )
    return policy


def _config_overrides(
    config: Optional[Dict[str, float]],
) -> Tuple[Tuple[str, float], ...]:
    """Validate config overrides into the job's sorted-tuple form."""
    overrides: Dict[str, float] = {}
    for key, value in (config or {}).items():
        if key not in CONFIG_FIELDS:
            raise ManifestError(
                f"unknown config field {key!r}; choices: {', '.join(CONFIG_FIELDS)}"
            )
        try:
            number = float(value)
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"bad config value for {key!r}: {exc}") from None
        if not CONFIG_FIELDS[key](number):
            raise ManifestError(f"bad config value for {key!r}: {value!r} is out of range")
        overrides[key] = number
    return tuple(sorted(overrides.items()))


def measurement_to_dict(m: Measurement) -> Dict:
    """JSON shape of one measurement: ``{"point": ..., "value": [m1, m2, alpha, beta]}``."""
    return {"point": m.point, "value": [m.value.m1, m.value.m2, m.value.alpha, m.value.beta]}


@dataclass(frozen=True)
class DiagnosisJob:
    """One unit of fleet work: a circuit, its bench readings, the knobs.

    Attributes:
        unit: free-form label for reporting (not part of the hash).
        netlist_text: the golden design in the SPICE-subset card format.
        measurements: fuzzy readings as plain tuples.
        config: sorted ``(field, value)`` FlamesConfig overrides (floats).
        confirm: optional ``(component, mode)`` the expert has verified
            on this unit — feeds the shared experience base after the
            batch (not part of the hash either).
        sanitize: measurement policy — ``"strict"`` (malformed readings
            are an error; the default and the pre-resilience behaviour)
            or ``"repair"`` (the resilience sanitizer drops/widens bad
            readings and the diagnosis runs degraded, flagged in the
            result).  Hashed only when not strict, so existing cache
            keys are unchanged.
    """

    unit: str
    netlist_text: str
    measurements: Tuple[MeasurementTuple, ...]
    config: Tuple[Tuple[str, float], ...] = ()
    confirm: Optional[Tuple[str, str]] = None
    sanitize: str = "strict"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        unit: str,
        circuit: Union[Circuit, str],
        measurements: Sequence[Measurement],
        sanitize: str = "strict",
    ) -> "DiagnosisJob":
        """Build a job from rich objects (circuit and measurements).

        Config overrides and a confirmed repair come from a job spec
        (:func:`job_from_spec`).
        """
        text = write_netlist(circuit) if isinstance(circuit, Circuit) else str(circuit)
        return cls(
            unit=unit,
            netlist_text=text,
            measurements=tuple(m.as_tuple() for m in measurements),
            sanitize=_resolve_sanitize(sanitize),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def circuit(self) -> Circuit:
        """Parse the netlist (raises on malformed cards)."""
        return parse_netlist(self.netlist_text, name=self.unit or "unit")

    def to_measurements(self) -> List[Measurement]:
        return [Measurement.from_tuple(m) for m in self.measurements]

    def flames_config(self) -> FlamesConfig:
        overrides: Dict[str, object] = dict(self.config)
        if "assumable_nodes" in overrides:
            overrides["assumable_nodes"] = bool(overrides["assumable_nodes"])
        if "max_candidate_size" in overrides:
            overrides["max_candidate_size"] = int(overrides["max_candidate_size"])
        return FlamesConfig(**overrides)  # type: ignore[arg-type]

    @property
    def content_hash(self) -> str:
        """Deterministic sha256 of (circuit content, measurements, config).

        The circuit contributes through its order-independent
        :meth:`~repro.circuit.netlist.Circuit.fingerprint`; a netlist
        that does not parse falls back to hashing the raw text, so even
        a doomed job gets a stable cache key.
        """
        try:
            circuit_key = self.circuit().fingerprint()
        except Exception:
            circuit_key = "rawtext:" + hashlib.sha256(self.netlist_text.encode()).hexdigest()
        body = {
            "circuit": circuit_key,
            "measurements": sorted(self.measurements),
            "config": list(self.config),
        }
        if self.sanitize != "strict":
            # Conditional so pre-resilience jobs keep their exact keys.
            body["sanitize"] = self.sanitize
        payload = json.dumps(body, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def diagnosis_to_dict(
    result: DiagnosisResult,
    refinements: Optional[Sequence[ModeMatch]] = None,
) -> Dict:
    """Machine-readable view of a :class:`DiagnosisResult`.

    This is the JSON shape printed by ``python -m repro diagnose
    --json`` and embedded in every fleet :class:`JobResult`; its
    ``measurements`` entries use the same shape a batch manifest
    accepts, so outputs can be replayed as inputs.
    """
    from repro.core.learning import SymptomSignature

    stats = {
        "propagation_steps": result.propagation.steps if result.propagation else 0,
        "quiescent": bool(result.propagation.quiescent) if result.propagation else True,
        "nogoods": len(result.nogoods),
        "conflicts": len(result.conflicts),
    }
    # Conditional so uninterrupted payloads keep the exact pre-runtime
    # key set (the golden snapshots compare keys byte-for-byte).
    if result.interrupted:
        stats["interrupted"] = True
    return {
        "status": "consistent" if result.is_consistent else "faulty",
        "measurements": [measurement_to_dict(m) for m in result.measurements],
        "consistencies": {
            point: {"degree": cons.degree, "direction": cons.direction, "signed": cons.signed}
            for point, cons in result.consistencies.items()
        },
        "suspicions": dict(result.ranked_components()),
        "nogoods": [
            {"components": sorted(a.datum for a in ng.environment), "degree": ng.degree}
            for ng in result.nogoods
        ],
        "candidates": [
            {"components": list(d.components), "degree": d.degree} for d in result.diagnoses
        ],
        "refinements": [
            {"component": r.component, "mode": r.mode, "degree": r.degree}
            for r in (refinements or [])
        ],
        "signature": SymptomSignature.from_result(result).to_list(),
        "stats": stats,
    }


@dataclass
class JobResult:
    """Structured outcome of one job — success, failure or timeout.

    ``diagnosis`` carries the :func:`diagnosis_to_dict` payload for ok
    results and is empty for error/timeout ones; either way the batch
    completes and every unit gets an entry.  ``interrupted`` results
    carry the *partial* payload the engine wound down with — well-formed
    but incomplete, so the service never caches them.  ``trace`` holds
    the engine's span tree when the run was traced (empty otherwise).
    """

    unit: str
    content_hash: str
    status: str  # "ok" | "degraded" | "error" | "timeout" | "interrupted" | "quarantined"
    diagnosis: Dict = field(default_factory=dict)
    error: str = ""
    elapsed: float = 0.0
    attempts: int = 1
    cache_hit: bool = False
    trace: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """The diagnosis ran to quiescence: ``ok`` or ``degraded``.

        A ``degraded`` result is complete *with respect to its sanitized
        inputs* — ranked, classified, cacheable — but some observations
        were dropped or widened on the way in (the actions are listed
        under ``diagnosis["degraded"]``).
        """
        return self.status in ("ok", "degraded")

    @property
    def is_consistent(self) -> bool:
        return self.diagnosis.get("status") == "consistent"

    def candidates(self) -> List[Tuple[str, float]]:
        """Ranked (component, suspicion) pairs of an ok result."""
        return sorted(
            self.diagnosis.get("suspicions", {}).items(), key=lambda kv: (-kv[1], kv[0])
        )

    def signature_entries(self) -> Optional[List]:
        return self.diagnosis.get("signature")

    def relabel(self, unit: str, cache_hit: bool = True) -> "JobResult":
        """A copy serving another unit with identical content (a cache hit)."""
        return JobResult(
            unit=unit,
            content_hash=self.content_hash,
            status=self.status,
            diagnosis=self.diagnosis,
            error=self.error,
            elapsed=0.0,
            attempts=0,
            cache_hit=cache_hit,
        )

    def to_dict(self) -> Dict:
        data = {
            "unit": self.unit,
            "content_hash": self.content_hash,
            "status": self.status,
            "diagnosis": self.diagnosis,
            "error": self.error,
            "elapsed": self.elapsed,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
        }
        if self.trace:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "JobResult":
        return cls(
            unit=str(data.get("unit", "")),
            content_hash=str(data.get("content_hash", "")),
            status=str(data["status"]),
            diagnosis=dict(data.get("diagnosis", {})),
            error=str(data.get("error", "")),
            elapsed=float(data.get("elapsed", 0.0)),
            attempts=int(data.get("attempts", 1)),
            cache_hit=bool(data.get("cache_hit", False)),
            trace=dict(data.get("trace", {})),
        )


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def job_from_spec(
    spec: Dict, index: int = 0, base_dir: Optional[Path] = None
) -> DiagnosisJob:
    """Turn one JSON job spec into a :class:`DiagnosisJob`.

    ``base_dir`` anchors relative ``netlist`` paths; when it is None —
    the diagnosis server parsing an untrusted network request — path
    specs are rejected outright and the design must arrive inline as
    ``netlist_text``.  Raises :class:`ManifestError` on any bad spec.
    """
    if not isinstance(spec, dict):
        raise ManifestError(f"job #{index}: expected an object, got {type(spec).__name__}")
    unit = str(spec.get("unit", f"unit-{index:03d}"))

    if "netlist_text" in spec:
        text = str(spec["netlist_text"])
    elif "netlist" in spec:
        if base_dir is None:
            raise ManifestError(
                f"job {unit!r}: 'netlist' file paths are not accepted here; "
                "inline the design as 'netlist_text'"
            )
        path = Path(spec["netlist"])
        if not path.is_absolute():
            path = base_dir / path
        try:
            text = path.read_text()
        except OSError as exc:
            raise ManifestError(f"job {unit!r}: cannot read netlist {path}: {exc}") from None
    else:
        raise ManifestError(f"job {unit!r}: needs 'netlist' (path) or 'netlist_text'")

    sanitize = _resolve_sanitize(spec.get("sanitize", "strict"))
    try:
        imprecision = float(spec.get("imprecision", 0.02))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"job {unit!r}: bad imprecision: {exc}") from None

    # Collect the raw (point, m1, m2, alpha, beta) tuples first.  Under
    # the strict policy each one must build a valid Measurement
    # right here (malformed readings → ManifestError → HTTP 400); under
    # "repair" the resilience sanitizer vets them at execution time
    # instead, so a non-finite reading degrades the run rather than
    # rejecting it.
    raw: List[MeasurementTuple] = []
    for net, volts in (spec.get("probes") or {}).items():
        try:
            value = float(volts)
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"job {unit!r}: bad probe V({net}): {exc}") from None
        raw.append((f"V({net})", value, value, imprecision, imprecision))
    for entry in spec.get("measurements") or []:
        try:
            point = str(entry["point"])
            m1, m2, alpha, beta = (float(x) for x in entry["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"bad measurement spec {entry!r}: {exc}") from None
        raw.append((point, m1, m2, alpha, beta))
    if not raw:
        raise ManifestError(f"job {unit!r}: needs 'probes' and/or 'measurements'")
    if sanitize == "strict":
        for entry in raw:
            try:
                Measurement.from_tuple(entry)
            except ValueError as exc:
                raise ManifestError(
                    f"job {unit!r}: bad measurement at {entry[0]}: {exc}"
                ) from None

    confirm = None
    if spec.get("confirm"):
        c = spec["confirm"]
        if not isinstance(c, dict) or "component" not in c:
            raise ManifestError(f"job {unit!r}: 'confirm' needs a 'component'")
        confirm = (str(c["component"]), str(c.get("mode", "")))

    return DiagnosisJob(
        unit=unit,
        netlist_text=text,
        measurements=tuple(raw),
        config=_config_overrides(spec.get("config")),
        confirm=confirm,
        sanitize=sanitize,
    )


def load_manifest(path: Union[str, Path]) -> List[DiagnosisJob]:
    """Read a batch manifest: ``{"jobs": [...]}`` or a bare job list.

    Each job spec gives a ``unit`` label, the golden design as a
    ``netlist`` path (relative to the manifest) or inline
    ``netlist_text``, readings as ``probes`` (``{"net": volts}`` with an
    optional ``imprecision``, mirroring ``diagnose --probe``) and/or
    explicit fuzzy ``measurements`` (the ``diagnose --json`` shape),
    plus optional ``config`` overrides and a ``confirm``-ed repair.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from None
    specs = data.get("jobs") if isinstance(data, dict) else data
    if not isinstance(specs, list) or not specs:
        raise ManifestError(f"manifest {path} holds no jobs")
    base = path.resolve().parent
    return [job_from_spec(spec, i, base) for i, spec in enumerate(specs)]
