"""The resilience plane: fault injection, supervision, degraded inputs.

Three cooperating pieces (see README "Resilience"):

* :mod:`repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` with named injection points threaded through the
  worker pool, result cache, server I/O, cluster and stream, so chaos
  tests exercise real failure paths reproducibly;
* :mod:`repro.resilience.supervisor` — :class:`FleetSupervisor`:
  poison-job quarantine and worker health scoring with pool eviction;
* :mod:`repro.resilience.sanitize` — the measurement sanitizer that
  drops or widens non-finite / out-of-range observations and lets a
  degraded-mode diagnosis run, flagged in the report — the paper's
  partial-conflict semantics applied to the system's own inputs.
"""

from repro.resilience.faults import (
    POINTS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    install_plan,
    uninstall_plan,
)
from repro.resilience.sanitize import (
    POLICIES,
    SanitizeAction,
    SanitizeReport,
    sanitize_tuples,
)
from repro.resilience.supervisor import EwmaHealth, FleetSupervisor

__all__ = [
    "POINTS",
    "POLICIES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "EwmaHealth",
    "FleetSupervisor",
    "SanitizeAction",
    "SanitizeReport",
    "active_plan",
    "install_plan",
    "uninstall_plan",
    "sanitize_tuples",
]
