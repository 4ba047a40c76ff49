"""Fleet diagnosis service: batched parallel sessions over worker pools.

The paper's FLAMES diagnoses one unit under test at a time; a
production repair shop sees fleets.  This subsystem turns the
single-session engine into a throughput-oriented service:

* :mod:`repro.service.jobs`      — pickle-safe :class:`DiagnosisJob` /
  :class:`JobResult` with deterministic content hashing, the shared
  diagnosis JSON shape and the batch-manifest reader.
* :mod:`repro.service.cache`     — a content-addressed LRU
  :class:`ResultCache` so repeated units skip the propagation pass.
* :mod:`repro.service.pool`      — the :class:`FleetEngine`: fan-out
  over process/thread pools with per-job timeouts, bounded retries,
  graceful degradation and a shared experience merge.
* :mod:`repro.service.telemetry` — structured counters, phase timers
  and events (:class:`Telemetry`).

The ``python -m repro batch`` subcommand is the CLI front end;
:mod:`repro.server` keeps an engine resident behind an HTTP/JSON API
(``python -m repro serve``).
"""

from repro.service.cache import ResultCache
from repro.service.jobs import (
    CONFIG_FIELDS,
    DiagnosisJob,
    JobResult,
    ManifestError,
    diagnosis_to_dict,
    job_from_spec,
    load_manifest,
    measurement_to_dict,
)
from repro.service.pool import BatchReport, FleetEngine, execute_job
from repro.service.telemetry import Telemetry

__all__ = [
    "CONFIG_FIELDS",
    "DiagnosisJob",
    "JobResult",
    "ManifestError",
    "diagnosis_to_dict",
    "job_from_spec",
    "load_manifest",
    "measurement_to_dict",
    "ResultCache",
    "BatchReport",
    "FleetEngine",
    "execute_job",
    "Telemetry",
]
