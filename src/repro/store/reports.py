"""Fleet-health reporting: persisted diagnosis history, summarized.

The proactive-maintenance literature's point is that diagnosis history
is itself diagnostic: the distribution of outcomes across a fleet —
which components keep turning up as culprits, how often runs degrade
or get interrupted, what the latency envelope looks like — tells an
operator where the fleet is drifting before any single unit screams.

:func:`build_report` folds one tenant's persisted ``history`` rows
(written by the fleet engine on every diagnosis when a store is
armed) into the JSON summary served as ``GET /v1/tenants/{id}/report``:
per-status counts, top culprits by indictment count, degraded /
interrupted / cache-hit rates, latency percentiles over *executed*
runs (cache replays answer in microseconds and would drown the signal),
and the tenant's experience-base version and rule count.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.service.telemetry import percentile
from repro.store.db import DiagnosisStore

__all__ = ["build_report"]

#: Entries in the report's culprit leaderboard.
TOP_CULPRITS = 5


def build_report(
    store: DiagnosisStore,
    tenant: str,
    limit: int = 0,
) -> Optional[Dict]:
    """The tenant's fleet-health summary, or None for an unknown tenant.

    ``limit`` restricts the fold to the most recent N history rows
    (0 = full history); the culprit leaderboard keeps :data:`TOP_CULPRITS`.
    """
    record = store.get_tenant(tenant)
    if record is None:
        return None
    rows = store.history_rows(tenant, limit=limit)

    statuses: Counter = Counter(row["status"] for row in rows)
    culprits: Counter = Counter(
        row["top_culprit"] for row in rows if row["top_culprit"]
    )
    total = len(rows)
    completed = statuses.get("ok", 0) + statuses.get("degraded", 0)
    consistent = sum(1 for row in rows if row["consistent"])
    cache_hits = sum(1 for row in rows if row["cache_hit"])
    executed_ms = sorted(
        row["elapsed"] * 1000.0 for row in rows if not row["cache_hit"]
    )

    def rate(n: int) -> float:
        return round(n / total, 4) if total else 0.0

    def latency(q: float) -> float:
        return round(percentile(executed_ms, q), 3) if executed_ms else 0.0

    experience, experience_version = store.load_experience(tenant)

    return {
        "tenant": record.tenant_id,
        "name": record.name,
        "quota": {
            "limit": record.quota_limit,
            "interval": record.quota_interval,
        },
        "history": {
            "total": total,
            "window": limit if limit > 0 else None,
            "statuses": dict(sorted(statuses.items())),
            "consistent": consistent,
            "faulty": completed - consistent,
            "degraded_rate": rate(statuses.get("degraded", 0)),
            "interrupted_rate": rate(statuses.get("interrupted", 0)),
            "error_rate": rate(
                statuses.get("error", 0)
                + statuses.get("timeout", 0)
                + statuses.get("quarantined", 0)
            ),
            "cache_hit_rate": rate(cache_hits),
            "first_at": rows[0]["created_at"] if rows else None,
            "last_at": rows[-1]["created_at"] if rows else None,
        },
        "top_culprits": [
            {"component": component, "count": count}
            for component, count in culprits.most_common(TOP_CULPRITS)
        ],
        "latency_ms": {
            "executed": len(executed_ms),
            "p50": latency(0.50),
            "p95": latency(0.95),
            "p99": latency(0.99),
        },
        "experience": {
            "version": experience_version,
            "rules": len(experience.get("rules", [])),
            "episodes": experience.get("episode_count", 0),
        },
    }
