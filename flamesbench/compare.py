"""``--compare``: median deltas of two BENCH files against the bounds.

For every (workload, metric) present in both files the delta of the
new value against the old is judged against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread recorded with either value is
  wider than the bound, so the runs cannot tell a change from noise;
* ``REGRESSION`` — worse by more than the bound;
* ``improved`` — better by more than the bound;
* ``ok`` — within the bound.

It also flags a higher ``fail_rate`` and, for rows of the same seed, a
changed ``outputs_digest`` or corpus ``top1``/``top3``.  Per-layer
metrics carry no bound and are printed for information.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _rows(bench: Dict) -> Dict[str, Dict]:
    return {row["workload"]: row for row in bench.get("rows", [])}


def judge(old: float, new: float, spread: float, bound: float, better: str) -> Tuple[float, str]:
    """Relative delta (positive = worse) and the verdict for one metric."""
    delta = (new - old) / old if old else 0.0
    worse = delta if better == "lower" else -delta
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def compare(old: Dict, new: Dict, spec: Dict) -> Tuple[List[str], List[str]]:
    """Return (report lines, failures that fail a strict run)."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    lines: List[str] = []
    failures: List[str] = []
    old_rows, new_rows = _rows(old), _rows(new)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in old_rows or workload not in new_rows:
            lines.append(f"{workload}: missing from {'old' if workload not in old_rows else 'new'}")
            continue
        o, n = old_rows[workload], new_rows[workload]
        lines.append(f"{workload} (seed {o['seed']} -> {n['seed']})")
        for name, om in o["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None:
                continue
            head = (
                f"  {name:<26} {om['value']:>12.4f} -> {nm['value']:>12.4f} {om['unit']:<6}"
            )
            if name not in bounded:
                lines.append(f"{head}  (per-layer)")
                continue
            meta = bounded[name]
            spread = max(om.get("spread", 0.0), nm.get("spread", 0.0))
            worse, verdict = judge(om["value"], nm["value"], spread, meta["bound"], meta["better"])
            lines.append(
                f"{head} {worse:>+8.1%} worse  bound {meta['bound']:.0%}  "
                f"spread {spread:.1%}  {verdict}"
            )
            if verdict == "REGRESSION":
                failures.append(f"{workload}/{name}: {worse:+.1%} worse (bound {meta['bound']:.0%})")
        if n["fail_rate"] > o["fail_rate"]:
            failures.append(f"{workload}: fail_rate {o['fail_rate']:.4f} -> {n['fail_rate']:.4f}")
            lines.append(f"  fail_rate rose: {o['fail_rate']:.4f} -> {n['fail_rate']:.4f}")
        if o["seed"] != n["seed"]:
            lines.append("  outputs_digest n/a (seeds differ)")
            continue
        same = o["outputs_digest"] == n["outputs_digest"]
        lines.append(f"  outputs_digest {'identical' if same else 'CHANGED'}")
        if not same:
            failures.append(f"{workload}: outputs_digest changed")
        for key in ("top1", "top3"):
            if key in o["info"] and o["info"][key] != n["info"].get(key):
                failures.append(f"{workload}: {key} {o['info'][key]} -> {n['info'].get(key)}")
                lines.append(f"  {key} CHANGED: {o['info'][key]} -> {n['info'].get(key)}")
    return lines, failures
