"""Benchmark entry point: one workload, all workloads, or a comparison.

One workload (the last stdout line is the JSON result)::

    python3 flamesbench/run.py --workload paper-oneshot --seed 101 --seconds 15 --trace 0

All four workloads, each in its own child process, writing
``flamesbench/results/BENCH_<sha>.json`` (and, with ``--trace``, a
separate traced run into ``TRACE_<sha>.json`` with the tracing
overhead)::

    python3 -m flamesbench [--seed 101] [--label run2] [--trace]

Compare two result files (a fresh run when NEW is omitted); exits
non-zero under ``REPRO_BENCH_STRICT`` on a regression, a higher
fail rate or a changed outputs digest::

    python3 -m flamesbench --compare OLD.json [NEW.json]

The harness imports the program from ``src/`` of the checkout it sits
in, and exits 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from flamesbench.compare import compare  # noqa: E402
from flamesbench.measure import (  # noqa: E402
    ENGINE_ROOTS,
    Outcome,
    find,
    layer_sample,
    layer_table,
    quantile,
    relative_iqr,
)

SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK_DIR = ROOT / ".bench_work"
SCHEMA = 1
DEFAULT_SEED = 101
#: Root span names: one per measured operation (their self time is
#: what no named layer accounts for).  A ``shop-serve`` request's root is
#: the named server layer itself, ``server.roundtrip``.
OPERATION_ROOTS = ("unit", "job", "batch", "tick")


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Metrics from an Outcome
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> Dict[str, Dict]:
    """Every end-to-end value with its sample count and run spread.

    The spread is the relative inter-quartile distance of the same
    metric over the run's consecutive blocks (``Outcome.blocks``).
    """
    lat = outcome.latencies_ms
    rates = [ops / secs for ops, secs in outcome.blocks if secs > 0]
    chunks, start = [], 0
    for ops, _ in outcome.blocks:
        chunks.append(lat[start:start + int(ops)])
        start += int(ops)

    def spread(q: float) -> float:
        return relative_iqr([quantile(c, q) for c in chunks if c])

    return {
        "latency_p50_ms": _metric(quantile(lat, 0.5), len(lat), spread(0.5)),
        "latency_p90_ms": _metric(quantile(lat, 0.9), len(lat), spread(0.9)),
        "throughput_per_s": _metric(outcome.ops / outcome.seconds, outcome.ops, relative_iqr(rates)),
        "peak_rss_mb": _metric(outcome.peak_rss_mb, 1, 0.0),
        "setup_s": _metric(
            statistics.median(outcome.setup_s), len(outcome.setup_s),
            relative_iqr(outcome.setup_s),
        ),
    }


def per_layer(outcome: Outcome) -> Dict[str, Dict]:
    """The engine decomposition every workload shares, medians per operation."""
    samples = [s for s in (layer_sample(r) for r in outcome.roots) if s is not None]
    if not samples:
        raise RuntimeError("traced run recorded no engine spans")
    ran = [r for r in outcome.roots if find(r, ENGINE_ROOTS)]

    def med(values: List[float]) -> float:
        return quantile(values, 0.5)

    outside = [
        (r["seconds"] - sum(e["seconds"] for e in find(r, ENGINE_ROOTS))) * 1e3
        for r in outcome.roots
    ]
    n = len(samples)
    return {
        "engine.state_ms": _metric(med([s.state * 1e3 for s in samples]), n),
        "engine.propagate_ms": _metric(med([s.propagate * 1e3 for s in samples]), n),
        "engine.propagate_steps": _metric(med([s.steps for s in samples]), n),
        "engine.us_per_step": _metric(
            med([s.propagate * 1e6 / s.steps for s in samples if s.steps]), n
        ),
        "engine.tail_ms": _metric(med([s.tail * 1e3 for s in samples]), n),
        "engine.nogoods": _metric(med([r["meta"]["nogoods"] for r in ran]), len(ran)),
        "engine.candidates": _metric(med([r["meta"]["candidates"] for r in ran]), len(ran)),
        "service.outside_engine_ms": _metric(med(outside), len(outside)),
    }


def _metric(value: float, samples: int, spread: float = 0.0) -> Dict:
    return {"value": float(value), "samples": int(samples), "spread": float(spread)}


def build_row(name: str, seed: int, seconds: float, trace: bool, outcome: Outcome) -> Dict:
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(outcome) if trace else end_to_end(outcome)
    metrics = {}
    for meta in wanted:
        entry = dict(values[meta["name"]])
        entry["unit"] = meta["unit"]
        metrics[meta["name"]] = entry
    row = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_rate": outcome.failed / max(1, outcome.attempted),
        "checks": outcome.checks,
        "outputs_digest": outcome.digest,
        "mean_latency_ms": sum(outcome.latencies_ms) / max(1, len(outcome.latencies_ms)),
        "metrics": metrics,
        "layers": outcome.layers,
        "info": outcome.info,
    }
    if trace:
        table = layer_table(outcome.coverage_roots)
        # Share of the traced wall that named layers, not the operation
        # roots' own unattributed time, account for.
        row["coverage"] = sum(v["share"] for k, v in table.items() if k not in OPERATION_ROOTS)
        row["self_times"] = table
        row["example_spans"] = outcome.coverage_roots[:2]
    return row


def result_line(row: Dict) -> str:
    """The one-line JSON result (the last line of a workload run)."""
    return json.dumps(
        {
            "correct": row["correct"],
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in row["metrics"].items()
            },
        }
    )


def describe(row: Dict) -> List[str]:
    mode = "traced" if row["trace"] else "untraced"
    lines = [
        f"== {row['workload']} (seed {row['seed']}, {row['seconds']:g}s, {mode})",
        f"  attempted {row['attempted']}  failed {row['failed']}  "
        f"correct {row['correct']}  digest {row['outputs_digest'][:16]}",
    ]
    lines += [f"  check {k}: {'ok' if v else 'FAILED'}" for k, v in row["checks"].items()]
    for name, m in row["metrics"].items():
        lines.append(
            f"  {name:<26} {m['value']:>12.4f} {m['unit']:<6} "
            f"(n={m['samples']}, spread {m['spread']:.1%})"
        )
    for name, value in sorted({**row["layers"], **row["info"]}.items()):
        lines.append(f"  {name:<26} {value}")
    if row["trace"]:
        lines.append(f"  layer self times cover {row['coverage']:.1%} of the traced wall")
        for name, entry in row["self_times"].items():
            lines.append(
                f"    {name:<24} {entry['ms_per_op']:>10.3f} ms/op  {entry['share']:>6.1%}"
            )
    return lines


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One workload in this process, against the checkout's ``src/``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ImportError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from flamesbench.workloads import WORKLOADS

    outcome = WORKLOADS[name](seed, seconds, trace)
    return build_row(name, seed, seconds, trace, outcome)


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One workload in its own process; returns its row."""
    WORK_DIR.mkdir(exist_ok=True)
    row_path = WORK_DIR / f"row-{name}-{int(trace)}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--row-out", str(row_path),
    ]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
    if done.returncode != 0:
        raise RuntimeError(f"{name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    row = json.loads(row_path.read_text())
    row_path.unlink()
    return row


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def run_all(
    seed: int, seconds: float, trace: bool, label: str, out_dir: Path = RESULTS
) -> Tuple[Path, bool]:
    """Every workload in its own process; returns the BENCH path and
    whether every row was correct with no failures."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sha = git_sha()
    header = {
        "schema": SCHEMA,
        "sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
    }
    suffix = f"-{label}" if label else ""
    out_dir.mkdir(exist_ok=True)
    rows = [run_child(name, seed, seconds, False) for name in names]
    bench_path = out_dir / f"BENCH_{sha}{suffix}.json"
    _write(bench_path, dict(header, trace=False, rows=rows))
    print(f"wrote {bench_path}")
    if trace:
        traced = [run_child(name, seed, seconds, True) for name in names]
        for row, base in zip(traced, rows):
            row["tracing_overhead"] = row["mean_latency_ms"] / base["mean_latency_ms"] - 1.0
            print(
                f"{row['workload']}: tracing overhead {row['tracing_overhead']:+.1%}, "
                f"layers cover {row['coverage']:.1%} of the traced wall"
            )
        trace_path = out_dir / f"TRACE_{sha}{suffix}.json"
        _write(trace_path, dict(header, trace=True, rows=traced))
        print(f"wrote {trace_path}")
        rows = rows + traced
    return bench_path, all(r["correct"] and not r["failed"] for r in rows)


def _write(path: Path, data: Dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="flamesbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload and print its JSON result last")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run reporting per-layer metrics",
    )
    parser.add_argument("--row-out", help="also write the full row as JSON here")
    parser.add_argument("--label", default="", help="suffix for the result file names")
    parser.add_argument("--compare", nargs="+", metavar="FILE", help="OLD.json [NEW.json]")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                parser.error(f"unknown workload {args.workload!r}")
            row = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        elif args.compare:
            return _compare(args.compare, args.seed, seconds, spec)
        else:
            _, ok = run_all(args.seed, seconds, bool(args.trace), args.label)
            return 0 if ok else 1
    except (ImportError, OSError) as exc:
        print(f"flamesbench: cannot run here: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.row_out:
        Path(args.row_out).write_text(json.dumps(row, sort_keys=True))
    print("\n".join(describe(row)))
    print(result_line(row))
    return 0


def _compare(files: List[str], seed: int, seconds: float, spec: Dict) -> int:
    if len(files) > 2:
        raise SystemExit("--compare takes OLD.json [NEW.json]")
    old = json.loads(Path(files[0]).read_text())
    if len(files) == 2:
        new = json.loads(Path(files[1]).read_text())
    else:
        path, ok = run_all(seed, seconds, False, "compare", out_dir=WORK_DIR)
        if not ok:
            print("fresh run was not correct", file=sys.stderr)
            return 1
        new = json.loads(path.read_text())
    lines, failures = compare(old, new, spec)
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures and os.environ.get("REPRO_BENCH_STRICT"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
