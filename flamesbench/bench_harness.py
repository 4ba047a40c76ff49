"""Smoke leg for the benchmark harness: every workload at reduced size.

Runs in about 30 s and checks the harness itself, not the program's
speed:

    PYTHONPATH=src python -m pytest flamesbench/bench_harness.py -q

* every ``BENCHMARK.json`` metric is printed with its unit, and the
  last-line JSON result carries exactly the metrics of its mode;
* a tampered result trips the correctness check;
* traced layer self times sum to within 10% of the traced wall time;
* ``--compare`` passes identical rows, flags a regression just past
  the bound, reports ``unresolved`` when the spread is wider than the
  bound, and fails a strict run;
* a directory holding only ``BENCHMARK.json`` and the harness exits
  non-zero without printing a result.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from flamesbench import run, workloads  # noqa: E402
from flamesbench.compare import compare  # noqa: E402

SEED = 7
SECONDS = 0.2
SMALL = {
    "paper-oneshot": dict(min_units=8, setups=1),
    "corpus-batch": dict(per_class=1, setups=1, min_passes=2),
    "shop-serve": dict(min_requests=20, sample=4, setups=1),
    "stream-drift": dict(sections=6, check_every=4, min_ticks=8, setups=1),
}


@pytest.fixture(scope="module")
def rows():
    out = {}
    for name, sizes in SMALL.items():
        for trace in (False, True):
            outcome = workloads.WORKLOADS[name](SEED, SECONDS, trace, **sizes)
            out[name, trace] = run.build_row(name, SEED, SECONDS, trace, outcome)
    return out


def test_every_metric_printed_with_unit(rows):
    spec = run.load_spec()
    for (name, trace), row in rows.items():
        assert row["correct"], (name, trace, row["checks"])
        assert row["failed"] == 0
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        result = json.loads(run.result_line(row))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        text = run.describe(row)
        for meta in wanted:
            assert result["metrics"][meta["name"]]["unit"] == meta["unit"]
            pattern = rf"^\s+{re.escape(meta['name'])}\s+\S+ {re.escape(meta['unit'])}\s+\(n=\d+"
            assert any(re.match(pattern, line) for line in text), (name, meta["name"])
            if not trace:
                assert result["metrics"][meta["name"]]["value"] > 0


def test_tampered_result_trips_check(monkeypatch):
    original = workloads.FleetEngine.run_job

    def tampered(self, job, ctx=None, tenant=None):
        result = original(self, job, ctx=ctx, tenant=tenant)
        result.diagnosis = dict(result.diagnosis, suspicions={"R9": 1.0})
        return result

    monkeypatch.setattr(workloads.FleetEngine, "run_job", tampered)
    outcome = workloads.paper_oneshot(SEED, 0.0, False, min_units=4, setups=1)
    assert outcome.checks["matches_execute_job"] is False
    assert not outcome.correct


def test_traced_layers_cover_the_wall(rows):
    for name in SMALL:
        row = rows[name, True]
        assert 0.9 <= row["coverage"] <= 1.1, (name, row["coverage"])
        shares = sum(entry["share"] for entry in row["self_times"].values())
        assert shares == pytest.approx(1.0, abs=1e-6), name


def _bench(rows):
    bench = {"rows": [copy.deepcopy(rows[name, False]) for name in SMALL]}
    for row in bench["rows"]:
        for metric in row["metrics"].values():
            metric["spread"] = 0.0
    return bench


def test_compare_passes_identical_and_flags_regressions(rows, tmp_path, monkeypatch):
    spec = run.load_spec()
    base = _bench(rows)
    lines, failures = compare(base, base, spec)
    assert not failures
    assert not [line for line in lines if "unresolved" in line or "REGRESSION" in line]

    # Just past each metric's bound: 5 points more than it allows.
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worse = copy.deepcopy(base)
    worse["rows"][0]["metrics"]["latency_p50_ms"]["value"] *= 1.05 + bound["latency_p50_ms"]
    worse["rows"][1]["metrics"]["throughput_per_s"]["value"] *= 0.95 - bound["throughput_per_s"]
    worse["rows"][2]["outputs_digest"] = "0" * 64
    _, failures = compare(base, worse, spec)
    assert any(f.startswith("paper-oneshot/latency_p50_ms") for f in failures)
    assert any(f.startswith("corpus-batch/throughput_per_s") for f in failures)
    assert "shop-serve: outputs_digest changed" in failures

    noisy = copy.deepcopy(base)
    noisy["rows"][0]["metrics"]["latency_p50_ms"]["spread"] = 0.5
    lines, failures = compare(base, noisy, spec)
    assert any("latency_p50_ms" in line and line.endswith("unresolved") for line in lines)
    assert not failures

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(base))
    new.write_text(json.dumps(worse))
    monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
    assert run.main(["--compare", str(old), str(old)]) == 0
    assert run.main(["--compare", str(old), str(new)]) == 1
    monkeypatch.delenv("REPRO_BENCH_STRICT")
    assert run.main(["--compare", str(old), str(new)]) == 0


def test_harness_alone_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "flamesbench", tmp_path / "flamesbench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "flamesbench/run.py", "--workload", "paper-oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
