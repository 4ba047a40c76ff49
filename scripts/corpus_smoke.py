"""Corpus smoke test — the accuracy-regression plane's CI gate.

One fixed recipe (seed 101, 8 scenarios per class, all six classes)
drives the whole corpus loop end to end:

1. **determinism** — generating the corpus twice yields byte-identical
   manifests, and the canonical (accuracy-only) report is byte-stable
   for the manifest;
2. **one table** — the report carries exactly one accuracy table, keyed
   by the engine's name;
3. **structure** — every intermittent scenario surfaces the low-degree
   nogood signature (``low_degree_rate == 1.0``) and every scenario
   completes (no failures);
4. **the floor** — the committed ``scripts/corpus_floor.json``
   minimums hold;
5. **the half slice** — on the same seed at 4 scenarios per class,
   every scenario completes, every intermittent one shows the
   low-degree signature, and tolerance-stackup scenarios indict no
   certain culprit (top-1 ≥ 0.75).

Exits non-zero on any violation, so CI can run it as a bare step:

    PYTHONPATH=src python scripts/corpus_smoke.py
"""

import json
import sys
import time
from pathlib import Path

from repro.core.diagnosis import FlamesConfig
from repro.corpus import check_floor, generate_corpus, run_corpus

SEED = 101
PER_CLASS = 8
FLOOR_PATH = Path(__file__).resolve().parent / "corpus_floor.json"


def main():
    started = time.perf_counter()
    manifest = generate_corpus(SEED, PER_CLASS)
    again = generate_corpus(SEED, PER_CLASS)
    assert manifest.to_json() == again.to_json(), (
        "same-seed corpus generation is not byte-identical"
    )
    print(f"manifest ok: {len(manifest)} scenarios, "
          f"{len(manifest.classes)} classes, deterministic "
          f"({time.perf_counter() - started:.1f}s)")

    report = run_corpus(manifest, workers=4)
    table = report.to_dict()
    assert table == json.loads(report.to_json()), "report JSON round trip drifted"

    kernels = table["kernels"]
    assert set(kernels) == {FlamesConfig.kernel}, f"unexpected tables: {set(kernels)}"
    classes = kernels[FlamesConfig.kernel]
    print(f"one table ok: {len(classes)} rows under {FlamesConfig.kernel!r}")

    for name, cell in classes.items():
        acc = cell["accuracy"]
        assert acc["failures"] == 0, f"{name}: {acc['failures']} failure(s)"
    assert classes["intermittent"]["accuracy"]["low_degree_rate"] == 1.0, (
        "intermittent scenarios without the low-degree signature"
    )
    print("structure ok: zero failures, low-degree signature on every "
          "intermittent scenario")

    floor = json.loads(FLOOR_PATH.read_text())
    breaches = check_floor(report, floor)
    for breach in breaches:
        print(f"FLOOR BREACH: {breach}", file=sys.stderr)
    assert not breaches, f"{len(breaches)} floor breach(es)"
    overall = classes["overall"]["accuracy"]
    print(f"floor ok: top1 {overall['top1']:.3f} / top3 {overall['top3']:.3f} "
          f"overall vs committed minimums "
          f"({time.perf_counter() - started:.1f}s)")

    report = run_corpus(generate_corpus(SEED, 4), workers=2, executor="thread")
    half = {name: stats.accuracy_dict() for name, stats in report.stats().items()}
    assert half["overall"]["failures"] == 0, "half slice: failures"
    assert half["intermittent"]["low_degree_rate"] == 1.0, (
        "half slice: intermittent scenarios without the low-degree signature"
    )
    stackup = half["tolerance-stackup"]["top1"]
    assert stackup >= 0.75, (
        f"stackup scenarios indicting certain culprits: top1 {stackup:.3f} < 0.75"
    )
    print(f"half slice ok: tolerance-stackup top1 {stackup:.3f} at 4 per class "
          f"({time.perf_counter() - started:.1f}s total)")
    print("corpus smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
