"""Corpus accuracy/latency benchmark.

The pytest leg runs a small fixed corpus and regenerates the
EXPERIMENTS.md accuracy table (rank-of-true-fault and latency
percentiles per scenario class).  The committed accuracy floor is
enforced by ``scripts/corpus_smoke.py`` (seed 101, 8 per class), and
committed throughput numbers come from ``python -m flamesbench`` (the
``corpus-batch`` workload).
"""

from repro.corpus import generate_corpus, run_corpus

#: The CI smoke recipe's seed; the bench leg runs a smaller slice of it.
SEED = 101


def format_table(report):
    lines = [f"  {'class':<20}{'n':>5}{'top1':>7}{'top3':>7}{'top5':>7}"
             f"{'mrank':>7}{'lowdeg':>8}{'p50ms':>8}{'p95ms':>8}"]
    classes = report.stats()
    for name in sorted(classes, key=lambda c: (c == "overall", c)):
        acc = classes[name].accuracy_dict()
        lat = classes[name].latency_dict()
        mean_rank = acc["mean_rank"]
        lines.append(
            f"  {name:<20}{acc['n']:>5}"
            f"{acc.get('top1', 0.0):>7.3f}{acc.get('top3', 0.0):>7.3f}"
            f"{acc.get('top5', 0.0):>7.3f}"
            f"{(f'{mean_rank:.2f}' if mean_rank is not None else '-'):>7}"
            f"{acc['low_degree_rate']:>8.3f}"
            f"{lat['p50_ms']:>8.1f}{lat['p95_ms']:>8.1f}"
        )
    return "\n".join(lines)


class TestCorpusAccuracy:
    def test_accuracy_table(self, emit):
        # Smaller than the smoke gate: the bench leg shares a CI job
        # with every other benchmark, so it covers each class once per
        # family pair and leaves the full floor run to corpus_smoke.py.
        manifest = generate_corpus(SEED, 4)
        report = run_corpus(manifest, workers=2, executor="thread")
        emit("corpus-accuracy", format_table(report))

        classes = {name: s.accuracy_dict() for name, s in report.stats().items()}
        assert classes["overall"]["failures"] == 0
        assert classes["intermittent"]["low_degree_rate"] == 1.0
        assert classes["tolerance-stackup"]["top1"] >= 0.75, (
            "stackup scenarios indicting certain culprits"
        )
