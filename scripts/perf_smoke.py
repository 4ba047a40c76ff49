"""Performance smoke test — the gates that need a stopwatch or a live fleet.

Every check here needs wall-clock timing, a real process pool, a live
``repro serve`` or a ``repro cluster``, so none of them belongs in the
tier-1 suite:

1. **tracing overhead** — a traced full diagnosis cycle (figure-7
   amplifier, short R2) costs at most 5% + 2 ms over an untraced one:
   over 41 interleaved untraced/traced pairs, the median of each pair's
   ``traced - (untraced * 1.05 + 2 ms)`` must not be positive;
2. **worker scaling** — 16 distinct units all succeed on 1-, 4- and
   8-worker process pools, and finish sooner on 4 workers than on 1:
   after one untimed batch per width (the first pools of a fresh
   interpreter pay one-off start-up costs), 3 rounds alternating the
   1- and 4-worker order are timed and the medians compared (the
   timing check is skipped with fewer than 2 CPUs);
3. **fleet cache** — 24 units over 8 distinct defects: the cold pass
   runs one propagation per defect and replays the rest, the warm pass
   is all cache hits and faster;
4. **shared model** — a second, distinct cold ladder-40 job on the
   same netlist reads the nominal predictions from the process's
   shared model (``model: "hit"``, zero nominal builds); a work
   count, not a stopwatch, so it is deterministic;
5. **server** — a cold diagnosis misses the cache, the repeat hits it
   with an equal diagnosis and is faster; 50 concurrent in-flight
   diagnoses are all answered (zero dropped);
6. **stream** — on an 8-section ladder the warm incremental tick
   re-asserts one measurement, ranks like a cold chain and beats both
   the cold chain and a one-shot diagnosis;
7. **cluster** — 12 cold diagnoses through the gateway at 1 and 2
   replicas, zero dropped; a repeat pass over 6 contents on 2 replicas
   hits its shard owners' caches 6/6.  ``REPRO_BENCH_STRICT=1`` runs the
   sweep at 1 → 2 → 4 replicas (18 requests) and requires ≥3x aggregate
   req/s, which needs a multicore machine.

Exits non-zero on any violation, so CI can run it as a bare step:

    PYTHONPATH=src python scripts/perf_smoke.py
"""

import os
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from _harness import CLUSTER_PORT, reap, spawn, stop
from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import three_stage_amplifier
from repro.circuit.measurements import Measurement, probe_all
from repro.circuit.simulate import DCSolver
from repro.circuit.spice import write_netlist
from repro.core.diagnosis import Flames
from repro.core.model import shared_model
from repro.fuzzy import FuzzyInterval
from repro.runtime import RunContext
from repro.server import DiagnosisClient
from repro.service import DiagnosisJob, FleetEngine
from repro.service.jobs import job_from_spec, measurement_to_dict
from repro.stream.incremental import IncrementalDiagnosisEngine

PROBES = ("vs", "v2", "v1")
#: Timed rounds per width in the worker-scaling check, and jobs per batch.
WORKER_ROUNDS = 3
WORKER_UNITS = 16
#: Jobs per pass in the fleet-cache check.
CACHE_UNITS = 24
#: Ladder sections in the shared-model check.
SHARED_SECTIONS = 40
#: Concurrent requests in the server drill.
INFLIGHT = 50
#: Stream-tick check: ladder sections, timed reps, probe imprecision,
#: and the factor the drifting net sags to.
STREAM_SECTIONS = 8
STREAM_REPS = 3
STREAM_IMPRECISION = 0.05
DRIFT_FACTOR = 0.9
#: Concurrent requests in the cluster sweep.
CLUSTER_CONCURRENCY = 8

#: A repair shop's recurring defects on the demo amplifier.
DEFECTS = [
    Fault(FaultKind.SHORT, "R2"),
    Fault(FaultKind.OPEN, "R3"),
    Fault(FaultKind.PARAM, "R2", parameter="resistance", value=12.18e3),
    Fault(FaultKind.PARAM, "T2", parameter="beta", value=194.0),
    Fault(FaultKind.PARAM, "R4", parameter="resistance", value=3.6e3),
    Fault(FaultKind.PARAM, "R6", parameter="resistance", value=1.5e3),
    Fault(FaultKind.SHORT, "R5"),
    Fault(FaultKind.PARAM, "R1", parameter="resistance", value=240e3),
]


def demo_specs(count, distinct=False):
    """``count`` job specs drawn round-robin from :data:`DEFECTS`.

    With ``distinct=True`` every spec gets a unique content hash (a
    per-index imprecision jitter), so each one is a cold, CPU-bound
    diagnosis; by default the specs repeat every ``len(DEFECTS)``.
    """
    golden = three_stage_amplifier()
    netlist = write_netlist(golden)
    ops = [DCSolver(apply_fault(golden, fault)).solve() for fault in DEFECTS]
    specs = []
    for i in range(count):
        imprecision = 0.02 + (i * 1e-4 if distinct else 0.0)
        bench = probe_all(ops[i % len(ops)], PROBES, imprecision=imprecision)
        specs.append({
            "unit": f"unit-{i:03d}",
            "netlist_text": netlist,
            "measurements": [measurement_to_dict(m) for m in bench],
        })
    return specs


def fire(port, specs, concurrency):
    """All specs through ``concurrency`` client threads; (wall, results)."""

    def one(spec):
        with DiagnosisClient(port=port, timeout=120, retries=4, backoff=0.05) as client:
            return client.diagnose(spec)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        results = list(pool.map(one, specs))
    return time.perf_counter() - start, results


def dropped(results):
    return [r for r in results if r.get("status") != "ok"]


def interleaved_pairs(pairs, fn):
    """``pairs`` (seconds of ``fn(False)``, seconds of ``fn(True)``) tuples.

    Each pair runs both arms back to back, and which arm goes first
    alternates, so slow drift of a shared host lands on both sides of a
    pair instead of on whichever arm happened to run last.
    """
    timings = []
    for i in range(pairs):
        seconds = {}
        for flag in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            fn(flag)
            seconds[flag] = time.perf_counter() - start
        timings.append((seconds[False], seconds[True]))
    return timings


def check_tracing_overhead():
    golden = three_stage_amplifier()
    engine = Flames(golden)
    engine.predictions()
    op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
    measurements = probe_all(op, PROBES, imprecision=0.02)

    def run(tracing):
        return engine.diagnose(measurements, ctx=RunContext(tracing=tracing))

    run(True)  # warm everything once before timing
    timings = interleaved_pairs(41, run)
    # One host stall lands in one pair; the median pair ignores it.
    excess = statistics.median(traced - (base * 1.05 + 0.002) for base, traced in timings)
    base = statistics.median(b for b, _ in timings)
    traced = statistics.median(t for _, t in timings)
    summary = (f"median off {base * 1000:.2f} ms, on {traced * 1000:.2f} ms "
               f"({(traced / base - 1) * 100:+.1f}%), median excess over the bound "
               f"{excess * 1000:+.2f} ms, {len(timings)} pairs")
    assert excess <= 0.0, f"tracing overhead too high: {summary}"
    print(f"tracing ok: {summary}")


def timed_batch(engine, jobs):
    start = time.perf_counter()
    report = engine.run_batch(jobs)
    return time.perf_counter() - start, report


def check_worker_scaling():
    specs = demo_specs(WORKER_UNITS, distinct=True)
    jobs = [job_from_spec(s, i) for i, s in enumerate(specs)]

    def batch(workers):
        # A fresh engine per batch: its result cache never short-circuits.
        elapsed, report = timed_batch(FleetEngine(workers=workers, executor="process"), jobs)
        assert all(r.ok for r in report.results), f"workers={workers}: a job failed"
        return elapsed

    for workers in (8, 4, 1):  # untimed warm-up, and the only 8-worker run
        batch(workers)
    samples = {1: [], 4: []}
    for round_no in range(WORKER_ROUNDS):
        for workers in (1, 4) if round_no % 2 else (4, 1):
            samples[workers].append(batch(workers))
    times = {workers: statistics.median(runs) for workers, runs in samples.items()}
    cpus = os.cpu_count() or 1
    summary = ", ".join(f"workers={w} {t:.2f}s" for w, t in times.items())
    summary += f" (median of {WORKER_ROUNDS})"
    if cpus < 2:
        print(f"worker scaling skipped: only {cpus} CPU ({summary})")
        return
    assert times[4] < times[1], f"4 workers did not beat 1: {summary}"
    print(f"worker scaling ok: {summary}")


def check_fleet_cache():
    units, distinct = CACHE_UNITS, len(DEFECTS)
    jobs = [job_from_spec(s, i) for i, s in enumerate(demo_specs(units))]
    engine = FleetEngine(workers=4, executor="process")
    cold, cold_report = timed_batch(engine, jobs)
    warm, warm_report = timed_batch(engine, jobs)
    # Cold pass: one propagation per distinct defect, repeats replay.
    assert engine.telemetry.counter("propagation_passes") == distinct
    assert cold_report.cache_hits == units - distinct
    # Warm pass: pure cache.
    assert all(r.cache_hit for r in warm_report.results)
    assert engine.cache.hits > 0
    assert warm < cold, f"warm pass {warm:.4f}s not faster than cold {cold:.4f}s"
    print(f"fleet cache ok: cold {cold:.2f}s ({distinct} passes, "
          f"{cold_report.cache_hits} replays), warm {warm:.4f}s")


def check_shared_model():
    sections = SHARED_SECTIONS
    golden = resistor_ladder(sections)
    netlist = write_netlist(golden)
    op = DCSolver(apply_fault(golden, Fault(FaultKind.OPEN, "Rp7"))).solve()
    probes = ("n5", "n10", "n20", "n30", "n40")
    engine = FleetEngine(workers=1, executor="serial", tracing=True)
    model = shared_model(netlist)
    builds = []
    for i, imprecision in enumerate((0.02, 0.021)):
        job = DiagnosisJob.build(f"ladder-{i}", netlist, probe_all(op, probes, imprecision))
        before = model.nominal_builds
        result = engine.run_job(job)
        builds.append(model.nominal_builds - before)
        assert result.ok and not result.cache_hit, f"{job.unit}: {result.status}"
    (root,) = result.trace["spans"]
    nominal = next(span for span in root["children"] if span["name"] == "nominal")
    assert nominal["meta"]["model"] == "hit", nominal["meta"]
    assert builds[1] == 0, f"the second job built the nominal predictions {builds[1]} time(s)"
    print(f"shared model ok: second cold ladder-{sections} job read a warm model "
          f"(nominal builds per job: {builds})")


def check_server():
    inflight = INFLIGHT
    process, port = spawn(
        ["serve", "--port", "0", "--workers", "4", "--queue-size", "64", "--timeout", "60"]
    )
    try:
        spec = demo_specs(1)[0]
        with DiagnosisClient(port=port, timeout=120, retries=4, backoff=0.05) as client:
            start = time.perf_counter()
            cold_result = client.diagnose(spec)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            warm_result = client.diagnose(spec)
            warm = time.perf_counter() - start
        assert not cold_result["cache_hit"]
        assert warm_result["cache_hit"]
        assert warm_result["diagnosis"] == cold_result["diagnosis"]
        assert warm < cold, f"warm {warm * 1000:.2f} ms not faster than cold {cold * 1000:.2f} ms"
        print(f"server cache ok: cold {cold * 1000:.1f} ms, warm {warm * 1000:.1f} ms")

        wall, results = fire(port, demo_specs(inflight), inflight)
        assert len(results) == inflight
        lost = dropped(results)
        assert not lost, f"{len(lost)} of {inflight} requests dropped"
        print(f"server concurrency ok: {inflight} in flight, zero dropped "
              f"({inflight / wall:.1f} req/s)")
        stop(process)
    finally:
        reap(process)


def with_value(measurements, point, volts, imprecision):
    return [
        Measurement(m.point, FuzzyInterval.number(volts, imprecision))
        if m.point == point
        else m
        for m in measurements
    ]


def check_stream_tick():
    """Warm tick vs chain-cold and one-shot while one ladder net sags.

    The net sags to 90% of nominal: inconsistent enough that a real
    diagnosis happens every tick, mild enough that conflict-set
    extraction does not drown out the propagation cost being compared.
    """
    sections, reps, imprecision = STREAM_SECTIONS, STREAM_REPS, STREAM_IMPRECISION
    circuit = resistor_ladder(sections)
    nets = [f"n{i}" for i in range(1, sections + 1)]
    healthy = probe_all(DCSolver(circuit).solve(), nets, imprecision=imprecision)
    drift_point = f"V(n{sections // 2})"
    nominal = {m.point: m for m in healthy}[drift_point].value.centroid
    drift_volts = nominal * DRIFT_FACTOR

    warm = IncrementalDiagnosisEngine(Flames(circuit))
    warm.diagnose(healthy)
    # The first drift pays the reorder; steady state starts on the second.
    warm.diagnose(with_value(healthy, drift_point, drift_volts, imprecision))

    warm_ms, chain_ms, oneshot_ms = [], [], []
    for rep in range(reps):
        # Keep the value moving so every tick really re-asserts it.
        snapshot = with_value(
            healthy, drift_point, drift_volts * (1 + 0.005 * (rep + 1)), imprecision
        )
        start = time.perf_counter()
        warm_result = warm.diagnose(snapshot)
        warm_ms.append((time.perf_counter() - start) * 1e3)
        assert warm.last_stats.incremental
        assert warm.last_stats.recomputed == 1

        by_point = {m.point: m for m in snapshot}
        start = time.perf_counter()
        cold_result = IncrementalDiagnosisEngine(Flames(circuit)).diagnose(
            [by_point[p] for p in warm.order]
        )
        chain_ms.append((time.perf_counter() - start) * 1e3)
        assert not warm_result.is_consistent, "the drift must actually diagnose"
        assert warm_result.ranked_components() == cold_result.ranked_components()

        start = time.perf_counter()
        Flames(circuit).diagnose(snapshot)
        oneshot_ms.append((time.perf_counter() - start) * 1e3)

    tick, chain, oneshot = map(statistics.median, (warm_ms, chain_ms, oneshot_ms))
    assert chain > tick, "warm tick slower than chain-cold"
    assert oneshot > tick, "warm tick slower than one-shot"
    print(f"stream tick ok: warm {tick:.1f} ms, chain-cold {chain:.1f} ms, "
          f"one-shot {oneshot:.1f} ms")


def start_cluster(replicas):
    return spawn(
        [
            "cluster", "--port", "0", "--replicas", str(replicas), "--workers", "2",
            "--queue-size", "64", "--timeout", "60",
            # The smoke drives traffic, not chaos: keep supervision quiet.
            "--poll-interval", "30", "--gossip-interval", "30",
        ],
        CLUSTER_PORT,
    )


def check_cluster(strict):
    concurrency = CLUSTER_CONCURRENCY
    counts, requests = ((1, 2, 4), 18) if strict else ((1, 2), 12)
    specs = demo_specs(requests, distinct=True)
    rates = {}
    for count in counts:
        process, port = start_cluster(count)
        try:
            wall, results = fire(port, specs, concurrency)
            lost = dropped(results)
            assert not lost, f"{len(lost)} dropped at {count} replica(s)"
            stop(process)
        finally:
            reap(process)
        rates[count] = len(results) / wall
        print(f"cluster sweep ok: {count} replica(s), {requests} cold diagnoses, "
              f"zero dropped ({rates[count]:.1f} req/s)")
    assert all(rate > 0 for rate in rates.values())
    if strict:
        scale = rates[max(rates)] / rates[min(rates)]
        assert scale >= 3.0, (
            f"aggregate throughput scaled only x{scale:.2f} from "
            f"{min(rates)} to {max(rates)} replicas (need >=3x)"
        )
        print(f"strict scaling ok: x{scale:.2f}")

    shard_specs = demo_specs(6)
    process, port = start_cluster(2)
    try:
        fire(port, shard_specs, 4)  # prime every shard
        _, results = fire(port, shard_specs, 4)
        stop(process)
    finally:
        reap(process)
    # Sticky routing: the shard owner already computed every answer.
    hits = sum(1 for r in results if r.get("cache_hit"))
    assert hits == len(results), f"repeat pass hit {hits}/{len(results)} warm shards"
    print(f"cluster warm shards ok: {hits}/{len(results)} cache hits")


def main():
    started = time.perf_counter()
    check_tracing_overhead()
    check_worker_scaling()
    check_fleet_cache()
    check_shared_model()
    check_server()
    check_stream_tick()
    check_cluster(strict=bool(os.environ.get("REPRO_BENCH_STRICT")))
    print(f"perf smoke passed ({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
