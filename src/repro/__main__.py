"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables [name ...]`` — regenerate the paper's tables (all by default;
  names: figure2, figure5, figure7, scaling, strategy, learning,
  multifault, dynamic, ablations, atms-growth, dictionary,
  strategy-ladder).
* ``diagnose NETLIST --probe NET=VOLTS [--probe ...]`` — diagnose a unit
  described by a SPICE-subset netlist from bench readings
  (``--imprecision`` sets the instrument tolerance, ``--json`` emits a
  machine-readable result).
* ``batch MANIFEST`` — fleet mode: run a JSON manifest of diagnosis
  jobs through the parallel :class:`~repro.service.FleetEngine` with
  result caching and telemetry (see README "Fleet mode").
* ``serve`` — server mode: keep a warm engine resident and serve
  diagnosis over HTTP/JSON with admission control and graceful drain
  (see README "Server mode").
* ``cluster`` — cluster mode: a consistent-hash gateway sharding the
  same API across ``--replicas N`` server subprocesses, with failover,
  replica supervision and experience gossip (see README "Cluster
  mode").
* ``tenants create|rotate|revoke|list|report`` — administer the durable
  store's tenants: provision an API key, rotate or revoke keys,
  enumerate tenants, or render a tenant's fleet-health report from its
  diagnosis history (see README "Persistence & tenants").
* ``store backup|scrub|status`` — operate on a durable store file:
  online backup under live writers, seal/integrity scrub with corrupt-
  row purge, or a status snapshot (see README "Store lifecycle").
* ``watch`` — streaming mode: simulate a unit live (optionally breaking
  it mid-stream), feed the telemetry through the drift detector and
  render each incremental re-diagnosis as it happens (see README
  "Streaming mode").
* ``corpus generate|run`` — corpus mode: generate a seeded scenario
  corpus (large netlists, multi-fault, intermittent, tempco drift,
  tolerance stackup) and score the engine against it —
  rank-of-true-fault accuracy and latency percentiles per scenario
  class, with an optional committed accuracy floor (see README "Corpus
  mode").
* ``simulate NETLIST`` — print the DC operating point of a netlist.
* ``demo`` — the quickstart walk-through on the three-stage amplifier.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.circuit.measurements import Measurement
from repro.circuit.simulate import DCSolver
from repro.circuit.spice import parse_netlist
from repro.core.diagnosis import Flames
from repro.core.knowledge import KnowledgeBase
from repro.core.report import render_report

#: ``repro tables`` name -> renderer over :mod:`repro.experiments`, in the
#: order a bare ``repro tables`` prints them.
_TABLES = {
    "figure2": lambda ex: ex.format_figure2(),
    "figure5": lambda ex: ex.format_figure5(),
    "figure7": lambda ex: ex.format_figure7(ex.run_figure7()),
    "scaling": lambda ex: ex.format_scaling(ex.run_scaling()),
    "strategy": lambda ex: ex.format_strategy_eval(ex.run_strategy_eval()),
    "learning": lambda ex: ex.format_learning_eval(ex.run_learning_eval()),
    "multifault": lambda ex: ex.format_multifault(ex.run_multifault()),
    "dynamic": lambda ex: ex.format_dynamic_eval(ex.run_dynamic_eval()),
    "ablations": lambda ex: ex.ablations.format_ablation(),
    "atms-growth": lambda ex: ex.format_atms_growth(ex.run_atms_growth()),
    "dictionary": lambda ex: ex.format_dictionary_eval(ex.run_dictionary_eval()),
    "strategy-ladder": lambda ex: ex.format_strategy_eval(ex.run_strategy_eval_ladder()),
}


def _table_name(name: str) -> str:
    # A ``type`` rather than ``choices``: Python 3.11's argparse checks the
    # empty list of an omitted ``nargs="*"`` positional against ``choices``
    # and so rejects a bare ``repro tables``.
    if name not in _TABLES:
        raise argparse.ArgumentTypeError(
            f"unknown table {name!r} (choose from {', '.join(_TABLES)})"
        )
    return name


def _cmd_tables(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    for name in args.names or _TABLES:
        print(_TABLES[name](experiments))
        print()
    return 0


def _load_circuit(path: str):
    text = Path(path).read_text()
    return parse_netlist(text, name=Path(path).stem)


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.netlist)
    op = DCSolver(circuit).solve()
    print(f"DC operating point of {circuit.name}:")
    for net in sorted(op.voltages):
        print(f"  V({net}) = {op.voltages[net]:.6g} V")
    for comp, state in sorted(op.device_states.items()):
        print(f"  {comp}: {state}")
    return 0


def _parse_probe_tuple(spec: str, imprecision: float):
    net, _, raw = spec.partition("=")
    if not raw:
        raise SystemExit(f"--probe expects NET=VOLTS, got {spec!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise SystemExit(f"bad probe {spec!r}: {exc}")
    return (f"V({net})", value, value, imprecision, imprecision)


def _parse_probe(spec: str, imprecision: float) -> Measurement:
    try:
        return Measurement.from_tuple(_parse_probe_tuple(spec, imprecision))
    except ValueError as exc:
        raise SystemExit(f"bad probe {spec!r}: {exc}")


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.runtime import RunContext, render_trace

    circuit = _load_circuit(args.netlist)
    engine = Flames(circuit)
    sanitize_report = None
    if args.sanitize == "repair":
        # Sanitise the raw tuples *before* interval construction so
        # non-finite probes are repaired rather than rejected at parse.
        from repro.resilience import sanitize_tuples

        raw = [_parse_probe_tuple(p, args.imprecision) for p in args.probe]
        tuples, sanitize_report = sanitize_tuples(raw)
        measurements = [Measurement.from_tuple(m) for m in tuples]
        if not measurements:
            print("sanitizer dropped every probe: "
                  + "; ".join(a.reason for a in sanitize_report.actions),
                  file=sys.stderr)
            return 2
    else:
        measurements = [_parse_probe(p, args.imprecision) for p in args.probe]
    ctx = None
    if args.deadline is not None or args.trace:
        if args.deadline is not None and args.deadline <= 0:
            raise SystemExit("--deadline must be positive")
        ctx = RunContext.with_timeout(args.deadline, tracing=args.trace)
    result = engine.diagnose(measurements, ctx=ctx)
    refinements = None
    if not result.is_consistent and not result.interrupted and not args.no_refine:
        refinements = KnowledgeBase(circuit).refine(
            result.suspicions, measurements, top_k=5
        )
    if args.json:
        from repro.service.jobs import diagnosis_to_dict

        payload = diagnosis_to_dict(result, refinements)
        payload["circuit"] = circuit.name
        if sanitize_report is not None and sanitize_report.degraded:
            payload["degraded"] = sanitize_report.to_dict()
        if result.trace:
            payload["trace"] = result.trace
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_report(result, refinements, title=f"diagnosis of {circuit.name}"))
        if sanitize_report is not None and sanitize_report.degraded:
            print("\nDEGRADED MODE: some probes were repaired on entry")
            for action in sanitize_report.actions:
                print(f"  {action.point}: {action.action} ({action.reason})")
        if result.interrupted:
            reason = (ctx.stop_reason or "stopped") if ctx else "stopped"
            print(f"\n(partial result: run interrupted — {reason})")
        if result.trace:
            print()
            print(render_trace(result.trace))
    return 0 if result.is_consistent else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.resilience import FaultPlan, FleetSupervisor
    from repro.service import FleetEngine, ManifestError, load_manifest

    try:
        jobs = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"bad manifest: {exc}", file=sys.stderr)
        return 2
    store = None
    maintenance = None
    if args.store:
        from repro.store import DiagnosisStore, StoreMaintenance

        store = DiagnosisStore(args.store)
        # Batch mode runs upkeep opportunistically: the engine calls
        # maybe_tick() between batches, and the final tick below leaves
        # the WAL checkpointed and retention applied on exit.
        maintenance = StoreMaintenance(store)
    try:
        fault_plan = FaultPlan.from_json(args.faults) if args.faults else None
        engine = FleetEngine(
            workers=args.workers,
            executor=args.executor,
            timeout=args.timeout,
            retries=args.retries,
            cache_size=args.cache_size,
            tracing=args.trace,
            supervisor=FleetSupervisor() if args.supervise else None,
            fault_plan=fault_plan,
            store=store,
            maintenance=maintenance,
        )
    except ValueError as exc:
        if store is not None:
            store.close()
        print(f"bad engine options: {exc}", file=sys.stderr)
        return 2
    try:
        report = engine.run_batch(jobs)
        for _ in range(max(args.repeat - 1, 0)):
            report = engine.run_batch(jobs)
    finally:
        if maintenance is not None:
            maintenance.tick()
        if store is not None:
            store.close()

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if not report.failed else 1

    print(f"fleet of {len(jobs)} units ({engine.executor_kind} x{engine.workers}), "
          f"{report.wall_clock:.2f}s wall-clock")
    for res in report.results:
        tag = " (cached)" if res.cache_hit else ""
        if res.status == "ok":
            if res.is_consistent:
                print(f"  {res.unit}: healthy{tag}")
            else:
                top = ", ".join(f"{c}:{s:.2f}" for c, s in res.candidates()[:4])
                print(f"  {res.unit}: faulty{tag} — {top}")
                modes = res.diagnosis.get("refinements") or []
                if modes:
                    best = modes[0]
                    print(f"      likely mode: {best['component']} "
                          f"{best['mode']} @ {best['degree']:.2f}")
        else:
            reason = res.error.splitlines()[0] if res.error else res.status
            print(f"  {res.unit}: {res.status.upper()} — {reason}")
    if report.rules_learned:
        print(f"experience: {report.rules_learned} rule(s) merged into the shared base")
    cache = report.cache or engine.cache.snapshot()
    tiers = ""
    if cache.get("hits_disk") or (store is not None and cache.get("hits")):
        tiers = (f" [mem {cache.get('hits_mem', 0)}, "
                 f"disk {cache.get('hits_disk', 0)}]")
    print(f"cache: {cache['hits']} hit(s){tiers}, {cache['misses']} miss(es), "
          f"{cache['evictions']} eviction(s), hit rate {cache['hit_rate']:.0%} "
          f"({cache['size']}/{cache['capacity']} slots)")
    print()
    print(engine.telemetry.summary(title="fleet telemetry"))
    return 0 if not report.failed else 1


def _store_settings(args: argparse.Namespace) -> Dict[str, object]:
    """The store and store-lifecycle config fields serve and cluster share."""
    return {
        "store": args.store,
        "checkpoint_interval": args.checkpoint_interval,
        "retain_history_days": args.retain_history,
        "retain_history_rows": args.retain_history_rows,
        "retain_cache_days": args.retain_cache,
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import ServerConfig, run

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            timeout=args.timeout,
            retries=args.retries,
            max_streams=args.max_streams,
            heartbeat=args.heartbeat,
            supervise=args.supervise,
            faults=args.faults,
            lifecycle=not args.no_lifecycle,
            **_store_settings(args),
        )
    except ValueError as exc:
        print(f"bad server options: {exc}", flush=True)
        return 2
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    return run(config)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.gateway import ClusterConfig, run

    try:
        config = ClusterConfig(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            vnodes=args.vnodes,
            workers=args.workers,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            timeout=args.timeout,
            retries=args.retries,
            poll_interval=args.poll_interval,
            gossip_interval=args.gossip_interval,
            supervise=args.supervise,
            faults=args.faults,
            replica_faults=args.replica_faults,
            **_store_settings(args),
        )
    except ValueError as exc:
        print(f"bad cluster options: {exc}", flush=True)
        return 2
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    return run(config)


def _cmd_tenants(args: argparse.Namespace) -> int:
    from repro.store import DiagnosisStore, build_report

    store = DiagnosisStore(args.store)
    try:
        if args.tenants_command == "create":
            try:
                key = store.provision_tenant(
                    args.tenant,
                    name=args.name,
                    quota_limit=args.quota,
                    quota_interval=args.quota_interval,
                )
            except ValueError as exc:
                print(f"cannot provision tenant: {exc}", file=sys.stderr)
                return 2
            payload = {"tenant_id": args.tenant, "api_key": key}
            if args.json:
                # Machine-readable: one compact line on stdout, nothing else.
                print(json.dumps(payload, sort_keys=True))
                return 0
            print(json.dumps(payload, indent=2, sort_keys=True))
            print("save the api_key now: only its digest is stored",
                  file=sys.stderr)
            return 0
        if args.tenants_command == "rotate":
            try:
                key = store.rotate_key(args.tenant, overlap=args.overlap)
            except ValueError as exc:
                print(f"cannot rotate key: {exc}", file=sys.stderr)
                return 2
            payload = {
                "tenant_id": args.tenant,
                "api_key": key,
                "overlap_seconds": args.overlap,
            }
            if args.json:
                print(json.dumps(payload, sort_keys=True))
                return 0
            print(json.dumps(payload, indent=2, sort_keys=True))
            print("save the api_key now: only its digest is stored",
                  file=sys.stderr)
            return 0
        if args.tenants_command == "revoke":
            revoked = store.revoke_keys(args.tenant)
            print(json.dumps(
                {"tenant_id": args.tenant, "revoked": revoked},
                sort_keys=True,
            ))
            return 0 if revoked else 2
        if args.tenants_command == "list":
            tenants = [t.to_dict() for t in store.list_tenants()]
            print(json.dumps({"tenants": tenants}, indent=2, sort_keys=True))
            return 0
        report = build_report(store, args.tenant, limit=args.limit)
        if report is None:
            print(f"no tenant {args.tenant!r}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    finally:
        store.close()


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import DiagnosisStore, StoreError

    store = DiagnosisStore(args.store)
    try:
        if args.store_command == "backup":
            try:
                result = store.backup(args.dest)
            except (StoreError, ValueError, OSError) as exc:
                print(f"backup failed: {exc}", file=sys.stderr)
                return 2
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        if args.store_command == "scrub":
            result = store.scrub()
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0 if result["integrity"] == "ok" else 1
        # status
        snap = store.snapshot()
        snap["integrity"] = store.integrity_check()
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0 if snap["integrity"] == "ok" else 1
    finally:
        store.close()


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.server.http import HttpError
    from repro.server.stream import StreamSpec
    from repro.service.telemetry import Telemetry

    query = {
        "circuit": args.circuit,
        "size": str(args.size),
        "nets": args.nets,
        "fault": args.fault,
        "fault_at": str(args.fault_at),
        "duration": str(args.duration),
        "dt": str(args.dt),
        "imprecision": str(args.imprecision),
        "noise": str(args.noise),
        "seed": str(args.seed),
        "threshold": str(args.threshold),
        "hysteresis": str(args.hysteresis),
        "epsilon": str(args.epsilon),
        "top": str(args.top),
        "tick_deadline": str(args.tick_deadline or 0),
    }
    try:
        spec = StreamSpec.from_query(query)
    except HttpError as exc:
        print(f"bad watch options: {exc.message}", file=sys.stderr)
        return 2
    telemetry = Telemetry()
    session = spec.build_session(telemetry)
    assert session is not None
    if not args.json:
        fault = spec.fault.describe() if spec.fault else "none"
        print(f"watching {spec.golden_circuit().name} "
              f"({spec.duration:g}s @ dt={spec.dt:g}, fault: {fault}"
              + (f" at t={spec.fault_at:g}s" if spec.fault else "") + ")")
    saw_fault = False
    for update in session.run():
        saw_fault = saw_fault or not update.consistent
        if args.json:
            print(json.dumps(update.to_dict(), sort_keys=True), flush=True)
            continue
        kind = "incremental" if update.incremental else "cold"
        line = (f"[{update.seq:3d}] t={update.t:.4g}s {kind} tick "
                f"{update.tick_ms:.0f}ms")
        if update.consistent:
            line += " — consistent (unit looks healthy)"
        else:
            top = " ".join(f"{c}:{s:.2f}" for c, s in update.ranking)
            line += f" — suspects: {top}"
            if update.candidates:
                shown = " ".join("+".join(c) for c in update.candidates[:3])
                line += f"  [candidates: {shown}]"
        if update.drifted:
            line += f"  [drift: {','.join(update.drifted)}]"
        if update.interrupted:
            line += "  (partial: tick deadline hit)"
        print(line, flush=True)
    if not args.json:
        print()
        print(telemetry.summary(title="stream telemetry"))
    return 1 if saw_fault else 0


def _parse_classes(raw: str) -> Optional[List[str]]:
    names = [c.strip() for c in raw.split(",") if c.strip()]
    return names or None


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import generate_corpus

    try:
        manifest = generate_corpus(args.seed, args.per_class, _parse_classes(args.classes))
    except ValueError as exc:
        print(f"bad corpus recipe: {exc}", file=sys.stderr)
        return 2
    text = manifest.to_json()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(manifest)} scenarios "
              f"({len(manifest.classes)} classes, seed {manifest.seed}) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _corpus_table(report) -> str:
    columns = [f"top{k}" for k in report.top_k]
    lines = [f"  {'class':<20}{'n':>6}" + "".join(f"{c:>8}" for c in columns)
             + f"{'mrank':>8}{'lowdeg':>8}{'p50ms':>9}{'p95ms':>9}"]
    classes = report.stats()
    for name in sorted(classes, key=lambda c: (c == "overall", c)):
        acc = classes[name].accuracy_dict()
        lat = classes[name].latency_dict()
        mean_rank = acc["mean_rank"]
        lines.append(
            f"  {name:<20}{acc['n']:>6}"
            + "".join(f"{acc.get(c, 0.0):>8.3f}" for c in columns)
            + f"{(f'{mean_rank:.2f}' if mean_rank is not None else '-'):>8}"
            f"{acc['low_degree_rate']:>8.3f}"
            f"{lat['p50_ms']:>9.1f}{lat['p95_ms']:>9.1f}"
        )
    return "\n".join(lines)


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    import time

    from repro.corpus import CorpusManifest, check_floor, generate_corpus, run_corpus
    from repro.corpus.harness import check_top_k

    if args.manifest:
        try:
            manifest = CorpusManifest.from_json(Path(args.manifest).read_text())
        except (OSError, ValueError, KeyError) as exc:
            print(f"bad corpus manifest: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            manifest = generate_corpus(
                args.seed, args.per_class, _parse_classes(args.classes)
            )
        except ValueError as exc:
            print(f"bad corpus recipe: {exc}", file=sys.stderr)
            return 2
    try:
        top_k = tuple(int(k) for k in args.top_k.split(",") if k.strip())
        check_top_k(top_k)
    except ValueError as exc:
        print(f"bad --top-k: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        report = run_corpus(
            manifest,
            workers=args.workers,
            executor=args.executor,
            top_k=top_k or (1, 3, 5),
        )
    except ValueError as exc:
        # The fleet engine rejects its options (``--workers 0``) before
        # any scenario runs; diagnosis faults become structured results.
        print(f"bad engine options: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    if args.out:
        Path(args.out).write_text(report.to_json(include_latency=args.latency))
    breaches = []
    if args.floor:
        try:
            floor = json.loads(Path(args.floor).read_text())
        except (OSError, ValueError) as exc:
            print(f"bad floor file: {exc}", file=sys.stderr)
            return 2
        breaches = check_floor(report, floor)
    if args.json:
        sys.stdout.write(report.to_json(include_latency=args.latency))
    else:
        print(f"corpus of {len(manifest)} scenarios "
              f"(seed {manifest.seed}, {len(manifest.classes)} classes) "
              f"— {wall:.1f}s wall-clock")
        print(_corpus_table(report))
    for breach in breaches:
        print(f"FLOOR BREACH: {breach}", file=sys.stderr)
    if args.floor and not breaches:
        print("accuracy floor holds", file=sys.stderr)
    return 1 if breaches else 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.circuit.faults import Fault, FaultKind, apply_fault
    from repro.circuit.library import three_stage_amplifier
    from repro.circuit.measurements import probe_all

    golden = three_stage_amplifier()
    fault = Fault(FaultKind.SHORT, "R2")
    print(f"demo: {golden.name} with an injected '{fault.describe()}'\n")
    op = DCSolver(apply_fault(golden, fault)).solve()
    measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
    engine = Flames(golden)
    result = engine.diagnose(measurements)
    refinements = KnowledgeBase(golden).refine(result.suspicions, measurements)
    print(render_report(result, refinements, title="FLAMES demo"))
    return 0


def _add_lifecycle_args(parser: argparse.ArgumentParser) -> None:
    """Store-lifecycle tuning flags shared by serve and cluster modes."""
    parser.add_argument(
        "--checkpoint-interval", type=float, default=60.0,
        help="seconds between WAL checkpoint/retention ticks (default 60)",
    )
    parser.add_argument(
        "--retain-history", type=float, default=30.0,
        help="days of history to keep, 0 = forever (default 30)",
    )
    parser.add_argument(
        "--retain-history-rows", type=int, default=100_000,
        help="max history rows to keep, 0 = unlimited (default 100000)",
    )
    parser.add_argument(
        "--retain-cache", type=float, default=0.0,
        help="days of cache rows to keep, 0 = forever (default 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLAMES — fuzzy-logic ATMS analog diagnosis (DATE 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument(
        "names", nargs="*", type=_table_name, metavar="NAME",
        help=f"which tables (default: all): {', '.join(_TABLES)}",
    )
    tables.set_defaults(func=_cmd_tables)

    simulate = sub.add_parser("simulate", help="DC operating point of a netlist")
    simulate.add_argument("netlist", help="SPICE-subset netlist file")
    simulate.set_defaults(func=_cmd_simulate)

    diagnose = sub.add_parser("diagnose", help="diagnose a unit from bench readings")
    diagnose.add_argument("netlist", help="golden design (SPICE-subset netlist)")
    diagnose.add_argument(
        "--probe",
        action="append",
        default=[],
        required=True,
        help="measured node voltage, NET=VOLTS (repeatable)",
    )
    diagnose.add_argument(
        "--imprecision",
        type=float,
        default=0.02,
        help="instrument imprecision in volts (default 0.02)",
    )
    diagnose.add_argument(
        "--no-refine", action="store_true", help="skip fault-mode refinement"
    )
    diagnose.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON result instead of the text report",
    )
    diagnose.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds; on expiry the run winds down "
        "cooperatively and reports a partial result",
    )
    diagnose.add_argument(
        "--trace",
        action="store_true",
        help="collect per-stage spans and print the trace tree (embedded "
        "under 'trace' with --json)",
    )
    diagnose.add_argument(
        "--sanitize",
        choices=["strict", "repair"],
        default="strict",
        help="measurement policy: strict rejects malformed probes (default); "
        "repair drops/widens them and the diagnosis runs degraded (see "
        "README 'Resilience')",
    )
    diagnose.set_defaults(func=_cmd_diagnose)

    batch = sub.add_parser(
        "batch", help="fleet mode: run a JSON manifest of diagnosis jobs"
    )
    batch.add_argument("manifest", help="JSON job manifest (see README 'Fleet mode')")
    batch.add_argument(
        "--workers", type=int, default=4, help="worker pool width (default 4)"
    )
    batch.add_argument(
        "--executor",
        choices=["process", "thread", "serial"],
        default="process",
        help="pool flavour (default process)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    batch.add_argument(
        "--retries", type=int, default=1, help="extra attempts for crashed jobs (default 1)"
    )
    batch.add_argument(
        "--cache-size", type=int, default=256, help="result-cache capacity (default 256)"
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the manifest N times against the same warm cache (default 1)",
    )
    batch.add_argument(
        "--trace",
        action="store_true",
        help="collect engine span trees per job (folded into the telemetry "
        "digest as engine.* phases; on each result with --json)",
    )
    batch.add_argument(
        "--json",
        action="store_true",
        help="emit the full batch report as JSON (results + telemetry)",
    )
    batch.add_argument(
        "--supervise",
        action="store_true",
        help="engage the fleet supervisor: poison-job quarantine and worker "
        "health eviction (see README 'Resilience')",
    )
    batch.add_argument(
        "--faults",
        default="",
        help="JSON fault plan armed across the engine and its workers "
        "(deterministic chaos testing; see README 'Resilience')",
    )
    batch.add_argument(
        "--store",
        default="",
        help="durable sqlite store: results and learned experience "
        "survive restarts (see README 'Persistence & tenants')",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="server mode: diagnosis over HTTP/JSON from a warm engine"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port; 0 picks an ephemeral port"
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="concurrent diagnosis slots (default 4)"
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="requests allowed to wait for a slot before 503s (default 64)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="result-cache capacity (default 1024)"
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request budget in seconds (default 30)",
    )
    serve.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for crashed jobs (default 1)",
    )
    serve.add_argument(
        "--max-streams", type=int, default=4,
        help="concurrent /v1/stream SSE connections (default 4)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=5.0,
        help="SSE keep-alive cadence in seconds (default 5)",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="engage the fleet supervisor (quarantine, worker health)",
    )
    serve.add_argument(
        "--faults", default="",
        help="JSON fault plan armed server-wide (chaos testing only)",
    )
    serve.add_argument(
        "--store", default="",
        help="durable sqlite store: caches, experience and tenants "
        "survive restarts (see README 'Persistence & tenants')",
    )
    _add_lifecycle_args(serve)
    serve.add_argument(
        "--no-lifecycle", action="store_true",
        help="disable the store maintenance loop (another process owns it)",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="cluster mode: a sharded replica fleet behind one gateway",
    )
    cluster.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    cluster.add_argument(
        "--port", type=int, default=8090, help="gateway port; 0 picks an ephemeral port"
    )
    cluster.add_argument(
        "--replicas", type=int, default=2,
        help="server subprocesses to run (default 2)",
    )
    cluster.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per replica on the hash ring (default 64)",
    )
    cluster.add_argument(
        "--workers", type=int, default=2,
        help="diagnosis slots per replica (default 2)",
    )
    cluster.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue depth per replica (default 64)",
    )
    cluster.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity per replica (default 1024)",
    )
    cluster.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request budget in seconds (default 30)",
    )
    cluster.add_argument(
        "--retries", type=int, default=1,
        help="per-replica crashed-job retries (default 1)",
    )
    cluster.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="replica health-poll period in seconds (default 1)",
    )
    cluster.add_argument(
        "--gossip-interval", type=float, default=2.0,
        help="experience gossip period in seconds (default 2)",
    )
    cluster.add_argument(
        "--supervise", action="store_true",
        help="engage the fleet supervisor inside every replica",
    )
    cluster.add_argument(
        "--faults", default="",
        help="JSON fault plan armed in the gateway (cluster.* chaos points)",
    )
    cluster.add_argument(
        "--replica-faults", default="",
        help="JSON fault plan forwarded to every replica subprocess",
    )
    cluster.add_argument(
        "--store", default="",
        help="durable sqlite store shared by every replica; the gateway "
        "seeds its gossip ledger from it at boot",
    )
    _add_lifecycle_args(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    tenants = sub.add_parser(
        "tenants", help="administer tenants in a durable store"
    )
    tenants_sub = tenants.add_subparsers(dest="tenants_command", required=True)

    tenants_create = tenants_sub.add_parser(
        "create", help="provision a tenant and print its API key (once)"
    )
    tenants_create.add_argument("tenant", help="tenant id (no ':', '/' or whitespace)")
    tenants_create.add_argument("--store", required=True, help="durable store file")
    tenants_create.add_argument(
        "--name", default="", help="display name (default: the tenant id)"
    )
    tenants_create.add_argument(
        "--quota", type=int, default=0,
        help="requests allowed per window, 0 = unlimited (default 0)",
    )
    tenants_create.add_argument(
        "--quota-interval", dest="quota_interval", type=float, default=60.0,
        help="quota window in seconds (default 60)",
    )
    tenants_create.add_argument(
        "--json", action="store_true",
        help="emit one compact JSON line on stdout (for provisioning scripts)",
    )
    tenants_create.set_defaults(func=_cmd_tenants)

    tenants_rotate = tenants_sub.add_parser(
        "rotate", help="issue a fresh API key and retire the current one"
    )
    tenants_rotate.add_argument("tenant", help="tenant id")
    tenants_rotate.add_argument("--store", required=True, help="durable store file")
    tenants_rotate.add_argument(
        "--overlap", type=float, default=0.0,
        help="seconds the old key stays valid after rotation (default 0)",
    )
    tenants_rotate.add_argument(
        "--json", action="store_true",
        help="emit one compact JSON line on stdout (for provisioning scripts)",
    )
    tenants_rotate.set_defaults(func=_cmd_tenants)

    tenants_revoke = tenants_sub.add_parser(
        "revoke", help="revoke every API key a tenant holds (terminal)"
    )
    tenants_revoke.add_argument("tenant", help="tenant id")
    tenants_revoke.add_argument("--store", required=True, help="durable store file")
    tenants_revoke.set_defaults(func=_cmd_tenants)

    tenants_list = tenants_sub.add_parser(
        "list", help="list provisioned tenants (never their keys)"
    )
    tenants_list.add_argument("--store", required=True, help="durable store file")
    tenants_list.set_defaults(func=_cmd_tenants)

    tenants_report = tenants_sub.add_parser(
        "report", help="a tenant's fleet-health report from its history"
    )
    tenants_report.add_argument("tenant", help="tenant id")
    tenants_report.add_argument("--store", required=True, help="durable store file")
    tenants_report.add_argument(
        "--limit", type=int, default=0,
        help="only the most recent N history rows (default: all)",
    )
    tenants_report.set_defaults(func=_cmd_tenants)

    store_cmd = sub.add_parser(
        "store", help="operate on a durable store: backup, scrub, status"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)

    store_backup = store_sub.add_parser(
        "backup", help="online backup to a new file (safe under live writers)"
    )
    store_backup.add_argument("dest", help="destination file (not the live store)")
    store_backup.add_argument("--store", required=True, help="durable store file")
    store_backup.set_defaults(func=_cmd_store)

    store_scrub = store_sub.add_parser(
        "scrub", help="re-verify cache seals and run integrity_check; "
        "purge corrupt rows",
    )
    store_scrub.add_argument("--store", required=True, help="durable store file")
    store_scrub.set_defaults(func=_cmd_store)

    store_status = store_sub.add_parser(
        "status", help="row counts, WAL size and integrity of a store file"
    )
    store_status.add_argument("--store", required=True, help="durable store file")
    store_status.set_defaults(func=_cmd_store)

    watch = sub.add_parser(
        "watch",
        help="streaming mode: watch a live-simulated unit and re-diagnose "
        "incrementally as it drifts",
    )
    watch.add_argument(
        "--circuit", choices=["ladder", "rc"], default="ladder",
        help="unit family: resistive ladder or dynamic RC low-pass (default ladder)",
    )
    watch.add_argument(
        "--size", type=int, default=6,
        help="ladder sections / RC stages (default 6)",
    )
    watch.add_argument(
        "--nets", default="",
        help="comma-separated nets to probe (default: every probe net)",
    )
    watch.add_argument(
        "--fault", default="",
        help="inject mid-stream: kind:component[:value], e.g. short:Rp3 "
        "or param:Rs2:30e3 (default: none — a healthy run)",
    )
    watch.add_argument(
        "--fault-at", dest="fault_at", type=float, default=0.0,
        help="stream time at which the fault appears (default 0)",
    )
    watch.add_argument(
        "--duration", type=float, default=0.01,
        help="how long to observe, in simulated seconds (default 0.01)",
    )
    watch.add_argument(
        "--dt", type=float, default=1e-3, help="sample period (default 1e-3)"
    )
    watch.add_argument(
        "--imprecision", type=float, default=0.05,
        help="instrument imprecision in volts (default 0.05)",
    )
    watch.add_argument(
        "--noise", type=float, default=0.0,
        help="Gaussian instrument noise sigma in volts (default 0)",
    )
    watch.add_argument(
        "--seed", type=int, default=0, help="noise RNG seed (default 0)"
    )
    watch.add_argument(
        "--threshold", type=float, default=0.5,
        help="EWMA discrepancy level that triggers a re-diagnosis (default 0.5)",
    )
    watch.add_argument(
        "--hysteresis", type=float, default=0.2,
        help="re-arm margin below the threshold (default 0.2)",
    )
    watch.add_argument(
        "--epsilon", type=float, default=1e-3,
        help="volts a reading must move to dirty its point (default 1e-3)",
    )
    watch.add_argument(
        "--top", type=int, default=5,
        help="ranked components shown per update (default 5)",
    )
    watch.add_argument(
        "--tick-deadline", dest="tick_deadline", type=float, default=None,
        help="per-re-diagnosis budget in seconds (default: unbounded)",
    )
    watch.add_argument(
        "--json", action="store_true",
        help="one JSON object per update (the SSE data schema) instead of text",
    )
    watch.set_defaults(func=_cmd_watch)

    corpus = sub.add_parser(
        "corpus",
        help="corpus mode: seeded scenario generation + accuracy regression",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    def _recipe_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed", type=int, default=7,
            help="corpus seed; every scenario is deterministic from "
            "(seed, class) (default 7)",
        )
        p.add_argument(
            "--per-class", dest="per_class", type=int, default=170,
            help="scenarios per class (default 170 — ~1000 across the "
            "six classes)",
        )
        p.add_argument(
            "--classes", default="",
            help="comma-separated scenario classes (default: all six; see "
            "README 'Corpus mode')",
        )

    corpus_generate = corpus_sub.add_parser(
        "generate", help="generate a scenario manifest (canonical JSON)"
    )
    _recipe_options(corpus_generate)
    corpus_generate.add_argument(
        "--out", default="", help="write the manifest here (default stdout)"
    )
    corpus_generate.set_defaults(func=_cmd_corpus_generate)

    corpus_run = corpus_sub.add_parser(
        "run", help="execute a corpus and report accuracy + latency per class"
    )
    _recipe_options(corpus_run)
    corpus_run.add_argument(
        "--manifest", default="",
        help="run this manifest file instead of generating from the recipe",
    )
    corpus_run.add_argument(
        "--workers", type=int, default=4, help="worker pool width (default 4)"
    )
    corpus_run.add_argument(
        "--executor", choices=["process", "thread", "serial"], default="process",
        help="pool flavour (default process)",
    )
    corpus_run.add_argument(
        "--top-k", dest="top_k", default="1,3,5",
        help="hit@k cut-offs, comma-separated (default 1,3,5)",
    )
    corpus_run.add_argument(
        "--out", default="",
        help="write the machine-readable report here (accuracy only, "
        "byte-stable across runs unless --latency)",
    )
    corpus_run.add_argument(
        "--floor", default="",
        help="accuracy floor JSON to enforce (e.g. scripts/"
        "corpus_floor.json); breaches exit 1",
    )
    corpus_run.add_argument(
        "--latency", action="store_true",
        help="include latency percentiles in the JSON report (breaks "
        "byte-stability; the text table always shows them)",
    )
    corpus_run.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of the text table",
    )
    corpus_run.set_defaults(func=_cmd_corpus_run)

    demo = sub.add_parser("demo", help="diagnose a shorted resistor on the paper's amplifier")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
