"""The ``deepplan`` command-line tool.

Mirrors the paper's standalone planner tool plus a few inspection and
simulation commands::

    deepplan models                       # list the model zoo
    deepplan topo --machine p3.8xlarge    # show the machine topology
    deepplan plan --model bert-base --strategy pt+dha
    deepplan infer --model bert-base      # simulate one cold-start
    deepplan serve --model bert-base --instances 140 --rate 100
    deepplan serve ... --audit           # run with invariant auditing on
    deepplan audit --cases 20            # differential-execution suite
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.analysis import format_table
from repro.core import DeepPlan, ExecMethod, Strategy
from repro.engine import run_single_inference
from repro.hw.machine import Machine
from repro.hw.specs import machine_presets
from repro.models import MODEL_NAMES, build_model
from repro.serving import InferenceServer, PoissonWorkload, ServerConfig
from repro.simkit import Simulator
from repro.units import MB, MS

__all__ = ["main"]


def _add_machine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="p3.8xlarge",
                        choices=sorted(machine_presets()),
                        help="machine preset (default: the paper's testbed)")


def _add_model_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="bert-base", choices=MODEL_NAMES,
                        help="model from the paper's zoo")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepplan",
        description="DeepPlan (EuroSys '23) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    topo = sub.add_parser("topo", help="show a machine preset's topology")
    _add_machine_arg(topo)

    plan = sub.add_parser("plan", help="generate an execution plan")
    _add_machine_arg(plan)
    _add_model_arg(plan)
    plan.add_argument("--strategy", default="pt+dha",
                      choices=[s.value for s in Strategy])
    plan.add_argument("--batch", type=int, default=1)
    plan.add_argument("--show-layers", type=int, default=0, metavar="N",
                      help="also print the first N per-layer decisions")
    plan.add_argument("--output", metavar="FILE",
                      help="save the deployable plan as JSON")

    infer = sub.add_parser("infer", help="simulate a cold-start inference")
    _add_machine_arg(infer)
    _add_model_arg(infer)
    infer.add_argument("--strategy", default=None,
                       choices=[s.value for s in Strategy],
                       help="default: compare all five strategies")
    infer.add_argument("--batch", type=int, default=1)
    infer.add_argument("--gantt", action="store_true",
                       help="render an ASCII timeline per strategy")

    serve = sub.add_parser("serve", help="simulate a serving scenario")
    _add_machine_arg(serve)
    _add_model_arg(serve)
    serve.add_argument("--strategy", default="pt+dha",
                       choices=[s.value for s in Strategy])
    serve.add_argument("--instances", type=int, default=120)
    serve.add_argument("--rate", type=float, default=100.0,
                       help="aggregate request rate (req/s)")
    serve.add_argument("--requests", type=int, default=1000)
    serve.add_argument("--slo-ms", type=float, default=100.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--eviction", default="lru",
                       choices=("lru", "lfu", "fifo", "random"))
    serve.add_argument("--homing", default="round-robin",
                       choices=("round-robin", "least-loaded"))
    serve.add_argument("--audit", action="store_true",
                       help="enable the runtime invariant-audit layer; the "
                            "run fails loudly on any conservation violation")

    cluster = sub.add_parser(
        "cluster", help="simulate a multi-machine serving fleet")
    _add_machine_arg(cluster)
    _add_model_arg(cluster)
    cluster.add_argument("--strategy", default="pt+dha",
                         choices=[s.value for s in Strategy])
    cluster.add_argument("--machines", type=int, default=2,
                         help="base fleet size")
    cluster.add_argument("--standby", type=int, default=0,
                         help="standby machines the autoscaler may activate")
    cluster.add_argument("--replication", type=int, default=2,
                         help="replicas per logical instance")
    cluster.add_argument("--policy", default="affinity",
                         choices=("round-robin", "least-loaded", "affinity"))
    cluster.add_argument("--instances", type=int, default=24,
                         help="logical instances of the model")
    cluster.add_argument("--trace", default="poisson",
                         choices=("poisson", "maf"))
    cluster.add_argument("--rate", type=float, default=100.0,
                         help="aggregate request rate (req/s)")
    cluster.add_argument("--requests", type=int, default=1000,
                         help="request count (poisson trace)")
    cluster.add_argument("--duration", type=float, default=120.0,
                         help="trace duration in seconds (maf trace)")
    cluster.add_argument("--faults", type=int, default=0,
                         help="random crash/recover pairs to inject")
    cluster.add_argument("--max-retries", type=int, default=3)
    cluster.add_argument("--slo-ms", type=float, default=100.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable the windowed-p99 autoscaler")
    cluster.add_argument("--audit", action="store_true",
                         help="prove exactly-once request accounting "
                              "across machine failures")

    replay = sub.add_parser(
        "replay", help="sharded parallel trace replay (epoch-synchronized "
                       "multiprocessing with a serial differential oracle)")
    _add_machine_arg(replay)
    _add_model_arg(replay)
    replay.add_argument("--strategy", default="pt+dha",
                        choices=[s.value for s in Strategy])
    replay.add_argument("--shards", type=int, default=2,
                        help="machine groups (= simulator instances)")
    replay.add_argument("--backend", default="process",
                        choices=("serial", "process"),
                        help="serial = in-process oracle; process = one "
                             "spawn worker per shard")
    replay.add_argument("--adaptive-epochs", action="store_true",
                        help="grow/shrink the epoch length with observed "
                             "work (deterministic; changes the epoch grid "
                             "and therefore retry timing)")
    replay.add_argument("--epoch-ms", type=float, default=100.0,
                        help="synchronization quantum in milliseconds")
    replay.add_argument("--machines", type=int, default=4,
                        help="base fleet size")
    replay.add_argument("--replication", type=int, default=2,
                        help="replicas per logical instance")
    replay.add_argument("--policy", default="affinity",
                        choices=("round-robin", "least-loaded", "affinity"))
    replay.add_argument("--instances", type=int, default=24,
                        help="logical instances of the model")
    replay.add_argument("--trace", default="poisson",
                        choices=("poisson", "maf"))
    replay.add_argument("--rate", type=float, default=100.0,
                        help="aggregate request rate (req/s)")
    replay.add_argument("--requests", type=int, default=1000,
                        help="request count (poisson trace)")
    replay.add_argument("--duration", type=float, default=120.0,
                        help="trace duration in seconds (maf trace)")
    replay.add_argument("--faults", type=int, default=0,
                        help="random crash/recover pairs to inject")
    replay.add_argument("--max-retries", type=int, default=3)
    replay.add_argument("--slo-ms", type=float, default=100.0)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--check", action="store_true",
                        help="also run the single-process serial reference "
                             "and verify the outcomes are bit-identical")
    replay.add_argument("--audit", action="store_true",
                        help="enable per-shard conservation ledgers plus "
                             "the servers' invariant-audit layer")
    replay.add_argument("--chaos-workers", type=int, default=0,
                        metavar="N",
                        help="inject N seeded random worker faults "
                             "(kill/stall/corrupt at random epochs; "
                             "process backend only) to exercise "
                             "crash recovery")
    replay.add_argument("--chaos-spec", default="",
                        help="explicit chaos events as "
                             "kind@shard:epoch[:duration],... "
                             "(e.g. kill@0:2,stall@1:3:5.0); combined "
                             "with --chaos-workers")
    replay.add_argument("--worker-timeout", type=float, default=30.0,
                        help="supervision deadline in seconds per worker "
                             "pipe interaction (must be positive)")
    replay.add_argument("--max-worker-restarts", type=int, default=3,
                        help="respawn budget per worker before the "
                             "replay fails (or falls back)")
    replay.add_argument("--serial-fallback", action="store_true",
                        help="rerun on the in-process serial backend if "
                             "a worker exhausts its restart budget")
    replay.add_argument("--watchdog", type=float, default=0.0,
                        metavar="SECS",
                        help="dump all thread stacks via faulthandler "
                             "and exit if the command runs longer than "
                             "SECS (CI hang debugging)")

    chaos = sub.add_parser(
        "chaos", help="replay a seeded device/link fault schedule and "
                      "print a degradation report")
    _add_machine_arg(chaos)
    _add_model_arg(chaos)
    chaos.add_argument("--strategy", default="pt+dha",
                       choices=[s.value for s in Strategy])
    chaos.add_argument("--machines", type=int, default=2)
    chaos.add_argument("--replication", type=int, default=2)
    chaos.add_argument("--instances", type=int, default=12,
                       help="logical instances of the model")
    chaos.add_argument("--rate", type=float, default=50.0,
                       help="aggregate request rate (req/s)")
    chaos.add_argument("--requests", type=int, default=500)
    chaos.add_argument("--faults", type=int, default=6,
                       help="random fault/heal pairs to inject")
    chaos.add_argument("--granularity", default="device",
                       choices=("machine", "device", "mixed"))
    chaos.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline; enables load shedding")
    chaos.add_argument("--max-retries", type=int, default=3)
    chaos.add_argument("--slo-ms", type=float, default=100.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--no-audit", action="store_true",
                       help="skip the exactly-once accounting audit")

    loadgen = sub.add_parser(
        "loadgen", help="drive a server with the open-loop traffic "
                        "frontend (coordinated-omission-safe latency)")
    _add_machine_arg(loadgen)
    _add_model_arg(loadgen)
    loadgen.add_argument("--strategy", default="pt+dha",
                         choices=[s.value for s in Strategy])
    loadgen.add_argument("--instances", type=int, default=64)
    loadgen.add_argument("--pattern", default="steady",
                         choices=("steady", "diurnal", "flash", "mix"),
                         help="traffic shape: constant, day/night curve, "
                              "flash-crowd burst, or a QoS-class mix")
    loadgen.add_argument("--mode", default="open",
                         choices=("open", "closed", "both"),
                         help="arrival discipline; 'both' runs each mode "
                              "on a fresh server with the same traffic "
                              "seed and prints the omission gap")
    loadgen.add_argument("--rate", type=float, default=80.0,
                         help="mean aggregate request rate (req/s)")
    loadgen.add_argument("--duration", type=float, default=30.0,
                         help="seconds of traffic to generate")
    loadgen.add_argument("--clients", type=int, default=4,
                         help="closed-loop connection-pool size")
    loadgen.add_argument("--max-requests", type=int, default=None,
                         help="cap on generated arrivals (smoke runs)")
    loadgen.add_argument("--slo-ms", type=float, default=100.0)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--histogram", action="store_true",
                         help="print the full ASCII latency histogram")
    loadgen.add_argument("--audit", action="store_true",
                         help="enable the runtime invariant-audit layer")

    audit = sub.add_parser(
        "audit", help="run the differential-execution audit suite")
    _add_machine_arg(audit)
    audit.add_argument("--cases", type=int, default=20,
                       help="seeded model/strategy combinations to run")
    audit.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = typing.cast(str, args.command)
    handler = {
        "models": _cmd_models,
        "topo": _cmd_topo,
        "plan": _cmd_plan,
        "infer": _cmd_infer,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "replay": _cmd_replay,
        "chaos": _cmd_chaos,
        "loadgen": _cmd_loadgen,
        "audit": _cmd_audit,
    }[command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name in MODEL_NAMES:
        model = build_model(name)
        rows.append([name, model.family, len(model.layers),
                     model.param_count / 1e6, model.param_bytes / MB,
                     model.seq_len])
    print(format_table(
        ["model", "family", "layers", "params (M)", "size (MiB)", "seq"],
        rows, title="Model zoo (paper Section 5.1)"))
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    spec = machine_presets()[args.machine]()
    machine = Machine(Simulator(), spec)
    print(machine.describe())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = machine_presets()[args.machine]()
    planner = DeepPlan(spec)
    model = build_model(args.model)
    plan = planner.plan(model, args.strategy, batch_size=args.batch)
    print(plan.summary())
    if args.output:
        from repro.core.serialization import save_plan
        save_plan(plan, args.output)
        print(f"\nsaved deployable plan to {args.output}")
    if args.show_layers:
        indices = model.loadable_indices()[:args.show_layers]
        rows = [[model.layers[i].name, model.layers[i].kind.value,
                 model.layers[i].param_bytes / MB,
                 "load" if plan.method(i) is ExecMethod.LOAD else "dha"]
                for i in indices]
        print()
        print(format_table(["layer", "kind", "size (MiB)", "method"], rows))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    spec = machine_presets()[args.machine]()
    planner = DeepPlan(spec)
    model = build_model(args.model)
    strategies = ([Strategy.parse(args.strategy)] if args.strategy
                  else list(Strategy))
    rows = []
    baseline_ms = None
    gantts = []
    for strategy in strategies:
        result = run_single_inference(spec, model, strategy,
                                      batch_size=args.batch, planner=planner)
        latency_ms = result.latency / MS
        if strategy is Strategy.BASELINE:
            baseline_ms = latency_ms
        speedup = baseline_ms / latency_ms if baseline_ms else float("nan")
        rows.append([strategy.value, latency_ms, result.total_stall / MS,
                     speedup])
        if args.gantt:
            from repro.analysis.gantt import render_gantt
            gantts.append(f"[{strategy.value}]\n{render_gantt(result)}")
    for block in gantts:
        print(block)
        print()
    print(format_table(
        ["strategy", "latency (ms)", "stall (ms)", "speedup vs baseline"],
        rows, title=f"{args.model} cold-start on {args.machine} "
                    f"(batch {args.batch})"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = machine_presets()[args.machine]()
    planner = DeepPlan(spec)
    model = build_model(args.model)
    machine = Machine(Simulator(), spec)
    server = InferenceServer(machine, planner, ServerConfig(
        strategy=args.strategy, slo=args.slo_ms * MS,
        eviction_policy=args.eviction, homing=args.homing,
        audit=args.audit))
    server.deploy([(model, args.instances)])
    workload = PoissonWorkload(list(server.instances), rate=args.rate,
                               num_requests=args.requests, seed=args.seed)
    report = server.run(workload.generate())
    summary = report.summary()
    rows = [[key, value] for key, value in summary.items()]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.instances}x {args.model} @ {args.rate} req/s "
              f"({args.strategy}, SLO {args.slo_ms:.0f} ms)"))
    if args.audit and server.auditor is not None:
        print(f"\naudit: {server.auditor.checks} invariant checks, "
              f"0 violations")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.analysis.cluster import format_cluster_report
    from repro.cluster import (
        AutoscalerConfig,
        Cluster,
        ClusterConfig,
        random_fault_schedule,
    )
    from repro.serving.workload import TraceWorkload

    spec = machine_presets()[args.machine]()
    config = ClusterConfig(
        num_machines=args.machines,
        num_standby=args.standby,
        replication=min(args.replication, args.machines),
        policy=args.policy,
        strategy=args.strategy,
        slo=args.slo_ms * MS,
        max_retries=args.max_retries,
        audit=args.audit,
        autoscale=AutoscalerConfig() if args.autoscale else None,
    )
    cluster = Cluster(spec, config)
    model = build_model(args.model)
    names = cluster.deploy([(model, args.instances)])
    if args.trace == "maf":
        from repro.serving.maf import MAFTraceConfig, synthesize_maf_trace
        trace = synthesize_maf_trace(names, MAFTraceConfig(
            duration=args.duration, target_rps=args.rate, seed=args.seed))
        requests = TraceWorkload(trace.arrivals).generate()
        duration = args.duration
    else:
        workload = PoissonWorkload(names, rate=args.rate,
                                   num_requests=args.requests,
                                   seed=args.seed)
        requests = workload.generate()
        duration = requests[-1].arrival_time
    schedule = random_fault_schedule(
        [m.name for m in cluster.machines[:args.machines]],
        args.faults, duration, seed=args.seed)
    report = cluster.run(requests, fault_schedule=schedule)
    print(format_cluster_report(report))
    if args.audit and cluster.auditor is not None:
        print(f"\naudit: {cluster.auditor.checks} invariant checks, "
              f"{len(cluster.auditor.violations)} violations — every "
              f"request completed exactly once, was shed, or was dropped "
              f"after {args.max_retries + 1} failed attempts")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.shard import parse_chaos_spec, random_chaos_plan

    chaos = parse_chaos_spec(args.chaos_spec)
    if args.chaos_workers > 0:
        # Random faults across the first ~min(50, expected epoch count)
        # epochs so they land inside the replay, not past quiesce.
        max_epoch = max(1, min(50, int(
            (args.requests / max(args.rate, 1.0)) / (args.epoch_ms * MS))))
        chaos += random_chaos_plan(
            args.chaos_workers, args.shards, max_epoch, seed=args.seed,
            stall_duration=1.5 * args.worker_timeout)
    if chaos and args.backend != "process":
        print("chaos injection targets worker processes; use "
              "--backend process", file=sys.stderr)
        return 1
    if args.watchdog > 0:
        # CI hang debugging: if the replay wedges past the watchdog,
        # dump every thread's stack and exit instead of timing out the
        # whole job with no evidence.  Cancelled on normal completion.
        import faulthandler
        faulthandler.dump_traceback_later(args.watchdog, exit=True)
    try:
        return _run_replay(args, chaos)
    finally:
        if args.watchdog > 0:
            import faulthandler
            faulthandler.cancel_dump_traceback_later()


def _run_replay(args: argparse.Namespace, chaos: tuple) -> int:
    from repro.cluster import ClusterConfig, random_fault_schedule
    from repro.serving.workload import TraceWorkload
    from repro.shard import ShardConfig, ShardedReplay

    spec = machine_presets()[args.machine]()
    config = ClusterConfig(
        num_machines=args.machines,
        replication=min(args.replication, args.machines),
        policy=args.policy,
        strategy=args.strategy,
        slo=args.slo_ms * MS,
        max_retries=args.max_retries,
        audit=args.audit,
        # The cold-start circuit breaker is a continuous-time control
        # loop the epoch broker does not replicate; ShardedReplay
        # rejects configs that enable it under device faults.
        breaker_cooldown=0.0,
    )

    def build(num_shards: int, backend: str,
              chaos_events: tuple = ()) -> ShardedReplay:
        replay = ShardedReplay(spec, config, ShardConfig(
            num_shards=num_shards, backend=backend,
            epoch_length=args.epoch_ms * MS,
            adaptive_epochs=args.adaptive_epochs,
            worker_timeout=args.worker_timeout,
            # An N-event chaos plan may concentrate on one shard, so
            # the budget never undercuts the injection count.
            max_worker_restarts=max(args.max_worker_restarts,
                                    len(chaos_events)),
            serial_fallback=args.serial_fallback,
            chaos=chaos_events if backend == "process" else ()))
        replay.deploy([(args.model, args.instances)])
        return replay

    replay = build(args.shards, args.backend, chaos)
    names = replay.instance_names
    if args.trace == "maf":
        from repro.serving.maf import MAFTraceConfig, synthesize_maf_trace
        trace = synthesize_maf_trace(names, MAFTraceConfig(
            duration=args.duration, target_rps=args.rate, seed=args.seed))
        requests = TraceWorkload(trace.arrivals).generate()
        duration = args.duration
    else:
        requests = PoissonWorkload(names, rate=args.rate,
                                   num_requests=args.requests,
                                   seed=args.seed).generate()
        duration = requests[-1].arrival_time
    schedule = random_fault_schedule(
        [f"m{i}" for i in range(args.machines)],
        args.faults, duration, seed=args.seed)
    report = replay.run(requests, fault_schedule=schedule)
    rows = [[key, value] for key, value in report.summary().items()]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.shards}-shard {args.backend} replay of "
              f"{args.instances}x {args.model} on {args.machines} machines "
              f"({args.policy}, epoch {args.epoch_ms:.0f} ms)"))
    for ledger in report.shard_ledgers:
        print(f"  shard {ledger.shard_id}: {ledger.delivered} delivered = "
              f"{ledger.completed} completed + {ledger.shed} shed + "
              f"{ledger.orphaned} orphaned")
    if chaos:
        print(f"  chaos: {len(chaos)} injected fault(s) -> "
              f"{report.worker_restarts} worker restart(s), "
              f"{report.replayed_epochs} epoch(s) replayed in recovery"
              + (" [serial fallback]" if report.serial_fallback else ""))
    if args.audit:  # a violation raises AuditError inside the replay
        print(f"\naudit: {sum(f.audit_checks for f in report.finals)} "
              f"invariant checks, 0 violations")
    if args.check:
        # The reference never sees the chaos plan: it proves the
        # crash-injected run recovered onto the crash-free trajectory.
        reference = build(1, "serial").run(requests, fault_schedule=schedule)
        if report.outcome_signature() == reference.outcome_signature():
            print(f"\ndifferential check: {args.shards}-shard {args.backend} "
                  f"replay is bit-identical to the single-process reference "
                  f"({len(requests)} requests"
                  + (f", {len(chaos)} injected fault(s)" if chaos else "")
                  + ")")
        else:
            print("\ndifferential check FAILED: sharded outcomes diverge "
                  "from the single-process reference", file=sys.stderr)
            return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.cluster import format_cluster_report
    from repro.cluster import (
        Cluster,
        ClusterConfig,
        random_fault_schedule,
    )

    spec = machine_presets()[args.machine]()
    config = ClusterConfig(
        num_machines=args.machines,
        replication=min(args.replication, args.machines),
        strategy=args.strategy,
        slo=args.slo_ms * MS,
        max_retries=args.max_retries,
        audit=not args.no_audit,
        deadline=(args.deadline_ms * MS
                  if args.deadline_ms is not None else None),
    )
    cluster = Cluster(spec, config)
    model = build_model(args.model)
    names = cluster.deploy([(model, args.instances)])
    workload = PoissonWorkload(names, rate=args.rate,
                               num_requests=args.requests, seed=args.seed)
    requests = workload.generate()
    machine0 = cluster.machines[0].machine
    schedule = random_fault_schedule(
        [m.name for m in cluster.machines],
        args.faults, requests[-1].arrival_time, seed=args.seed,
        granularity=args.granularity,
        gpu_count=spec.gpu_count,
        link_names=machine0.link_names())
    report = cluster.run(requests, fault_schedule=schedule)
    print(format_cluster_report(report))
    accounted = report.completed + len(report.dropped) + len(report.shed)
    print(f"\nconservation: {report.submitted} submitted = "
          f"{report.completed} completed + {len(report.dropped)} dropped "
          f"+ {len(report.shed)} shed"
          f"{'' if accounted == report.submitted else '  [VIOLATED]'}")
    if cluster.auditor is not None:
        print(f"audit: {cluster.auditor.checks} invariant checks, "
              f"{len(cluster.auditor.violations)} violations")
    if accounted != report.submitted:
        print("error: requests dropped without accounting", file=sys.stderr)
        return 1
    return 0


def _loadgen_traffic(pattern: str, rate: float, duration: float,
                     instances: list[str], seed: int) -> typing.Any:
    from repro.loadgen import (
        ConstantRate,
        DiurnalRate,
        FlashCrowd,
        SyntheticTraffic,
        TrafficClass,
    )
    if pattern == "steady":
        classes = [TrafficClass("steady", ConstantRate(rate), instances)]
    elif pattern == "diurnal":
        # One full day/night cycle compressed into the run.
        classes = [TrafficClass(
            "diurnal", DiurnalRate(rate, amplitude=0.6, period=duration),
            instances)]
    elif pattern == "flash":
        burst = FlashCrowd(start=0.3 * duration,
                           duration=max(2.0, 0.1 * duration),
                           magnitude=10.0 * rate)
        classes = [TrafficClass("flash", ConstantRate(0.5 * rate) + burst,
                                instances)]
    else:  # mix: two QoS tenants over disjoint regional instance sets
        half = max(1, len(instances) // 2)
        burst = FlashCrowd(start=0.5 * duration,
                           duration=max(2.0, 0.1 * duration),
                           magnitude=5.0 * rate)
        classes = [
            TrafficClass(
                "premium",
                DiurnalRate(0.5 * rate, amplitude=0.5, period=duration),
                instances[:half], qos="premium"),
            TrafficClass("batch", ConstantRate(0.5 * rate) + burst,
                         instances[half:], qos="batch"),
        ]
    return SyntheticTraffic(classes, seed=seed)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.analysis import format_histogram
    from repro.loadgen import LoadGen, LoadGenConfig

    spec = machine_presets()[args.machine]()
    planner = DeepPlan(spec)
    model = build_model(args.model)
    modes = ("open", "closed") if args.mode == "both" else (args.mode,)
    reports = {}
    exit_code = 0
    for mode in modes:
        # A fresh machine/server per mode: both modes then see identical
        # initial state and (via the shared seed) identical intended
        # arrivals, so any difference in reported latency is purely the
        # measurement discipline.
        machine = Machine(Simulator(), spec)
        server = InferenceServer(machine, planner, ServerConfig(
            strategy=args.strategy, slo=args.slo_ms * MS, audit=args.audit))
        server.deploy([(model, args.instances)])
        traffic = _loadgen_traffic(args.pattern, args.rate, args.duration,
                                   list(server.instances), args.seed)
        config = LoadGenConfig(duration=args.duration, mode=mode,
                               clients=args.clients,
                               max_requests=args.max_requests)
        report = LoadGen(server, traffic, config).run()
        reports[mode] = report
        summary = report.summary()
        rows = [[key, value] for key, value in summary.items()]
        print(format_table(
            ["metric", "value"], rows,
            title=f"{mode}-loop {args.pattern} traffic @ {args.rate} req/s "
                  f"for {args.duration:.0f} s (seed {args.seed})"))
        if args.histogram and report.metrics.records:
            print()
            print(format_histogram(report.metrics.histogram,
                                   title=f"{mode}-loop latency distribution"))
        for qos, hist in sorted(report.by_qos.items()):
            if len(report.by_qos) > 1:
                print(f"  qos {qos}: p99 {hist.percentile(99) / MS:.2f} ms "
                      f"({hist.total} requests)")
        if args.audit and server.auditor is not None:
            violations = server.auditor.check_quiesce(
                raise_on_violation=False)
            print(f"  audit: {server.auditor.checks} invariant checks, "
                  f"{len(violations)} violations")
            if violations:
                exit_code = 1
        accounted = report.completed + report.shed + report.dropped
        if accounted != report.offered:
            print(f"error: {report.offered} offered but only {accounted} "
                  f"accounted for", file=sys.stderr)
            exit_code = 1
        print()
    if len(modes) == 2:
        open_p99 = reports["open"].metrics.p99_latency
        closed_p99 = reports["closed"].metrics.p99_latency
        gap = open_p99 / closed_p99 if closed_p99 > 0 else float("inf")
        print(f"coordinated-omission gap: open p99 {open_p99 / MS:.2f} ms "
              f"vs closed p99 {closed_p99 / MS:.2f} ms ({gap:.1f}x) — the "
              f"closed loop stopped offering load whenever the system "
              f"stalled")
    return exit_code


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import run_differential_suite
    from repro.audit.differential import TIME_TOLERANCE

    spec = machine_presets()[args.machine]()
    results = run_differential_suite(num_cases=args.cases, seed=args.seed,
                                     machine_spec=spec)
    rows = []
    for r in results:
        rows.append([r.case.strategy, r.case.batch_size, r.model_name,
                     r.num_layers, f"{r.cold_divergence:.1e}",
                     f"{r.warm_divergence:.1e}", f"{r.prediction_ratio:.4f}",
                     len(r.violations), "ok" if r.agrees else "FAIL"])
    print(format_table(
        ["strategy", "batch", "model", "layers", "cold div (s)",
         "warm div (s)", "sim/pred", "violations", "verdict"],
        rows, title=f"differential audit: coalesced vs per-layer paths "
                    f"on {args.machine} (tolerance {TIME_TOLERANCE:g} s)"))
    failed = [r for r in results if not r.agrees]
    bracket = [r for r in results if not r.prediction_brackets]
    print(f"\n{len(results) - len(failed)}/{len(results)} cases agree; "
          f"{len(bracket)} outside the prediction bracket")
    for r in failed:
        for v in r.violations[:5]:
            print(f"  {r.model_name}: {v}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
