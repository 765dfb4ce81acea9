"""Ablation: sharded parallel replay vs the single-process oracle.

A synthetic fleet replays one Poisson trace under every (shard count,
backend) combination.  Outcome signatures must be bit-identical across
the whole sweep — the differential guarantee of :mod:`repro.shard` —
while wall-clock time falls as spawn-backed shards split the
discrete-event work across cores.

The default run uses a 16-machine fleet so the sweep finishes in
seconds; ``REPRO_FULL=1`` scales to a 100-machine synthetic replay,
where the 4-shard process backend must clear a 3x speedup over the
single-process reference.  The speedup bar is asserted only when the
host exposes at least 4 CPUs — on fewer cores
the spawn workers time-slice one core and the sweep still proves
bit-identity, but a parallel speedup is physically unavailable.

A second probe splits one worker's start-up, in fresh interpreters,
into importing the package and building the shard from its
``WorkerInit``: the share of each process-backend row that is boot
rather than simulation.
"""

import os
import pathlib
import pickle
import statistics
import subprocess
import sys
import time

from conftest import full_scale, run_once

import repro
from repro.analysis import format_table
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import random_fault_schedule
from repro.hw.specs import p3_8xlarge
from repro.serving.workload import PoissonWorkload
from repro.shard import ChaosEvent, ShardConfig, ShardedReplay


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scenario():
    if full_scale():
        num_machines, num_requests, rate = 100, 60000, 2000.0
        catalog = [("resnet50", 40), ("bert-base", 40), ("gpt2", 20)]
    else:
        num_machines, num_requests, rate = 16, 800, 120.0
        catalog = [("resnet50", 8), ("bert-base", 8), ("gpt2", 4)]
    config = ClusterConfig(num_machines=num_machines, replication=2,
                           policy="affinity", audit=True,
                           breaker_cooldown=0.0)
    instances = [f"{model}#{k}" for model, count in catalog
                 for k in range(count)]
    requests = PoissonWorkload(instances, rate=rate,
                               num_requests=num_requests,
                               seed=15).generate()
    faults = random_fault_schedule(
        [f"m{i}" for i in range(num_machines)],
        max(2, num_machines // 20), requests[-1].arrival_time, seed=15)
    return config, catalog, requests, faults


def test_ablation_sharded_replay(benchmark, emit):
    config, catalog, requests, faults = scenario()
    sweep = [(1, "serial"), (2, "serial"), (4, "serial"),
             (2, "process"), (4, "process")]

    def run():
        results = []
        for num_shards, backend in sweep:
            # 250 ms epochs: work per boundary dominates the epoch
            # exchange.  The epoch grid is part of the protocol, so it
            # is held constant across the sweep.
            replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
                num_shards=num_shards, backend=backend,
                epoch_length=0.250))
            replay.deploy(catalog)
            start = time.perf_counter()
            report = replay.run(requests, fault_schedule=faults)
            results.append((num_shards, backend,
                            time.perf_counter() - start, report))
        return results

    results = run_once(benchmark, run)

    reference = results[0][3]
    signature = reference.outcome_signature()
    for num_shards, backend, _, report in results[1:]:
        assert report.outcome_signature() == signature, (
            f"{num_shards}-shard {backend} replay diverged from the "
            f"single-process reference")
        assert report.ledger == reference.ledger

    base_wall = results[0][2]
    rows = []
    for num_shards, backend, wall, report in results:
        rows.append([f"{num_shards}x {backend}", wall,
                     base_wall / wall, report.epochs,
                     report.completed, report.ledger.retries,
                     report.ledger.dropped])
    speedups = {(s, b): base_wall / w for s, b, w, _ in results}
    cpus = available_cpus()
    blocks = [
        format_table(
            ["configuration", "wall (s)", "speedup", "epochs",
             "completed", "retries", "dropped"], rows,
            title=f"Sharded replay sweep "
                  f"({config.num_machines} machines, "
                  f"{len(requests)} requests; outcomes bit-identical "
                  f"across the sweep)"),
        f"4-shard process speedup over the single-process reference: "
        f"{speedups[(4, 'process')]:.2f}x ({cpus} CPU(s) available)",
    ]
    emit("ablation_sharded", "\n\n".join(blocks))

    assert reference.ledger.submitted == len(requests)

    # Recovery overhead probe: the same trace with two injected worker
    # crashes.  Outcomes must stay bit-identical to the crash-free
    # reference (the journal fast-forward restores the exact pre-crash
    # state), and the wall-clock delta is the price of two respawns
    # plus their replayed epochs.
    chaos = (ChaosEvent(shard_id=0, epoch=4, kind="kill"),
             ChaosEvent(shard_id=1, epoch=9, kind="kill"))
    replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
        num_shards=2, backend="process", epoch_length=0.250,
        chaos=chaos, worker_timeout=60.0, max_worker_restarts=2,
        restart_backoff=0.01))
    replay.deploy(catalog)
    start = time.perf_counter()
    recovered = replay.run(requests, fault_schedule=faults)
    chaos_wall = time.perf_counter() - start
    assert recovered.outcome_signature() == signature, (
        "crash-injected replay diverged from the crash-free reference")
    assert recovered.worker_restarts == 2
    crash_free_wall = results[3][2]  # the (2, process) run
    emit("ablation_sharded_chaos",
         f"crash recovery: 2 injected kills -> "
         f"{recovered.worker_restarts} restarts, "
         f"{recovered.replayed_epochs} epochs replayed; wall "
         f"{chaos_wall:.2f}s vs {crash_free_wall:.2f}s crash-free "
         f"(+{chaos_wall - crash_free_wall:.2f}s recovery overhead) — "
         f"outcomes bit-identical")

    if full_scale() and cpus >= 4:
        # Acceptance criterion: >3x at 4 shards on the 100-machine
        # synthetic replay, with route-ahead streaming and the
        # columnar wire protocol.  The scaled-down default is dominated
        # by spawn startup, and hosts with fewer than 4 CPUs time-slice
        # the workers, so the bar applies to the full-size run on
        # adequate hardware only.
        assert speedups[(4, "process")] > 3.0


#: Runs in a fresh interpreter, as a spawned worker does: import the
#: worker module, then build the shard from a pickled ``WorkerInit``.
_STARTUP_PROBE = """
import sys, time
start = time.perf_counter()
import pickle, repro.shard.worker
imported = time.perf_counter()
init = pickle.load(sys.stdin.buffer)
built = time.perf_counter()
repro.shard.worker.ShardWorker(init)
print(imported - start, time.perf_counter() - built)
"""


def test_worker_startup_split(emit):
    config, catalog, _requests, faults = scenario()
    replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
        num_shards=2, backend="process", epoch_length=0.250))
    replay.deploy(catalog)
    payload = pickle.dumps(replay._worker_inits(faults)[0])
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(5):
        result = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE], input=payload,
            capture_output=True, env=env, timeout=120, check=True)
        samples.append([float(x) for x in result.stdout.split()])
    imported = statistics.median(s[0] for s in samples)
    built = statistics.median(s[1] for s in samples)
    cpus = available_cpus()
    emit("ablation_sharded_startup",
         f"worker start-up, median of 5 fresh interpreters "
         f"({config.num_machines // 2}-machine shard, {cpus} CPU(s) "
         f"available): import repro.shard.worker {imported:.3f}s, "
         f"ShardWorker(init) {built:.3f}s")
