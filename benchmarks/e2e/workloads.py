"""The four end-to-end workloads of the benchmark.

Every workload is open loop: arrival instants are fixed in simulated
time before the run starts.  The harness generates each workload's
inputs from ``--seed`` itself (:meth:`Workload.inputs`), so the program
under test receives only requests.  Program set-up (planner, plans, the
deployment recipe) happens once in :meth:`Workload.setup`; every rep
then replays the same inputs on fresh simulated machines, so every rep
must reproduce the first one's outcomes bit for bit.

The MAF-shaped workloads keep the trace's *shape* — which instance is
sustained, fluctuating, spiky or rare, its Zipf popularity, the spike
episodes, and so the per-instance count in every 10 s bucket — fixed at
:data:`TRACE_SHAPE_SEED`; ``--seed`` redraws each arrival's instant
inside its bucket (the synthesizer's own within-bucket rule).  Seeds
then vary the inputs without changing what the workload is, which keeps
simulated tail latency comparable across seeds: a whole new trace shape
per seed moved the fig15 p99 between 58 and 116 ms.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import typing

import numpy

from repro.cluster import Cluster, ClusterConfig, random_fault_schedule
from repro.core import DeepPlan
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.loadgen import (
    ConstantRate,
    FlashCrowd,
    LoadGen,
    LoadGenConfig,
    SyntheticTraffic,
    TrafficClass,
)
from repro.models import build_model
from repro.serving import (
    InferenceServer,
    MAFTraceConfig,
    MetricsCollector,
    PoissonWorkload,
    Request,
    ServerConfig,
    TraceWorkload,
    synthesize_maf_trace,
)
from repro.shard import ShardConfig, ShardedReplay
from repro.simkit import Simulator
from repro.units import MS

#: Seed of the MAF trace shape shared by every ``--seed``.
TRACE_SHAPE_SEED = 7

#: The fig15 serving mix (paper Section 5.3.2): 4:4:1 BERT-Base,
#: RoBERTa-Base and GPT-2 instances on one 4-GPU server.
FIG15_MIX = (("bert-base", 64), ("roberta-base", 64), ("gpt2", 16))

#: Large models whose instances cannot all be resident on 4 x 16 GB.
STORM_MIX = (("bert-large", 40), ("gpt2-medium", 16), ("resnet101", 40),
             ("roberta-large", 24))


def instance_names(mix: typing.Sequence[tuple[str, int]]) -> list[str]:
    """Logical instance names in deployment order (``model#k``)."""
    return [f"{model}#{k}" for model, count in mix for k in range(count)]


def maf_arrivals(names: list[str], duration: float, rps: float,
                 seed: int) -> list[tuple[float, str]]:
    """The fixed-shape MAF trace with arrival instants drawn from *seed*."""
    config = MAFTraceConfig(duration=duration, target_rps=rps,
                            seed=TRACE_SHAPE_SEED)
    trace = synthesize_maf_trace(names, config)
    width = config.bucket_seconds
    times = numpy.array([time for time, _ in trace.arrivals])
    offsets = numpy.random.default_rng(seed).uniform(0, width, len(times))
    redrawn = numpy.minimum(numpy.floor(times / width) * width + offsets,
                            numpy.nextafter(duration, 0))
    return sorted(zip(redrawn.tolist(), (name for _, name in trace.arrivals)))


@dataclasses.dataclass
class Outcome:
    """What one rep produced, as the harness checks and reports it."""

    offered: int
    completed: int
    shed: int
    dropped: int
    #: Completion records plus shed/dropped counts (goodput denominator).
    metrics: MetricsCollector
    #: Exact counts the program reports about its own work.
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def conserved(self) -> bool:
        return self.offered == self.completed + self.shed + self.dropped

    def digest(self) -> str:
        """sha256 over ``(request_id, latency, cold_start)``, by id."""
        rows = sorted((r.request_id, r.latency, r.cold_start)
                      for r in self.metrics.records)
        text = "".join(f"{rid} {latency!r} {int(cold)}\n"
                       for rid, latency, cold in rows)
        return hashlib.sha256(text.encode()).hexdigest()

    def summary(self) -> dict[str, typing.Any]:
        """What ``expected.json`` pins for one workload and seed."""
        metrics = self.metrics
        return {"digest": self.digest(), "offered": self.offered,
                "completed": self.completed, "shed": self.shed,
                "dropped": self.dropped,
                "sim_p50_ms": metrics.p50_latency / MS,
                "sim_p99_ms": metrics.p99_latency / MS,
                "sim_goodput": metrics.goodput}

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from the outcome itself."""
        records = self.metrics.records
        waits = [r.queueing_delay for r in records]
        return {
            "serving.cold_starts": float(sum(r.cold_start for r in records)),
            "serving.sim_queue_wait_p99_ms":
                float(numpy.percentile(waits, 99, method="higher")) / MS,
            "cluster.retries": self.counters.get("retries", 0.0),
            "cluster.dropped": float(self.dropped),
            "audit.checks": self.counters.get("audit_checks", 0.0),
            "shard.epochs": self.counters.get("epochs", 0.0),
            "shard.worker_restarts":
                self.counters.get("worker_restarts", 0.0),
        }


class Workload:
    """One set of inputs the benchmark runs, with its program set-up."""

    name: typing.ClassVar[str]

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.spec = p3_8xlarge()
        #: Worker processes a rep spawns (their peak RSS is added).
        self.worker_processes = 0

    def setup(self) -> None:
        """Program set-up: planner, plans and the deployment recipe."""
        raise NotImplementedError

    def inputs(self) -> typing.Any:
        """Fresh inputs for one rep (serving mutates request objects)."""
        raise NotImplementedError

    def probe_inputs(self) -> typing.Any:
        """A one-request input: the set-up probe's first request."""
        raise NotImplementedError

    def rep(self, inputs: typing.Any) -> Outcome:
        """Serve *inputs* on fresh simulated machines."""
        raise NotImplementedError


class _SingleMachine(Workload):
    """One 4-GPU server; a rep deploys from cached plans and serves."""

    mix: typing.ClassVar[tuple[tuple[str, int], ...]]

    def setup(self) -> None:
        self.planner = DeepPlan(self.spec, noise=0.0)
        self.models = [(build_model(name), count) for name, count in self.mix]

    def probe_inputs(self) -> list[Request]:
        return [Request(request_id=0, instance_name=instance_names(
            self.mix)[0], arrival_time=0.0)]

    def rep(self, inputs: list[Request]) -> Outcome:
        server = InferenceServer(Machine(Simulator(), self.spec),
                                 self.planner,
                                 ServerConfig(strategy="pt+dha"))
        server.deploy(self.models)
        report = server.run(inputs)
        return Outcome(offered=len(inputs), completed=len(report.metrics),
                       shed=report.shed, dropped=0, metrics=report.metrics)


class MafWarm(_SingleMachine):
    """fig15: MAF trace at 150 req/s for 120 s, mostly warm hits."""

    name = "maf_warm"
    mix = FIG15_MIX

    @functools.cached_property
    def arrivals(self) -> list[tuple[float, str]]:
        return maf_arrivals(instance_names(self.mix),
                            10.0 if self.quick else 120.0, 150.0, self.seed)

    def inputs(self) -> list[Request]:
        return TraceWorkload(self.arrivals).generate()


class ColdStorm(_SingleMachine):
    """Oversubscribed large models: Poisson 20 req/s, over half cold."""

    name = "cold_storm"
    mix = STORM_MIX

    RATE = 20.0

    def inputs(self) -> list[Request]:
        # The target sequence (and so the cache's hit/miss pattern) is
        # the workload's shape; the seed draws the Poisson instants.
        # Goodput over 1,000 requests spread 3-4.5% (IQR/median) across
        # seeds; 2,000 bring it to 2-3%.
        count = 100 if self.quick else 2000
        targets = PoissonWorkload(instance_names(self.mix), rate=self.RATE,
                                  num_requests=count,
                                  seed=TRACE_SHAPE_SEED).generate()
        gaps = numpy.random.default_rng(self.seed).exponential(
            1.0 / self.RATE, count)
        return [Request(request_id=target.request_id,
                        instance_name=target.instance_name,
                        arrival_time=float(at))
                for target, at in zip(targets, numpy.cumsum(gaps))]


class ClusterFlash(Workload):
    """Open-loop load generator plus a flash crowd on a 6-machine cluster."""

    name = "cluster_flash"
    BASE_RATE = 100.0
    #: The crowd adds three times the base rate on one hot instance, so
    #: total load quadruples for a tenth of the run and overloads the
    #: hot instance's two replicas.  Clear overload keeps p99 set by the
    #: backlog's growth, nearly the same on every seed; a crowd near the
    #: replicas' capacity moved p99 between 62 and 118 ms across seeds.
    FLASH_RATE = 300.0
    HOT_INSTANCES = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.duration = 10.0 if quick else 60.0
        names = instance_names(FIG15_MIX)
        crowd = FlashCrowd(start=0.5 * self.duration,
                           duration=0.1 * self.duration,
                           magnitude=self.FLASH_RATE)
        self.traffic = SyntheticTraffic([
            TrafficClass("steady", ConstantRate(self.BASE_RATE), names),
            TrafficClass("flash", crowd, names[:self.HOT_INSTANCES],
                         qos="burst"),
        ], seed=seed)

    def setup(self) -> None:
        self.planner = DeepPlan(self.spec, noise=0.0)
        self.models = [(build_model(name), count)
                       for name, count in FIG15_MIX]

    def inputs(self) -> LoadGenConfig:
        return LoadGenConfig(duration=self.duration, mode="open")

    def probe_inputs(self) -> LoadGenConfig:
        return LoadGenConfig(duration=self.duration, mode="open",
                             max_requests=1)

    def rep(self, inputs: LoadGenConfig) -> Outcome:
        cluster = Cluster(self.spec, ClusterConfig(
            num_machines=6, replication=2, policy="affinity", audit=True),
            planner=self.planner)
        cluster.deploy(self.models)
        report = LoadGen(cluster, self.traffic, inputs).run()
        cluster.auditor.check_quiesce()  # raises AuditError on violations
        return Outcome(offered=report.offered, completed=report.completed,
                       shed=report.shed, dropped=report.dropped,
                       metrics=report.metrics,
                       counters={"retries": float(cluster.retries),
                                 "audit_checks":
                                     float(cluster.auditor.checks)})


class ShardFleet(Workload):
    """Sharded replay on spawned workers: MAF at 300 req/s, 3 crashes."""

    name = "shard_fleet"
    MACHINES = 8

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.duration = 5.0 if quick else 40.0
        self.worker_processes = min(2, len(os.sched_getaffinity(0)))

    def setup(self) -> None:
        self.replay = ShardedReplay(self.spec, ClusterConfig(
            num_machines=self.MACHINES, replication=2, policy="affinity",
            audit=True, breaker_cooldown=0.0), ShardConfig(
            num_shards=self.worker_processes, backend="process"))
        self.replay.deploy(list(FIG15_MIX))

    @functools.cached_property
    def arrivals(self) -> list[tuple[float, str]]:
        return maf_arrivals(instance_names(FIG15_MIX), self.duration, 300.0,
                            self.seed)

    def inputs(self) -> tuple[list[Request], list]:
        faults = random_fault_schedule(
            [f"m{i}" for i in range(self.MACHINES)], 1 if self.quick else 3,
            self.duration, seed=TRACE_SHAPE_SEED)
        return TraceWorkload(self.arrivals).generate(), faults

    def probe_inputs(self) -> tuple[list[Request], list]:
        return [Request(request_id=0, instance_name=instance_names(
            FIG15_MIX)[0], arrival_time=0.0)], []

    def rep(self, inputs: tuple[list[Request], list]) -> Outcome:
        requests, faults = inputs
        report = self.replay.run(requests, fault_schedule=faults)
        ledger = report.ledger
        return Outcome(offered=len(requests), completed=report.completed,
                       shed=ledger.shed, dropped=ledger.dropped,
                       metrics=report.metrics,
                       counters={"retries": float(ledger.retries),
                                 "audit_checks": float(sum(
                                     f.audit_checks for f in report.finals)),
                                 "epochs": float(report.epochs),
                                 "worker_restarts":
                                     float(report.worker_restarts)})


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (MafWarm, ColdStorm, ClusterFlash, ShardFleet)}
