"""Sharded replay vs the single-process differential oracle.

The headline property of :mod:`repro.shard`: for a fixed trace, seed and
fault schedule, the outcome signature — every request's terminal state
with its exact timestamps — is identical for ANY shard count and for
both execution backends.  The ``shard_seed`` fixture sweeps randomized
scenarios (fleet size, replication, policy, load, faults); the nightly
``--full-seeds`` run widens it to the issue's 200-seed sweep.
"""

import dataclasses

import numpy
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.faults import FaultEvent, random_fault_schedule
from repro.errors import WorkloadError
from repro.hw.specs import p3_8xlarge
from repro.models.zoo import build_model
from repro.serving.workload import PoissonWorkload, TraceWorkload
from repro.shard import ShardConfig, ShardedReplay, partition_machines
from repro.shard import replay as shard_replay
from repro.shard.protocol import Delivery
from repro.shard.worker import ShardWorker
from repro.units import MS

MODELS = ("resnet50", "bert-base", "resnet101")


def random_scenario(seed):
    """A seeded small-fleet replay scenario: config, catalog, trace, faults."""
    rng = numpy.random.default_rng(seed)
    num_machines = int(rng.integers(2, 5))
    config = ClusterConfig(
        num_machines=num_machines,
        replication=int(rng.integers(1, num_machines + 1)),
        policy=("round-robin", "least-loaded",
                "affinity")[int(rng.integers(3))],
        prewarm=bool(rng.integers(2)),
        max_retries=int(rng.integers(1, 4)),
        deadline=(float(rng.uniform(0.3, 0.8))
                  if rng.integers(2) else None),
        audit=True,
        breaker_cooldown=0.0)
    catalog = [(model, int(rng.integers(1, 3)))
               for model in rng.permutation(MODELS)[:int(rng.integers(1, 3))]]
    instances = [f"{model}#{k}" for model, count in catalog
                 for k in range(count)]
    requests = PoissonWorkload(
        instances, rate=float(rng.uniform(20.0, 80.0)),
        num_requests=int(rng.integers(60, 160)),
        seed=int(rng.integers(1 << 31))).generate()
    names = [f"m{i}" for i in range(num_machines)]
    faults = random_fault_schedule(
        names, int(rng.integers(0, 4)), requests[-1].arrival_time,
        seed=int(rng.integers(1 << 31)))
    return config, catalog, requests, faults


def run_replay(config, catalog, requests, faults, num_shards,
               backend="serial", epoch_length=100 * MS):
    replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
        num_shards=num_shards, backend=backend, epoch_length=epoch_length))
    replay.deploy(catalog)
    return replay.run(requests, fault_schedule=faults)


class TestDifferentialOracle:
    def test_any_shard_count_matches_the_reference(self, shard_seed):
        config, catalog, requests, faults = random_scenario(shard_seed)
        reference = run_replay(config, catalog, requests, faults, 1)
        signature = reference.outcome_signature()
        assert len(signature) == len(requests)
        for num_shards in (2, 4):
            if num_shards > config.num_machines:
                continue
            report = run_replay(config, catalog, requests, faults,
                                num_shards)
            assert report.outcome_signature() == signature, (
                f"{num_shards}-shard replay diverged from the "
                f"single-process reference (seed {shard_seed})")
            # The canonical collector is rebuilt in one global order, so
            # even float aggregates must match to the last bit.
            assert report.metrics.histogram == reference.metrics.histogram
            assert report.ledger == reference.ledger
            merged = report.merged_histogram()
            assert merged.counts == reference.metrics.histogram.counts
            assert merged.total == reference.metrics.histogram.total

    def test_profiling_order_does_not_depend_on_grouping(self):
        """The profiler draws its noise in profiling order, so a shard
        that profiled only its own models, in its own order, planned them
        differently from the single-shard run.  In scenario 8 the shard
        holding m3 alone planned differently, and requests m3 served
        finished about 5.6 µs late at 4 shards."""
        config, catalog, requests, faults = random_scenario(8)
        reference = run_replay(config, catalog, requests, faults, 1)
        report = run_replay(config, catalog, requests, faults, 4)
        assert report.outcome_signature() == reference.outcome_signature()

    def test_conservation_holds_per_shard_and_globally(self, shard_seed):
        config, catalog, requests, faults = random_scenario(shard_seed)
        num_shards = min(2, config.num_machines)
        report = run_replay(config, catalog, requests, faults, num_shards)
        ledger = report.ledger
        assert ledger.submitted == len(requests)
        assert (ledger.submitted
                == ledger.completed + ledger.shed + ledger.dropped)
        for shard in report.shard_ledgers:
            assert shard.in_flight == 0
            assert shard.undelivered == 0
            assert (shard.delivered
                    == shard.completed + shard.shed + shard.orphaned)
        assert sum(s.completed for s in report.shard_ledgers) \
            == ledger.completed
        assert sum(s.shed for s in report.shard_ledgers) == ledger.shed


class TestContinuousTimeCluster:
    """One-shard replay against ``Cluster.run`` on fault-free traces.

    With ``epoch_length == router_latency`` the broker dispatches each
    request one to two router latencies after its arrival, where the
    cluster's router dispatches on arrival, and it routes from snapshots
    one epoch old.  The terminal ledgers must agree; per-request latency
    has no bound (docs/sharding.md, "Against the continuous-time
    cluster", says why).
    """

    @pytest.mark.parametrize("prewarm", [False, True])
    @pytest.mark.parametrize("policy",
                             ["round-robin", "least-loaded", "affinity"])
    def test_ledgers_match(self, policy, prewarm):
        config = ClusterConfig(num_machines=3, replication=2, policy=policy,
                               prewarm=prewarm, audit=True,
                               breaker_cooldown=0.0)
        catalog = [("resnet50", 2), ("bert-base", 2)]
        cluster = Cluster(p3_8xlarge(), config)
        names = cluster.deploy([(build_model(model), count)
                                for model, count in catalog])

        def trace():
            return PoissonWorkload(names, rate=60.0, num_requests=150,
                                   seed=3).generate()

        expected = cluster.run(trace())
        replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
            epoch_length=1 * MS, router_latency=1 * MS))
        assert replay.deploy(catalog) == names
        report = replay.run(trace())
        assert report.ledger == expected.ledger
        assert report.ledger.completed == 150


class TestProcessBackend:
    def test_spawn_workers_match_serial_oracle(self, shard_seed):
        config, catalog, requests, faults = random_scenario(shard_seed)
        num_shards = min(2, config.num_machines)
        serial = run_replay(config, catalog, requests, faults, num_shards)
        process = run_replay(config, catalog, requests, faults, num_shards,
                             backend="process")
        assert process.outcome_signature() == serial.outcome_signature()
        assert process.metrics.histogram == serial.metrics.histogram
        assert process.ledger == serial.ledger
        assert [f.histogram for f in process.finals] \
            == [f.histogram for f in serial.finals]


class TestMAFTrace:
    def test_maf_subset_replay_is_shard_count_invariant(self):
        from repro.serving.maf import MAFTraceConfig, synthesize_maf_trace
        config = ClusterConfig(num_machines=4, replication=2,
                               policy="affinity", audit=True,
                               breaker_cooldown=0.0)
        instances = [f"{m}#0" for m in MODELS]
        trace = synthesize_maf_trace(instances, MAFTraceConfig(
            duration=20.0, target_rps=15.0, seed=15))
        requests = TraceWorkload(trace.arrivals).generate()
        names = [f"m{i}" for i in range(4)]
        faults = random_fault_schedule(names, 2, 20.0, seed=15)
        catalog = [(m, 1) for m in MODELS]
        reference = run_replay(config, catalog, requests, faults, 1)
        for num_shards in (2, 4):
            report = run_replay(config, catalog, requests, faults,
                                num_shards)
            assert (report.outcome_signature()
                    == reference.outcome_signature())


class TestUnroutableDrops:
    def test_replay_quiesces_when_every_request_drops_unroutable(self):
        """Regression: a replay that ends via broker drops must return.

        With a single machine crashed before the first arrival, every
        request exhausts its retries against a fleet with no active
        replica and is dropped at the routing boundary itself.  The
        coordinator used to fast-forward on ``broker.next_ready`` after
        the final drop — ``inf`` once the pending heap empties — and
        crash with an OverflowError instead of reporting the drops.
        """
        config = ClusterConfig(num_machines=1, max_retries=1,
                               audit=True, breaker_cooldown=0.0)
        replay = ShardedReplay(p3_8xlarge(), config)
        replay.deploy([("resnet50", 1)])
        requests = PoissonWorkload(["resnet50#0"], rate=10.0,
                                   num_requests=3, seed=5).generate()
        faults = [FaultEvent(time=0.001, machine_name="m0",
                             action="crash")]
        report = replay.run(requests, fault_schedule=faults)
        assert report.completed == 0
        assert report.ledger.dropped == len(requests)
        assert {p.request_id for p in report.dropped} \
            == {r.request_id for r in requests}
        assert (report.ledger.submitted
                == report.ledger.completed + report.ledger.shed
                + report.ledger.dropped)
        assert len(report.outcome_signature()) == len(requests)


class TestInSimulationErrors:
    """An exception inside a shard's simulation (here a server worker's
    cache touch) raises out of the epoch that hit it, out of the final
    drain, and out of the serial replay, with its type and message."""

    @staticmethod
    def _replay():
        config = ClusterConfig(num_machines=2, replication=2, prewarm=True,
                               audit=True, breaker_cooldown=0.0)
        replay = ShardedReplay(p3_8xlarge(), config,
                               ShardConfig(num_shards=2, backend="serial"))
        replay.deploy([("bert-base", 1)])
        return replay

    @staticmethod
    def _break(worker):
        def explode(*args, **kwargs):
            raise RuntimeError("injected fault")

        # bert-base#0 is prewarmed: every hit on this machine touches
        # its home GPU's cache.
        for cache in worker.machines[0].server._caches.values():
            cache.touch = explode

    def test_replay_raises_the_workers_error(self, monkeypatch):
        class FaultyWorker(shard_replay.ShardWorker):
            def __init__(self, init):
                super().__init__(init)
                if init.shard_id == 1:
                    TestInSimulationErrors._break(self)

        monkeypatch.setattr(shard_replay, "ShardWorker", FaultyWorker)
        replay = self._replay()
        requests = PoissonWorkload(replay.instance_names, rate=40.0,
                                   num_requests=20, seed=3).generate()
        with pytest.raises(RuntimeError, match="injected fault"):
            replay.run(requests)

    @pytest.mark.parametrize("hit_in", ["epoch", "finish"])
    def test_worker_step_raises_the_error(self, hit_in):
        init = self._replay()._worker_inits(())[0]
        worker = ShardWorker(init)
        self._break(worker)
        horizon = 100 * MS
        # A delivery inside the epoch hits during run_epoch; one past
        # the horizon hits while finish() runs the shard dry.
        delivery = Delivery(
            request_id=0, instance_name="bert-base#0",
            machine_name=init.machine_names[0], arrival_time=0.0,
            submitted_at=0.0,
            deliver_at=horizon / 2 if hit_in == "epoch" else 2 * horizon)
        if hit_in == "epoch":
            with pytest.raises(RuntimeError, match="injected fault"):
                worker.run_epoch(horizon, [delivery])
        else:
            worker.run_epoch(horizon, [delivery])
            with pytest.raises(RuntimeError, match="injected fault"):
                worker.finish()


class TestPartitioning:
    def test_contiguous_near_even_groups(self):
        names = tuple(f"m{i}" for i in range(10))
        groups = partition_machines(names, 4)
        assert [len(g) for g in groups] == [3, 3, 2, 2]
        assert tuple(name for group in groups for name in group) == names

    def test_rejects_more_shards_than_machines(self):
        with pytest.raises(WorkloadError):
            partition_machines(("m0",), 2)

    def test_replay_rejects_unsupported_configs(self):
        spec = p3_8xlarge()
        with pytest.raises(WorkloadError):
            ShardedReplay(spec, ClusterConfig(num_machines=2, num_standby=1))
        from repro.cluster import AutoscalerConfig
        with pytest.raises(WorkloadError):
            ShardedReplay(spec, ClusterConfig(
                num_machines=2, autoscale=AutoscalerConfig()))
        with pytest.raises(WorkloadError):
            ShardedReplay(spec,
                          ClusterConfig(num_machines=2,
                                        breaker_cooldown=0.0),
                          ShardConfig(num_shards=4))

    def test_deploy_rejects_non_zoo_model_specs(self):
        from repro.models.zoo import build_model

        replay = ShardedReplay(
            p3_8xlarge(),
            ClusterConfig(num_machines=2, breaker_cooldown=0.0))
        zoo_spec = build_model("resnet50")
        # The exact zoo spec is fine — workers rebuild the identical
        # model by name.
        replay.deploy([(zoo_spec, 1)])
        # A customized spec whose name collides with a zoo entry would
        # be silently swapped for the zoo's version on the workers.
        customized = dataclasses.replace(zoo_spec, seq_len=zoo_spec.seq_len + 1)
        with pytest.raises(WorkloadError, match="differs from the zoo"):
            replay.deploy([(customized, 1)])
        # A spec the zoo cannot rebuild at all.
        unknown = dataclasses.replace(zoo_spec, name="not-in-zoo")
        with pytest.raises(WorkloadError, match="not a zoo model"):
            replay.deploy([(unknown, 1)])

    def test_default_breaker_runs_under_machine_crashes(self):
        """The breaker trips only on degraded cold starts, which need a
        device fault; with machine crashes alone the ClusterConfig
        default (``breaker_cooldown=5.0``) is inert and accepted."""
        config = ClusterConfig(num_machines=3, replication=2, audit=True)
        assert config.breaker_cooldown > 0
        catalog = [("bert-base", 2), ("resnet50", 1)]
        instances = ["bert-base#0", "bert-base#1", "resnet50#0"]
        requests = PoissonWorkload(instances, rate=60.0, num_requests=120,
                                   seed=4).generate()
        faults = random_fault_schedule(["m0", "m1", "m2"], 2,
                                       requests[-1].arrival_time, seed=4)
        assert {event.action for event in faults} == {"crash", "recover"}
        default = run_replay(config, catalog, requests, faults, 2)
        disabled = run_replay(
            dataclasses.replace(config, breaker_cooldown=0.0), catalog,
            requests, faults, 2)
        assert default.outcome_signature() == disabled.outcome_signature()
        assert default.ledger.retries > 0

    def test_breaker_rejected_under_device_faults(self):
        replay = ShardedReplay(p3_8xlarge(),
                               ClusterConfig(num_machines=2))
        replay.deploy([("bert-base", 1)])
        requests = PoissonWorkload(replay.instance_names, rate=40.0,
                                   num_requests=20, seed=1).generate()
        faults = [FaultEvent(0.1, "m0", "gpu_fail", gpu=1),
                  FaultEvent(0.2, "m0", "gpu_recover", gpu=1)]
        with pytest.raises(WorkloadError, match="breaker"):
            replay.run(requests, fault_schedule=faults)

    def test_epoch_must_cover_router_latency(self):
        with pytest.raises(WorkloadError):
            ShardConfig(epoch_length=0.5 * MS, router_latency=1 * MS)
