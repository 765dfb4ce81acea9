"""Degraded-mode serving: device/link faults, failover, SLO guardrails.

Covers the robustness layer end to end:

* runtime link-capacity changes in the flow network (fast and slow path
  agree, in-flight flows rebalance);
* the machine-level device fault API (GPU fail/recover, link
  degrade/restore) and its interaction with peer selection;
* precomputed degraded fallback plans (planner, cache upgrade,
  serialization round-trip);
* mid-provision failover: a parallel transmission whose peer GPU dies or
  whose NVLink degrades aborts cleanly and the request is served on the
  fallback plan instead of dropped;
* SLO guardrails: deadline-based load shedding and the router's
  cold-start circuit breaker;
* fault-schedule validation and the device/mixed granularities of
  :func:`random_fault_schedule`;
* server lifecycle edges (fail_over while draining, recover after a
  crash mid-prewarm, double drain) under the invariant auditor.
"""

import random

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    random_fault_schedule,
)
from repro.core import DeepPlan, Strategy
from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.errors import TopologyError, WorkloadError
from repro.engine.transmission import spread_gpus
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.serving import (
    InferenceServer,
    OutcomeListener,
    PoissonWorkload,
    Request,
    ServerConfig,
)
from repro.simkit import FlowNetwork, Link, Simulator
from repro.units import MS


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


@pytest.fixture(scope="module")
def planner():
    return DeepPlan(p3_8xlarge(), noise=0.0)


def make_server(planner, *, prewarm=False, watch=True, audit=True,
                **config_kwargs):
    machine = Machine(Simulator(), p3_8xlarge())
    config = ServerConfig(strategy="pt+dha", prewarm=prewarm, audit=audit,
                          **config_kwargs)
    server = InferenceServer(machine, planner, config)
    server.watch_device_faults = watch
    return server


def one_request(name, request_id=0, arrival=0.0):
    return Request(request_id=request_id, instance_name=name,
                   arrival_time=arrival)


# ---------------------------------------------------------------------------
# Runtime link capacity changes (simkit layer)
# ---------------------------------------------------------------------------


class TestLinkCapacityChanges:
    def test_mid_flight_halving_stretches_completion(self):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("lane", 10e9)
        done = network.transfer([link], 10e9)  # one second at nominal
        sim.run(until=0.5)
        network.set_link_bandwidth(link, 5e9)  # half the remaining rate
        sim.run(done)
        # 0.5 s at 10 GB/s moved half the bytes; the rest takes 1 s more.
        assert sim.now == pytest.approx(1.5, rel=1e-9)
        assert link.bandwidth == 5e9
        assert link.nominal_bandwidth == 10e9

    def test_restore_speeds_the_flow_back_up(self):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("lane", 10e9)
        done = network.transfer([link], 10e9)
        sim.run(until=0.25)
        network.set_link_bandwidth(link, 2.5e9)
        sim.run(until=0.75)  # 1.25 GB more at quarter speed
        network.set_link_bandwidth(link, 10e9)
        sim.run(done)
        # 3.75 GB moved by t=0.75; the remaining 6.25 GB takes 0.625 s.
        assert sim.now == pytest.approx(1.375, rel=1e-9)

    def test_shared_link_rebalances_both_flows(self):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("lane", 10e9)
        network.transfer([link], 20e9)
        network.transfer([link], 20e9)
        sim.run(until=1.0)
        network.set_link_bandwidth(link, 4e9)
        for flow in network.active_flows:
            assert flow.rate == pytest.approx(2e9, rel=1e-9)

    def test_nonpositive_bandwidth_rejected(self):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("lane", 10e9)
        with pytest.raises(ValueError):
            network.set_link_bandwidth(link, 0.0)

    def test_incremental_matches_slow_path_under_capacity_changes(self):
        """Seeded random traffic with interleaved capacity changes must
        complete identically on the incremental and from-scratch paths."""

        def run(incremental):
            rng = random.Random(0xCAFE)
            sim = Simulator()
            network = FlowNetwork(sim, incremental=incremental)
            links = [Link(f"l{i}", rng.uniform(2e9, 20e9)) for i in range(4)]
            nominal = [link.bandwidth for link in links]
            completions = []

            def traffic():
                for _ in range(12):
                    path = rng.sample(links, rng.randint(1, 2))
                    done = network.transfer(path, rng.uniform(1e8, 2e9))
                    done.add_callback(
                        lambda event: completions.append(sim.now))
                    yield sim.timeout(rng.uniform(0.0, 0.05))

            def chaos():
                for _ in range(8):
                    yield sim.timeout(rng.uniform(0.01, 0.05))
                    k = rng.randrange(len(links))
                    network.set_link_bandwidth(
                        links[k], nominal[k] * rng.uniform(0.1, 1.0))

            sim.process(traffic(), name="traffic")
            sim.process(chaos(), name="chaos")
            sim.run()
            assert not network.active_flows
            return completions

        assert run(incremental=True) == run(incremental=False)


# ---------------------------------------------------------------------------
# Machine-level device faults
# ---------------------------------------------------------------------------


class TestMachineDeviceFaults:
    def test_gpu_fail_and_recover_roundtrip(self):
        machine = Machine(Simulator(), p3_8xlarge())
        assert machine.fail_gpu(1)
        assert machine.gpus[1].failed
        assert not machine.fail_gpu(1)  # already failed
        assert [g.index for g in machine.healthy_gpus()] == [0, 2, 3]
        assert machine.recover_gpu(1)
        assert not machine.recover_gpu(1)
        assert len(machine.healthy_gpus()) == 4

    def test_degrade_and_restore_link(self):
        machine = Machine(Simulator(), p3_8xlarge())
        link = machine.link("gpu0.pcie")
        assert machine.degrade_link("gpu0.pcie", 0.25)
        assert link.bandwidth == pytest.approx(link.nominal_bandwidth * 0.25)
        assert machine.link_degraded("gpu0.pcie")
        assert not machine.degrade_link("gpu0.pcie", 0.25)  # no change
        assert machine.restore_link("gpu0.pcie")
        assert not machine.link_degraded("gpu0.pcie")
        assert not machine.restore_link("gpu0.pcie")

    def test_bad_factor_and_unknown_link_rejected(self):
        machine = Machine(Simulator(), p3_8xlarge())
        with pytest.raises(ValueError):
            machine.degrade_link("gpu0.pcie", 0.0)
        with pytest.raises(TopologyError):
            machine.degrade_link("gpu9.pcie", 0.5)
        with pytest.raises(TopologyError):
            machine.link("not-a-link")

    def test_spread_gpus_skips_failed_candidates(self):
        machine = Machine(Simulator(), p3_8xlarge())
        baseline = spread_gpus(machine, 0, 2)
        machine.fail_gpu(baseline[1])
        spread = spread_gpus(machine, 0, 2)
        assert baseline[1] not in spread
        assert len(spread) == 2

    def test_spread_gpus_rejects_failed_target(self):
        machine = Machine(Simulator(), p3_8xlarge())
        machine.fail_gpu(0)
        with pytest.raises(TopologyError, match="failed"):
            spread_gpus(machine, 0, 2)


# ---------------------------------------------------------------------------
# Fallback plans (planner / cache / serialization)
# ---------------------------------------------------------------------------


class TestFallbackPlans:
    def test_with_fallback_attaches_degraded_plan(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        plan = planner.plan(bert, Strategy.PT_DHA, with_fallback=True)
        assert plan.uses_parallel_transmission
        fallback = plan.fallback
        assert fallback is not None
        assert not fallback.uses_parallel_transmission
        assert fallback.num_partitions == 1
        assert fallback.model.name == plan.model.name
        assert fallback.batch_size == plan.batch_size

    def test_cached_plan_upgraded_in_place(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        bare = planner.plan(bert, Strategy.PT_DHA)
        assert bare.fallback is None
        upgraded = planner.plan(bert, Strategy.PT_DHA, with_fallback=True)
        assert upgraded.fallback is not None
        # The cache entry was replaced: later plain lookups see the
        # upgraded plan instead of rebuilding it.
        assert planner.plan(bert, Strategy.PT_DHA) is upgraded

    def test_single_partition_plan_needs_no_fallback(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        plan = planner.plan(bert, Strategy.DHA, with_fallback=True)
        assert plan.fallback is None

    def test_fallback_round_trips_through_serialization(self, bert):
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        plan = planner.plan(bert, Strategy.PT_DHA, with_fallback=True)
        clone = plan_from_dict(plan_to_dict(plan))
        assert clone.fallback is not None
        assert clone.fallback.decisions == plan.fallback.decisions
        assert clone.fallback.predicted_latency \
            == plan.fallback.predicted_latency
        # Plans without a fallback keep the original serialized shape.
        bare = planner.plan(bert, Strategy.DHA)
        assert "fallback" not in plan_to_dict(bare)

    def test_parallel_fallback_rejected(self, bert):
        from repro.core.plan import PlanError
        import dataclasses
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        pt = planner.plan(bert, Strategy.PT_DHA)
        with pytest.raises(PlanError, match="fallback"):
            dataclasses.replace(pt, fallback=pt)


# ---------------------------------------------------------------------------
# Mid-provision failover (server level)
# ---------------------------------------------------------------------------


class TestMidProvisionFailover:
    def _fault_process(self, server, delay, action):
        def process():
            yield server.sim.timeout(delay)
            action()
        return process()

    def test_peer_gpu_death_aborts_to_fallback(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        peer = server.machine.parallel_transmission_peers(
            instance.home_gpu)[0]
        delay = 0.3 * instance.plan.predicted_latency

        def kill_peer():
            assert server.machine.fail_gpu(peer)
            server.handle_gpu_failure(peer)

        server.sim.process(self._fault_process(server, delay, kill_peer),
                           name="chaos")
        report = server.run([one_request(instance.name)])
        assert len(report.metrics) == 1
        assert report.aborted_provisions == 1
        assert report.degraded_cold_starts == 1
        record = report.metrics.records[0]
        assert record.degraded and record.cold_start
        assert instance.degraded
        assert instance.current_plan is not instance.plan

    def test_nvlink_degradation_aborts_to_fallback(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        machine = server.machine
        peer = machine.parallel_transmission_peers(instance.home_gpu)[0]
        link_name = f"nvlink{peer}->{instance.home_gpu}"
        delay = 0.3 * instance.plan.predicted_latency

        def degrade():
            assert machine.degrade_link(link_name, 0.2)
            server.handle_link_degradation(machine.link(link_name))

        server.sim.process(self._fault_process(server, delay, degrade),
                           name="chaos")
        report = server.run([one_request(instance.name)])
        assert report.aborted_provisions == 1
        assert report.degraded_cold_starts == 1
        assert len(report.metrics) == 1

    def test_mild_degradation_above_threshold_no_abort(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        machine = server.machine
        peer = machine.parallel_transmission_peers(instance.home_gpu)[0]
        link_name = f"nvlink{peer}->{instance.home_gpu}"
        delay = 0.3 * instance.plan.predicted_latency

        def degrade():
            machine.degrade_link(link_name, 0.8)  # above the 0.5 threshold
            server.handle_link_degradation(machine.link(link_name))

        server.sim.process(self._fault_process(server, delay, degrade),
                           name="chaos")
        report = server.run([one_request(instance.name)])
        assert report.aborted_provisions == 0
        assert report.degraded_cold_starts == 0
        assert len(report.metrics) == 1

    def test_prefailed_peers_start_directly_degraded(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        for peer in server.machine.parallel_transmission_peers(
                instance.home_gpu):
            server.machine.fail_gpu(peer)
        report = server.run([one_request(instance.name)])
        # No provision ever started, so nothing aborted — the cold start
        # went straight to the degraded plan.
        assert report.aborted_provisions == 0
        assert report.degraded_cold_starts == 1
        assert len(report.metrics) == 1

    def test_primary_gpu_death_orphans_request(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        home = instance.home_gpu
        orphans = []
        delay = 0.3 * instance.plan.predicted_latency

        request = one_request(instance.name)

        def kill_home():
            server.machine.fail_gpu(home)
            orphans.extend(server.handle_gpu_failure(home))

        server.sim.process(self._fault_process(server, delay, kill_home),
                           name="chaos")
        server.start()
        server.submit(request)
        server.sim.run()
        assert orphans == [request]
        assert server.outstanding == 0
        assert instance.home_gpu != home  # rehomed onto a survivor
        # The auditor tolerates the orphan (exactly-once net of orphans).
        server.auditor.check_quiesce()

    def test_eviction_resets_degraded_plan(self, planner, bert):
        server = make_server(planner)
        instance = server.deploy([(bert, 1)])[0]
        for peer in server.machine.parallel_transmission_peers(
                instance.home_gpu):
            server.machine.fail_gpu(peer)
        server.run([one_request(instance.name)])
        assert instance.degraded
        server._caches[instance.home_gpu].evict(instance)
        assert not instance.degraded
        assert instance.current_plan is instance.plan


# ---------------------------------------------------------------------------
# Deadline guardrail (load shedding)
# ---------------------------------------------------------------------------


class TestDeadlineShedding:
    def test_unmeetable_deadline_sheds_at_admission(self, planner, bert):
        server = make_server(planner, watch=False, deadline=25 * MS)
        instance = server.deploy([(bert, 1)])[0]
        shed = []

        class ShedLog(OutcomeListener):
            def request_shed(self, source, request):
                shed.append(request)

        server.listeners.append(ShedLog())
        requests = [one_request(instance.name, request_id=k)
                    for k in range(3)]
        report = server.run(requests)
        # The first cold start (~19 ms predicted) fits the 25 ms
        # deadline; the backlog pushes the rest past it.
        assert report.shed == 2
        assert len(report.metrics) == 1
        assert [r.request_id for r in server.shed_requests] == [1, 2]
        assert shed == server.shed_requests

    def test_no_deadline_never_sheds(self, planner, bert):
        server = make_server(planner, watch=False)
        instance = server.deploy([(bert, 1)])[0]
        requests = [one_request(instance.name, request_id=k)
                    for k in range(3)]
        report = server.run(requests)
        assert report.shed == 0
        assert len(report.metrics) == 3

    def test_submit_returns_false_on_shed(self, planner, bert):
        server = make_server(planner, watch=False, deadline=25 * MS)
        instance = server.deploy([(bert, 1)])[0]
        server.start()
        assert server.submit(one_request(instance.name, request_id=0))
        assert not server.submit(one_request(instance.name, request_id=1))
        assert server.outstanding == 1

    def test_bad_deadline_rejected(self):
        with pytest.raises(WorkloadError, match="deadline"):
            ServerConfig(deadline=0.0)
        with pytest.raises(WorkloadError, match="threshold"):
            ServerConfig(degraded_link_threshold=0.0)
        with pytest.raises(WorkloadError, match="deadline"):
            ClusterConfig(deadline=-1.0)
        with pytest.raises(WorkloadError, match="breaker"):
            ClusterConfig(breaker_cooldown=-1.0)


# ---------------------------------------------------------------------------
# Router circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _cluster(self, bert, **kwargs):
        kwargs.setdefault("num_machines", 2)
        kwargs.setdefault("replication", 2)
        kwargs.setdefault("prewarm", False)
        cluster = Cluster(p3_8xlarge(), ClusterConfig(**kwargs))
        cluster.deploy([(bert, 2)])
        return cluster

    def test_tripped_machine_avoided_for_cold_starts(self, bert):
        cluster = self._cluster(bert, policy="round-robin",
                                breaker_cooldown=5.0)
        name = cluster.instance_names[0]
        cluster.router.trip("m0")
        assert cluster.router.breaker_open("m0")
        picks = {cluster.router.route(one_request(name, k)).name
                 for k in range(4)}
        assert picks == {"m1"}

    def test_breaker_expires_after_cooldown(self, bert):
        cluster = self._cluster(bert, breaker_cooldown=5.0)
        cluster.router.trip("m0")
        assert cluster.router.breaker_open("m0")
        cluster.sim.run(until=6.0)
        assert not cluster.router.breaker_open("m0")

    def test_breaker_ignored_when_no_alternative(self, bert):
        cluster = self._cluster(bert, breaker_cooldown=5.0)
        name = cluster.instance_names[0]
        cluster.router.trip("m0")
        cluster.router.trip("m1")
        # Both replicas tripped: serving beats shedding to nowhere.
        assert cluster.router.route(one_request(name)) is not None

    def test_warm_replica_keeps_traffic_despite_trip(self, bert):
        cluster = self._cluster(bert, policy="affinity",
                                breaker_cooldown=5.0)
        name = cluster.instance_names[0]
        cluster.machines[0].server.prewarm()
        cluster.router.trip("m0")
        assert cluster.router.route(one_request(name)).name == "m0"

    def test_disabled_breaker_is_inert(self, bert):
        cluster = self._cluster(bert, breaker_cooldown=0.0)
        cluster.router.trip("m0")
        assert not cluster.router.breaker_open("m0")
        assert cluster.router.breaker_trips == 0

    def test_machine_crashes_never_trip_the_breaker(self, bert):
        """Only degraded cold starts trip the breaker, and those need a
        device fault: under machine crashes alone the default cooldown
        leaves every outcome as it is with the breaker disabled."""
        def run(cooldown):
            cluster = self._cluster(bert, breaker_cooldown=cooldown,
                                    max_retries=3)
            requests = PoissonWorkload(cluster.instance_names, rate=60.0,
                                       num_requests=120, seed=1).generate()
            faults = random_fault_schedule(
                ["m0", "m1"], 2, requests[-1].arrival_time, seed=1)
            assert {event.action for event in faults} \
                == {"crash", "recover"}
            report = cluster.run(requests, fault_schedule=faults)
            outcomes = sorted(
                (r.request_id, r.submitted_at, r.started_at, r.finished_at,
                 r.cold_start) for r in report.metrics.records)
            dropped = sorted(r.request_id for r in report.dropped)
            return (outcomes, dropped, report.retries,
                    cluster.router.breaker_trips)

        outcomes, dropped, retries, trips = run(5.0)
        assert trips == 0
        assert run(0.0) == (outcomes, dropped, retries, 0)
        # The crashes mattered: requests were retried and dropped.
        assert retries > 0 and dropped


# ---------------------------------------------------------------------------
# Cluster-level chaos (the issue's acceptance scenario)
# ---------------------------------------------------------------------------


class TestClusterDegradedServing:
    def test_peer_gpu_kill_mid_provision_zero_lost(self, bert):
        """Killing a peer GPU mid-parallel-transmission completes every
        request, with at least one degraded cold start accounted."""
        config = ClusterConfig(num_machines=1, replication=1, prewarm=False,
                               audit=True)
        cluster = Cluster(p3_8xlarge(), config)
        names = cluster.deploy([(bert, 1)])
        plan = cluster.machines[0].server.plan_of(names[0])
        home = cluster.machines[0].server.instances[names[0]].home_gpu
        peer = cluster.machines[0].machine.parallel_transmission_peers(
            home)[0]
        schedule = [FaultEvent(0.3 * plan.predicted_latency, "m0",
                               "gpu_fail", gpu=peer)]
        report = cluster.run([one_request(names[0])],
                             fault_schedule=schedule)
        assert report.completed == 1
        assert report.dropped == []
        assert report.degraded_cold_starts >= 1
        assert report.aborted_provisions >= 1
        assert cluster.machines[0].gpu_failures == 1
        summary = report.summary()
        assert summary["degraded_cold_starts"] == 1.0
        assert summary["aborted_provisions"] == 1.0

    def test_home_gpu_kill_retries_on_surviving_gpu(self, bert):
        config = ClusterConfig(num_machines=1, replication=1, prewarm=False,
                               audit=True, max_retries=3)
        cluster = Cluster(p3_8xlarge(), config)
        names = cluster.deploy([(bert, 1)])
        server = cluster.machines[0].server
        plan = server.plan_of(names[0])
        home = server.instances[names[0]].home_gpu
        schedule = [FaultEvent(0.3 * plan.predicted_latency, "m0",
                               "gpu_fail", gpu=home)]
        report = cluster.run([one_request(names[0])],
                             fault_schedule=schedule)
        assert report.completed == 1
        assert report.dropped == []
        assert report.retries >= 1
        assert server.instances[names[0]].home_gpu != home

    def test_cluster_deadline_conservation_with_shedding(self, bert):
        config = ClusterConfig(num_machines=2, replication=2, prewarm=False,
                               audit=True, deadline=30 * MS)
        cluster = Cluster(p3_8xlarge(), config)
        names = cluster.deploy([(bert, 4)])
        workload = PoissonWorkload(names, rate=400.0, num_requests=200,
                                   seed=11)
        report = cluster.run(workload.generate())
        assert len(report.shed) > 0
        assert (report.completed + len(report.dropped) + len(report.shed)
                == report.submitted)
        assert report.summary()["shed"] == float(len(report.shed))

    def test_retry_keeps_original_submission_time(self, bert):
        """A request re-submitted after fail_over keeps its original
        submitted_at, so its recorded latency includes the outage."""
        config = ClusterConfig(num_machines=1, replication=1, prewarm=False,
                               audit=True, max_retries=8,
                               retry_backoff=20 * MS)
        cluster = Cluster(p3_8xlarge(), config)
        names = cluster.deploy([(bert, 1)])
        plan = cluster.machines[0].server.plan_of(names[0])
        outage = 0.2
        schedule = [
            FaultEvent(0.3 * plan.predicted_latency, "m0", "crash"),
            FaultEvent(0.3 * plan.predicted_latency + outage, "m0",
                       "recover"),
        ]
        report = cluster.run([one_request(names[0])],
                             fault_schedule=schedule)
        assert report.completed == 1
        record = report.metrics.records[0]
        assert record.submitted_at == pytest.approx(0.0)
        # The latency spans the outage, not just the final attempt.
        assert record.latency >= outage


# ---------------------------------------------------------------------------
# Fault-schedule validation and granularities
# ---------------------------------------------------------------------------


class TestFaultValidation:
    def _cluster(self, bert):
        cluster = Cluster(p3_8xlarge(), ClusterConfig(
            num_machines=2, replication=2, prewarm=False))
        cluster.deploy([(bert, 2)])
        return cluster

    def test_unknown_machine_rejected_at_construction(self, bert):
        cluster = self._cluster(bert)
        with pytest.raises(WorkloadError, match="m9"):
            FaultInjector(cluster, [FaultEvent(1.0, "m9", "crash")])

    def test_out_of_range_gpu_rejected(self, bert):
        cluster = self._cluster(bert)
        with pytest.raises(WorkloadError, match="gpu7"):
            FaultInjector(cluster,
                          [FaultEvent(1.0, "m0", "gpu_fail", gpu=7)])

    def test_unknown_link_rejected(self, bert):
        cluster = self._cluster(bert)
        with pytest.raises(WorkloadError, match="nvlink9"):
            FaultInjector(cluster, [FaultEvent(1.0, "m0", "link_degrade",
                                               link="nvlink9->0",
                                               factor=0.5)])

    def test_malformed_events_rejected(self):
        with pytest.raises(WorkloadError, match="action"):
            FaultEvent(1.0, "m0", "explode")
        with pytest.raises(WorkloadError, match="GPU index"):
            FaultEvent(1.0, "m0", "gpu_fail")
        with pytest.raises(WorkloadError, match="link name"):
            FaultEvent(1.0, "m0", "link_degrade", factor=0.5)
        with pytest.raises(WorkloadError, match="factor"):
            FaultEvent(1.0, "m0", "link_degrade", link="nvlink2->0",
                       factor=1.5)

    def test_event_target_rendering(self):
        assert FaultEvent(1.0, "m0", "crash").target == "m0"
        assert FaultEvent(1.0, "m0", "gpu_fail", gpu=2).target == "m0/gpu2"
        assert FaultEvent(1.0, "m0", "link_degrade", link="nvlink2->0",
                          factor=0.25).target == "m0/nvlink2->0 x0.25"


class TestScheduleGranularities:
    def test_default_matches_machine_granularity(self):
        base = random_fault_schedule(["m0", "m1"], 4, 100.0, seed=9)
        explicit = random_fault_schedule(["m0", "m1"], 4, 100.0, seed=9,
                                         granularity="machine")
        assert base == explicit
        assert all(e.action in ("crash", "recover") for e in base)

    def test_device_granularity_emits_device_events_only(self):
        schedule = random_fault_schedule(
            ["m0", "m1"], 8, 100.0, seed=3, granularity="device",
            gpu_count=4, link_names=("gpu0.pcie", "nvlink2->0"))
        assert schedule
        assert all(e.action in ("gpu_fail", "gpu_recover", "link_degrade",
                                "link_restore") for e in schedule)
        for event in schedule:
            if event.gpu is not None:
                assert 0 <= event.gpu < 4
            if event.action == "link_degrade":
                assert event.link in ("gpu0.pcie", "nvlink2->0")
                assert 0 < event.factor < 0.5

    def test_device_faults_come_in_matched_pairs(self):
        schedule = random_fault_schedule(
            ["m0"], 5, 100.0, seed=12, granularity="device",
            gpu_count=4, link_names=("gpu0.pcie",))
        fails = [e for e in schedule if e.action == "gpu_fail"]
        recovers = [e for e in schedule if e.action == "gpu_recover"]
        assert [e.gpu for e in fails] == [e.gpu for e in recovers]
        degrades = [e for e in schedule if e.action == "link_degrade"]
        restores = [e for e in schedule if e.action == "link_restore"]
        assert [e.link for e in degrades] == [e.link for e in restores]

    def test_mixed_granularity_can_emit_all_kinds(self):
        schedule = random_fault_schedule(
            ["m0", "m1", "m2"], 30, 1000.0, seed=1, granularity="mixed",
            gpu_count=4, link_names=("gpu0.pcie",))
        kinds = {e.action for e in schedule}
        assert "crash" in kinds
        assert kinds & {"gpu_fail", "link_degrade"}

    def test_device_granularity_needs_topology(self):
        with pytest.raises(WorkloadError, match="gpu_count"):
            random_fault_schedule(["m0"], 2, 100.0, granularity="device")
        with pytest.raises(WorkloadError, match="granularity"):
            random_fault_schedule(["m0"], 2, 100.0, granularity="nano")


# ---------------------------------------------------------------------------
# Server lifecycle edges (satellite: drain / crash / recover interplay)
# ---------------------------------------------------------------------------


class TestLifecycleEdges:
    def test_fail_over_while_draining_finishes_drain(self, planner, bert):
        server = make_server(planner, watch=False)
        instance = server.deploy([(bert, 1)])[0]
        server.start()
        server.submit(one_request(instance.name))
        drain = server.drain()
        assert not drain.triggered  # one request still in flight
        orphans = server.fail_over()
        assert len(orphans) == 1
        assert drain.triggered  # the crash emptied the server
        assert server.outstanding == 0
        server.auditor.check_quiesce()

    def test_recover_after_crash_mid_prewarm_serves_cold(self, planner,
                                                         bert):
        server = make_server(planner, watch=False)
        instances = server.deploy([(bert, 4)])
        server.prewarm()
        assert any(i.resident for i in instances)
        server.fail_over()
        server.recover()
        assert not any(i.resident for i in instances)
        report = server.run([one_request(instances[0].name)])
        assert len(report.metrics) == 1
        assert report.metrics.records[0].cold_start

    def test_double_drain_is_idempotent(self, planner, bert):
        server = make_server(planner, watch=False)
        server.deploy([(bert, 1)])
        first = server.drain()
        second = server.drain()
        assert first is second
        assert first.triggered  # nothing outstanding
        with pytest.raises(WorkloadError, match="draining"):
            server.submit(one_request("bert-base#0"))
        server.resume()
        assert server.drain() is not first


# ---------------------------------------------------------------------------
# SLO guardrail end-to-end: p99 of admitted requests under faults
# ---------------------------------------------------------------------------


class TestGuardrailEndToEnd:
    def test_deadline_guardrail_does_not_hurt_admitted_p99(self, bert):
        """Under a fault-injected replay, shedding unmeetable requests
        must not make the p99 of *admitted* requests worse."""

        def run(deadline):
            config = ClusterConfig(num_machines=2, replication=2,
                                   prewarm=False, audit=True,
                                   deadline=deadline)
            cluster = Cluster(p3_8xlarge(), config)
            names = cluster.deploy([(bert, 6)])
            workload = PoissonWorkload(names, rate=400.0, num_requests=400,
                                       seed=21)
            requests = workload.generate()
            duration = max(r.arrival_time for r in requests)
            schedule = random_fault_schedule(
                [cm.name for cm in cluster.machines], 4, duration, seed=21,
                granularity="device", gpu_count=4,
                link_names=cluster.machines[0].machine.link_names())
            return cluster.run(requests, fault_schedule=schedule)

        guarded = run(deadline=30 * MS)
        unguarded = run(deadline=None)
        assert len(guarded.shed) > 0
        assert unguarded.shed == []
        assert (guarded.completed + len(guarded.dropped)
                + len(guarded.shed) == guarded.submitted)
        assert guarded.metrics.p99_latency \
            <= unguarded.metrics.p99_latency + 1e-9
