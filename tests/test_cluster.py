"""Unit and integration tests for the cluster serving layer."""

import pytest

from repro.audit import AuditError
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    FaultEvent,
    GlobalLedger,
    MachineState,
    random_fault_schedule,
)
from repro.errors import WorkloadError
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.serving.workload import PoissonWorkload, Request
from repro.units import MS


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


def make_cluster(bert, instances=8, **kwargs):
    kwargs.setdefault("num_machines", 2)
    kwargs.setdefault("replication", 2)
    cluster = Cluster(p3_8xlarge(), ClusterConfig(**kwargs))
    cluster.deploy([(bert, instances)])
    return cluster


class TestConfigValidation:
    def test_replication_beyond_fleet_rejected(self):
        with pytest.raises(WorkloadError, match="replication"):
            ClusterConfig(num_machines=2, replication=3)

    def test_unknown_policy_rejected(self):
        with pytest.raises(WorkloadError, match="policy"):
            ClusterConfig(policy="random")

    def test_bad_retry_settings_rejected(self):
        with pytest.raises(WorkloadError):
            ClusterConfig(max_retries=-1)
        with pytest.raises(WorkloadError):
            ClusterConfig(retry_backoff=0.0)


class TestPlacement:
    def test_replicas_land_on_distinct_machines(self, bert):
        cluster = make_cluster(bert, num_machines=3, replication=2,
                               instances=6)
        for name in cluster.instance_names:
            holders = [cm.name for cm in cluster.machines
                       if cm.has_replica(name)]
            assert len(holders) == 2
            assert len(set(holders)) == 2

    def test_standby_machines_start_empty(self, bert):
        cluster = make_cluster(bert, num_machines=2, num_standby=1)
        standby = cluster.machines[-1]
        assert standby.state is MachineState.STANDBY
        assert standby.server.instances == {}

    def test_incremental_deploy_continues_numbering(self, bert):
        cluster = make_cluster(bert, instances=3)
        more = cluster.deploy([(bert, 2)])
        assert more == ["bert-base#3", "bert-base#4"]


class TestLedger:
    def test_retry_ladder_doubles_then_drops(self):
        ledger = GlobalLedger()
        delays = [ledger.attempt_failed(7, max_retries=3,
                                        retry_backoff=5 * MS)
                  for _ in range(4)]
        assert delays == [5 * MS, 10 * MS, 20 * MS, None]
        assert (ledger.failures, ledger.retries, ledger.dropped) == (4, 3, 1)
        assert ledger.attempts == {7: 4}
        # A request's ladder is its own.
        assert ledger.attempt_failed(8, 3, 5 * MS) == 5 * MS

    def test_zero_retries_drop_on_the_first_failure(self):
        ledger = GlobalLedger()
        assert ledger.attempt_failed(1, max_retries=0,
                                     retry_backoff=1.0) is None
        assert (ledger.failures, ledger.retries, ledger.dropped) == (1, 0, 1)


class TestRouting:
    def test_round_robin_alternates(self, bert):
        cluster = make_cluster(bert, policy="round-robin", instances=2)
        name = cluster.instance_names[0]
        picks = [cluster.router.route(
            Request(request_id=k, instance_name=name, arrival_time=0.0)).name
            for k in range(4)]
        assert picks == ["m0", "m1", "m0", "m1"]

    def test_least_loaded_prefers_idle_machine(self, bert):
        cluster = make_cluster(bert, policy="least-loaded", instances=2)
        name = cluster.instance_names[0]
        busy = cluster.machines[0]
        busy.server.start()
        # Queue work on m0 without running the simulator.
        busy.server.submit(Request(request_id=90, instance_name=name,
                                   arrival_time=0.0))
        choice = cluster.router.route(
            Request(request_id=0, instance_name=name, arrival_time=0.0))
        assert choice.name == "m1"

    def test_affinity_prefers_warm_replica(self, bert):
        cluster = make_cluster(bert, policy="affinity", instances=2)
        name = cluster.instance_names[0]
        # Warm only m1's replica.
        cluster.machines[1].server.prewarm()
        choice = cluster.router.route(
            Request(request_id=0, instance_name=name, arrival_time=0.0))
        assert choice.name == "m1"

    def test_affinity_spills_once_backlog_exceeds_penalty(self, bert):
        cluster = make_cluster(bert, policy="affinity", instances=2)
        name = cluster.instance_names[0]
        warm = cluster.machines[1]
        warm.server.prewarm()
        penalty = warm.server.plan_of(name).provision_penalty
        # Pile synthetic backlog on the warm machine beyond the penalty:
        # the cold machine becomes the cheaper predicted choice.
        cluster.router.routing.pending_cost[warm.name] = penalty * 2
        choice = cluster.router.route(
            Request(request_id=0, instance_name=name, arrival_time=0.0))
        assert choice.name == "m0"

    def test_no_routable_replica_returns_none(self, bert):
        cluster = make_cluster(bert, instances=2)
        for cm in cluster.machines:
            cm.state = MachineState.DOWN
        assert cluster.router.route(
            Request(request_id=0, instance_name=cluster.instance_names[0],
                    arrival_time=0.0)) is None


class TestFaultSchedules:
    def test_schedule_pairs_crash_with_recover(self):
        schedule = random_fault_schedule(["m0", "m1"], 3, 100.0, seed=5)
        by_machine = {}
        for event in schedule:
            by_machine.setdefault(event.machine_name, []).append(event)
        for events in by_machine.values():
            actions = [e.action for e in events]
            assert actions == ["crash", "recover"] * (len(actions) // 2)

    def test_same_machine_outages_never_overlap(self):
        schedule = random_fault_schedule(["m0"], 4, 100.0, seed=1)
        times = [e.time for e in schedule]
        assert times == sorted(times)

    def test_bad_action_rejected(self):
        with pytest.raises(WorkloadError):
            FaultEvent(1.0, "m0", "explode")

    def test_crash_skipped_when_machine_already_down(self, bert):
        m0 = make_cluster(bert, instances=2).machine("m0")
        assert m0.crash() == []
        assert m0.crash() is None
        assert m0.crashes == 1

    def test_recover_requires_down(self, bert):
        m0 = make_cluster(bert, instances=2).machine("m0")
        assert m0.recover() is None
        m0.crash()
        assert m0.recover() == []
        assert m0.state is MachineState.ACTIVE


class TestFaultTransitions:
    """The six fault actions' apply/skip rules, at their one home."""

    def test_device_actions_skipped_on_down_machine(self, bert):
        m0 = make_cluster(bert, instances=2, prewarm=False).machine("m0")
        m0.crash()
        assert m0.fail_gpu(0) is None
        assert m0.recover_gpu(0) is None
        assert m0.degrade_link("gpu0.pcie", 0.2) is None
        assert m0.restore_link("gpu0.pcie") is None
        assert m0.gpu_failures == 0

    def test_repeated_device_actions_skipped(self, bert):
        m0 = make_cluster(bert, instances=2, prewarm=False).machine("m0")
        assert m0.recover_gpu(3) is None  # healthy GPU
        assert m0.restore_link("gpu0.pcie") is None  # healthy link
        assert m0.fail_gpu(3) == []
        assert m0.fail_gpu(3) is None  # already failed
        assert m0.gpu_failures == 1
        assert m0.recover_gpu(3) == []
        assert m0.degrade_link("gpu0.pcie", 0.2) == []
        assert m0.degrade_link("gpu0.pcie", 0.2) is None  # no change
        assert m0.restore_link("gpu0.pcie") == []

    def test_crash_and_gpu_failure_return_their_orphans(self, bert):
        cluster = make_cluster(bert, instances=2, prewarm=False)
        first, second = cluster.instance_names
        m0 = cluster.machine("m0")
        m0.server.start()
        for request_id, name in enumerate([first, second, first]):
            m0.server.submit(Request(request_id=request_id,
                                     instance_name=name, arrival_time=0.0))
        home = m0.server.instances[first].home_gpu
        assert m0.server.instances[second].home_gpu != home
        orphans = m0.fail_gpu(home)
        assert [r.request_id for r in orphans] == [0, 2]
        assert [r.request_id for r in m0.crash()] == [1]
        assert m0.state is MachineState.DOWN


class TestClusterRuns:
    def test_fault_injector_error_raises_out_of_run(self, bert):
        """Nothing waits on the fault injector's process, so an error in
        a fault action must end the run instead of silently stopping the
        injector; the run's listeners are restored all the same."""
        cluster = make_cluster(bert, audit=True)
        m1 = cluster.machine("m1")

        def explode():
            raise RuntimeError("crash handler failed")

        m1.crash = explode
        workload = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=120, seed=0)
        with pytest.raises(RuntimeError, match="crash handler failed"):
            cluster.run(workload.generate(),
                        fault_schedule=[FaultEvent(0.5, "m1", "crash")])
        assert cluster.sim.now == 0.5
        assert cluster.listeners == []

    def test_fault_free_run_completes_everything(self, bert):
        cluster = make_cluster(bert, audit=True)
        workload = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=120, seed=0)
        report = cluster.run(workload.generate())
        assert report.completed == 120
        assert report.dropped == []
        assert report.retries == 0
        assert sum(m.served for m in report.per_machine) == 120

    def test_exactly_once_across_injected_failures(self, bert):
        cluster = make_cluster(bert, num_machines=3, replication=2,
                               instances=12, audit=True, max_retries=3)
        workload = PoissonWorkload(cluster.instance_names, rate=150.0,
                                   num_requests=300, seed=4)
        requests = workload.generate()
        duration = max(r.arrival_time for r in requests)
        schedule = random_fault_schedule(
            [cm.name for cm in cluster.machines], 2, duration, seed=4)
        report = cluster.run(requests, fault_schedule=schedule)
        # run() performs the audit (raising on violation); the report
        # must additionally balance to the request count.
        assert report.submitted == 300
        assert report.completed + len(report.dropped) == 300
        assert sum(m.crashes for m in report.per_machine) >= 1

    def test_whole_fleet_down_drops_after_budget(self, bert):
        cluster = make_cluster(bert, instances=4, audit=True,
                               max_retries=1, retry_backoff=10 * MS)
        workload = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=40, seed=2)
        schedule = [FaultEvent(0.05, "m0", "crash"),
                    FaultEvent(0.05, "m1", "crash"),
                    FaultEvent(10.0, "m0", "recover"),
                    FaultEvent(10.0, "m1", "recover")]
        report = cluster.run(workload.generate(), fault_schedule=schedule)
        assert len(report.dropped) > 0
        assert report.completed + len(report.dropped) == 40
        # Each dropped request used its full attempt budget.
        for request in report.dropped:
            assert report.ledger.attempts[request.request_id] == 2
        ledger = report.ledger
        assert ledger.dropped == len(report.dropped)
        assert ledger.failures == ledger.retries + ledger.dropped

    def test_ledger_is_cumulative_across_runs(self, bert):
        cluster = make_cluster(bert, audit=True)
        first = PoissonWorkload(cluster.instance_names, rate=50.0,
                                num_requests=50, seed=0).generate()
        second = [Request(request_id=r.request_id + 50,
                          instance_name=r.instance_name,
                          arrival_time=r.arrival_time)
                  for r in PoissonWorkload(cluster.instance_names, rate=50.0,
                                           num_requests=30,
                                           seed=1).generate()]
        cluster.run(first)
        report = cluster.run(second)
        assert report.submitted == 80
        assert report.submitted == (report.completed + len(report.shed)
                                    + len(report.dropped))
        assert report.ledger.completed == report.completed

    def test_machine_stats_are_cumulative_across_runs(self, bert):
        """Every per-machine figure covers both runs, as the ledger does:
        utilization divides the summed busy time by the summed run
        durations, not by the latest run's alone."""
        cluster = make_cluster(bert)
        first = PoissonWorkload(cluster.instance_names, rate=50.0,
                                num_requests=50, seed=0).generate()
        second = [Request(request_id=r.request_id + 50,
                          instance_name=r.instance_name,
                          arrival_time=r.arrival_time)
                  for r in PoissonWorkload(cluster.instance_names, rate=50.0,
                                           num_requests=30,
                                           seed=1).generate()]
        report1 = cluster.run(first)
        busy1 = {m.name: m.busy_time for m in report1.per_machine}
        report2 = cluster.run(second)
        # The second run spans at least its own arrivals.
        assert (report2.duration - report1.duration
                >= max(r.arrival_time for r in second))
        assert sum(m.served for m in report2.per_machine) == 80
        served = {cm.name: len(cm.server.metrics.records)
                  for cm in cluster.machines}
        for stats in report2.per_machine:
            assert stats.served == served[stats.name]
            assert stats.busy_time > busy1[stats.name]
            assert stats.utilization == (stats.busy_time
                                         / (report2.duration * 4))
            assert 0.0 < stats.utilization <= 1.0

    def test_repeated_quiesce_check_adds_only_its_own_checks(self, bert):
        cluster = make_cluster(bert, audit=True)
        workload = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=60, seed=0)
        cluster.run(workload.generate())
        auditor = cluster.auditor
        counts = [auditor.checks]
        for _ in range(2):
            assert auditor.check_quiesce() == []
            counts.append(auditor.checks)
        # A quiesced cluster runs the same quiesce checks every time.
        assert counts[1] - counts[0] == counts[2] - counts[1]
        assert counts[1] - counts[0] < counts[0]

    def test_repeated_quiesce_check_reports_violations_once(self, bert):
        cluster = make_cluster(bert, instances=2, audit=True)
        requests = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=10, seed=0).generate()
        cluster.auditor.on_dispatch(requests[0], "m0")
        cluster.auditor.on_complete(requests[0], "m0")
        with pytest.raises(AuditError):
            cluster.run(requests)
        violations = list(cluster.auditor.violations)
        assert violations
        again = cluster.auditor.check_quiesce(raise_on_violation=False)
        assert again == violations

    def test_audit_catches_double_completion(self, bert):
        cluster = make_cluster(bert, instances=2, audit=True)
        workload = PoissonWorkload(cluster.instance_names, rate=50.0,
                                   num_requests=10, seed=0)
        requests = workload.generate()
        # Sabotage: pre-record a completion for request 0, so it ends the
        # run with two outcomes.
        cluster.auditor.on_dispatch(requests[0], "m0")
        cluster.auditor.on_complete(requests[0], "m0")
        with pytest.raises(AuditError, match="exactly_once"):
            cluster.run(requests)

    def test_report_utilization_bounded(self, bert):
        cluster = make_cluster(bert)
        workload = PoissonWorkload(cluster.instance_names, rate=100.0,
                                   num_requests=100, seed=1)
        report = cluster.run(workload.generate())
        for stats in report.per_machine:
            assert 0.0 <= stats.utilization <= 1.0


class TestAutoscaler:
    def test_scale_up_activates_standby_under_load(self, bert):
        autoscale = AutoscalerConfig(interval=0.2, window=2.0,
                                     scale_up_p99=20 * MS,
                                     scale_down_p99=1 * MS,
                                     min_window_requests=5, cooldown=0.5)
        cluster = make_cluster(bert, num_machines=2, replication=2,
                               num_standby=1, instances=40,
                               autoscale=autoscale, audit=True)
        # Oversubscribed: 40 instances on 2 machines thrash the caches,
        # pushing p99 over the threshold.
        workload = PoissonWorkload(cluster.instance_names, rate=300.0,
                                   num_requests=600, seed=3)
        report = cluster.run(workload.generate())
        ups = [e for e in report.scaling_events if e.action == "scale-up"]
        assert ups, "expected the autoscaler to activate the standby"
        standby = cluster.machines[-1]
        assert standby.server.instances  # catalog deployed on activation
        assert report.completed == 600

    def test_scale_down_returns_standby_to_pool(self, bert):
        cluster = make_cluster(bert, num_machines=2, num_standby=1,
                               instances=4)
        activated = cluster.activate_standby()
        assert activated is not None
        assert activated.state is MachineState.ACTIVE
        drained = cluster.drain_activated_standby()
        assert drained is activated
        cluster.sim.run()
        assert activated.state is MachineState.STANDBY

    def test_base_fleet_never_drained(self, bert):
        cluster = make_cluster(bert, num_machines=2)
        assert cluster.drain_activated_standby() is None

    def test_windowed_p99_requires_min_requests(self, bert):
        cluster = make_cluster(bert)
        assert cluster.windowed_p99(10.0, min_requests=1) is None

    def test_windowed_p99_tolerates_out_of_order_records(self, bert):
        """Regression: a stale record in the middle must not hide the
        in-window completions recorded before it.

        Retried requests are recorded when their (late) completion is
        reported, so the cluster-wide record list is not sorted by
        finished_at; the old reverse scan broke at the first stale
        record and truncated the window.
        """
        from repro.serving.metrics import RequestRecord

        cluster = make_cluster(bert)
        cluster.sim._now = 100.0

        def record(rid, finished_at, latency):
            return RequestRecord(
                request_id=rid, instance_name="bert-base#0",
                arrival_time=0.0, submitted_at=finished_at - latency,
                started_at=finished_at - latency, finished_at=finished_at,
                cold_start=False)

        cluster.metrics.record(record(0, finished_at=95.0, latency=1.0))
        # A retry that finished long before the window, recorded late:
        cluster.metrics.record(record(1, finished_at=50.0, latency=9.0))
        cluster.metrics.record(record(2, finished_at=99.0, latency=2.0))
        p99 = cluster.windowed_p99(10.0, min_requests=2)
        assert p99 is not None
        # Both in-window records (latencies 1.0 and 2.0) count; the
        # stale latency-9.0 record does not.
        assert p99 == pytest.approx(1.99)

    def test_autoscaler_stop_ends_loop(self, bert):
        cluster = make_cluster(bert, autoscale=AutoscalerConfig())
        scaler = Autoscaler(cluster, AutoscalerConfig())
        cluster.sim.process(scaler.process(), name="scaler")
        scaler.stop()
        cluster.sim.run()  # terminates: the loop exits after one tick
        assert scaler.events == []


class TestValidation:
    def test_run_without_deploy_rejected(self, bert):
        cluster = Cluster(p3_8xlarge(), ClusterConfig())
        with pytest.raises(WorkloadError, match="deployed"):
            cluster.run([Request(request_id=0, instance_name="x",
                                 arrival_time=0.0)])

    def test_unknown_instance_rejected(self, bert):
        cluster = make_cluster(bert, instances=2)
        with pytest.raises(WorkloadError, match="unknown"):
            cluster.run([Request(request_id=0, instance_name="nope#0",
                                 arrival_time=0.0)])

    def test_unknown_machine_rejected(self, bert):
        cluster = make_cluster(bert, instances=2)
        with pytest.raises(WorkloadError, match="no machine"):
            cluster.machine("m99")
