"""Integration tests for the inference server."""

import pytest

from repro.core import DeepPlan
from repro.errors import WorkloadError
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
from repro.simkit import Simulator
from repro.units import MS


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


@pytest.fixture(scope="module")
def planner():
    return DeepPlan(p3_8xlarge(), noise=0.0)


def make_server(planner, strategy="pt+dha", prewarm=True, deadline=None):
    machine = Machine(Simulator(), p3_8xlarge())
    config = ServerConfig(strategy=strategy, prewarm=prewarm,
                          deadline=deadline)
    return InferenceServer(machine, planner, config)


class Recorder(OutcomeListener):
    """Appends ``(tag, event, source, request_id)`` to a shared log."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def request_completed(self, source, request, record):
        assert record.request_id == request.request_id
        self.log.append((self.tag, "completed", source, request.request_id))

    def request_shed(self, source, request):
        self.log.append((self.tag, "shed", source, request.request_id))


class TestDeployment:
    def test_instances_spread_round_robin(self, planner, bert):
        server = make_server(planner)
        instances = server.deploy([(bert, 8)])
        homes = [i.home_gpu for i in instances]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_instance_names_unique_across_deploys(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        more = server.deploy([(bert, 2)])
        assert [i.name for i in more] == ["bert-base#2", "bert-base#3"]

    def test_plans_shared_per_architecture(self, planner, bert):
        server = make_server(planner)
        instances = server.deploy([(bert, 3)])
        assert instances[0].plan is instances[1].plan

    def test_bad_count_rejected(self, planner, bert):
        with pytest.raises(WorkloadError):
            make_server(planner).deploy([(bert, 0)])

    def test_warm_capacity_matches_paper_figure13(self, planner, bert):
        """PipeSwitch fits 100 BERT-Base instances on four V100s;
        DeepPlan fits 124 (embeddings stay host-side)."""
        pipeswitch = make_server(planner, "pipeswitch")
        pipeswitch.deploy([(bert, 200)])
        assert pipeswitch.warm_capacity() == 100
        deepplan = make_server(planner, "pt+dha")
        deepplan.deploy([(bert, 200)])
        assert deepplan.warm_capacity() == 124


class TestServing:
    def test_all_warm_requests_fast(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 8)])
        workload = PoissonWorkload(list(server.instances), rate=40.0,
                                   num_requests=200, seed=0)
        report = server.run(workload.generate())
        assert len(report.metrics) == 200
        assert report.metrics.cold_start_rate == 0.0
        assert report.metrics.p99_latency < 40 * MS
        assert report.evictions == 0

    def test_over_capacity_causes_cold_starts_and_evictions(self, planner,
                                                            bert):
        server = make_server(planner)
        server.deploy([(bert, 140)])
        workload = PoissonWorkload(list(server.instances), rate=100.0,
                                   num_requests=400, seed=1)
        report = server.run(workload.generate())
        assert report.prewarmed == 124
        assert report.metrics.cold_start_count > 0
        assert report.evictions >= report.metrics.cold_start_count

    def test_no_prewarm_means_every_first_touch_is_cold(self, planner, bert):
        server = make_server(planner, prewarm=False)
        server.deploy([(bert, 4)])
        requests = [Request(i, f"bert-base#{i}", i * 0.2) for i in range(4)]
        report = server.run(requests)
        assert report.metrics.cold_start_count == 4

    def test_second_touch_is_warm(self, planner, bert):
        server = make_server(planner, prewarm=False)
        server.deploy([(bert, 1)])
        requests = [Request(0, "bert-base#0", 0.0),
                    Request(1, "bert-base#0", 1.0)]
        report = server.run(requests)
        records = sorted(report.metrics.records, key=lambda r: r.request_id)
        assert records[0].cold_start
        assert not records[1].cold_start
        assert records[1].latency < records[0].latency

    def test_requests_for_unknown_instance_rejected(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 1)])
        with pytest.raises(WorkloadError, match="unknown"):
            server.run([Request(0, "ghost#0", 0.0)])

    def test_run_without_instances_rejected(self, planner):
        with pytest.raises(WorkloadError):
            make_server(planner).run([Request(0, "x", 0.0)])

    def test_run_without_requests_rejected(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 1)])
        with pytest.raises(WorkloadError):
            server.run([])

    def test_queueing_on_one_gpu(self, planner, bert):
        """Two simultaneous requests to instances on the same GPU
        serialize (one inference per GPU at a time)."""
        server = make_server(planner)
        server.deploy([(bert, 8)])
        requests = [Request(0, "bert-base#0", 0.0),
                    Request(1, "bert-base#4", 0.0)]
        report = server.run(requests)
        records = sorted(report.metrics.records, key=lambda r: r.request_id)
        assert records[1].started_at >= records[0].finished_at

    def test_mixed_model_deployment(self, planner, bert):
        gpt2 = build_model("gpt2")
        server = make_server(planner)
        server.deploy([(bert, 4), (gpt2, 2)])
        names = list(server.instances)
        workload = PoissonWorkload(names, rate=20.0, num_requests=100, seed=2)
        report = server.run(workload.generate())
        assert len(report.metrics) == 100


class TestStrategyComparison:
    def test_deepplan_beats_pipeswitch_over_capacity(self, planner, bert):
        """The paper's serving headline: under memory pressure DeepPlan
        sustains a much better tail than PipeSwitch."""
        results = {}
        for strategy in ("pipeswitch", "pt+dha"):
            server = make_server(planner, strategy)
            server.deploy([(bert, 160)])
            workload = PoissonWorkload(list(server.instances), rate=100.0,
                                       num_requests=600, seed=3)
            results[strategy] = server.run(workload.generate())
        assert (results["pt+dha"].metrics.p99_latency
                < 0.6 * results["pipeswitch"].metrics.p99_latency)
        assert (results["pt+dha"].metrics.goodput
                > results["pipeswitch"].metrics.goodput)


class TestFailureHandling:
    def test_oversized_model_rejected_at_deploy(self, planner):
        """A model whose resident footprint exceeds a GPU is refused
        up front (with a pointer to the large-model extension)."""
        from repro.models.graph import ModelSpec
        from repro.models.layers import linear

        from repro.core.validate import PlanValidationError

        huge = ModelSpec(
            name="huge",
            layers=tuple(linear(f"fc{i}", 16384, 16384) for i in range(12)),
            seq_len=1, family="custom")
        server = make_server(planner)
        with pytest.raises(PlanValidationError, match="plan_within_budget"):
            server.deploy([(huge, 1)])

    def test_worker_failure_propagates_to_run(self, planner, bert):
        """A fault inside a worker fails run() instead of hanging."""
        server = make_server(planner)
        server.deploy([(bert, 2)])

        def explode(*args, **kwargs):
            raise RuntimeError("injected fault")

        server._caches[0].touch = explode  # fault on the first warm hit
        with pytest.raises(RuntimeError, match="injected fault"):
            server.run([Request(0, "bert-base#0", 0.0)])


class TestAccountingInvariants:
    def test_memory_accounting_consistent_after_run(self, planner, bert):
        """After a churny run, each GPU's reserved bytes equal exactly
        the bytes of instances currently marked resident there, and no
        staging leaks remain."""
        server = make_server(planner)
        server.deploy([(bert, 150)])
        workload = PoissonWorkload(list(server.instances), rate=100.0,
                                   num_requests=500, seed=9)
        server.run(workload.generate())
        for gpu in server.machine.gpus:
            resident = [i for i in server.instances.values()
                        if i.resident and i.home_gpu == gpu.index]
            expected = sum(i.gpu_bytes for i in resident)
            assert gpu.memory.used_bytes == expected
            assert gpu.memory.staging_used_bytes == 0

    def test_host_pins_survive_eviction(self, planner, bert):
        """Eviction frees GPU memory only; host pins persist until
        undeploy."""
        server = make_server(planner)
        instances = server.deploy([(bert, 130)])
        workload = PoissonWorkload(list(server.instances), rate=100.0,
                                   num_requests=300, seed=10)
        report = server.run(workload.generate())
        assert report.evictions > 0
        assert server.machine.host.pinned_bytes == \
            len(instances) * bert.param_bytes


class TestTimeBase:
    """Latency accounting must be invariant to the run's start time."""

    def test_back_to_back_runs_report_identical_latencies(self, planner,
                                                          bert):
        server = make_server(planner)
        server.deploy([(bert, 8)])
        workload = PoissonWorkload(list(server.instances), rate=40.0,
                                   num_requests=60, seed=3)
        first = server.run(workload.generate())
        assert server.sim.now > 0  # the second run starts mid-timeline
        latencies_first = sorted(
            (r.request_id, r.latency) for r in first.metrics.records)
        server.run(workload.generate())
        latencies_second = sorted(
            (r.request_id, r.latency)
            for r in server.metrics.records[len(latencies_first):])
        for (_, a), (_, b) in zip(latencies_first, latencies_second):
            assert a == pytest.approx(b, rel=1e-9)

    def test_goodput_invariant_across_runs(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 8)])
        workload = PoissonWorkload(list(server.instances), rate=40.0,
                                   num_requests=60, seed=3)
        first_goodput = server.run(workload.generate()).metrics.goodput
        server.run(workload.generate())
        assert server.metrics.goodput == pytest.approx(first_goodput)

    def test_submitted_at_is_absolute_arrival(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.run([Request(0, "bert-base#0", 0.5)])
        base = server.sim.now
        server.run([Request(1, "bert-base#1", 0.25)])
        records = sorted(server.metrics.records, key=lambda r: r.request_id)
        assert records[0].submitted_at == pytest.approx(0.5)
        assert records[1].submitted_at == pytest.approx(base + 0.25)
        assert records[1].arrival_time == pytest.approx(0.25)

    def test_windows_keep_consecutive_runs_distinct(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.run([Request(0, "bert-base#0", 0.5)])
        server.sim.run(until=server.sim.now + 120.0)
        server.run([Request(1, "bert-base#1", 0.5)])
        assert len(server.metrics.windows(60.0)) == 2


class TestBatchSizeValidation:
    def test_mismatched_batch_size_rejected_at_run(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        with pytest.raises(WorkloadError, match="batch"):
            server.run([Request(0, "bert-base#0", 0.0, batch_size=4)])

    def test_mismatched_batch_size_rejected_at_submit(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        with pytest.raises(WorkloadError, match="batch"):
            server.submit(Request(0, "bert-base#0", 0.0, batch_size=8))

    def test_matching_batch_size_accepted(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        report = server.run([Request(0, "bert-base#0", 0.0, batch_size=1)])
        assert len(report.metrics) == 1


class TestAuditedServing:
    def test_audited_run_is_clean_and_counts_checks(self, planner, bert):
        machine = Machine(Simulator(), p3_8xlarge())
        server = InferenceServer(machine, planner, ServerConfig(audit=True))
        server.deploy([(bert, 8)])
        workload = PoissonWorkload(list(server.instances), rate=40.0,
                                   num_requests=100, seed=5)
        report = server.run(workload.generate())
        assert len(report.metrics) == 100
        assert server.auditor is not None
        assert server.auditor.violations == []
        assert server.auditor.checks > 100

    def test_audit_off_installs_no_observers(self, planner, bert):
        server = make_server(planner)
        assert server.auditor is None
        assert server.machine.network.observer is None
        assert all(gpu.memory.observer is None
                   for gpu in server.machine.gpus)

    def test_prewarm_matches_dry_run_capacity(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 140)])
        capacity = server.warm_capacity()
        report = server.run([Request(0, "bert-base#0", 0.0)])
        assert report.prewarmed == capacity


class TestLifecycle:
    """drain / resume / fail_over / recover semantics."""

    def test_submit_after_drain_rejected(self, planner, bert):
        """Regression: a draining server must reject new work loudly, not
        queue it behind workers that will never run it."""
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.drain()
        with pytest.raises(WorkloadError, match="draining"):
            server.submit(Request(request_id=0, instance_name="bert-base#0",
                                  arrival_time=0.0))

    def test_drain_event_fires_immediately_when_idle(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        event = server.drain()
        assert event.triggered

    def test_resume_reopens_submission(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.drain()
        server.resume()
        server.start()
        server.submit(Request(request_id=0, instance_name="bert-base#0",
                              arrival_time=0.0))
        assert server.outstanding == 1

    def test_drain_event_fires_after_inflight_completes(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.start()
        server.prewarm()
        server.submit(Request(request_id=0, instance_name="bert-base#0",
                              arrival_time=0.0))
        event = server.drain()
        assert not event.triggered
        server.sim.run(event)
        assert server.outstanding == 0
        assert len(server.metrics.records) == 1

    def test_fail_over_orphans_queued_requests(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        # Workers not started: everything stays queued.
        for k in range(4):
            server.submit(Request(request_id=k, instance_name="bert-base#0",
                                  arrival_time=0.0))
        orphans = server.fail_over()
        assert [r.request_id for r in orphans] == [0, 1, 2, 3]
        assert server.outstanding == 0
        assert server.is_down

    def test_submit_while_down_rejected(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.fail_over()
        with pytest.raises(WorkloadError, match="down"):
            server.submit(Request(request_id=0, instance_name="bert-base#0",
                                  arrival_time=0.0))

    def test_recover_evicts_residency(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.prewarm()
        assert server.is_warm("bert-base#0")
        server.fail_over()
        server.recover()
        assert not server.is_warm("bert-base#0")
        assert not server.is_down

    def test_phantom_execution_discarded_on_crash(self, planner, bert):
        """Work in flight at crash time completes in the simulator but is
        never recorded; the orphaned request is returned for retry."""
        server = make_server(planner)
        server.deploy([(bert, 2)])
        server.start()
        server.prewarm()
        request = Request(request_id=7, instance_name="bert-base#0",
                          arrival_time=0.0)
        server.submit(request)

        def crasher(sim, server):
            yield sim.timeout(0.0005)  # mid-execution
            orphans = server.fail_over()
            assert [r.request_id for r in orphans] == [7]

        server.sim.process(crasher(server.sim, server), name="crasher")
        server.sim.run()
        assert server.metrics.records == []
        assert server.requests_served == 0
        assert server.outstanding == 0

    def test_listeners_see_every_outcome_in_registration_order(
            self, planner, bert):
        """Two listeners each receive every completion and every shed,
        the first registered always notified first, with the server as
        the source; run() leaves the list as it found it."""
        server = make_server(planner, prewarm=False, deadline=25 * MS)
        server.deploy([(bert, 2)])
        log = []
        listeners = [Recorder("a", log), Recorder("b", log)]
        server.listeners.extend(listeners)
        workload = PoissonWorkload(list(server.instances), rate=400.0,
                                   num_requests=40, seed=0)
        report = server.run(workload.generate())
        assert report.shed > 0 and len(report.metrics) > 0
        assert server.listeners == listeners
        assert all(source is server for _, _, source, _ in log)
        assert [tag for tag, *_ in log] == ["a", "b"] * 40
        assert log[0::2] == [("a",) + entry[1:] for entry in log[1::2]]
        completed = sorted(rid for tag, event, _, rid in log
                           if tag == "a" and event == "completed")
        shed = sorted(rid for tag, event, _, rid in log
                      if tag == "a" and event == "shed")
        assert completed == sorted(r.request_id
                                   for r in report.metrics.records)
        assert shed == sorted(r.request_id for r in server.shed_requests)
        assert len(completed) + len(shed) == 40

    def test_busy_time_accumulates(self, planner, bert):
        server = make_server(planner)
        server.deploy([(bert, 2)])
        workload = PoissonWorkload(list(server.instances), rate=100.0,
                                   num_requests=5, seed=0)
        server.run(workload.generate())
        assert server.requests_served == 5
        assert server.busy_time > 0
