"""Tests for the open-loop traffic frontend (:mod:`repro.loadgen`).

Covers the three layers: rate-function algebra, deterministic arrival
generation, and the open/closed-loop driver — including the two
properties the subsystem exists for: (1) fault-free runs through the
generator are bit-identical to the plain trace-replay path, and (2)
under an induced stall the closed loop under-reports the tail (the
coordinated-omission gap) while the open loop does not.
"""

import numpy
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.router import ROUTING_POLICIES
from repro.core import DeepPlan
from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.loadgen import (
    Arrival,
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    LoadGen,
    LoadGenConfig,
    MergedTraffic,
    SyntheticTraffic,
    TraceRate,
    TraceTraffic,
    TrafficClass,
)
from repro.models import build_model
from repro.serving import (
    InferenceServer,
    MAFTraceConfig,
    OutcomeListener,
    PoissonWorkload,
    Request,
    ServerConfig,
    synthesize_maf_trace,
)
from repro.simkit import Simulator
from repro.units import MS


@pytest.fixture(scope="module")
def planner():
    return DeepPlan(p3_8xlarge(), noise=0.0)


def make_server(planner, instances=16, **config_kwargs):
    machine = Machine(Simulator(), p3_8xlarge())
    server = InferenceServer(machine, planner,
                             ServerConfig(**config_kwargs))
    server.deploy([(build_model("bert-base"), instances)])
    return server


def record_tuples(metrics):
    return [(r.request_id, r.submitted_at, r.started_at, r.finished_at,
             r.cold_start)
            for r in sorted(metrics.records, key=lambda r: r.request_id)]


class TestRateFunctions:
    def test_constant(self):
        rate = ConstantRate(5.0)
        assert rate.rate(0.0) == 5.0
        assert rate.peak(0.0, 100.0) == 5.0

    def test_diurnal_stays_within_envelope(self):
        rate = DiurnalRate(base=10.0, amplitude=0.5, period=100.0)
        values = [rate.rate(t) for t in range(0, 100, 5)]
        assert min(values) >= 10.0 * 0.5 - 1e-9
        assert max(values) <= rate.peak(0.0, 100.0) + 1e-9
        assert rate.peak(0.0, 100.0) == pytest.approx(15.0)

    def test_flash_crowd_window(self):
        crowd = FlashCrowd(start=10.0, duration=5.0, magnitude=100.0)
        assert crowd.rate(9.9) == 0.0
        assert crowd.rate(12.0) == 100.0
        assert crowd.rate(15.0) == 0.0
        assert crowd.peak(0.0, 9.0) == 0.0
        assert crowd.peak(14.0, 20.0) == 100.0

    def test_composition_algebra(self):
        combined = ConstantRate(3.0) + 2.0 * ConstantRate(4.0)
        assert combined.rate(1.0) == pytest.approx(11.0)
        assert combined.peak(0.0, 1.0) == pytest.approx(11.0)

    def test_trace_rate_replays_buckets(self):
        rate = TraceRate(10.0, [1.0, 5.0, 2.0])
        assert rate.rate(0.0) == 1.0
        assert rate.rate(15.0) == 5.0
        assert rate.rate(31.0) == 0.0  # past the trace
        assert rate.peak(5.0, 25.0) == 5.0
        assert rate.duration == 30.0

    def test_trace_rate_from_maf_trace(self):
        trace = synthesize_maf_trace(
            ["i0", "i1"], MAFTraceConfig(duration=60.0, target_rps=10.0))
        rate = TraceRate.from_trace(trace)
        assert rate.rate(0.0) == pytest.approx(float(trace.offered_load[0]))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ConstantRate(-1.0)
        with pytest.raises(WorkloadError):
            DiurnalRate(base=1.0, amplitude=1.5)
        with pytest.raises(WorkloadError):
            FlashCrowd(start=0.0, duration=0.0, magnitude=1.0)
        with pytest.raises(WorkloadError):
            TraceRate(10.0, [])


class TestSyntheticTraffic:
    def test_deterministic_per_seed(self):
        def build():
            return SyntheticTraffic(
                [TrafficClass("a", ConstantRate(20.0), ["i0", "i1"]),
                 TrafficClass("b", DiurnalRate(10.0, period=30.0), ["i2"])],
                seed=42)
        first = list(build().arrivals(30.0))
        second = list(build().arrivals(30.0))
        assert first == second
        assert list(build().arrivals(30.0)) != \
            list(SyntheticTraffic(
                [TrafficClass("a", ConstantRate(20.0), ["i0", "i1"]),
                 TrafficClass("b", DiurnalRate(10.0, period=30.0), ["i2"])],
                seed=43).arrivals(30.0))

    def test_class_streams_are_independent(self):
        """Removing one class never perturbs another's arrivals."""
        a = TrafficClass("a", ConstantRate(20.0), ["i0"])
        b = TrafficClass("b", ConstantRate(30.0), ["i1"])
        both = list(SyntheticTraffic([a, b], seed=7).arrivals(20.0))
        alone = list(SyntheticTraffic([a], seed=7).arrivals(20.0))
        assert [x for x in both if x.instance == "i0"] == alone

    def test_arrival_count_tracks_rate(self):
        """Statistical sanity: observed count within 5 sigma of lambda*T."""
        traffic = SyntheticTraffic(
            [TrafficClass("x", ConstantRate(50.0), ["i0"])], seed=1)
        count = sum(1 for _ in traffic.arrivals(100.0))
        expected = 50.0 * 100.0
        assert abs(count - expected) < 5 * expected ** 0.5

    def test_arrivals_ordered_and_stamped(self):
        traffic = SyntheticTraffic(
            [TrafficClass("gold", ConstantRate(30.0), ["i0"], qos="gold"),
             TrafficClass("std", ConstantRate(30.0), ["i1"])],
            seed=5)
        arrivals = list(traffic.arrivals(10.0))
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert {a.qos for a in arrivals} == {"gold", "standard"}

    def test_weights_bias_instance_choice(self):
        traffic = SyntheticTraffic(
            [TrafficClass("x", ConstantRate(100.0), ["hot", "cold"],
                          weights=[9.0, 1.0])], seed=3)
        arrivals = list(traffic.arrivals(30.0))
        hot = sum(1 for a in arrivals if a.instance == "hot")
        assert hot / len(arrivals) > 0.8

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticTraffic([], seed=0)
        with pytest.raises(WorkloadError):
            TrafficClass("x", ConstantRate(1.0), [])
        with pytest.raises(WorkloadError):
            TrafficClass("x", ConstantRate(1.0), ["i0"], weights=[1.0, 2.0])
        cls = TrafficClass("x", ConstantRate(1.0), ["i0"])
        with pytest.raises(WorkloadError):
            SyntheticTraffic([cls, cls], seed=0)

    def test_merged_traffic_interleaves(self):
        first = TraceTraffic([Arrival(1.0, "i0"), Arrival(3.0, "i0")])
        second = TraceTraffic([Arrival(2.0, "i1")])
        merged = list(MergedTraffic([first, second]).arrivals(10.0))
        assert [a.time for a in merged] == [1.0, 2.0, 3.0]


class TestOpenLoopDriver:
    def test_open_loop_is_bit_identical_to_trace_replay(self, planner):
        workload = PoissonWorkload(
            list(make_server(planner).instances), rate=40.0,
            num_requests=120, seed=9)
        reference = make_server(planner)
        ref_report = reference.run(workload.generate())
        target = make_server(planner)
        trace = TraceTraffic([(r.arrival_time, r.instance_name)
                              for r in workload.generate()])
        report = LoadGen(target, trace, LoadGenConfig(
            duration=trace.duration + 1.0)).run()
        assert record_tuples(report.metrics) \
            == record_tuples(ref_report.metrics)

    def test_closed_loop_with_ample_clients_is_bit_identical(self, planner):
        """An unconstrained pool never delays a send, so the closed loop
        degenerates to exact trace replay."""
        workload = PoissonWorkload(
            list(make_server(planner).instances), rate=40.0,
            num_requests=120, seed=9)
        reference = make_server(planner)
        ref_report = reference.run(workload.generate())
        target = make_server(planner)
        trace = TraceTraffic([(r.arrival_time, r.instance_name)
                              for r in workload.generate()])
        report = LoadGen(target, trace, LoadGenConfig(
            duration=trace.duration + 1.0, mode="closed",
            clients=10 ** 6)).run()
        assert record_tuples(report.metrics) \
            == record_tuples(ref_report.metrics)

    def test_open_loop_conserves_requests(self, planner):
        server = make_server(planner)
        traffic = SyntheticTraffic(
            [TrafficClass("x", ConstantRate(40.0),
                          list(server.instances))], seed=2)
        report = LoadGen(server, traffic,
                         LoadGenConfig(duration=5.0)).run()
        assert report.offered > 0
        assert report.completed + report.shed + report.dropped \
            == report.offered == report.submitted
        assert report.metrics.histogram.total == report.completed

    def test_max_requests_caps_offered_load(self, planner):
        server = make_server(planner)
        traffic = SyntheticTraffic(
            [TrafficClass("x", ConstantRate(50.0),
                          list(server.instances))], seed=2)
        report = LoadGen(server, traffic, LoadGenConfig(
            duration=10.0, max_requests=25)).run()
        assert report.offered == 25

    def test_qos_breakdown_reported(self, planner):
        server = make_server(planner)
        names = list(server.instances)
        traffic = SyntheticTraffic(
            [TrafficClass("gold", ConstantRate(20.0), names, qos="gold"),
             TrafficClass("std", ConstantRate(20.0), names)], seed=4)
        report = LoadGen(server, traffic,
                         LoadGenConfig(duration=5.0)).run()
        assert set(report.by_qos) == {"gold", "standard"}
        assert sum(h.total for h in report.by_qos.values()) \
            == report.completed

    def test_unknown_instance_fails_loudly(self, planner):
        server = make_server(planner)
        traffic = TraceTraffic([(0.5, "no-such-instance")])
        with pytest.raises(WorkloadError, match="unknown instance"):
            LoadGen(server, traffic, LoadGenConfig(duration=2.0)).run()

    def test_failed_run_leaves_listeners_unchanged(self, planner):
        """A run that raises still unsubscribes the generator."""
        server = make_server(planner)
        existing = OutcomeListener()
        server.listeners.append(existing)
        traffic = TraceTraffic([(0.0, "bert-base#0"),
                                (0.5, "no-such-instance")])
        with pytest.raises(WorkloadError, match="unknown instance"):
            LoadGen(server, traffic, LoadGenConfig(duration=2.0)).run()
        assert server.listeners == [existing]

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            LoadGenConfig(duration=0.0)
        with pytest.raises(WorkloadError):
            LoadGenConfig(duration=1.0, mode="half-open")
        with pytest.raises(WorkloadError):
            LoadGenConfig(duration=1.0, clients=0)
        with pytest.raises(WorkloadError):
            LoadGenConfig(duration=1.0, max_requests=0)


class TestCoordinatedOmission:
    def test_closed_loop_under_reports_the_tail(self, planner):
        """A flash crowd saturates the server; the open loop measures the
        stall it causes, the closed loop's arrivals evaporate with it."""
        def measure(mode):
            server = make_server(planner, instances=16)
            rate = ConstantRate(30.0) + FlashCrowd(
                start=2.0, duration=3.0, magnitude=1500.0)
            traffic = SyntheticTraffic(
                [TrafficClass("mix", rate, list(server.instances))],
                seed=11)
            report = LoadGen(server, traffic, LoadGenConfig(
                duration=8.0, mode=mode, clients=4)).run()
            return report
        open_report = measure("open")
        closed_report = measure("closed")
        # Same intended arrivals either way.
        assert open_report.offered == closed_report.offered
        # The open loop's p99 includes the overload queueing; the closed
        # loop self-throttled and never sampled it.
        assert open_report.metrics.p99_latency \
            > 2 * closed_report.metrics.p99_latency
        # The gap is the whole point: closed-loop goodput looks healthy
        # under an overload the open loop correctly reports as an SLO
        # disaster.
        assert open_report.metrics.goodput < closed_report.metrics.goodput


def assert_open_loop_matches_cluster_run(config, workload_seed,
                                         planner=None):
    """LoadGen in open mode and Cluster.run, each on a fresh cluster,
    see the same completions and sheds for the same arrivals."""
    bert = build_model("bert-base")

    def make_cluster():
        cluster = Cluster(p3_8xlarge(), config, planner=planner)
        cluster.deploy([(bert, 12)])
        return cluster

    reference = make_cluster()
    workload = PoissonWorkload(reference.instance_names, rate=150.0,
                               num_requests=400, seed=workload_seed)
    ref_report = reference.run(workload.generate())
    target = make_cluster()
    trace = TraceTraffic([(r.arrival_time, r.instance_name)
                          for r in workload.generate()])
    report = LoadGen(target, trace, LoadGenConfig(
        duration=trace.duration + 1.0)).run()
    assert report.offered == 400
    assert report.completed == ref_report.completed
    assert record_tuples(report.metrics) \
        == record_tuples(ref_report.metrics)
    assert sorted(r.request_id for r in target.shed) \
        == sorted(r.request_id for r in ref_report.shed)
    assert report.shed == len(ref_report.shed)
    assert report.dropped == 0
    assert target.listeners == []
    return report


class TestClusterTarget:
    @pytest.mark.parametrize("deadline", [None, 20 * MS],
                             ids=["no-deadline", "deadline-20ms"])
    def test_open_loop_is_bit_identical_to_cluster_run(self, deadline):
        """Server -> cluster -> loadgen: the open loop on a cluster sees
        exactly the completions and sheds Cluster.run produces for the
        same arrivals."""
        report = assert_open_loop_matches_cluster_run(
            ClusterConfig(num_machines=3, replication=2, deadline=deadline),
            workload_seed=4)
        if deadline is not None:
            assert report.shed > 0

    def test_open_loop_matches_cluster_run_on_drawn_fleets(self, planner,
                                                          driver_seed):
        """The same identity over fleets drawn per seed: size, replication,
        routing policy, and a deadline on or off."""
        rng = numpy.random.default_rng([driver_seed, 19])
        machines = int(rng.integers(1, 5))
        config = ClusterConfig(
            num_machines=machines,
            replication=int(rng.integers(1, machines + 1)),
            policy=str(rng.choice(ROUTING_POLICIES)),
            deadline=20 * MS if rng.random() < 0.5 else None)
        assert_open_loop_matches_cluster_run(
            config, workload_seed=driver_seed, planner=planner)

    def test_cluster_run_with_audit_quiesces_clean(self, planner):
        bert = build_model("bert-base")
        cluster = Cluster(p3_8xlarge(), ClusterConfig(
            num_machines=2, replication=2, audit=True))
        cluster.deploy([(bert, 8)])
        traffic = SyntheticTraffic(
            [TrafficClass("x", ConstantRate(50.0),
                          list(cluster.instance_names))], seed=6)
        report = LoadGen(cluster, traffic,
                         LoadGenConfig(duration=5.0)).run()
        assert report.completed + report.shed + report.dropped \
            == report.offered
        assert cluster.auditor is not None
        assert cluster.auditor.check_quiesce() == []

    def test_cluster_shed_counts_against_goodput(self, planner):
        """The deadline guardrail's sheds land in the loadgen collector
        and deflate goodput (the denominator fix)."""
        bert = build_model("bert-base")
        cluster = Cluster(p3_8xlarge(), ClusterConfig(
            num_machines=2, replication=2, audit=True,
            deadline=20 * MS))
        cluster.deploy([(bert, 8)])
        rate = ConstantRate(30.0) + FlashCrowd(start=1.0, duration=2.0,
                                               magnitude=2000.0)
        traffic = SyntheticTraffic(
            [TrafficClass("x", rate, list(cluster.instance_names))],
            seed=8)
        report = LoadGen(cluster, traffic,
                         LoadGenConfig(duration=6.0)).run()
        assert report.shed > 0
        assert report.metrics.shed == report.shed
        in_slo = sum(1 for r in report.metrics.records
                     if r.latency <= report.metrics.slo)
        assert report.metrics.goodput \
            == pytest.approx(in_slo / report.offered)
        assert cluster.auditor.check_quiesce() == []


def one_machine_cluster(planner, **config_kwargs):
    cluster = Cluster(p3_8xlarge(), ClusterConfig(num_machines=1,
                                                  **config_kwargs),
                      planner=planner)
    cluster.deploy([(build_model("bert-base"), 16)])
    return cluster


class TestEntryPoints:
    """``InferenceServer.run``, ``Cluster.run`` and ``LoadGen.run`` send
    requests through one driver."""

    def test_run_replays_in_arrival_order(self, planner):
        """An out-of-order list is sent on time, as a sorted one is."""
        def requests():
            return [Request(k, f"bert-base#{k}", k * 10 * MS)
                    for k in range(4)]

        def records(report):
            return [(r.request_id, r.instance_name, r.arrival_time,
                     r.submitted_at, r.started_at, r.finished_at,
                     r.cold_start)
                    for r in sorted(report.metrics.records,
                                    key=lambda r: r.request_id)]

        in_order = make_server(planner, prewarm=False).run(requests())
        reversed_ = make_server(planner, prewarm=False).run(
            requests()[::-1])
        cluster = one_machine_cluster(planner, prewarm=False).run(
            requests()[::-1])
        assert records(reversed_) == records(in_order)
        assert records(cluster) == records(in_order)

    @pytest.mark.parametrize("raises", [False, True],
                             ids=["normal", "worker-raises"])
    @pytest.mark.parametrize("entry", ["server", "cluster", "loadgen"])
    def test_run_restores_listeners(self, planner, entry, raises):
        if entry == "server":
            target = make_server(planner)
            servers = [target]
        else:
            target = one_machine_cluster(planner)
            servers = [cm.server for cm in target.machines]
        requests = [Request(k, "bert-base#0", k * 10 * MS) for k in range(3)]
        if entry == "loadgen":
            trace = TraceTraffic([(r.arrival_time, r.instance_name)
                                  for r in requests])
            run = LoadGen(target, trace, LoadGenConfig(duration=1.0)).run
        else:
            def run():
                return target.run(requests)
        existing = OutcomeListener()
        target.listeners.append(existing)
        server_listeners = [list(server.listeners) for server in servers]
        if raises:
            def explode(*args, **kwargs):
                raise RuntimeError("injected fault")

            # bert-base#0 is prewarmed on GPU 0: its first hit explodes.
            servers[0]._caches[0].touch = explode
            with pytest.raises(RuntimeError, match="injected fault"):
                run()
        else:
            run()
        assert target.listeners == [existing]
        assert [server.listeners for server in servers] == server_listeners


class TestReplicaDraw:
    """Each accepted arrival's replica draw equals ``rng.choice(p=...)``."""

    @staticmethod
    def _choice_arrivals(cls, seed, duration, chunk_seconds):
        """The class stream with numpy's ``choice`` as the replica draw."""
        rng = numpy.random.default_rng([seed, 0])
        choices = numpy.arange(len(cls.instances))
        arrivals = []
        t0 = 0.0
        while t0 < duration:
            t1 = min(t0 + chunk_seconds, duration)
            peak = cls.rate.peak(t0, t1)
            t = t0
            while peak > 0:
                t += rng.exponential(1.0 / peak)
                if t >= t1:
                    break
                if rng.random() * peak <= cls.rate.rate(t):
                    which = int(rng.choice(choices, p=cls.probabilities))
                    arrivals.append((t, cls.instances[which]))
            t0 = t1
        return arrivals

    @pytest.mark.parametrize("weights", [
        [1.0],
        [0.7, 0.1, 0.2],
        [3.0, 0.0, 1.0, 1.0, 5.0],
    ])
    def test_draws_match_numpy_choice(self, weights):
        # Chunks of 0.7 s straddle the crowd's edges, so thinning rejects.
        rate = ConstantRate(100.0) + FlashCrowd(start=1.0, duration=1.0,
                                                magnitude=300.0)
        cls = TrafficClass("c", rate, [f"i{k}" for k in range(len(weights))],
                           weights=weights)
        for seed in range(5):
            traffic = SyntheticTraffic([cls], seed=seed, chunk_seconds=0.7)
            got = [(a.time, a.instance) for a in traffic.arrivals(3.0)]
            assert got == self._choice_arrivals(cls, seed, 3.0, 0.7)
            assert len(got) > 100
