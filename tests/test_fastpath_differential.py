"""Differential tests for the simulation fast path.

The fast path (incremental fair-share rebalancing in
:mod:`repro.simkit.links`, the memoized Algorithm-1 timeline in
:mod:`repro.core.stall`) exists purely to cut wall-clock time; these
tests pin its defining property — same results as the reference
implementations, to the bit where the issue demands it.

* ``TestIncrementalFairShare`` replays seeded random flow topologies and,
  at every rate assignment, compares the incremental allocator's rates
  against :meth:`FlowNetwork.reference_fair_rates` (the original
  whole-network progressive filling).  ``--full-seeds`` sweeps 200
  topologies; the default runs the quick subset.
* ``TestTimelineMemoEquivalence`` runs Algorithm 1 with and without the
  memoized timeline over seeded random cost tables and requires
  identical decisions and bit-identical latency predictions.
* ``TestServingReplayIdentity`` serves whole replays — a fig15-style MAF
  slice under every strategy and an oversubscribed fig13 point — on the
  default path and with the fast path forced off, and requires equal
  per-request timelines.
* ``TestColdPathPins`` pins the per-request timelines of three
  cold-start-heavy replays (one with GPUs failing mid-provision) to
  committed digests, so any change to the cold path's same-instant
  order shows up outside the benchmark too.
"""

import hashlib
import math
import random

import pytest

from repro import fastpath
from repro.cluster import Cluster, ClusterConfig, FaultEvent
from repro.core import DeepPlan
from repro.core.plan import ExecMethod, Partition
from repro.core.planner import LayerExecutionPlanner
from repro.core.stall import TimelineMemo, compute_timeline
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.models.costs import LayerCosts
from repro.models.layers import LayerKind
from repro.serving import (
    InferenceServer,
    MAFTraceConfig,
    PoissonWorkload,
    ServerConfig,
    TraceWorkload,
    synthesize_maf_trace,
)
from repro.simkit import FlowNetwork, Link, Simulator
from tests.test_simkit_milestones import transfer_with_milestones

REL_TOL = 1e-9


class _RateAuditor:
    """FlowNetwork observer comparing every assignment to the reference."""

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        self.comparisons = 0
        self.worst = 0.0

    def on_flow_completed(self, flow) -> None:
        pass

    def on_rates_assigned(self, network: FlowNetwork, flows) -> None:
        reference = network.reference_fair_rates()
        assert set(reference) == set(network.active_flows)
        for flow, expected in reference.items():
            error = abs(flow.rate - expected)
            bound = REL_TOL * max(abs(expected), abs(flow.rate), 1.0)
            assert error <= bound, (
                f"flow {flow.id} rate {flow.rate!r} diverged from the "
                f"reference fill {expected!r}")
            self.worst = max(self.worst, error)
            self.comparisons += 1


class RateEventChecker:
    """FlowNetwork observer checking the scope of every rate event.

    Each ``on_rates_assigned(network, flows)`` must hold every flow that
    started or changed rate since the previous event, and *flows* must
    be closed under link sharing: per link, the rate and progress sums
    over *flows* equal those over every flow on the link.  Every hook is
    then forwarded to *inner*, when given (an auditor under test).
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.events = 0
        #: Each active flow's rate at the previous event.
        self._rates: dict = {}

    def on_flow_completed(self, flow) -> None:
        if self.inner is not None:
            self.inner.on_flow_completed(flow)

    def on_rates_assigned(self, network: FlowNetwork, flows) -> None:
        self.events += 1
        filled = set(flows)
        assert len(filled) == len(flows)
        assert filled <= set(network._active)
        for flow in network._active:
            if self._rates.get(flow) != flow.rate:
                assert flow in filled, (
                    f"flow {flow.id} started or changed rate but is not "
                    f"in the rate event")
        self._rates = {flow: flow.rate for flow in network._active}
        for link in {link for flow in flows for link in flow.path}:
            mine = [flow for flow in flows if link in flow.path]
            every = network._link_flows[link]
            # fsum is exactly rounded, so summation order cannot matter.
            assert (math.fsum(f.rate for f in mine)
                    == math.fsum(f.rate for f in every))
            assert (math.fsum(f.progressed for f in mine)
                    == math.fsum(f.progressed for f in every))
        if self.inner is not None:
            self.inner.on_rates_assigned(network, flows)


def _random_topology(rng: random.Random) -> list[Link]:
    return [Link(f"link{i}", rng.uniform(1e9, 25e9))
            for i in range(rng.randint(2, 7))]


def _driver(sim: Simulator, network: FlowNetwork, links: list[Link],
            rng: random.Random, transfers: int, milestones: bool = False):
    """One traffic source: random paths, sizes, weights and caps, and
    with *milestones* up to three progress milestones per flow."""
    for _ in range(transfers):
        path = rng.sample(links, rng.randint(1, min(3, len(links))))
        nbytes = rng.uniform(1e5, 5e7)
        weight = rng.choice((1.0, 1.0, 1.0, 0.4, 2.0))
        max_rate = (rng.uniform(5e8, 2e9) if rng.random() < 0.3 else None)
        if milestones:
            offsets = sorted(rng.uniform(0.0, nbytes)
                             for _ in range(rng.randrange(4)))
            done, _ = transfer_with_milestones(
                network, path, nbytes, offsets, max_rate=max_rate,
                weight=weight)
        else:
            done = network.transfer(path, nbytes, max_rate=max_rate,
                                    weight=weight)
        if rng.random() < 0.5:
            yield done  # wait it out: flows complete while others run
        else:
            yield sim.timeout(rng.uniform(0.0, 0.02))  # overlap


def _run_traffic(network: FlowNetwork, flow_seed: int,
                 milestones: bool = False) -> None:
    """Drive the seeded random topology and traffic of *flow_seed*."""
    rng = random.Random(0xF10 + flow_seed)
    links = _random_topology(rng)
    sim = network.sim
    for k in range(rng.randint(2, 6)):
        sim.process(
            _driver(sim, network, links,
                    random.Random(flow_seed * 1000 + k),
                    transfers=rng.randint(3, 10), milestones=milestones),
            name=f"driver{k}")
    sim.run()
    assert not network.active_flows, "every flow should have drained"


class TestIncrementalFairShare:
    def test_incremental_matches_reference_fill(self, flow_seed):
        network = FlowNetwork(Simulator())
        auditor = _RateAuditor(network)
        network.observer = auditor
        _run_traffic(network, flow_seed)
        assert auditor.comparisons > 0
        assert auditor.worst <= REL_TOL * 25e9

    @pytest.mark.parametrize("incremental", [True, False])
    def test_rate_events_cover_changed_flows(self, flow_seed, incremental):
        """Every rate event holds each flow that started or changed rate
        since the previous one, closed under link sharing — with rate
        caps, weights and milestones, on both paths."""
        network = FlowNetwork(Simulator(), incremental=incremental)
        network.observer = checker = RateEventChecker()
        _run_traffic(network, flow_seed, milestones=True)
        assert checker.events > 0

    def test_slow_path_env_produces_same_rates(self, flow_seed):
        """The from-scratch slow path re-fills every component on every
        change; it must send the same rate events as the incremental
        path, each with the same rates, milestones included."""
        if flow_seed >= 10:  # a spot check, not a second full sweep
            pytest.skip("slow-path cross-check runs on the first seeds")

        def collect(incremental: bool) -> list[tuple]:
            sim = Simulator()
            network = FlowNetwork(sim, incremental=incremental)
            observed: list[tuple] = []
            # Flow ids count globally across networks; number the flows
            # per run, on first sight in id order, so the two traces are
            # comparable.
            local: dict[int, int] = {}

            def number(flow) -> int:
                return local.setdefault(flow.id, len(local))

            class Recorder:
                def on_flow_completed(self, flow) -> None:
                    observed.append(("done", number(flow), sim.now))

                def on_rates_assigned(self, net, flows) -> None:
                    active = sorted(net.active_flows, key=lambda f: f.id)
                    observed.append(("rates", sim.now, tuple(sorted(
                        (number(f), f.rate) for f in active))))

            network.observer = Recorder()
            _run_traffic(network, flow_seed, milestones=True)
            return observed

        fast = collect(incremental=True)
        assert any(entry[0] == "rates" for entry in fast)
        assert fast == collect(incremental=False)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_milestone_only_wakeup_sends_no_rate_event(self, incremental):
        """A lone flow crossing three milestones: one rate event when it
        starts, one (empty) when it completes, none in between."""
        sim = Simulator()
        network = FlowNetwork(sim, incremental=incremental)
        events: list[tuple] = []

        class Recorder:
            def on_flow_completed(self, flow) -> None:
                pass

            def on_rates_assigned(self, net, flows) -> None:
                events.append(tuple(flows))

        network.observer = Recorder()
        done, milestones = transfer_with_milestones(
            network, [Link("lane", 1e9)], 4e6, [1e6, 2e6, 3e6])
        sim.run()
        assert all(event.triggered for event in milestones)
        flow = done.value
        assert events == [(flow,), ()]

    @pytest.mark.parametrize("incremental", [True, False])
    def test_armed_wait_matches_full_scan(self, flow_seed, incremental):
        """Every wake-up armed from the settle pass (milestone-only
        wake-ups, lone completions and lone starts) waits exactly as
        long as a full rescan of the active flows would; the slow path
        always rescans."""
        network = FlowNetwork(Simulator(), incremental=incremental)
        arm = network._arm_timer
        shortcuts = 0

        def checked_arm(wait=None) -> None:
            nonlocal shortcuts
            if wait is not None:
                shortcuts += 1
                # Raised inside an unwaited driver process, a failure
                # still ends the run (and the test).
                assert wait == network._scan_wait(), network.sim.now
            arm(wait)

        network._arm_timer = checked_arm
        _run_traffic(network, flow_seed, milestones=True)
        assert (shortcuts > 0) == incremental


class TestLargeComponent:
    """The flat-array kernel on one large, non-uniform component, against
    the reference fill."""

    def test_large_component_matches_reference(self):
        """A 64-flow component on one shared uplink, with mixed weights
        and caps so the flat-array kernel's cap and weight handling runs
        on every rebalance."""
        rng = random.Random(0xB16)
        sim = Simulator()
        network = FlowNetwork(sim, incremental=True)
        auditor = _RateAuditor(network)
        network.observer = auditor
        lanes = [Link(f"lane{i}", rng.uniform(4e9, 16e9)) for i in range(8)]
        uplink = Link("uplink", 12e9)
        flows = []
        for i in range(64):
            flows.append(network.transfer(
                [lanes[i % 8], uplink], rng.uniform(1e6, 5e7),
                weight=rng.choice((0.5, 1.0, 2.0)),
                max_rate=(rng.uniform(5e8, 2e9)
                          if i % 3 == 0 else None)))
        sim.run()
        assert all(flow.triggered for flow in flows)
        assert auditor.comparisons >= 64
        assert auditor.worst <= REL_TOL * 16e9


def _random_costs(rng: random.Random, n: int) -> list[LayerCosts]:
    costs = []
    for i in range(n):
        loadable = rng.random() < 0.8
        inmem = rng.uniform(1e-5, 8e-3)
        if loadable:
            load = rng.uniform(1e-5, 2e-2)
            dha = inmem + rng.uniform(0.0, 2e-2)
            nbytes = max(1, int(load * 12e9))
        else:
            load, dha, nbytes = 0.0, inmem, 0
        costs.append(LayerCosts(
            name=f"l{i}", kind=LayerKind.LINEAR, load_time=load,
            exec_inmem=inmem, exec_dha=dha, load_pcie_bytes=nbytes,
            dha_pcie_bytes=nbytes))
    return costs


class TestTimelineMemoEquivalence:
    def _partitions(self, rng: random.Random, n: int):
        if n < 4 or rng.random() < 0.5:
            return (Partition(index=0, start=0, stop=n),), None
        split = rng.randint(2, n - 1)
        return ((Partition(index=0, start=0, stop=split),
                 Partition(index=1, start=split, stop=n)),
                lambda nbytes: nbytes / 48e9)

    def test_memoized_algorithm1_is_bit_identical(self, property_seed):
        rng = random.Random(0xA160 + property_seed)
        costs = _random_costs(rng, rng.randint(2, 24))
        partitions, nvlink = self._partitions(rng, len(costs))
        planner = LayerExecutionPlanner(costs, partitions, nvlink)
        memoized = planner.plan(memoize=True)
        reference = planner.plan(memoize=False)
        assert memoized == reference
        # Same decisions must mean bit-identical predicted timings too.
        fast = TimelineMemo(costs, memoized, partitions, nvlink)
        slow = compute_timeline(costs, reference, partitions, nvlink)
        assert fast.total_latency == slow.total_latency
        for i in range(len(costs)):
            assert fast.stall_of(i) == slow.stall_of(i)

    def test_memo_refresh_tracks_single_conversions(self, property_seed):
        """Converting layers one at a time and refreshing from the change
        point must equal a from-scratch timeline after every step."""
        rng = random.Random(0x5EED + property_seed)
        costs = _random_costs(rng, rng.randint(2, 16))
        decisions = [ExecMethod.LOAD if c.load_pcie_bytes > 0
                     else ExecMethod.DHA for c in costs]
        memo = TimelineMemo(costs, decisions)
        convertible = [i for i, c in enumerate(costs)
                       if c.load_pcie_bytes > 0]
        rng.shuffle(convertible)
        for i in convertible[:6]:
            decisions[i] = ExecMethod.DHA
            memo.refresh(decisions, i)
            scratch = compute_timeline(costs, decisions)
            assert memo.total_latency == scratch.total_latency
            for j in range(len(costs)):
                assert memo.stall_of(j) == scratch.stall_of(j)


def _serve(strategy: str, catalog, requests_for):
    """One serving replay; returns its report.

    Planner, machine and server are built inside the call, so a
    surrounding ``fastpath.forced`` block governs all of them.
    """
    server = InferenceServer(Machine(Simulator(), p3_8xlarge()),
                             DeepPlan(p3_8xlarge(), noise=0.0),
                             ServerConfig(strategy=strategy))
    server.deploy([(build_model(name), count) for name, count in catalog])
    return server.run(requests_for(list(server.instances)))


def _timelines(report) -> list[tuple[int, float, float, bool]]:
    return [(r.request_id, r.started_at, r.finished_at, r.cold_start)
            for r in report.metrics.records]


class TestServingReplayIdentity:
    """Whole serving replays are identical with the fast path off."""

    def _both_paths(self, strategy: str, catalog, requests_for):
        fast = _serve(strategy, catalog, requests_for)
        with fastpath.forced(False):
            reference = _serve(strategy, catalog, requests_for)
        assert _timelines(fast) == _timelines(reference)
        return fast

    @pytest.mark.parametrize("strategy", ("pipeswitch", "dha", "pt+dha"))
    def test_maf_slice(self, strategy):
        """A 20 s fig15-style slice: 4:4:1 BERT/RoBERTa/GPT-2 mix."""
        config = MAFTraceConfig(duration=20.0, target_rps=150.0, seed=7)
        report = self._both_paths(
            strategy, (("bert-base", 64), ("roberta-base", 64), ("gpt2", 16)),
            lambda names: TraceWorkload(
                synthesize_maf_trace(names, config).arrivals).generate())
        assert report.metrics.cold_start_count > 0

    def test_oversubscribed_fig13_point(self):
        """180 BERT-Base instances at 100 req/s: past the 124 that fit,
        so cold starts, evictions and parallel transmission all run."""
        report = self._both_paths(
            "pt+dha", (("bert-base", 180),),
            lambda names: PoissonWorkload(names, rate=100.0,
                                          num_requests=400,
                                          seed=11).generate())
        assert report.metrics.cold_start_count > 0
        assert report.evictions > 0


def _timeline_digest(report) -> str:
    """sha256 over ``(request_id, started_at, finished_at, cold_start)``,
    by request id, with exact float reprs."""
    text = "".join(f"{rid} {started!r} {finished!r} {int(cold)}\n"
                   for rid, started, finished, cold
                   in sorted(_timelines(report)))
    return hashlib.sha256(text.encode()).hexdigest()


class TestColdPathPins:
    """Cold-start-heavy pt+dha replays reproduce pinned timelines.

    A cold start runs the load stream, the secondary's load-and-forward
    pipeline, per-layer readiness and the flow engine's wake-ups at
    shared instants; reordering any of them moves some request's start
    or finish by at least an ulp.  The first two digests were captured
    before the load streams became event callbacks, the third before
    the execution stream ran through landed layers and milestones
    called their targets; no change that keeps outputs bit-identical
    may move them.
    """

    def _replay(self, catalog, rate: float, count: int, seed: int):
        server = InferenceServer(Machine(Simulator(), p3_8xlarge()),
                                 DeepPlan(p3_8xlarge(), noise=0.0),
                                 ServerConfig(strategy="pt+dha"))
        server.deploy([(build_model(name), n) for name, n in catalog])
        report = server.run(PoissonWorkload(
            list(server.instances), rate=rate, num_requests=count,
            seed=seed).generate())
        assert any(instance.plan.uses_parallel_transmission
                   for instance in server.instances.values())
        assert report.metrics.cold_start_count > 0
        assert report.evictions > 0
        return report

    def test_oversubscribed_fig13_point(self):
        """TestServingReplayIdentity's fig13 point: 180 BERT-Base
        instances at 100 req/s."""
        report = self._replay((("bert-base", 180),), 100.0, 400, 11)
        assert _timeline_digest(report) == (
            "3b112ced433013b21154a7163987c818d2947427b9a25fe06a1bd862a6d58ffc")

    def test_storm_mix_replay(self):
        """The e2e cold_storm mix of large models at 20 req/s: 300
        requests, about two thirds of them cold starts."""
        report = self._replay(
            (("bert-large", 40), ("gpt2-medium", 16), ("resnet101", 40),
             ("roberta-large", 24)), 20.0, 300, 7)
        assert _timeline_digest(report) == (
            "0c30cab0c96349f757f7bd6ff16ee86bbcc68b40801f663de926353043bc3a96")

    def test_peer_gpu_faults_mid_provision(self):
        """GPUs fail and recover every 0.5 s under a one-machine cluster
        that watches device faults: provisions abort on an ``Interrupt``
        thrown into the execution stream mid-wait, and the retries and
        degraded fallbacks that follow replay the same timelines."""
        cluster = Cluster(p3_8xlarge(), ClusterConfig(
            num_machines=1, replication=1, prewarm=False,
            strategy="pt+dha"))
        names = cluster.deploy([(build_model("bert-large"), 24),
                                (build_model("roberta-large"), 12)])
        faults = []
        for k in range(15):
            faults.append(FaultEvent(0.2 + k * 0.5, "m0", "gpu_fail",
                                     gpu=k % 4))
            faults.append(FaultEvent(0.4 + k * 0.5, "m0", "gpu_recover",
                                     gpu=k % 4))
        report = cluster.run(
            PoissonWorkload(names, rate=20.0, num_requests=160,
                            seed=7).generate(),
            fault_schedule=faults)
        assert report.completed == 160
        assert report.aborted_provisions > report.degraded_cold_starts > 0
        assert _timeline_digest(report) == (
            "f307250574389c739e54c30e56c4487723125b0d47d65943f948251ea0f30d3f")
