"""Unit and property tests for fair-share bandwidth links."""

import collections
import contextlib
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeepPlan
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.serving import InferenceServer, PoissonWorkload
from repro.simkit import Event, Flow, FlowNetwork, Link, Simulator
from tests.test_simkit_milestones import transfer_with_milestones


@pytest.fixture
def sim():
    return Simulator()


def make_network(sim, *bandwidths):
    network = FlowNetwork(sim)
    links = [Link(f"link{i}", bw) for i, bw in enumerate(bandwidths)]
    return network, links


@contextlib.contextmanager
def flow_cycles():
    """Count the flows and flow events a block leaves as cyclic garbage.

    The block runs with the cyclic collector off; one collection with
    ``DEBUG_SAVEALL`` then moves every unreachable cycle into
    ``gc.garbage`` instead of freeing it.  Objects freed by reference
    counting never get there.  The yielded counter is keyed by
    ``"Flow"`` and by event name, and filled when the block exits.
    """
    counts: collections.Counter[str] = collections.Counter()
    gc.collect()
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield counts
        gc.collect()
        for obj in gc.garbage:
            if isinstance(obj, Flow):
                counts["Flow"] += 1
            elif isinstance(obj, Event) and obj.name in ("flow.done",
                                                         "flow.milestone"):
                counts[obj.name] += 1
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class TestSingleFlow:
    def test_transfer_time_is_bytes_over_bandwidth(self, sim):
        network, (link,) = make_network(sim, 100.0)
        done = network.transfer([link], 1000.0)
        sim.run(done)
        assert sim.now == pytest.approx(10.0)

    def test_setup_delay_precedes_transfer(self, sim):
        network, (link,) = make_network(sim, 100.0)
        done = network.transfer([link], 1000.0, setup_delay=2.5)
        sim.run(done)
        assert sim.now == pytest.approx(12.5)

    def test_zero_bytes_completes_after_setup(self, sim):
        network, (link,) = make_network(sim, 100.0)
        done = network.transfer([link], 0.0, setup_delay=1.0)
        sim.run(done)
        assert sim.now == pytest.approx(1.0)

    def test_max_rate_caps_below_link_bandwidth(self, sim):
        network, (link,) = make_network(sim, 100.0)
        done = network.transfer([link], 1000.0, max_rate=10.0)
        sim.run(done)
        assert sim.now == pytest.approx(100.0)

    def test_multi_link_path_bottleneck(self, sim):
        network, (fast, slow) = make_network(sim, 100.0, 25.0)
        done = network.transfer([fast, slow], 100.0)
        sim.run(done)
        assert sim.now == pytest.approx(4.0)

    def test_negative_bytes_rejected(self, sim):
        network, (link,) = make_network(sim, 100.0)
        with pytest.raises(ValueError):
            network.transfer([link], -1.0)

    def test_empty_path_rejected(self, sim):
        network = FlowNetwork(sim)
        with pytest.raises(ValueError):
            network.transfer([], 10.0)


class TestFairSharing:
    def test_two_flows_halve_bandwidth(self, sim):
        network, (link,) = make_network(sim, 100.0)
        a = network.transfer([link], 1000.0)
        b = network.transfer([link], 1000.0)
        sim.run(a)
        # Both flows run at 50 B/s until both finish at t=20.
        assert sim.now == pytest.approx(20.0)
        assert b.triggered

    def test_short_flow_releases_share_to_long_flow(self, sim):
        network, (link,) = make_network(sim, 100.0)
        long = network.transfer([link], 1000.0)
        network.transfer([link], 100.0)
        sim.run(long)
        # Share until t=2 (short flow done: 100B at 50B/s), then full rate:
        # long has 1000-100=900 left, 9s more => t=11.
        assert sim.now == pytest.approx(11.0)

    def test_late_joiner_slows_existing_flow(self, sim):
        network, (link,) = make_network(sim, 100.0)
        first = network.transfer([link], 1000.0)
        network.transfer([link], 1000.0, setup_delay=5.0)
        sim.run(first)
        # t<5: first alone moves 500. Then shared at 50 B/s: 10 s more.
        assert sim.now == pytest.approx(15.0)

    def test_shared_uplink_with_private_lanes(self, sim):
        """Two GPUs behind one switch each get half the uplink (Table 2)."""
        network, (lane_a, lane_b, uplink) = make_network(sim, 100.0, 100.0, 100.0)
        a = network.transfer([lane_a, uplink], 500.0)
        b = network.transfer([lane_b, uplink], 500.0)
        sim.run(a)
        assert sim.now == pytest.approx(10.0)  # 50 B/s each through uplink
        assert b.triggered

    def test_unbalanced_paths_max_min_allocation(self, sim):
        """A flow capped by its private lane frees uplink share for others."""
        network, (narrow, wide, uplink) = make_network(sim, 10.0, 100.0, 100.0)
        capped = network.transfer([narrow, uplink], 100.0)
        greedy = network.transfer([wide, uplink], 900.0)
        sim.run(capped)
        assert sim.now == pytest.approx(10.0)  # narrow flow runs at 10 B/s
        sim.run(greedy)
        # greedy got 90 B/s while sharing, then 100 B/s: 900 = 90*10 + 0
        assert sim.now == pytest.approx(10.0)

    def test_bytes_carried_accounting(self, sim):
        network, (link,) = make_network(sim, 100.0)
        done = network.transfer([link], 123.0)
        sim.run(done)
        assert link.bytes_carried == pytest.approx(123.0)


class TestLinkValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("bad", 0.0)


class TestRebalanceRobustness:
    def test_fractional_weights_terminate(self, sim):
        """Regression: float residue in per-link load must not hang.

        Freezing flows with fractional weights leaves residue in the
        shared link's summed load (0.1 + 0.2 + 0.3 subtracts back to
        ~3e-17, not 0.0).  Progressive filling then picked the drained
        link as the bottleneck forever, since no unfrozen flow crossed
        it — an infinite loop inside a single rebalance.
        """
        import signal

        network, (shared, private) = make_network(sim, 1.0, 10.0)
        for weight in (0.1, 0.2, 0.3):
            network.transfer([shared], 100.0, weight=weight)
        done = network.transfer([private], 1000.0)

        def bail(signum, frame):
            raise TimeoutError("progressive filling did not terminate")

        previous = signal.signal(signal.SIGALRM, bail)
        signal.alarm(20)
        try:
            sim.run(done)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert sim.now == pytest.approx(100.0)

    def test_sub_ulp_completion_wait_terminates(self, sim):
        """Regression: a wake-up closer than one clock tick must not spin.

        Late in a long run, a fast link can owe a flow less than one
        representable tick of simulated time (residual / rate underflows
        ``ulp(now)``).  Scheduling the timer at ``now + wait == now``
        settled zero elapsed time, recomputed the identical wait, and
        spun forever at a frozen timestamp.  The rebalance must clamp the
        wait so time actually advances.
        """
        import signal

        network, (slow, fast) = make_network(sim, 1.0, 1e11)
        # Drive the clock far from zero so ulp(now) dwarfs the residual
        # transfer time below: 0.002 B / 1e11 B/s = 2e-14 s < ulp(6e8).
        sim.run(network.transfer([slow], 6e8))
        done = network.transfer([fast], 0.002)

        def bail(signum, frame):
            raise TimeoutError("sub-ulp wake-up did not terminate")

        previous = signal.signal(signal.SIGALRM, bail)
        signal.alarm(20)
        try:
            sim.run(done)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert done.triggered
        assert sim.now > 6e8

    def test_non_positive_max_rate_is_rejected(self, sim):
        """A non-positive cap would starve the flow forever (its done
        event could never fire); it is an argument error, like the
        weight and nbytes checks."""
        network, (link,) = make_network(sim, 100.0)
        with pytest.raises(ValueError, match="max_rate"):
            network.transfer([link], 500.0, max_rate=0.0)
        with pytest.raises(ValueError, match="max_rate"):
            network.transfer([link], 500.0, max_rate=-1.0)
        with pytest.raises(ValueError, match="max_rate"):
            transfer_with_milestones(network, [link], 500.0, [100.0],
                                     max_rate=0.0)
        assert not network.active_flows

    def test_negative_milestone_offset_is_rejected(self, sim):
        network, (link,) = make_network(sim, 100.0)
        with pytest.raises(ValueError, match="non-negative"):
            transfer_with_milestones(network, [link], 500.0, [-1.0, 100.0])
        assert not network.active_flows

    def test_rate_starved_flow_does_not_crash_rebalance(self, sim):
        """A fully rate-starved flow set must not divide by zero.

        With every active flow at rate 0 (a link drained to zero residual
        by float-exhausted allocations) there is no next event to arm a
        timer for; the rebalance simply waits for the next flow start or
        finish.
        """
        # Incremental explicitly: the from-scratch slow path recomputes
        # every rate on every wake-up, so the hand-zeroed rate below
        # would simply be repaired there.
        network = FlowNetwork(sim, incremental=True)
        link = Link("link0", 100.0)
        starved = network.transfer([link], 500.0)
        (flow,) = network.active_flows
        # Zero the assigned rate by hand — the float-residue starvation
        # this models needs an adversarial allocation history — and force
        # a milestone-style wake-up, which keeps rates as they are and
        # only re-arms the timer.
        flow.rate = 0.0
        network._arm_timer()
        sim.run()
        assert not starved.triggered
        assert len(network.active_flows) == 1
        # The next flow start refills the component; both drain normally.
        done = network.transfer([link], 1000.0)
        sim.run(done)
        assert starved.triggered


class TestNoCyclicGarbage:
    def test_completed_flows_form_no_cycles(self, sim):
        network, (link,) = make_network(sim, 100.0)
        with flow_cycles() as cycles:
            done = network.transfer([link], 500.0)
            _, marks = transfer_with_milestones(
                network, [link], 1000.0, [250.0, 1000.0], setup_delay=1.0)
            transfer_with_milestones(network, [link], 0.0, [0.0])
            sim.run()
            assert done.triggered and all(m.triggered for m in marks)
            del done, marks
        assert cycles == {}

    def test_oversubscribed_replay_leaves_no_flow_cycles(self):
        """Cold starts (milestone load streams) and warm DHA reads alike
        free their flows and events by reference counting."""
        planner = DeepPlan(p3_8xlarge(), noise=0.0)
        server = InferenceServer(Machine(Simulator(), p3_8xlarge()),
                                 planner)
        server.deploy([(build_model("bert-base"), 140)])
        workload = PoissonWorkload(list(server.instances), rate=100.0,
                                   num_requests=200, seed=1)
        with flow_cycles() as cycles:
            report = server.run(workload.generate())
        assert report.metrics.cold_start_count > 0
        assert report.metrics.cold_start_count < len(report.metrics)
        assert cycles == {}


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                   max_size=6),
    delays=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=6,
                    max_size=6),
    bandwidth=st.floats(min_value=1.0, max_value=1e4),
)
def test_byte_conservation_property(sizes, delays, bandwidth):
    """Whatever the contention pattern, every byte requested is delivered
    and the link never carries more than capacity x elapsed time."""
    sim = Simulator()
    network = FlowNetwork(sim)
    link = Link("l", bandwidth)
    flows = [network.transfer([link], size, setup_delay=delay)
             for size, delay in zip(sizes, delays)]
    sim.run()
    assert all(flow.triggered for flow in flows)
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-6, abs=1e-2)
    assert link.bytes_carried <= bandwidth * sim.now * (1 + 1e-9) + 1e-2


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=2,
                   max_size=5),
)
def test_concurrent_flows_finish_no_earlier_than_alone(sizes):
    """Contention can only slow a flow down, never speed it up."""
    bandwidth = 100.0

    def finish_time(all_sizes, index):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("l", bandwidth)
        flows = [network.transfer([link], s) for s in all_sizes]
        sim.run(flows[index])
        return sim.now

    for i, size in enumerate(sizes):
        alone = size / bandwidth
        assert finish_time(sizes, i) >= alone - 1e-9
