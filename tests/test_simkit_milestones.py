"""Tests for progress-milestone flows (the load-stream bulk-flow idiom)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import FlowNetwork, Link, Simulator


@pytest.fixture
def sim():
    return Simulator()


def network_with_link(sim, bandwidth=100.0):
    return FlowNetwork(sim), Link("l", bandwidth)


class TestMilestones:
    def test_milestones_fire_at_byte_offsets(self, sim):
        network, link = network_with_link(sim)
        done, events = network.transfer_with_milestones(
            [link], 1000.0, [250.0, 500.0, 1000.0])
        fired = []
        for i, event in enumerate(events):
            event.add_callback(lambda e, i=i: fired.append((i, sim.now)))
        sim.run(done)
        assert fired == [(0, 2.5), (1, 5.0), (2, 10.0)]

    def test_milestone_equivalent_to_serial_copies(self, sim):
        """One bulk flow with milestones lands each boundary exactly when
        back-to-back transfers would complete."""
        network, link = network_with_link(sim)
        sizes = [100.0, 300.0, 50.0]
        offsets = [100.0, 400.0, 450.0]
        _, events = network.transfer_with_milestones([link], 450.0, offsets)
        times = {}
        for i, event in enumerate(events):
            event.add_callback(lambda e, i=i: times.__setitem__(i, sim.now))
        sim.run()
        serial = 0.0
        for i, size in enumerate(sizes):
            serial += size / link.bandwidth
            assert times[i] == pytest.approx(serial)

    def test_milestones_respect_contention(self, sim):
        network, link = network_with_link(sim)
        _, events = network.transfer_with_milestones([link], 1000.0, [500.0])
        network.transfer([link], 10_000.0)  # competing flow, same link
        time = {}
        events[0].add_callback(lambda e: time.__setitem__(0, sim.now))
        sim.run()
        # Fair share halves the rate: the 500-byte mark takes 10 s, not 5.
        assert time[0] == pytest.approx(10.0)

    def test_setup_delay_shifts_milestones(self, sim):
        network, link = network_with_link(sim)
        _, events = network.transfer_with_milestones(
            [link], 100.0, [100.0], setup_delay=3.0)
        sim.run()
        assert events[0].triggered
        assert sim.now == pytest.approx(4.0)

    def test_zero_byte_flow_fires_zero_offset_milestones(self, sim):
        network, link = network_with_link(sim)
        done, events = network.transfer_with_milestones([link], 0.0, [0.0])
        sim.run(done)
        assert events[0].triggered

    def test_sub_epsilon_flow_fires_every_milestone(self, sim):
        """Regression: a flow within the completion epsilon completes at
        start, and completing it fires every milestone up to its size.

        Offsets may exceed the size by the epsilon.  The start-time
        completion fired milestones before zeroing the residual, so the
        second one here never fired and its waiters hung.
        """
        network, link = network_with_link(sim)
        done, events = network.transfer_with_milestones(
            [link], 0.001, [0.0005, 0.0015])
        sim.run()
        assert done.triggered
        assert [event.triggered for event in events] == [True, True]

    def test_zero_offset_milestone_fires_at_start_of_nonzero_flow(self, sim):
        """Regression: a milestone at the flow's current progress offset.

        A 0.0-byte milestone distance is a real, immediately-due target;
        collapsing it into "no milestone" by truthiness deferred the
        event to flow completion.
        """
        network, link = network_with_link(sim)
        times = {}
        done, events = network.transfer_with_milestones(
            [link], 1000.0, [0.0, 500.0])
        events[0].add_callback(lambda e: times.setdefault("zero", sim.now))
        events[1].add_callback(lambda e: times.setdefault("mid", sim.now))
        sim.run(done)
        assert times["zero"] == pytest.approx(0.0)
        assert times["mid"] == pytest.approx(5.0)

    def test_zero_offset_milestone_respects_setup_delay(self, sim):
        network, link = network_with_link(sim)
        times = {}
        done, events = network.transfer_with_milestones(
            [link], 1000.0, [0.0], setup_delay=2.0)
        events[0].add_callback(lambda e: times.setdefault("zero", sim.now))
        sim.run(done)
        assert times["zero"] == pytest.approx(2.0)

    def test_milestone_fires_on_time_when_joiner_lands_on_crossing(self, sim):
        """A flow joining exactly at a milestone crossing must not defer it."""
        network, link = network_with_link(sim)
        times = {}
        done, events = network.transfer_with_milestones(
            [link], 1000.0, [500.0])
        events[0].add_callback(lambda e: times.setdefault("mid", sim.now))
        # Joins at t=5.0, the instant the first flow's progress hits 500.
        sim._schedule_callback(
            lambda: network.transfer([link], 100.0), 5.0)
        sim.run(done)
        assert times["mid"] == pytest.approx(5.0)

    def test_unsorted_offsets_rejected(self, sim):
        network, link = network_with_link(sim)
        with pytest.raises(ValueError, match="ascending"):
            network.transfer_with_milestones([link], 100.0, [50.0, 20.0])

    def test_offset_beyond_size_rejected(self, sim):
        network, link = network_with_link(sim)
        with pytest.raises(ValueError, match="beyond"):
            network.transfer_with_milestones([link], 100.0, [150.0])

    def test_weight_applies_to_milestone_flows(self, sim):
        network, link = network_with_link(sim)
        _, events = network.transfer_with_milestones(
            [link], 500.0, [500.0], weight=1.0)
        network.transfer([link], 10_000.0, weight=3.0)
        time = {}
        events[0].add_callback(lambda e: time.__setitem__(0, sim.now))
        sim.run()
        # 1:3 weighting -> 25 B/s for the milestone flow.
        assert time[0] == pytest.approx(20.0)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1,
                   max_size=8),
    bandwidth=st.floats(min_value=1.0, max_value=1e4),
)
def test_milestone_times_match_serial_copies_property(sizes, bandwidth):
    """For any layer-size sequence, milestone times equal the cumulative
    serial-transfer times (contention-free)."""
    sim = Simulator()
    network = FlowNetwork(sim)
    link = Link("l", bandwidth)
    offsets, total = [], 0.0
    for size in sizes:
        total += size
        offsets.append(total)
    _, events = network.transfer_with_milestones([link], total, offsets)
    times = {}
    for i, event in enumerate(events):
        event.add_callback(lambda e, i=i: times.__setitem__(i, sim.now))
    sim.run()
    cumulative = 0.0
    for i, size in enumerate(sizes):
        cumulative += size / bandwidth
        assert times[i] == pytest.approx(cumulative, rel=1e-9, abs=1e-9)
