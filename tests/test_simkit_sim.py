"""Unit tests for the simulator core and processes."""

import pytest

from repro.simkit import Interrupt, Simulator, all_of


@pytest.fixture
def sim():
    return Simulator()


class TestProcess:
    def test_process_runs_and_returns(self, sim):
        def worker():
            yield sim.timeout(2.0)
            return "done"

        process = sim.process(worker())
        result = sim.run(process.done)
        assert result == "done"
        assert sim.now == 2.0
        assert not process.is_alive

    def test_yield_receives_event_value(self, sim):
        def worker():
            value = yield sim.timeout(1.0, "payload")
            return value

        assert sim.run(sim.process(worker()).done) == "payload"

    def test_processes_interleave(self, sim):
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))
            yield sim.timeout(delay)
            trace.append((name, sim.now))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.5))
        sim.run()
        assert trace == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]

    def test_waiting_on_another_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        assert sim.run(sim.process(parent()).done) == 100

    def test_failed_event_raises_inside_process(self, sim):
        failing = sim.event()

        def worker():
            try:
                yield failing
            except ValueError as error:
                return f"caught {error}"

        process = sim.process(worker())
        failing.fail(ValueError("bad"))
        assert sim.run(process.done) == "caught bad"

    def test_uncaught_exception_fails_done_event(self, sim):
        def worker():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        process = sim.process(worker())
        with pytest.raises(KeyError):
            sim.run(process.done)

    def test_unwaited_failure_raises_out_of_run(self, sim):
        """A process nobody waits on cannot fail silently: its exception
        ends the run at the failing instant."""
        later = []

        def worker():
            yield sim.timeout(1.0)
            raise KeyError("lost")

        process = sim.process(worker())
        sim.call_at(2.0, lambda: later.append(sim.now))
        with pytest.raises(KeyError, match="lost"):
            sim.run()
        assert sim.now == 1.0
        assert process.done.failed
        assert later == []

    def test_unwaited_bad_yield_raises_out_of_run(self, sim):
        def worker():
            yield "not an event"

        sim.process(worker())
        with pytest.raises(TypeError, match="expected an Event"):
            sim.run()

    def test_waited_failure_goes_to_the_waiter(self, sim):
        """With a waiter the failure is delivered, not raised: a parent
        process and an ``all_of`` both receive it."""

        def child():
            yield sim.timeout(1.0)
            raise ValueError("child")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as error:
                return f"caught {error}"

        combined = all_of(sim, [sim.process(child()).done])
        outcome = sim.process(parent())
        sim.run()
        assert outcome.done.value == "caught child"
        assert combined.failed
        assert isinstance(combined.value, ValueError)

    def test_yield_of_non_event_fails_process(self, sim):
        def worker():
            yield "not an event"

        process = sim.process(worker())
        with pytest.raises(TypeError):
            sim.run(process.done)

    def test_interrupt_raises_in_process(self, sim):
        def worker():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)

        process = sim.process(worker())

        def interrupter():
            yield sim.timeout(2.0)
            process.interrupt("reason")

        sim.process(interrupter())
        assert sim.run(process.done) == ("interrupted", "reason", 2.0)

    def test_interrupt_of_finished_process_rejected(self, sim):
        def worker():
            yield sim.timeout(1.0)

        process = sim.process(worker())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The abandoned timeout must not resume the process later."""
        resumptions = []

        def worker():
            try:
                yield sim.timeout(10.0)
                resumptions.append("timeout")
            except Interrupt:
                resumptions.append("interrupt")
            yield sim.timeout(50.0)
            resumptions.append("second")

        process = sim.process(worker())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumptions == ["interrupt", "second"]
        assert sim.now == 51.0


class TestRun:
    def test_run_until_time_sets_clock(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_past_time_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_event_that_never_fires(self, sim):
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(sim.event())

    def test_run_empty_simulation(self, sim):
        sim.run()
        assert sim.now == 0.0


class TestOrdering:
    """The ``(time, sequence)`` rules the run loop keeps."""

    def test_equal_time_call_at_runs_in_registration_order(self, sim):
        order = []
        for label in ("a", "b", "c", "d"):
            sim.call_at(2.0, lambda label=label: order.append(label))
        sim.call_at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "a", "b", "c", "d"]
        assert sim.now == 2.0

    def test_due_heap_entry_with_lower_sequence_runs_before_ripe(self, sim):
        order = []

        def at_one():
            # Zero-delay callbacks registered now carry later sequence
            # numbers than the second entry already due at t=1.
            order.append("first")
            sim._schedule_callback(lambda: order.append("ripe"))

        sim.call_at(1.0, at_one)
        sim.call_at(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "ripe"]

    def test_same_instant_schedules_run_fifo(self, sim):
        """A positive delay that rounds to ``now``, ``timeout(0)``,
        ``timeout_at(now)`` and ``call_at(now)`` each take a same-instant
        slot in scheduling order, interleaved with zero-delay callbacks;
        a timeout's callbacks run from its event's dispatch slot, queued
        when the timeout fires."""
        order = []

        def at_one():
            assert sim.now + 1e-300 == sim.now
            sim._schedule_callback(lambda: order.append("ripe-1"))
            sim._schedule_callback(lambda: order.append("sub-ulp"), 1e-300)
            sim.timeout(0).add_callback(
                lambda event: order.append("timeout(0)"))
            sim.timeout_at(sim.now).add_callback(
                lambda event: order.append("timeout_at(now)"))
            sim.call_at(sim.now, lambda: order.append("call_at(now)"))
            sim.timeout(1e-300).add_callback(
                lambda event: order.append("timeout(sub-ulp)"))
            sim._schedule_callback(lambda: order.append("ripe-2"))

        sim.call_at(1.0, at_one)
        sim.call_at(2.0, lambda: order.append("later"))
        sim.run(until=1.5)
        assert sim.now == 1.5
        assert order == ["ripe-1", "sub-ulp", "call_at(now)", "ripe-2",
                         "timeout(0)", "timeout_at(now)", "timeout(sub-ulp)"]
        sim.run()
        assert order[-1] == "later"

    def test_due_heap_entries_run_before_same_instant_schedules(self, sim):
        """Every entry already due at a new instant runs before anything
        scheduled at that instant: a zero delay, ``call_at(now)``, an
        event dispatch or a new process's first step."""
        order = []
        ready = sim.event()
        ready.add_callback(lambda event: order.append("dispatch"))

        def first():
            order.append("first")
            sim._schedule_callback(lambda: order.append("zero delay"))
            sim.call_at(sim.now, lambda: order.append("call_at(now)"))
            ready.succeed()

            def child():
                order.append("process")
                yield sim.timeout(0)

            sim.process(child())

        sim.call_at(3.0, first)
        # Fires in its due slot, between "first" and "third", so its
        # callback's dispatch queues after what "first" scheduled.
        sim.timeout(3.0).add_callback(lambda event: order.append("timeout"))
        sim.call_at(3.0, lambda: order.append("third"))
        sim.run()
        assert order == ["first", "third", "zero delay", "call_at(now)",
                         "dispatch", "process", "timeout"]

    def test_run_until_event_drains_same_instant_actions(self, sim):
        stop = sim.event()
        order = []
        sim.call_at(1.0, lambda: stop.succeed("stopped"))
        sim.call_at(1.0, lambda: order.append("same instant"))
        sim.call_at(2.0, lambda: order.append("later"))
        stop.add_callback(lambda event: order.append("callback"))
        assert sim.run(stop) == "stopped"
        assert sim.now == 1.0
        assert order == ["same instant", "callback"]
        sim.run()
        assert order == ["same instant", "callback", "later"]

    def test_hand_triggered_timeout_raises_when_due(self, sim):
        timeout = sim.timeout(1.0)
        timeout.succeed("early")
        with pytest.raises(RuntimeError, match="already triggered"):
            sim.run()
