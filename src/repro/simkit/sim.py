"""The simulator core: event queue, clock, and coroutine processes.

A :class:`Simulator` owns the clock and a priority queue of scheduled
actions.  :class:`Process` wraps a generator; each ``yield`` hands the
simulator an :class:`~repro.simkit.events.Event` (or another process) to
wait on, and the process resumes with the event's value.  Failed events
raise inside the process, so simulated errors propagate like ordinary
exceptions.

Scheduling uses two queues that together behave as one priority queue
ordered by ``(time, sequence)``: a heap of ``(at, sequence, action)``
entries for *future* instants only, and a FIFO deque of bare callables
due at the *current* instant.  Everything scheduled at ``now`` — event
dispatches, zero delays, positive delays too small to move the clock
(``now + delay == now``), ``timeout_at``/``call_at`` at ``now`` — is
appended to the deque.  When the deque runs dry the clock advances to
the heap's head, and every heap entry due at that new instant moves onto
the deque in sequence order before any of them runs.  Those entries were
all scheduled before the clock reached the instant, so they precede
everything scheduled at it: FIFO order on the deque *is* sequence order,
and no action needs a sequence number once it is due.  One loop,
:meth:`Simulator._run`, drains both queues for every form of
:meth:`Simulator.run`.

A process that fails while nothing waits on it (its done event has no
callback) raises its exception out of :meth:`Simulator.run`, so an error
in a fire-and-forget process cannot vanish; a waiting process (or
``all_of``/``any_of``) still receives the failure.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import typing

from repro.simkit.events import _FAILED, _PENDING, Event

__all__ = ["Simulator", "Process", "Interrupt"]

_INF = float("inf")


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


ProcessGenerator = typing.Generator[Event, object, object]


class Process:
    """A running coroutine in simulated time.

    Processes are created through :meth:`Simulator.process`.  A process is
    itself waitable: yielding a process from another process waits for its
    completion and receives its return value.
    """

    __slots__ = ("sim", "name", "_generator", "_waiting_on", "done")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        #: Event triggered with the generator's return value when it ends.
        self.done = Event(sim, name=f"{self.name}.done")
        sim._ripe.append(lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        return not self.done.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its eventual
        trigger is ignored by this process).
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name}")
        self.sim._ripe.append(
            lambda: self._resume(None, Interrupt(cause), forced=True))

    # -- driving the generator ---------------------------------------------

    def _on_event(self, event: Event) -> None:
        # The body of _resume, repeated inline rather than called: this
        # is the per-event resume path — one function frame here is one
        # frame per event in the simulation.  Direct _state checks (not
        # the .failed/.value properties) for the same reason.
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        if self.done._state is not _PENDING:
            return
        try:
            if event._state is _FAILED:
                target = self._generator.throw(
                    typing.cast(BaseException, event._value))
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - simulated failure
            self._fail(error)
            return
        if target.__class__ is Event:  # the overwhelmingly common yield
            pass
        elif isinstance(target, Process):
            target = target.done
        elif not isinstance(target, Event):
            self._fail(TypeError(
                f"process {self.name} yielded {target!r}; expected an "
                "Event or Process"))
            return
        self._waiting_on = target
        if target._callbacks is None:
            self.sim._ripe.append(lambda: self._on_event(target))
        else:
            target._callbacks.append(self._on_event)

    def _resume(self, value: object, exc: BaseException | None,
                forced: bool = False) -> None:
        if self.done._state is not _PENDING:
            return
        if forced:
            self._waiting_on = None
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - simulated failure
            self._fail(error)
            return

        if target.__class__ is Event:  # the overwhelmingly common yield
            event = target
        elif isinstance(target, Process):
            event = target.done
        elif isinstance(target, Event):
            event = target
        else:
            self._fail(TypeError(
                f"process {self.name} yielded {target!r}; expected an "
                "Event or Process"))
            return
        self._waiting_on = event
        event.add_callback(self._on_event)

    def _fail(self, error: BaseException) -> None:
        """End the process with *error*: fail its done event, and raise
        *error* out of the simulator run when nothing waits on it."""
        done = self.done
        waited = bool(done._callbacks)
        done.fail(error)
        if not waited:
            raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} ({state})>"


class Simulator:
    """Owns the simulated clock and the pending-action queues."""

    __slots__ = ("_now", "_queue", "_ripe", "_sequence")

    def __init__(self) -> None:
        self._now = 0.0
        #: Future actions, (at, seq, fn) with every ``at > _now``.
        self._queue: list[tuple[float, int, typing.Callable[[], None]]] = []
        #: Actions due at the current instant, in FIFO (= sequence) order;
        #: drained before the clock advances.
        self._ripe: collections.deque[
            typing.Callable[[], None]] = collections.deque()
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def _schedule_callback(self, action: typing.Callable[[], None],
                           delay: float = 0.0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._schedule_at(self._now + delay, action)

    def _schedule_at(self, at: float, action: typing.Callable[[], None]
                     ) -> None:
        """Queue *action* at *at* (never in the past): on the deque when
        *at* is the current instant, on the heap otherwise."""
        if at > self._now:
            heapq.heappush(self._queue, (at, next(self._sequence), action))
        else:
            self._ripe.append(action)

    # -- public construction helpers ------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event, to be triggered by user code."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Event:
        """An event that succeeds *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout {delay!r}")
        event = Event(self, name="timeout")
        # The bound method is the scheduled action when there is no
        # value to deliver (the common case) — no closure allocation.
        # _schedule_at, inlined: timeouts are the hottest schedule.
        action = (event.succeed if value is None
                  else lambda: event.succeed(value))
        now = self._now
        at = now + delay
        if at > now:
            heapq.heappush(self._queue, (at, next(self._sequence), action))
        else:
            self._ripe.append(action)
        return event

    def timeout_at(self, at: float, value: object = None) -> Event:
        """An event that succeeds at the absolute time *at*.

        Equivalent to ``timeout(at - now)`` but without the float
        round-trip through a relative delay, so chained waits can target
        exact precomputed instants.
        """
        if at < self._now:
            raise ValueError(f"timeout_at({at!r}) is in the past "
                             f"(now={self._now!r})")
        event = Event(self, name="timeout")
        action = (event.succeed if value is None
                  else lambda: event.succeed(value))
        if at > self._now:
            heapq.heappush(self._queue, (at, next(self._sequence), action))
        else:
            self._ripe.append(action)
        return event

    def call_at(self, at: float, action: typing.Callable[[], None]) -> None:
        """Schedule a plain callback at the absolute time *at*.

        Cheaper than a one-shot process for fire-and-forget actions, and
        — unlike triggering through an intermediate event — the callback
        gets a queue entry whose sequence number is assigned *now*, so a
        batch of ``call_at`` registrations executes in registration order
        at equal times.  The epoch-stepped shard workers rely on that to
        keep cross-shard delivery order canonical.
        """
        if at < self._now:
            raise ValueError(f"call_at({at!r}) is in the past "
                             f"(now={self._now!r})")
        self._schedule_at(at, action)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a coroutine process running from the current time."""
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------------

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until no actions remain), a time
        (run until the clock would pass it, then set the clock to it), or
        an :class:`Event` (run until that event triggers, drain the
        actions left at that instant, and return its value; raise if it
        failed).
        """
        if isinstance(until, Event):
            self._run(_INF, until)
            if until._state is _PENDING:
                raise RuntimeError(
                    f"simulation ran out of events before {until!r} triggered")
            # Drain same-instant dispatches so callbacks at this time complete.
            self._run(self._now)
            if until._state is _FAILED:
                raise typing.cast(BaseException, until.value)
            return until.value
        deadline = _INF if until is None else float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        self._run(deadline)
        if deadline != _INF:
            self._now = deadline
        return None

    def _run(self, deadline: float, stop: Event | None = None) -> None:
        """Execute actions in ``(time, sequence)`` order up to *deadline*.

        Due actions always run (they sit at the current instant).  When
        none is left, the clock advances to the heap's head if it is due
        by *deadline*: that entry runs, after every other entry due at the
        same instant has moved onto the deque behind it.  With *stop*, the
        loop also ends as soon as that event triggers.
        """
        queue, ripe, heappop = self._queue, self._ripe, heapq.heappop
        popleft = ripe.popleft
        while stop is None or stop._state is _PENDING:
            if ripe:
                popleft()()
            elif queue and queue[0][0] <= deadline:
                at, _, action = heappop(queue)
                self._now = at
                while queue and queue[0][0] == at:
                    ripe.append(heappop(queue)[2])
                action()
            else:
                break
