"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending* and is triggered exactly once, either
with :meth:`Event.succeed` (carrying an optional value) or
:meth:`Event.fail` (carrying an exception).  Processes wait on events by
yielding them; when the event triggers, the process resumes with the
event's value (or the exception is raised inside the process).

Callbacks attached to an event run through the simulator's queue at the
trigger timestamp, which keeps resumption order deterministic (FIFO among
events triggered at the same instant) and avoids unbounded recursion.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.sim import Simulator

__all__ = ["Event", "all_of", "any_of"]

_PENDING = "pending"
_SUCCEEDED = "succeeded"
_FAILED = "failed"


class Event:
    """A one-shot synchronization point in simulated time."""

    __slots__ = ("sim", "_state", "_value", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._state = _PENDING
        self._value: object = None
        self._callbacks: list[typing.Callable[[Event], None]] | None = []

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (False while pending or failed)."""
        return self._state == _SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    @property
    def value(self) -> object:
        """The success value or failure exception of a triggered event."""
        if self._state == _PENDING:
            raise RuntimeError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        # Nearly every action the simulator executes triggers an event
        # here, so this stays a flat body with no helper call.
        if self._state is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._state = _SUCCEEDED
        self._value = value
        self.sim._ripe.append(self._dispatch)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception raised into each waiter."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state is not _PENDING:
            raise RuntimeError(f"event {self!r} already triggered")
        self._state = _FAILED
        self._value = exception
        self.sim._ripe.append(self._dispatch)
        return self

    def _dispatch(self) -> None:
        """Run callbacks; invoked by the simulator at the trigger time."""
        callbacks = self._callbacks
        self._callbacks = None
        for callback in callbacks:  # type: ignore[union-attr]
            callback(self)

    # -- waiting -----------------------------------------------------------

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run *callback(event)* once the event triggers.

        If the event already triggered and dispatched, the callback is
        scheduled to run immediately (at the current simulated time).
        """
        if self._callbacks is None:
            self.sim._ripe.append(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<Event{label} {self._state} at t={self.sim.now:.6f}>"


def all_of(sim: "Simulator", events: typing.Sequence[Event]) -> Event:
    """An event that succeeds once every event in *events* succeeds.

    Its value is the list of the constituent values, in input order.  If
    any constituent fails, the combined event fails with that exception
    (the first failure wins).
    """
    combined = Event(sim, name="all_of")
    events = list(events)
    if not events:
        return combined.succeed([])
    pending = len(events)

    def on_trigger(event: Event) -> None:
        nonlocal pending
        if combined.triggered:
            return
        if event.failed:
            combined.fail(typing.cast(BaseException, event.value))
            return
        pending -= 1
        if pending == 0:
            combined.succeed([e.value for e in events])

    for event in events:
        event.add_callback(on_trigger)
    return combined


def any_of(sim: "Simulator", events: typing.Sequence[Event]) -> Event:
    """An event that succeeds as soon as any event in *events* triggers.

    Its value is the value of the first event to trigger.  A failure of
    the first-triggering event fails the combined event.
    """
    combined = Event(sim, name="any_of")
    events = list(events)
    if not events:
        raise ValueError("any_of() requires at least one event")

    def on_trigger(event: Event) -> None:
        if combined.triggered:
            return
        if event.failed:
            combined.fail(typing.cast(BaseException, event.value))
        else:
            combined.succeed(event.value)

    for event in events:
        event.add_callback(on_trigger)
    return combined
