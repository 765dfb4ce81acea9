"""Fault injection: machine, GPU and link faults mid-run.

A :class:`FaultInjector` replays a schedule of :class:`FaultEvent`\\ s
inside the cluster simulation.  Events come in three granularities:

* **machine** — ``crash`` / ``recover`` whole machines (PR 3);
* **GPU** — ``gpu_fail`` / ``gpu_recover`` a single device while the
  rest of the machine keeps serving;
* **link** — ``link_degrade`` (to ``factor`` x nominal bandwidth,
  rebalancing in-flight flows) / ``link_restore``.  Repeating degrade and
  restore events for the same link models a flapping link.

:func:`random_fault_schedule` builds a seeded schedule of
non-overlapping fault/heal pairs over the base fleet — the randomized
counterpart the property-based conservation tests drive with hundreds of
seeds.  The injector validates every event's target against the actual
fleet up front (a typo'd schedule fails loudly instead of silently
skipping every event); *state*-dependent skips — e.g. crashing a machine
that is already down — stay runtime behavior, recorded in ``log``.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.errors import WorkloadError
from repro.simkit import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["FaultEvent", "FaultInjector", "random_fault_schedule",
           "FAULT_ACTIONS", "DEVICE_FAULT_ACTIONS", "GRANULARITIES"]

FAULT_ACTIONS = ("crash", "recover", "gpu_fail", "gpu_recover",
                 "link_degrade", "link_restore")
#: Actions below machine granularity; their presence in a schedule makes
#: the cluster arm the servers' device-fault watch.
DEVICE_FAULT_ACTIONS = ("gpu_fail", "gpu_recover",
                        "link_degrade", "link_restore")
GRANULARITIES = ("machine", "device", "mixed")


@dataclasses.dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault action.

    ``gpu``, ``link`` and ``factor`` only apply to the device-granular
    actions; they are excluded from ordering so machine-only and mixed
    schedules sort the same way (by time, then machine, then action).
    """

    time: float
    machine_name: str
    action: str
    #: GPU index, for ``gpu_fail`` / ``gpu_recover``.
    gpu: int | None = dataclasses.field(default=None, compare=False)
    #: Link name (e.g. ``nvlink2->0``), for ``link_degrade`` / ``link_restore``.
    link: str | None = dataclasses.field(default=None, compare=False)
    #: Remaining bandwidth as a fraction of nominal, for ``link_degrade``.
    factor: float | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise WorkloadError(f"unknown fault action {self.action!r}; "
                                f"options: {', '.join(FAULT_ACTIONS)}")
        if self.time < 0:
            raise WorkloadError(f"fault time must be >= 0, got {self.time}")
        if self.action in ("gpu_fail", "gpu_recover"):
            if self.gpu is None or self.gpu < 0:
                raise WorkloadError(
                    f"{self.action} needs a GPU index >= 0, got {self.gpu}")
        if self.action in ("link_degrade", "link_restore") and not self.link:
            raise WorkloadError(f"{self.action} needs a link name")
        if self.action == "link_degrade":
            if self.factor is None or not 0 < self.factor <= 1:
                raise WorkloadError(
                    f"link_degrade needs a bandwidth factor in (0, 1], "
                    f"got {self.factor}")

    @property
    def target(self) -> str:
        """Human-readable target for logs, e.g. ``m0/gpu2``."""
        if self.gpu is not None:
            return f"{self.machine_name}/gpu{self.gpu}"
        if self.link is not None:
            suffix = f" x{self.factor:.2f}" if self.factor is not None else ""
            return f"{self.machine_name}/{self.link}{suffix}"
        return self.machine_name


class FaultInjector:
    """Replays a fault schedule against a cluster (or any fault target).

    Construction validates every event's machine / GPU / link target
    against the actual fleet, raising :class:`~repro.errors.WorkloadError`
    on the first unknown target.

    Each event runs the matching transition on the target's
    :class:`~repro.cluster.machine.ClusterMachine` (``crash``,
    ``recover``, ``fail_gpu``, ``recover_gpu``, ``degrade_link``,
    ``restore_link``) — the one implementation of the six fault
    actions — and hands every request it orphaned to the target.  The
    target is duck-typed: anything exposing ``sim``, ``machine(name)``
    (returning the ``ClusterMachine``) and ``orphaned(cm, request,
    where)`` can replay a schedule.  Besides
    :class:`~repro.cluster.cluster.Cluster` (which settles the router
    charge and retries), the sharded-replay workers (:mod:`repro.shard`)
    replay per-shard sub-schedules through this same class and report
    each orphan to the broker, so fault semantics cannot drift between
    the two paths.  Schedules themselves are plain frozen dataclasses —
    picklable, so a ``spawn``-started worker process can receive its
    sub-schedule and reconstruct identical behavior.
    """

    def __init__(self, cluster: "Cluster | typing.Any",
                 schedule: typing.Sequence[FaultEvent]) -> None:
        self.cluster = cluster
        self.schedule = sorted(schedule)
        self._validate(self.schedule)
        #: (event, applied) log — an event is skipped (not applied) when
        #: its target is not in a state the action makes sense for, e.g.
        #: crashing a machine that is already down, or failing a GPU on a
        #: machine that crashed in the meantime.
        self.log: list[tuple[FaultEvent, bool]] = []

    def _validate(self, schedule: typing.Sequence[FaultEvent]) -> None:
        for event in schedule:
            # Unknown machine names raise WorkloadError here.
            machine = self.cluster.machine(event.machine_name).machine
            if event.gpu is not None and event.gpu >= machine.gpu_count:
                raise WorkloadError(
                    f"fault event targets gpu{event.gpu} on "
                    f"{event.machine_name}, which has only "
                    f"{machine.gpu_count} GPUs")
            if event.link is not None and event.link not in machine.link_names():
                raise WorkloadError(
                    f"fault event targets unknown link {event.link!r} on "
                    f"{event.machine_name}; links: "
                    f"{', '.join(machine.link_names())}")

    def process(self) -> typing.Generator[Event, object, None]:
        cluster = self.cluster
        sim = cluster.sim
        base = sim.now
        for event in self.schedule:
            due = base + event.time
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            cm = cluster.machine(event.machine_name)
            action = event.action
            if action == "crash":
                orphans = cm.crash()
            elif action == "recover":
                orphans = cm.recover()
            elif action == "gpu_fail":
                orphans = cm.fail_gpu(typing.cast(int, event.gpu))
            elif action == "gpu_recover":
                orphans = cm.recover_gpu(typing.cast(int, event.gpu))
            elif action == "link_degrade":
                orphans = cm.degrade_link(typing.cast(str, event.link),
                                          typing.cast(float, event.factor))
            else:
                orphans = cm.restore_link(typing.cast(str, event.link))
            # Only crashes and GPU failures orphan work, so ``target``
            # is the machine name or ``<machine>/gpu<k>``.
            for request in orphans or ():
                cluster.orphaned(cm, request, event.target)
            self.log.append((event, orphans is not None))


def random_fault_schedule(machine_names: typing.Sequence[str],
                          num_faults: int, duration: float,
                          seed: int = 0, *,
                          granularity: str = "machine",
                          gpu_count: int = 0,
                          link_names: typing.Sequence[str] = ()
                          ) -> list[FaultEvent]:
    """A seeded schedule of *num_faults* fault/heal pairs.

    Faults land in the middle 60 % of the run with outages of 5-15 % of
    its duration.  Machines are picked round-robin over a seeded shuffle
    and a machine's next fault never starts before its previous heal, so
    the schedule is always applicable; it can still take several machines
    down simultaneously — the retry path (and, at the limit, bounded
    drops) is exactly what the injector exists to exercise.

    ``granularity`` selects the event mix: ``"machine"`` (the default;
    crash/recover pairs, byte-identical to the pre-device-fault
    behavior, so existing property-test seeds stay stable),
    ``"device"`` (GPU and link events only) or ``"mixed"`` (all three).
    Device granularities need ``gpu_count`` and/or ``link_names``
    describing the per-machine topology.
    """
    if num_faults < 0:
        raise WorkloadError(f"num_faults must be >= 0, got {num_faults}")
    if duration <= 0:
        raise WorkloadError(f"duration must be positive, got {duration}")
    if num_faults and not machine_names:
        raise WorkloadError("no machines to inject faults into")
    if granularity not in GRANULARITIES:
        raise WorkloadError(f"unknown granularity {granularity!r}; "
                            f"options: {', '.join(GRANULARITIES)}")
    rng = numpy.random.default_rng(seed)
    order = list(machine_names)
    rng.shuffle(order)
    busy_until = {name: 0.0 for name in order}
    events: list[FaultEvent] = []
    if granularity == "machine":
        # Kept verbatim (no extra rng draws) so schedules for a given
        # seed are identical to those before device faults existed.
        for k in range(num_faults):
            name = order[k % len(order)]
            earliest = max(0.1 * duration, busy_until[name])
            latest = 0.7 * duration
            if earliest >= latest:
                continue  # this machine's outages already fill the window
            start = float(rng.uniform(earliest, latest))
            outage = float(rng.uniform(0.05, 0.15)) * duration
            events.append(FaultEvent(start, name, "crash"))
            events.append(FaultEvent(start + outage, name, "recover"))
            busy_until[name] = start + outage
        return sorted(events)

    kinds: list[str] = []
    if gpu_count > 0:
        kinds.append("gpu")
    if link_names:
        kinds.append("link")
    if granularity == "mixed":
        kinds.append("machine")
    if not kinds:
        raise WorkloadError(
            f"granularity {granularity!r} needs gpu_count and/or link_names")
    for k in range(num_faults):
        name = order[k % len(order)]
        kind = kinds[int(rng.integers(len(kinds)))]
        earliest = max(0.1 * duration, busy_until[name])
        latest = 0.7 * duration
        if earliest >= latest:
            continue
        start = float(rng.uniform(earliest, latest))
        outage = float(rng.uniform(0.05, 0.15)) * duration
        if kind == "machine":
            events.append(FaultEvent(start, name, "crash"))
            events.append(FaultEvent(start + outage, name, "recover"))
        elif kind == "gpu":
            gpu = int(rng.integers(gpu_count))
            events.append(FaultEvent(start, name, "gpu_fail", gpu=gpu))
            events.append(FaultEvent(start + outage, name, "gpu_recover",
                                     gpu=gpu))
        else:
            link = link_names[int(rng.integers(len(link_names)))]
            factor = float(rng.uniform(0.05, 0.45))
            events.append(FaultEvent(start, name, "link_degrade", link=link,
                                     factor=factor))
            events.append(FaultEvent(start + outage, name, "link_restore",
                                     link=link))
        busy_until[name] = start + outage
    return sorted(events)
