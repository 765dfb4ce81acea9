"""Wire types of the epoch-synchronized sharding protocol.

Everything in this module is a plain frozen dataclass of primitives —
picklable under the ``spawn`` start method, so worker processes receive
*values*, never live simulator state.  The protocol has four message
kinds:

* :class:`WorkerInit` — everything a worker needs to deterministically
  reconstruct its machine group from scratch: the machine spec, machine
  names, the instance placement (by model *name*, rebuilt from the zoo
  in-process), the server configuration, and the shard's fault
  sub-schedule;
* :class:`Delivery` — one routed request: the broker's dispatch
  decision, due at ``deliver_at`` (the routing instant plus the
  router→machine latency that provides the conservative lookahead);
* :class:`EpochOutcome` — what a shard reports back at each horizon:
  completions, failed attempts (orphans), sheds, one
  :class:`MachineSnapshot` per machine (the routing state for the next
  epoch), and its running :class:`~repro.audit.shard.ShardLedger`;
* :class:`ShardFinal` — the quiesce payload: the shard's merged latency
  histogram, per-machine statistics, and audit counters.

A fifth, out-of-band kind carries no simulation state: heartbeat frames
(:func:`pack_heartbeat`) are sent by a worker when it dequeues an epoch
command, so the coordinator's supervision layer
(:mod:`repro.shard.supervision`) can tell a busy worker from a wedged
one without ever blocking unbounded on a pipe.  Every receive is
supervised: :attr:`ShardConfig.worker_timeout` must be positive.

The coordinator streams epoch ``k+1``'s commands while epoch ``k`` is
still executing (the route-ahead schedule, :mod:`repro.shard.replay`),
so a worker's pipe may hold the next command before it reports the
current outcome; a worker handles commands strictly in arrival order.

Lookahead discipline: a message created by routing at epoch boundary
``k·E`` is never due before ``k·E + router_latency``, and failures
observed during epoch ``k`` are re-routed no earlier than one epoch
*after* the boundary that learns about them.  Both rules hold for
*any* partition of machines into shards, which is what makes outcomes
independent of the shard count.

Columnar wire encoding
----------------------

The frozen dataclasses are the API surface (and what the serial oracle
passes around in-process), but the ``process`` backend does not pickle
them one by one: :func:`pack_epoch` / :func:`pack_outcome` flatten a
whole epoch batch into little-endian numpy record arrays behind a
versioned header, with one deduplicated string table per message.  A
pickled frozen :class:`Delivery` costs ~230 bytes; a packed row costs
45 plus its string-table amortization — an order of magnitude fewer
bytes per epoch, and the decode side rebuilds the exact dataclasses
(floats round-trip bit-for-bit: the columns are IEEE-754 doubles, the
same representation Python floats use in memory).
"""

from __future__ import annotations

import dataclasses
import struct
import typing

import numpy

from repro.audit.shard import ShardLedger
from repro.cluster.faults import FaultEvent
from repro.errors import WorkloadError
from repro.hw.specs import MachineSpec
from repro.serving.metrics import RequestRecord
from repro.serving.server import ServerConfig
from repro.shard.supervision import ChaosEvent
from repro.units import MS

__all__ = ["ShardConfig", "WorkerInit", "Delivery", "Completion",
           "AttemptFailure", "ShedNotice", "MachineSnapshot",
           "EpochOutcome", "MachineFinal", "ShardFinal", "BACKENDS",
           "WIRE_VERSION", "pack_epoch", "unpack_epoch",
           "pack_outcome", "unpack_outcome",
           "pack_heartbeat", "unpack_heartbeat"]

BACKENDS = ("serial", "process")


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """How to split and synchronize one replay."""

    #: Number of machine groups (= simulator instances = workers).
    num_shards: int = 1
    #: Synchronization quantum: shards run freely for this many seconds
    #: between barrier exchanges.  Longer epochs amortize the barrier
    #: but quantize retry re-routing more coarsely.
    epoch_length: float = 100 * MS
    #: Router→machine network latency — the conservative lookahead
    #: window.  Every dispatch decided at an epoch boundary is delivered
    #: at least this much later, so a shard can simulate a whole epoch
    #: without ever seeing a message from the same epoch's decisions.
    router_latency: float = 1 * MS
    #: ``serial`` steps every shard in this process (the differential
    #: oracle); ``process`` runs one spawn-started worker per shard.
    backend: str = "serial"
    #: Hard cap on epochs (defends against a schedule that can never
    #: quiesce; generous because epochs are short).
    max_epochs: int = 2_000_000
    #: Adapt ``epoch_length`` between the lookahead floor
    #: (``router_latency``) and ``max_epoch_length`` so each epoch
    #: carries roughly ``epoch_work_target`` protocol events.  The
    #: adaptation is a pure function of the (grouping-independent)
    #: per-epoch work counts, so every shard count and backend walks
    #: the identical boundary grid.
    adaptive_epochs: bool = False
    #: Protocol events (deliveries + completions + failures + sheds)
    #: the adaptive controller aims to carry per epoch.
    epoch_work_target: int = 256
    #: Upper bound for adaptive epoch growth; ``0`` derives
    #: ``64 * epoch_length``.
    max_epoch_length: float = 0.0
    #: Supervision deadline (wall-clock seconds) on every worker pipe
    #: interaction with the ``process`` backend: if no frame — outcome
    #: or heartbeat — arrives within this window, the worker is
    #: classified wedged (:class:`~repro.shard.supervision.WorkerTimeoutError`)
    #: and killed.  The worker heartbeats when it dequeues each epoch
    #: command, so the deadline effectively bounds one epoch's wall
    #: time.  Must be positive: supervision is always on.
    worker_timeout: float = 60.0
    #: Respawn budget per worker: a crashed/wedged/poisoned worker is
    #: restarted (with bounded exponential backoff) and fast-forwarded
    #: from the command journal up to this many times before the replay
    #: fails with a typed
    #: :class:`~repro.shard.supervision.ShardRecoveryExhaustedError`.
    max_worker_restarts: int = 3
    #: Base of the restart backoff: restart *n* sleeps
    #: ``restart_backoff * 2**(n-1)`` wall seconds, capped at 5 s.
    restart_backoff: float = 0.05
    #: Opt-in degraded mode: when a process-backend replay exhausts its
    #: restart budget, rerun the whole replay on the serial backend
    #: (chaos injection stripped) instead of failing.
    serial_fallback: bool = False
    #: Injected worker faults for the chaos harness (``process``
    #: backend only); see :class:`~repro.shard.supervision.ChaosEvent`.
    chaos: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise WorkloadError(
                f"num_shards must be >= 1, got {self.num_shards}")
        if self.epoch_length <= 0:
            raise WorkloadError(
                f"epoch_length must be positive, got {self.epoch_length}")
        if self.router_latency <= 0:
            raise WorkloadError(
                f"router_latency must be positive, got {self.router_latency}")
        if self.router_latency > self.epoch_length:
            raise WorkloadError(
                f"epoch_length ({self.epoch_length}) must be at least the "
                f"router latency ({self.router_latency}): the lookahead "
                f"window bounds how far a shard may run ahead")
        if self.backend not in BACKENDS:
            raise WorkloadError(f"unknown backend {self.backend!r}; "
                                f"options: {', '.join(BACKENDS)}")
        if self.max_epochs < 1:
            raise WorkloadError(
                f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.epoch_work_target < 1:
            raise WorkloadError(
                f"epoch_work_target must be >= 1, got "
                f"{self.epoch_work_target}")
        if self.max_epoch_length < 0:
            raise WorkloadError(
                f"max_epoch_length must be >= 0, got "
                f"{self.max_epoch_length}")
        if 0 < self.max_epoch_length < self.epoch_length:
            raise WorkloadError(
                f"max_epoch_length ({self.max_epoch_length}) must be at "
                f"least epoch_length ({self.epoch_length})")
        if self.worker_timeout <= 0:
            raise WorkloadError(
                f"worker_timeout must be positive, got "
                f"{self.worker_timeout}")
        if self.max_worker_restarts < 0:
            raise WorkloadError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}")
        if self.restart_backoff < 0:
            raise WorkloadError(
                f"restart_backoff must be >= 0, got "
                f"{self.restart_backoff}")
        if self.chaos and self.backend != "process":
            raise WorkloadError(
                "chaos injection targets worker processes; it needs "
                "backend='process' (the serial oracle must stay "
                "fault-free to serve as the differential reference)")

    @property
    def epoch_ceiling(self) -> float:
        """The adaptive controller's upper bound on the epoch length."""
        if self.max_epoch_length > 0:
            return self.max_epoch_length
        return 64.0 * self.epoch_length


@dataclasses.dataclass(frozen=True)
class WorkerInit:
    """Deterministic construction recipe for one shard."""

    shard_id: int
    spec: MachineSpec
    machine_names: tuple[str, ...]
    #: (machine_name, instance_name, model_name) for the whole fleet, in
    #: global deploy order; the shard deploys those on its own machines.
    placements: tuple[tuple[str, str, str], ...]
    server: ServerConfig
    prewarm: bool
    audit: bool
    fault_schedule: tuple[FaultEvent, ...] = ()
    #: Whether servers wrap cold starts in abortable watch processes.
    #: Computed from the *global* fault schedule (any device-granular
    #: action arms every machine, as in the single-simulator cluster) —
    #: deriving it per shard would make event scheduling order, and so
    #: outcomes, depend on the grouping.
    watch_device_faults: bool = False
    #: Injected worker faults for this shard (chaos harness; fired by
    #: ``shard_entry``'s command loop, ignored by the serial oracle).
    chaos: tuple[ChaosEvent, ...] = ()


@dataclasses.dataclass(frozen=True)
class Delivery:
    """One routed request on its way to a machine."""

    request_id: int
    instance_name: str
    machine_name: str
    #: Run-relative arrival offset from the original trace.
    arrival_time: float
    #: Absolute original submission time (latency is measured from here
    #: across retries, exactly as in the single-simulator cluster).
    submitted_at: float
    #: Absolute time the machine receives the request.
    deliver_at: float
    batch_size: int = 1
    qos: str = "standard"


@dataclasses.dataclass(frozen=True)
class Completion:
    """A request finished on one of the shard's machines."""

    machine_name: str
    record: RequestRecord


@dataclasses.dataclass(frozen=True)
class AttemptFailure:
    """A dispatched request came back without completing (orphaned)."""

    request_id: int
    #: Simulated time the attempt failed (crash, dead GPU, or delivery
    #: to a machine that went down in the meantime).
    time: float
    where: str


@dataclasses.dataclass(frozen=True)
class ShedNotice:
    """Admission control turned a request away (terminal)."""

    request_id: int
    machine_name: str
    time: float


@dataclasses.dataclass(frozen=True)
class MachineSnapshot:
    """One machine's routing-relevant state at an epoch horizon."""

    name: str
    #: :class:`~repro.cluster.machine.MachineState` value.
    state: str
    #: GPU-resident (warm) instance names.
    warm: frozenset[str]
    #: ``server.outstanding`` at the horizon (conservation cross-check).
    outstanding: int


@dataclasses.dataclass
class EpochOutcome:
    """Everything a shard reports at one epoch horizon."""

    shard_id: int
    horizon: float
    completions: list[Completion]
    failures: list[AttemptFailure]
    sheds: list[ShedNotice]
    snapshots: list[MachineSnapshot]
    ledger: ShardLedger


@dataclasses.dataclass
class MachineFinal:
    """Per-machine statistics for the final report."""

    name: str
    state: str
    served: int
    busy_time: float
    crashes: int
    gpu_failures: int


@dataclasses.dataclass
class ShardFinal:
    """A shard's quiesce payload."""

    shard_id: int
    #: Serialized per-shard :class:`~repro.serving.histogram.LatencyHistogram`.
    histogram: dict[str, typing.Any]
    ledger: ShardLedger
    machines: list[MachineFinal]
    #: Invariant checks the shard ran: its ledger balance checks plus,
    #: under audit, every check of its servers' auditors.
    audit_checks: int


# --------------------------------------------------------------------------
# Columnar wire encoding
#
# Layout of every packed message:
#
#   header   <4sHH>   magic ``RSHD``, wire version, message kind
#   scalars  (kind-specific: horizon, shard_id, row counts)
#   strings  one deduplicated table: <I> count, <I> blob length,
#            ``\x00``-joined UTF-8 blob
#   columns  little-endian packed numpy record arrays; string-valued
#            fields hold <i4> indices into the table
#
# All numeric columns are wide enough to be lossless (<i8> ids, <f8>
# times — the in-memory representation of Python floats), so unpacking
# rebuilds the exact frozen dataclasses the serial oracle passes
# around.  Row order is preserved verbatim.

WIRE_VERSION = 3

_MAGIC = b"RSHD"
_HEADER = struct.Struct("<4sHH")
_KIND_EPOCH = 1
_KIND_OUTCOME = 2
_KIND_HEARTBEAT = 3

_DELIVERY_DTYPE = numpy.dtype([
    ("request_id", "<i8"), ("instance", "<i4"), ("machine", "<i4"),
    ("arrival", "<f8"), ("submitted", "<f8"), ("deliver", "<f8"),
    ("batch", "<i4"), ("qos", "<i4")])

_COMPLETION_DTYPE = numpy.dtype([
    ("machine", "<i4"), ("request_id", "<i8"), ("instance", "<i4"),
    ("arrival", "<f8"), ("submitted", "<f8"), ("started", "<f8"),
    ("finished", "<f8"), ("cold", "u1"), ("degraded", "u1"),
    ("qos", "<i4")])

_FAILURE_DTYPE = numpy.dtype([
    ("request_id", "<i8"), ("time", "<f8"), ("where", "<i4")])

_SHED_DTYPE = numpy.dtype([
    ("request_id", "<i8"), ("machine", "<i4"), ("time", "<f8")])

_SNAPSHOT_DTYPE = numpy.dtype([
    ("name", "<i4"), ("state", "<i4"), ("outstanding", "<i8")])

_WARM_DTYPE = numpy.dtype([("snapshot", "<i4"), ("instance", "<i4")])

_EPOCH_SCALARS = struct.Struct("<dI")
_OUTCOME_SCALARS = struct.Struct("<qd5I6q")
_STRINGS_HEADER = struct.Struct("<II")


class _StringTable:
    """Deduplicating accumulator for a message's string column values."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.strings: list[str] = []

    def add(self, value: str) -> int:
        slot = self._index.get(value)
        if slot is None:
            slot = self._index[value] = len(self.strings)
            self.strings.append(value)
        return slot

    def pack(self) -> bytes:
        blob = "\x00".join(self.strings).encode("utf-8")
        return _STRINGS_HEADER.pack(len(self.strings), len(blob)) + blob


def _unpack_strings(buf: bytes, offset: int) -> tuple[list[str], int]:
    count, size = _STRINGS_HEADER.unpack_from(buf, offset)
    offset += _STRINGS_HEADER.size
    blob = bytes(buf[offset:offset + size]).decode("utf-8")
    strings = blob.split("\x00") if count else []
    if len(strings) != count:
        raise WorkloadError(
            f"corrupt wire message: string table declares {count} "
            f"entries but decodes to {len(strings)}")
    return strings, offset + size


def _check_header(buf: bytes, kind: int) -> int:
    if len(buf) < _HEADER.size:
        raise WorkloadError(
            f"corrupt wire message: {len(buf)} bytes is shorter than "
            f"the {_HEADER.size}-byte header")
    magic, version, got_kind = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise WorkloadError(
            f"corrupt wire message: bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WorkloadError(
            f"wire version mismatch: peer speaks v{version}, this "
            f"process speaks v{WIRE_VERSION} — coordinator and workers "
            f"must run the same build")
    if got_kind != kind:
        raise WorkloadError(
            f"unexpected wire message kind {got_kind} (wanted {kind})")
    return _HEADER.size


_HEARTBEAT_SCALARS = struct.Struct("<qq")


def pack_heartbeat(shard_id: int, epoch_index: int) -> bytes:
    """A liveness frame: the worker dequeued its ``epoch_index``-th command.

    Heartbeats reset the broker's supervision deadline, letting it
    distinguish a worker that accepted a command and is simulating from
    one that is wedged or dead.
    """
    return (_HEADER.pack(_MAGIC, WIRE_VERSION, _KIND_HEARTBEAT)
            + _HEARTBEAT_SCALARS.pack(shard_id, epoch_index))


def unpack_heartbeat(buf: bytes) -> tuple[int, int]:
    """Rebuild ``(shard_id, epoch_index)`` from :func:`pack_heartbeat`."""
    offset = _check_header(buf, _KIND_HEARTBEAT)
    if len(buf) < offset + _HEARTBEAT_SCALARS.size:
        raise WorkloadError(
            f"corrupt heartbeat frame: {len(buf)} bytes is shorter than "
            f"the {offset + _HEARTBEAT_SCALARS.size}-byte frame")
    return _HEARTBEAT_SCALARS.unpack_from(buf, offset)


def pack_epoch(horizon: float, deliveries: list[Delivery]) -> bytes:
    """Flatten one epoch command into a columnar byte string."""
    table = _StringTable()
    rows = numpy.empty(len(deliveries), dtype=_DELIVERY_DTYPE)
    for i, d in enumerate(deliveries):
        rows[i] = (d.request_id, table.add(d.instance_name),
                   table.add(d.machine_name), d.arrival_time,
                   d.submitted_at, d.deliver_at, d.batch_size,
                   table.add(d.qos))
    return b"".join((
        _HEADER.pack(_MAGIC, WIRE_VERSION, _KIND_EPOCH),
        _EPOCH_SCALARS.pack(horizon, len(deliveries)),
        table.pack(),
        rows.tobytes()))


def unpack_epoch(buf: bytes) -> tuple[float, list[Delivery]]:
    """Rebuild ``(horizon, deliveries)`` from :func:`pack_epoch` bytes."""
    offset = _check_header(buf, _KIND_EPOCH)
    horizon, count = _EPOCH_SCALARS.unpack_from(buf, offset)
    offset += _EPOCH_SCALARS.size
    strings, offset = _unpack_strings(buf, offset)
    rows = numpy.frombuffer(buf, dtype=_DELIVERY_DTYPE, count=count,
                            offset=offset)
    deliveries = [
        Delivery(request_id=rid, instance_name=strings[inst],
                 machine_name=strings[mach], arrival_time=arrival,
                 submitted_at=submitted, deliver_at=deliver,
                 batch_size=batch, qos=strings[qos])
        for rid, inst, mach, arrival, submitted, deliver, batch, qos
        in zip(
            rows["request_id"].tolist(), rows["instance"].tolist(),
            rows["machine"].tolist(), rows["arrival"].tolist(),
            rows["submitted"].tolist(), rows["deliver"].tolist(),
            rows["batch"].tolist(), rows["qos"].tolist())]
    return horizon, deliveries


def pack_outcome(outcome: EpochOutcome) -> bytes:
    """Flatten one :class:`EpochOutcome` into a columnar byte string."""
    table = _StringTable()
    completions = numpy.empty(len(outcome.completions),
                              dtype=_COMPLETION_DTYPE)
    for i, c in enumerate(outcome.completions):
        r = c.record
        completions[i] = (table.add(c.machine_name), r.request_id,
                          table.add(r.instance_name), r.arrival_time,
                          r.submitted_at, r.started_at, r.finished_at,
                          r.cold_start, r.degraded, table.add(r.qos))
    failures = numpy.empty(len(outcome.failures), dtype=_FAILURE_DTYPE)
    for i, f in enumerate(outcome.failures):
        failures[i] = (f.request_id, f.time, table.add(f.where))
    sheds = numpy.empty(len(outcome.sheds), dtype=_SHED_DTYPE)
    for i, s in enumerate(outcome.sheds):
        sheds[i] = (s.request_id, table.add(s.machine_name), s.time)
    snapshots = numpy.empty(len(outcome.snapshots), dtype=_SNAPSHOT_DTYPE)
    warm_pairs: list[tuple[int, int]] = []
    for i, snap in enumerate(outcome.snapshots):
        snapshots[i] = (table.add(snap.name), table.add(snap.state),
                        snap.outstanding)
        # Frozensets iterate in hash order; sort so the bytes (though
        # not the decoded frozensets) are deterministic too.
        warm_pairs.extend((i, table.add(name))
                          for name in sorted(snap.warm))
    warm = numpy.array(warm_pairs or [], dtype=_WARM_DTYPE)
    ledger = outcome.ledger
    return b"".join((
        _HEADER.pack(_MAGIC, WIRE_VERSION, _KIND_OUTCOME),
        _OUTCOME_SCALARS.pack(
            outcome.shard_id, outcome.horizon,
            len(completions), len(failures), len(sheds),
            len(snapshots), len(warm_pairs),
            ledger.shard_id, ledger.scheduled, ledger.delivered,
            ledger.completed, ledger.shed, ledger.orphaned),
        table.pack(),
        completions.tobytes(), failures.tobytes(), sheds.tobytes(),
        snapshots.tobytes(), warm.tobytes()))


def unpack_outcome(buf: bytes) -> EpochOutcome:
    """Rebuild an :class:`EpochOutcome` from :func:`pack_outcome` bytes."""
    offset = _check_header(buf, _KIND_OUTCOME)
    (shard_id, horizon, n_completions, n_failures, n_sheds, n_snapshots,
     n_warm, ledger_shard, scheduled, delivered, completed, shed,
     orphaned) = _OUTCOME_SCALARS.unpack_from(buf, offset)
    offset += _OUTCOME_SCALARS.size
    strings, offset = _unpack_strings(buf, offset)

    rows = numpy.frombuffer(buf, dtype=_COMPLETION_DTYPE,
                            count=n_completions, offset=offset)
    offset += n_completions * _COMPLETION_DTYPE.itemsize
    completions = [
        Completion(machine_name=strings[mach], record=RequestRecord(
            request_id=rid, instance_name=strings[inst],
            arrival_time=arrival, submitted_at=submitted,
            started_at=started, finished_at=finished,
            cold_start=bool(cold), degraded=bool(degraded),
            qos=strings[qos]))
        for mach, rid, inst, arrival, submitted, started, finished,
        cold, degraded, qos in zip(
            rows["machine"].tolist(), rows["request_id"].tolist(),
            rows["instance"].tolist(), rows["arrival"].tolist(),
            rows["submitted"].tolist(), rows["started"].tolist(),
            rows["finished"].tolist(), rows["cold"].tolist(),
            rows["degraded"].tolist(), rows["qos"].tolist())]

    rows = numpy.frombuffer(buf, dtype=_FAILURE_DTYPE, count=n_failures,
                            offset=offset)
    offset += n_failures * _FAILURE_DTYPE.itemsize
    failures = [AttemptFailure(request_id=rid, time=time,
                               where=strings[where])
                for rid, time, where in zip(
                    rows["request_id"].tolist(), rows["time"].tolist(),
                    rows["where"].tolist())]

    rows = numpy.frombuffer(buf, dtype=_SHED_DTYPE, count=n_sheds,
                            offset=offset)
    offset += n_sheds * _SHED_DTYPE.itemsize
    sheds = [ShedNotice(request_id=rid, machine_name=strings[mach],
                        time=time)
             for rid, mach, time in zip(
                 rows["request_id"].tolist(), rows["machine"].tolist(),
                 rows["time"].tolist())]

    rows = numpy.frombuffer(buf, dtype=_SNAPSHOT_DTYPE, count=n_snapshots,
                            offset=offset)
    offset += n_snapshots * _SNAPSHOT_DTYPE.itemsize
    warm_rows = numpy.frombuffer(buf, dtype=_WARM_DTYPE, count=n_warm,
                                 offset=offset)
    warm_by_snapshot: dict[int, list[str]] = {}
    for snap_idx, inst in zip(warm_rows["snapshot"].tolist(),
                              warm_rows["instance"].tolist()):
        warm_by_snapshot.setdefault(snap_idx, []).append(strings[inst])
    snapshots = [
        MachineSnapshot(name=strings[name], state=strings[state],
                        warm=frozenset(warm_by_snapshot.get(i, ())),
                        outstanding=outstanding)
        for i, (name, state, outstanding) in enumerate(zip(
            rows["name"].tolist(), rows["state"].tolist(),
            rows["outstanding"].tolist()))]

    ledger = ShardLedger(
        shard_id=ledger_shard, scheduled=scheduled, delivered=delivered,
        completed=completed, shed=shed, orphaned=orphaned)
    return EpochOutcome(shard_id=shard_id, horizon=horizon,
                        completions=completions, failures=failures,
                        sheds=sheds, snapshots=snapshots, ledger=ledger)
