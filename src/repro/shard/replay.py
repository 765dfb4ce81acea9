"""Sharded trace replay: the coordinator, both backends, and the report.

:class:`ShardedReplay` partitions the fleet into contiguous machine
groups, builds one :class:`~repro.shard.worker.ShardWorker` recipe per
group, and drives them through bounded time epochs: route at the
boundary, let every shard simulate one epoch ahead (safe because the
router→machine latency guarantees no message lands earlier), ingest the
outcomes, reconcile conservation, repeat until every request is
terminal.

Two backends execute the identical protocol:

* ``serial`` — every shard steps in this process, in shard order.  This
  is the **differential oracle**: with ``num_shards=1`` it is a plain
  single-simulator replay, and because outcomes are independent of the
  grouping (see :mod:`repro.shard.worker`), any shard count must
  reproduce its results bit for bit;
* ``process`` — one ``spawn``-started worker per shard, exchanging
  columnar epoch messages (:func:`~repro.shard.protocol.pack_epoch`)
  over pipes.  Spawn (not fork) is deliberate: workers must prove they
  can rebuild identical state from the picklable
  :class:`~repro.shard.protocol.WorkerInit` alone, which is exactly what
  the determinism tests assert.

The route-ahead pipeline: because every delivery decided at boundary
``k`` is due no earlier than ``k + router_latency`` — inside epoch
``k+1`` — the broker can route epoch ``k+1`` *before* it has seen
epoch ``k``'s outcomes.  The drive loop therefore plans one epoch
ahead: routing for boundary ``k`` consumes machine snapshots from
boundary ``k-1``, and retries of epoch-``k`` failures queue for
boundary ``k+2``.  There is one drive schedule: the planned epoch's
commands stream to the workers immediately and outcomes are collected
in arrival order, so fast shards start epoch ``k+1`` while slow ones
finish ``k``.  Outcomes are *ingested* in shard-id order regardless of
arrival order, keeping the broker's bookkeeping canonical.

The process backend is crash-tolerant: every worker interaction runs
under a supervision deadline (``ShardConfig.worker_timeout``, always
positive, kept honest by heartbeat frames), faults classify into the
typed :mod:`repro.shard.supervision` hierarchy instead of hangs or raw
``EOFError``, and recoverable faults — death, wedge, poisoned frame —
trigger a respawn with bounded exponential backoff followed by a
journal fast-forward to the exact pre-crash boundary.  Because shard
state is a pure function of ``(WorkerInit, epoch commands)``, the
recovered replay stays bit-identical to a crash-free run; the
:class:`~repro.shard.supervision.ChaosEvent` harness exists to prove
that differentially rather than assume it.

Global metrics are *rebuilt*, not merged: float summation is
association-sensitive, so the report's collector is reconstructed from
all completion records in canonical ``(finished_at, request_id)`` order
— per-shard histograms are still merged and cross-checked against it
count-for-count.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import struct
import time
import typing

from repro.audit.shard import (
    ShardLedger,
    reconcile,
    resume_divergence,
)
from repro.cluster.cluster import ClusterConfig
from repro.cluster.faults import DEVICE_FAULT_ACTIONS, FaultEvent
from repro.cluster.router import GlobalLedger, Placement
from repro.errors import WorkloadError
from repro.hw.specs import MachineSpec
from repro.models.graph import ModelSpec
from repro.models.zoo import build_model
from repro.serving.histogram import LatencyHistogram, merge_histograms
from repro.serving.metrics import MetricsCollector
from repro.serving.server import Driver, ServerConfig
from repro.serving.workload import Request
from repro.shard.broker import EpochBroker, PendingRequest
from repro.shard.protocol import (
    Completion,
    Delivery,
    EpochOutcome,
    ShardConfig,
    ShardFinal,
    ShedNotice,
    WorkerInit,
    pack_epoch,
    unpack_heartbeat,
    unpack_outcome,
)
from repro.shard.supervision import (
    ENV_CHAOS,
    RECOVERABLE_FAULTS,
    CommandJournal,
    ShardDeterminismError,
    ShardRecoveryExhaustedError,
    WorkerCrashError,
    WorkerProtocolError,
    WorkerTimeoutError,
    parse_chaos_spec,
    resolve_worker_error,
)
from repro.shard.worker import ShardWorker, shard_entry
from repro.units import MS

__all__ = ["ShardedReplay", "ShardedReport", "partition_machines"]

Outcome = tuple[typing.Any, ...]


def partition_machines(names: typing.Sequence[str],
                       num_shards: int) -> list[tuple[str, ...]]:
    """Split *names* into contiguous groups with sizes differing by <= 1."""
    if num_shards < 1:
        raise WorkloadError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > len(names):
        raise WorkloadError(
            f"cannot split {len(names)} machine(s) into {num_shards} shards")
    base, extra = divmod(len(names), num_shards)
    groups, start = [], 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        groups.append(tuple(names[start:start + size]))
        start += size
    return groups


@dataclasses.dataclass
class ShardedReport:
    """Outcome of one sharded replay."""

    #: Canonical global collector, rebuilt from records sorted by
    #: ``(finished_at, request_id)`` — identical for every shard count.
    metrics: MetricsCollector
    ledger: GlobalLedger
    shard_ledgers: list[ShardLedger]
    #: Per-shard latency histograms (mergeable; their merge matches the
    #: canonical histogram count-for-count).
    shard_histograms: list[LatencyHistogram]
    finals: list[ShardFinal]
    completions: list[Completion]
    sheds: list[ShedNotice]
    dropped: list[PendingRequest]
    epochs: int
    duration: float
    num_shards: int
    backend: str
    #: Worker processes respawned after a crash/wedge/poisoned frame.
    worker_restarts: int = 0
    #: Journalled epochs re-executed to fast-forward respawned workers.
    replayed_epochs: int = 0
    #: True when the process replay exhausted its restart budget and
    #: this report came from the opt-in serial rerun instead.
    serial_fallback: bool = False

    @property
    def completed(self) -> int:
        return len(self.metrics.records)

    def merged_histogram(self) -> LatencyHistogram:
        """The order-insensitive merge of the per-shard histograms."""
        return merge_histograms(self.shard_histograms)

    def outcome_signature(self) -> tuple[Outcome, ...]:
        """Every request's exact terminal outcome, in request-id order.

        Two replays of one trace are *bit-identical* iff their
        signatures compare equal: completions carry the serving machine
        and the exact submit/start/finish timestamps, sheds their
        machine and time, drops just the fact (their attempt count is
        pinned at ``max_retries + 1`` by construction).
        """
        rows: list[Outcome] = []
        for completion in self.completions:
            record = completion.record
            rows.append((record.request_id, "completed",
                         completion.machine_name, record.submitted_at,
                         record.started_at, record.finished_at,
                         record.cold_start, record.degraded))
        for shed in self.sheds:
            rows.append((shed.request_id, "shed", shed.machine_name,
                         shed.time))
        for pending in self.dropped:
            rows.append((pending.request_id, "dropped"))
        return tuple(sorted(rows))

    def summary(self) -> dict[str, float]:
        data = {
            "submitted": float(self.ledger.submitted),
            "completed": float(self.completed),
            "dropped": float(self.ledger.dropped),
            "shed": float(self.ledger.shed),
            "retries": float(self.ledger.retries),
            "epochs": float(self.epochs),
            "shards": float(self.num_shards),
            "worker_restarts": float(self.worker_restarts),
            "replayed_epochs": float(self.replayed_epochs),
        }
        if self.metrics.records:
            data.update(p99_ms=self.metrics.p99_latency / MS,
                        goodput=self.metrics.goodput,
                        cold_start_rate=self.metrics.cold_start_rate)
        return data


class _SerialShard:
    """In-process shard driver (the oracle backend).

    Commands queue and execute lazily at collection, so the drive can
    issue epoch ``k+1`` before collecting epoch ``k`` exactly as it does
    against process workers — a worker process would buffer the command
    in its pipe the same way.
    """

    #: In-process shards cannot crash independently of the coordinator,
    #: so their recovery counters are identically zero.
    restarts = 0
    replayed_epochs = 0

    def __init__(self, init: WorkerInit) -> None:
        self.worker = ShardWorker(init)
        self._commands: collections.deque[tuple[float, list[Delivery]]] = \
            collections.deque()

    def begin_epoch(self, horizon: float,
                    deliveries: list[Delivery]) -> None:
        self._commands.append((horizon, deliveries))

    def poll(self) -> bool:
        """An outcome can be produced without blocking."""
        return True

    def wait_handle(self) -> typing.Any:
        return None

    def collect_epoch(self) -> EpochOutcome:
        horizon, deliveries = self._commands.popleft()
        return self.worker.run_epoch(horizon, deliveries)

    def finish(self) -> ShardFinal:
        return self.worker.finish()

    def stop(self) -> None:
        pass


#: Extra deadline slack while a worker boots: spawn plus importing the
#: package can legitimately take far longer than one epoch's compute,
#: more so while the whole fleet boots at once.
_SPAWN_GRACE = 30.0
#: Seconds granted at each escalation step of :func:`_stop_process`.
_STOP_GRACE = 5.0
#: Ceiling on the exponential restart backoff.
_MAX_BACKOFF = 5.0
#: Pipe-poll slice while supervising; bounds deadline-check latency.
_POLL_SLICE = 0.25

#: Exceptions the columnar decoders can raise on a truncated or
#: corrupted frame — numpy's ``frombuffer`` and the struct module do not
#: funnel through :class:`~repro.errors.WorkloadError`.
_DECODE_ERRORS = (WorkloadError, ValueError, IndexError, KeyError,
                  UnicodeDecodeError, struct.error)


def _stop_process(process: typing.Any,
                  grace: float = _STOP_GRACE) -> "int | None":
    """Reap *process* with escalation: join → terminate → kill.

    Each step gets *grace* seconds before the next; ``kill`` cannot be
    ignored, so the final unbounded join always returns.  ``Process.join``
    alone keeps the process object's sentinel fd open, so repeated
    replays used to accumulate two fds per shard per run —
    ``Process.close`` releases it.  Returns the exit code (``None`` if
    the process never started).
    """
    if process.pid is not None:
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
        if process.is_alive():
            # SIGTERM ignored or blocked: a polite stop must still
            # never leave a zombie behind.
            process.kill()
            process.join()
    exitcode = process.exitcode
    process.close()
    return exitcode


class _ProcessShard:
    """Pipe-connected, supervised spawn-process shard driver.

    Epoch commands and outcomes travel as packed columnar messages
    (:func:`~repro.shard.protocol.pack_epoch` /
    :func:`~repro.shard.protocol.pack_outcome`); the low-rate
    ready/finish/stop control messages stay plain pickles.

    Supervision: every receive is bounded by
    ``ShardConfig.worker_timeout`` measured from the worker's last frame
    — heartbeats acknowledging each epoch command keep the liveness
    clock honest while a deep command backlog drains.  Faults are
    classified into the :mod:`repro.shard.supervision` hierarchy, and
    the recoverable ones (death, wedge, poisoned frame) trigger respawn
    with bounded exponential backoff plus a journal fast-forward that
    restores the worker to its exact pre-crash boundary; the replayed
    epochs' ledgers are cross-checked against the journal so a
    divergent recovery is caught, not propagated.
    """

    def __init__(self, init: WorkerInit, context: typing.Any,
                 config: ShardConfig) -> None:
        self.shard_id = init.shard_id
        self._context = context
        self._config = config
        self._journal = CommandJournal(init)
        #: Recovery counters surfaced in ``ShardedReport.summary()``.
        self.restarts = 0
        self.replayed_epochs = 0
        self._process: typing.Any = None
        self._conn: typing.Any = None
        #: Non-heartbeat frames drained off the pipe by :meth:`_pump`.
        self._inbox: collections.deque[tuple[typing.Any, ...]] = \
            collections.deque()
        self._eof = False
        self._last_signal = time.monotonic()
        try:
            self._launch(init)
        except BaseException:
            # Partial construction must not leak the pipe fds or the
            # worker process: release everything before re-raising.
            self.stop()
            raise

    # -- start-up --------------------------------------------------------------------

    def _launch(self, init: WorkerInit) -> None:
        """Start a worker incarnation without waiting for it to boot.

        Start-up is two steps so a fleet boots concurrently: the broker
        launches every shard, then calls :meth:`await_ready` on each.
        The boot deadline runs from this launch, not from the await.
        """
        self._conn, child = self._context.Pipe()
        self._inbox.clear()
        self._eof = False
        try:
            self._process = self._context.Process(
                target=shard_entry, args=(child, init),
                name=f"repro-shard{init.shard_id}", daemon=True)
            self._process.start()
        finally:
            child.close()
        self._last_signal = time.monotonic()

    def await_ready(self) -> None:
        """Block until the launched worker reports ``ready``."""
        self._recv("ready", extra_grace=_SPAWN_GRACE)

    # -- liveness and receive --------------------------------------------------------

    def _pump(self) -> None:
        """Drain every frame already sitting in the pipe into the inbox.

        Heartbeats are consumed here: they advance the liveness clock
        and never reach callers.  A beat that fails to decode becomes a
        ``("poisoned", ...)`` sentinel so the fault surfaces as a typed
        error on the next receive instead of being dropped.
        """
        while self._conn is not None and not self._eof:
            try:
                if not self._conn.poll(0):
                    return
                message = self._conn.recv()
            except (EOFError, OSError):
                self._eof = True
                return
            self._last_signal = time.monotonic()
            if message[0] == "beat":
                try:
                    unpack_heartbeat(message[1])
                except Exception:
                    self._inbox.append(("poisoned", "heartbeat"))
                continue
            self._inbox.append(message)

    def _exitcode(self) -> "int | None":
        if self._process is None:
            return None
        self._process.join(timeout=1.0)
        return self._process.exitcode

    def _recv(self, kind: str, extra_grace: float = 0.0) -> typing.Any:
        """Receive the next ``kind`` frame under the supervision deadline.

        Raises a typed fault instead of blocking forever:
        :class:`WorkerCrashError` on EOF,
        :class:`WorkerTimeoutError` when no frame (heartbeats included)
        arrives within ``worker_timeout + extra_grace`` seconds,
        :class:`WorkerProtocolError` on poisoned or out-of-order
        frames, and the resolved worker-side exception for ``error``
        frames.
        """
        deadline = self._config.worker_timeout + extra_grace
        while True:
            self._pump()
            if self._inbox:
                message = self._inbox.popleft()
                if message[0] == "poisoned":
                    raise WorkerProtocolError(
                        self.shard_id,
                        f"worker sent a poisoned {message[1]} frame")
                if message[0] == "error":
                    if len(message) == 4:
                        raise resolve_worker_error(
                            self.shard_id, message[1], message[2],
                            message[3])
                    raise WorkerProtocolError(
                        self.shard_id,
                        f"worker sent a malformed error frame: "
                        f"{message[:2]!r}...")
                if message[0] != kind:
                    raise WorkerProtocolError(
                        self.shard_id,
                        f"protocol error: expected {kind!r}, got "
                        f"{message[0]!r}")
                return message[1] if len(message) > 1 else None
            if self._eof:
                raise WorkerCrashError(
                    self.shard_id, self._exitcode(),
                    context=f"while the broker waited for {kind!r}")
            waited = time.monotonic() - self._last_signal
            if waited >= deadline:
                raise WorkerTimeoutError(self.shard_id, deadline, kind)
            self._conn.poll(min(_POLL_SLICE, deadline - waited))

    # -- recovery --------------------------------------------------------------------

    def _abort_worker(self) -> None:
        """Tear down the current (presumed dead or wedged) incarnation."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._process is not None:
            _stop_process(self._process)
            self._process = None
        self._inbox.clear()
        self._eof = False

    def _fast_forward(self) -> None:
        """Replay the journal into a freshly spawned worker.

        Strict request-response below the acked boundary — send command
        ``i``, then receive and verify outcome ``i`` — keeps the pipe
        from filling with unread outcome frames (a bulk resend could
        deadlock both ends on a large journal).  Commands past the
        acked boundary are streamed without waiting, restoring exactly
        the in-flight state the dead worker had.  Each replayed
        outcome's ledger must match the journal: shard state is a pure
        function of (init, commands), so any divergence means the
        bit-identity contract is broken and recovery must not continue.
        """
        journal = self._journal
        for index, packed in enumerate(journal.commands):
            try:
                self._conn.send(("epoch", packed))
            except (OSError, ValueError):
                raise WorkerCrashError(
                    self.shard_id, self._exitcode(),
                    context="during fast-forward") from None
            if index >= journal.acked:
                continue
            payload = self._recv("outcome")
            try:
                outcome = unpack_outcome(payload)
            except _DECODE_ERRORS:
                raise WorkerProtocolError(
                    self.shard_id,
                    f"fast-forward outcome for epoch {index} failed to "
                    f"decode") from None
            violations = resume_divergence(
                journal.ledgers[index], outcome.ledger,
                shard_id=self.shard_id, epoch=index)
            if violations:
                detail = "; ".join(v.detail for v in violations)
                raise ShardDeterminismError(
                    self.shard_id,
                    f"fast-forward diverged from the journal at epoch "
                    f"{index}: {detail}")
            self.replayed_epochs += 1

    def _recover(self, fault: BaseException) -> None:
        """Respawn and fast-forward after a recoverable *fault*.

        Bounded exponential backoff between attempts; after
        ``max_worker_restarts`` total respawns the replay degrades to a
        clean :class:`ShardRecoveryExhaustedError` carrying the last
        fault as its ``__cause__``.  Non-recoverable faults raised
        during fast-forward (worker-side exceptions, determinism
        divergence) propagate immediately — a respawn would fail
        identically.
        """
        while True:
            self._abort_worker()
            if self.restarts >= self._config.max_worker_restarts:
                raise ShardRecoveryExhaustedError(
                    self.shard_id, self.restarts, fault) from fault
            self.restarts += 1
            backoff = min(
                self._config.restart_backoff * 2 ** (self.restarts - 1),
                _MAX_BACKOFF)
            if backoff > 0:
                time.sleep(backoff)
            try:
                self._launch(self._journal.respawn_init())
                self.await_ready()
                self._fast_forward()
                return
            except RECOVERABLE_FAULTS as next_fault:
                fault = next_fault

    # -- the shard-driver protocol ---------------------------------------------------

    def begin_epoch(self, horizon: float,
                    deliveries: list[Delivery]) -> None:
        packed = pack_epoch(horizon, deliveries)
        self._journal.record_command(packed)
        try:
            self._conn.send(("epoch", packed))
        except (OSError, ValueError):
            # The command is already journalled, so recovery's
            # fast-forward delivers it — do not resend here.
            self._recover(WorkerCrashError(
                self.shard_id, self._exitcode(),
                context="while the broker sent an epoch command"))

    def poll(self) -> bool:
        """A frame — or evidence of a fault — is ready without blocking."""
        self._pump()
        if self._inbox or self._eof:
            return True
        return (time.monotonic() - self._last_signal
                >= self._config.worker_timeout)

    def wait_handle(self) -> typing.Any:
        return self._conn

    def collect_epoch(self) -> EpochOutcome:
        while True:
            try:
                payload = self._recv("outcome")
            except RECOVERABLE_FAULTS as fault:
                self._recover(fault)
                continue
            try:
                outcome = unpack_outcome(payload)
            except _DECODE_ERRORS:
                # The chaos harness's "corrupt" kind lands here: the
                # frame arrived but will not decode.  The journal still
                # holds the command, so a respawned worker recomputes
                # and resends this epoch's outcome.
                self._recover(WorkerProtocolError(
                    self.shard_id,
                    "outcome frame failed to decode (truncated or "
                    "corrupt)"))
                continue
            self._journal.record_outcome(outcome.ledger.copy())
            return outcome

    def finish(self) -> ShardFinal:
        while True:
            try:
                self._conn.send(("finish",))
            except (OSError, ValueError):
                self._recover(WorkerCrashError(
                    self.shard_id, self._exitcode(),
                    context="while the broker requested finals"))
                continue
            try:
                final = self._recv("final")
            except RECOVERABLE_FAULTS as fault:
                # finish is not journalled (it is idempotent given the
                # journal): recover to the last boundary and re-ask.
                self._recover(fault)
                continue
            return typing.cast(ShardFinal, final)

    def stop(self) -> None:
        """Shut down and release the pipe and the process (idempotent)."""
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
            self._conn.close()
            self._conn = None
        if self._process is not None:
            _stop_process(self._process)
            self._process = None


class ShardedReplay:
    """Epoch-synchronized replay of one trace over a partitioned fleet."""

    def __init__(self, spec: MachineSpec,
                 config: ClusterConfig = ClusterConfig(),
                 shard: ShardConfig = ShardConfig()) -> None:
        if config.num_standby:
            raise WorkloadError(
                "sharded replay covers the base fleet only; standby "
                "machines (and the autoscaler) need the single-simulator "
                "cluster")
        if config.autoscale is not None:
            raise WorkloadError(
                "autoscaling is a continuous-time control loop; sharded "
                "replay does not replicate it — use the single-simulator "
                "cluster")
        if shard.num_shards > config.num_machines:
            raise WorkloadError(
                f"{shard.num_shards} shards need at least that many "
                f"machines, got {config.num_machines}")
        self.spec = spec
        self.config = config
        self.shard = shard
        # Chaos: the explicit config plus (process backend only) the
        # REPRO_SHARD_CHAOS environment spec.  Env-injected chaos never
        # touches the serial oracle, so a chaos-injected process run can
        # still be differentially checked against it in-process.
        chaos = tuple(shard.chaos)
        if shard.backend == "process":
            env_spec = os.environ.get(ENV_CHAOS, "")
            if env_spec:
                chaos += parse_chaos_spec(env_spec)
        for event in chaos:
            if event.shard_id >= shard.num_shards:
                raise WorkloadError(
                    f"chaos event targets shard {event.shard_id} but "
                    f"the replay has {shard.num_shards} shard(s)")
        self._chaos = chaos
        self.machine_names = tuple(f"m{i}"
                                   for i in range(config.num_machines))
        self.groups = partition_machines(self.machine_names,
                                         shard.num_shards)
        self._shard_of = {name: index
                          for index, group in enumerate(self.groups)
                          for name in group}
        self.placement = Placement(self.machine_names, config.replication)

    # -- placement ---------------------------------------------------------------------

    @property
    def instance_names(self) -> list[str]:
        return list(self.placement.models)

    def deploy(self, catalog: typing.Sequence[tuple[ModelSpec | str, int]]
               ) -> list[str]:
        """Place ``count`` logical instances of each model on the fleet.

        Accepts zoo model names or :class:`~repro.models.graph.ModelSpec`
        objects (only the name travels to the workers — each shard
        rebuilds the model from the zoo, so a passed spec must *be* its
        zoo entry: a customized spec would be silently swapped for the
        zoo's version and is rejected instead).  Replica assignment is
        the cluster's one :class:`~repro.cluster.router.Placement`, so a
        given catalog produces the same placement either way.
        """
        created = []
        for model, count in catalog:
            if isinstance(model, str):
                model_name = model
            else:
                model_name = model.name
                try:
                    zoo_model = build_model(model_name)
                except KeyError:
                    raise WorkloadError(
                        f"sharded replay rebuilds models from the zoo by "
                        f"name, and {model_name!r} is not a zoo model; "
                        f"custom ModelSpecs need the single-simulator "
                        f"cluster") from None
                if model != zoo_model:
                    raise WorkloadError(
                        f"ModelSpec {model_name!r} differs from the zoo "
                        f"model of the same name; the workers rebuild "
                        f"models from the zoo, so a customized spec would "
                        f"be silently substituted — use the "
                        f"single-simulator cluster for custom models")
            created.extend(self.placement.place(model_name, count))
        return created

    # -- the epoch loop ---------------------------------------------------------------

    def _worker_inits(self, fault_schedule: typing.Sequence[FaultEvent]
                      ) -> list[WorkerInit]:
        known = set(self.machine_names)
        for event in fault_schedule:
            if event.machine_name not in known:
                raise WorkloadError(f"fault event targets unknown machine "
                                    f"{event.machine_name!r}")
        watch = any(event.action in DEVICE_FAULT_ACTIONS
                    for event in fault_schedule)
        # (machine, instance, model) in global deploy order.
        placements = tuple((machine, instance, model)
                           for instance, model in self.placement.models.items()
                           for machine in self.placement.replicas[instance])
        server = ServerConfig(strategy=self.config.strategy,
                              slo=self.config.slo, prewarm=False,
                              deadline=self.config.deadline,
                              audit=self.config.audit)
        inits = []
        for shard_id, group in enumerate(self.groups):
            members = set(group)
            inits.append(WorkerInit(
                shard_id=shard_id,
                spec=self.spec,
                machine_names=group,
                placements=placements,
                server=server,
                prewarm=self.config.prewarm,
                audit=self.config.audit,
                fault_schedule=tuple(e for e in fault_schedule
                                     if e.machine_name in members),
                watch_device_faults=watch,
                # Serial shards never read init.chaos (injection lives
                # in the process entry point), so attaching it
                # unconditionally keeps the oracle chaos-free for free.
                chaos=tuple(e for e in self._chaos
                            if e.shard_id == shard_id)))
        return inits

    def run(self, requests: typing.Sequence[Request],
            fault_schedule: typing.Sequence[FaultEvent] = ()
            ) -> ShardedReport:
        """Serve *requests* to termination (completed, shed, or dropped).

        With ``ShardConfig.serial_fallback`` on, a process-backend run
        whose restart budget is exhausted is rerun once on the serial
        backend — the same protocol, bit-identical outcomes — and the
        returned report is flagged ``serial_fallback=True``.
        """
        Driver.check_requests(self.placement.models, requests)
        if self.config.breaker_cooldown > 0 and any(
                event.action in DEVICE_FAULT_ACTIONS
                for event in fault_schedule):
            # The breaker trips only on degraded cold starts, which need
            # a GPU failure or a degraded link; without one it is inert.
            raise WorkloadError(
                "the cold-start circuit breaker is a continuous-time "
                "control loop the epoch broker does not replicate, and "
                "this fault schedule holds device faults that can trip "
                "it; pass breaker_cooldown=0 or use the single-simulator "
                "cluster")
        try:
            return self._execute(requests, fault_schedule,
                                 self.shard.backend)
        except ShardRecoveryExhaustedError:
            if not self.shard.serial_fallback:
                raise
            report = self._execute(requests, fault_schedule, "serial")
            return dataclasses.replace(report, serial_fallback=True)

    def _execute(self, requests: typing.Sequence[Request],
                 fault_schedule: typing.Sequence[FaultEvent],
                 backend: str) -> ShardedReport:
        broker = EpochBroker(
            spec=self.spec, policy=self.config.policy,
            strategy=self.config.strategy,
            instance_models=self.placement.models,
            replicas=self.placement.replicas,
            machine_names=self.machine_names,
            max_retries=self.config.max_retries,
            retry_backoff=self.config.retry_backoff,
            router_latency=self.shard.router_latency)
        for request in requests:
            broker.submit(request)
        inits = self._worker_inits(fault_schedule)
        # Build incrementally inside the try so a failure constructing
        # shard k still stops (and releases the fds of) shards 0..k-1.
        shards: list[typing.Any] = []
        try:
            if backend == "process":
                context = multiprocessing.get_context("spawn")
                for init in inits:
                    shards.append(_ProcessShard(init, context,
                                                self.shard))
                # Every worker boots in parallel; await them in turn.
                for shard in shards:
                    shard.await_ready()
            else:
                for init in inits:
                    shards.append(_SerialShard(init))
            return self._drive(broker, shards, backend)
        finally:
            for shard in shards:
                shard.stop()

    def _plan_epoch(self, broker: EpochBroker, now: float,
                    epoch_length: float, shards: list[typing.Any]
                    ) -> "tuple[float, list[list[Delivery]], int] | None":
        """Route one epoch at boundary *now*; ``None`` when quiesced.

        Returns ``(horizon, per-shard deliveries, routed count)``.  The
        plan is a pure function of broker state, so the planning
        sequence — including idle fast-forward jumps — is identical for
        every grouping and backend.
        """
        if broker.done():
            return None
        routed = broker.route_epoch(now)
        if broker.done():
            # route_epoch can quiesce the replay by itself: every
            # remaining pending request was dropped as unroutable
            # (retries exhausted with all its replicas down) and
            # nothing is in flight, so there is no epoch left to
            # simulate — and no next_ready to fast-forward to.  The
            # preflight entry booked for the aborted epoch is empty and
            # inert.
            return None
        routed_count = sum(len(d) for d in routed.values())
        if not routed_count and broker.outstanding_total == 0:
            # Nothing in flight and the next retry/arrival is in the
            # future: jump the whole fleet to the epoch-grid boundary
            # that can route it.  Relative to *now* because the grid is
            # no longer global under adaptive epoch lengths.
            horizon = now + epoch_length * math.ceil(
                (broker.next_ready - now) / epoch_length)
            if horizon <= now:
                horizon = now + epoch_length
        else:
            horizon = now + epoch_length
        per_shard: list[list[Delivery]] = [[] for _ in shards]
        for machine_name, deliveries in routed.items():
            per_shard[self._shard_of[machine_name]].extend(deliveries)
        for deliveries in per_shard:
            deliveries.sort(key=lambda d: (d.deliver_at, d.request_id))
        return horizon, per_shard, routed_count

    def _adapted_length(self, epoch_length: float, work: int) -> float:
        """One deterministic step of the adaptive epoch controller.

        Doubles when the last planning cycle carried under half the
        work target, halves when it carried over twice the target —
        exact binary scaling, bounded by the lookahead floor and
        ``ShardConfig.epoch_ceiling``.  *work* is a global count
        (routed deliveries plus outcome events), so every shard count
        and backend takes the identical step sequence.
        """
        target = self.shard.epoch_work_target
        if work > 2 * target:
            shrunk = epoch_length * 0.5
            if shrunk >= self.shard.router_latency:
                return shrunk
        elif 2 * work < target:
            grown = epoch_length * 2.0
            if grown <= self.shard.epoch_ceiling:
                return grown
        return epoch_length

    @staticmethod
    def _collect_epoch(shards: list[typing.Any]) -> list[EpochOutcome]:
        """Collect one outcome per shard, sorted by shard id.

        Drains whichever shards have reported (unpacking fast shards'
        outcomes while slow ones still simulate) and sleeps on the pipes
        only when none are ready.  The sleep is sliced so a worker that
        wedges without closing its pipe still trips its deadline
        (``_ProcessShard.poll`` reports deadline expiry as readiness
        and ``collect_epoch`` turns it into recovery or a typed fault).
        """
        remaining = dict(enumerate(shards))
        outcomes: list[EpochOutcome] = []
        while remaining:
            progressed = False
            for index in sorted(remaining):
                if remaining[index].poll():
                    outcomes.append(remaining.pop(index).collect_epoch())
                    progressed = True
            if remaining and not progressed:
                multiprocessing.connection.wait(
                    [shard.wait_handle()
                     for shard in remaining.values()],
                    timeout=_POLL_SLICE)
        outcomes.sort(key=lambda outcome: outcome.shard_id)
        return outcomes

    def _drive(self, broker: EpochBroker, shards: list[typing.Any],
               backend: str) -> ShardedReport:
        epoch_length = self.shard.epoch_length
        completions: list[Completion] = []
        sheds: list[ShedNotice] = []
        horizon_time, epochs = 0.0, 0
        #: Outcome events of the most recently ingested epoch — the
        #: feedback half of the adaptive controller's work signal.
        last_events = 0
        ledgers: list[ShardLedger] = [ShardLedger(shard_id=i)
                                      for i in range(len(shards))]

        def issue(plan: tuple[float, list[list[Delivery]], int]) -> None:
            horizon, per_shard, _ = plan
            for shard, deliveries in zip(shards, per_shard):
                shard.begin_epoch(horizon, deliveries)

        current = self._plan_epoch(broker, 0.0, epoch_length, shards)
        if current is not None:
            epochs += 1
            issue(current)
        while current is not None:
            horizon, _, routed = current
            if self.shard.adaptive_epochs:
                epoch_length = self._adapted_length(
                    epoch_length, routed + last_events)
            # Route one epoch ahead of the one in flight: its snapshots
            # date from the boundary *before* `current`'s outcomes.
            nxt = self._plan_epoch(broker, horizon, epoch_length, shards)
            if nxt is not None:
                epochs += 1
                if epochs > self.shard.max_epochs:
                    raise WorkloadError(
                        f"replay did not quiesce within "
                        f"{self.shard.max_epochs} epochs")
                issue(nxt)
            outcomes = self._collect_epoch(shards)
            for outcome in outcomes:
                broker.ingest(outcome)
                completions.extend(outcome.completions)
                sheds.extend(outcome.sheds)
                ledgers[outcome.shard_id] = outcome.ledger
            last_events = sum(len(o.completions) + len(o.failures)
                              + len(o.sheds) for o in outcomes)
            for outcome in outcomes:
                broker.check_shard(outcome)
            reconcile(broker.ledger, ledgers,
                      pending=broker.pending_count,
                      outstanding=broker.outstanding_total,
                      in_transit=broker.in_transit_total)
            broker.retire_epoch()
            horizon_time = horizon
            current = nxt
        finals = [shard.finish() for shard in shards]
        ledgers = [final.ledger for final in finals]
        reconcile(broker.ledger, ledgers, pending=0, outstanding=0)
        records = sorted((c.record for c in completions),
                         key=lambda r: (r.finished_at, r.request_id))
        metrics = MetricsCollector.from_records(
            records, slo=self.config.slo,
            shed=broker.ledger.shed, dropped=broker.ledger.dropped)
        shard_histograms = [LatencyHistogram.from_dict(final.histogram)
                            for final in finals]
        self._check_histograms(metrics, shard_histograms)
        return ShardedReport(
            metrics=metrics,
            ledger=broker.ledger,
            shard_ledgers=ledgers,
            shard_histograms=shard_histograms,
            finals=finals,
            completions=completions,
            sheds=sheds,
            dropped=list(broker.dropped),
            epochs=epochs,
            duration=horizon_time,
            num_shards=len(shards),
            backend=backend,
            worker_restarts=sum(s.restarts for s in shards),
            replayed_epochs=sum(s.replayed_epochs for s in shards))

    @staticmethod
    def _check_histograms(metrics: MetricsCollector,
                          shard_histograms: list[LatencyHistogram]) -> None:
        """The shards' merged histogram must match the canonical one.

        Bucket counts, totals and min/max are order-insensitive, so they
        must agree exactly; only the running ``sum`` may differ in its
        last bits (float addition is not associative), which is exactly
        why the canonical collector is rebuilt instead of merged.
        """
        merged = merge_histograms(shard_histograms)
        canonical = metrics.histogram
        if (merged.counts != canonical.counts
                or merged.total != canonical.total):
            raise WorkloadError(
                "per-shard histograms disagree with the canonical global "
                "histogram — the sharded replay lost or duplicated a "
                "completion")
