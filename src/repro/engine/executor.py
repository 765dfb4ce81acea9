"""The plan executor: load, migration, and execution streams.

Mirrors the paper's engine design (Section 4.3.4): a *load stream* copies
loaded layers host->GPU in plan order; with parallel transmission each
secondary GPU runs its own load stream plus a *migration stream*
forwarding layers to the primary over NVLink as they land; the
*execution stream* runs layers in order, waiting on a per-layer CUDA
event for loaded layers and skipping the dependency check for DHA layers.

The execution stream is a :mod:`repro.simkit` process that sleeps once
per real wait; the load and migration streams are chains of callbacks,
stepped by their flow's milestone crossings and by each NVLink copy's
done event.  All of them issue real transfers on the
machine's links, so two concurrent cold-starts contend exactly where the
hardware would make them contend.
"""

from __future__ import annotations

import dataclasses
import typing
import weakref

from repro.core.plan import ExecMethod, ExecutionPlan
from repro.hw.machine import Machine
from repro.models.costs import (
    DHA_KERNEL_PENALTY,
    EVENT_SYNC_OVERHEAD,
    KIND_TIME_FLOOR,
    CostModel,
)
from repro.simkit import Event, Process, all_of

__all__ = ["ExecutionResult", "LayerTrace", "execute_plan", "execute_warm",
           "plan_generator", "warm_generator", "warm_segments"]

#: DMA priority of secondary-partition copies relative to a lane's own
#: traffic.  Parallel transmission *borrows* another GPU's PCIe lane; its
#: copies are issued at lower queue priority so a concurrent cold-start
#: on that GPU keeps most of its own bandwidth — this is why the paper
#: finds PT interference mild (Table 4: each of two simultaneous PT+DHA
#: cold-starts still beats PipeSwitch).
SECONDARY_LOAD_WEIGHT = 0.4


@dataclasses.dataclass(frozen=True)
class LayerTrace:
    """Observed timing of one layer during a simulated execution."""

    index: int
    name: str
    method: ExecMethod
    ready: float
    start: float
    end: float
    stall: float


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of one cold-start execution."""

    plan: ExecutionPlan
    primary_gpu: int
    secondary_gpus: tuple[int, ...]
    started_at: float
    finished_at: float
    #: Per-layer timings (empty when the run was executed in the
    #: coalesced fast path used by the serving system).
    layer_traces: list[LayerTrace]
    #: Summed pipeline stalls (always recorded, traces or not).
    total_stall: float
    #: Bytes loaded over each participating PCIe lane, with the lane's
    #: busy window — enough to compute the paper's Table 2 bandwidths.
    lane_bytes: dict[int, int]
    lane_span: dict[int, tuple[float, float]]

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at

    @property
    def execution_time(self) -> float:
        """GPU busy time (latency minus stalls), as in paper Figure 2."""
        return self.latency - self.total_stall

    def lane_bandwidth(self, gpu_index: int) -> float:
        """Average achieved PCIe bandwidth on one lane, bytes/second."""
        start, end = self.lane_span[gpu_index]
        if end <= start:
            return 0.0
        return self.lane_bytes[gpu_index] / (end - start)


def execute_plan(machine: Machine, cost_model: CostModel,
                 plan: ExecutionPlan, primary: int,
                 secondaries: typing.Sequence[int] = (),
                 detailed_traces: bool = True) -> Process:
    """Start a cold-start execution of *plan*; returns its process.

    The process's return value is an :class:`ExecutionResult`.  The
    caller is responsible for GPU memory accounting and for holding the
    primary GPU's compute resource if exclusivity is required (the
    serving system does both).

    ``detailed_traces=False`` selects the coalesced execution-stream fast
    path (consecutive non-waiting layers become one timeout, satisfied
    waits are skipped): identical timing, per-layer traces omitted — the
    serving system's hot path.
    """
    secondaries = tuple(secondaries)
    needed = plan.num_partitions - 1
    if len(secondaries) != needed:
        raise ValueError(
            f"plan has {plan.num_partitions} partitions; expected {needed} "
            f"secondary GPUs, got {len(secondaries)}")
    runner = _PlanRunner(machine, cost_model, plan, primary, secondaries,
                         detailed_traces=detailed_traces)
    return machine.sim.process(runner.run(), name=f"exec:{plan.model.name}")


def execute_warm(machine: Machine, cost_model: CostModel,
                 plan: ExecutionPlan, gpu: int,
                 coalesced: bool = True) -> Process:
    """Execute one inference on an already-provisioned instance.

    Loaded layers run from GPU memory; layers the plan left host-side
    keep paying their DHA traffic on the GPU's PCIe lane *every*
    inference — the recurring cost of DeepPlan's memory savings.

    ``coalesced=False`` selects the per-layer reference path (one timeout
    per layer): identical timing, one simulator event per layer — the
    oracle the differential-execution harness checks the fast path
    against.
    """
    runner = _PlanRunner(machine, cost_model, plan, gpu, ())
    return machine.sim.process(runner.run_warm(coalesced=coalesced),
                               name=f"warm:{plan.model.name}")


def plan_generator(machine: Machine, cost_model: CostModel,
                   plan: ExecutionPlan, primary: int,
                   secondaries: typing.Sequence[int] = (),
                   detailed_traces: bool = True
                   ) -> typing.Generator[Event, object, ExecutionResult]:
    """Like :func:`execute_plan`, but returns the bare generator.

    A caller that is itself a simkit process can ``yield from`` this
    instead of yielding a wrapper :class:`Process`, saving the process
    object, its completion event and two queue operations per cold start
    — the serving system's provisioning path.
    """
    secondaries = tuple(secondaries)
    needed = plan.num_partitions - 1
    if len(secondaries) != needed:
        raise ValueError(
            f"plan has {plan.num_partitions} partitions; expected {needed} "
            f"secondary GPUs, got {len(secondaries)}")
    runner = _PlanRunner(machine, cost_model, plan, primary, secondaries,
                         detailed_traces=detailed_traces)
    return runner.run()


def warm_generator(machine: Machine, cost_model: CostModel,
                   plan: ExecutionPlan, gpu: int, coalesced: bool = True
                   ) -> typing.Generator[Event, object, ExecutionResult]:
    """Like :func:`execute_warm`, but returns the bare generator.

    ``yield from`` this from another process to run a warm inference
    without spawning a per-request :class:`Process` — the serving
    system's hot path.
    """
    runner = _PlanRunner(machine, cost_model, plan, gpu, ())
    return runner.run_warm(coalesced=coalesced)


class _PlanRunner:
    """One execution of one plan; holds the per-run event plumbing."""

    def __init__(self, machine: Machine, cost_model: CostModel,
                 plan: ExecutionPlan, primary: int,
                 secondaries: tuple[int, ...],
                 detailed_traces: bool = True) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.costs = cost_model
        self.plan = plan
        self.primary = primary
        self.secondaries = secondaries
        self.batch = plan.batch_size
        self.detailed_traces = detailed_traces
        #: Landing instant of each loaded layer, set by _mark_ready.
        self._landed: dict[int, float] = {}
        #: Per-layer ready events: every loaded layer's up front on the
        #: per-layer and baseline paths, otherwise only those the
        #: execution stream waits on.
        self._ready: dict[int, Event] = {}
        self._lane_bytes: dict[int, int] = {}
        self._lane_span: dict[int, tuple[float, float]] = {}

    # -- top-level ----------------------------------------------------------------

    def run(self) -> typing.Generator[Event, object, ExecutionResult]:
        sim = self.sim
        started_at = sim.now
        plan = self.plan
        pipelined = plan.strategy != "baseline"
        if self.detailed_traces or not pipelined:
            for i in plan.loaded_indices():
                self._ready[i] = sim.event(name=f"ready:{i}")

        # Each stream starts in its own same-instant slot, after the
        # actions already due now — where a process started here would
        # take its first step.
        for partition, gpu in enumerate((self.primary, *self.secondaries)):
            sim._schedule_callback(_LoadStream(self, partition, gpu).start)

        if not pipelined and self._ready:
            yield all_of(self.sim, list(self._ready.values()))

        if self.detailed_traces:
            traces = yield from self._execution_stream()
            total_stall = sum(trace.stall for trace in traces)
        else:
            traces = []
            total_stall = yield from self._execution_stream_coalesced()
        return ExecutionResult(
            plan=plan,
            primary_gpu=self.primary,
            secondary_gpus=self.secondaries,
            started_at=started_at,
            finished_at=self.sim.now,
            layer_traces=traces,
            total_stall=total_stall,
            lane_bytes=dict(self._lane_bytes),
            lane_span=dict(self._lane_span),
        )

    def run_warm(self, coalesced: bool = True
                 ) -> typing.Generator[Event, object, ExecutionResult]:
        """Warm inference: consecutive in-memory layers are coalesced into
        single timeouts (their durations just add), so a warm request
        costs a handful of simulator events instead of one per layer —
        the hot path of every serving experiment.  DHA layers still issue
        their real PCIe flows.  ``coalesced=False`` runs one timeout per
        layer instead (the differential harness's reference path)."""
        started_at = self.sim.now
        if coalesced:
            # The DHA body is inlined (instead of delegating to
            # _run_dha_layer) so every event resumes one generator frame
            # fewer — this loop runs a couple hundred thousand times per
            # serving experiment.  Same arithmetic, see _run_dha_layer.
            sim = self.sim
            network = self.machine.network
            path = self.machine.pcie_path(self.primary)
            for kind, value in warm_segments(self.plan, self.costs):
                if kind == "exec":
                    yield sim.timeout(typing.cast(float, value))
                    continue
                traffic, max_rate, compute, tail, extra = \
                    typing.cast(tuple, value)
                compute_end = sim.now + compute
                if traffic > 0:
                    yield network.transfer(path, traffic, max_rate=max_rate)
                resumed = sim.now
                if resumed < compute_end:
                    resumed = compute_end
                yield sim.timeout_at(resumed + tail + extra)
        else:
            for kind, value in _per_layer_warm_segments(self.plan,
                                                        self.costs):
                if kind == "exec":
                    yield self.sim.timeout(typing.cast(float, value))
                else:
                    yield from self._run_dha_layer(typing.cast(int, value))
        return ExecutionResult(
            plan=self.plan, primary_gpu=self.primary, secondary_gpus=(),
            started_at=started_at, finished_at=self.sim.now,
            layer_traces=[], total_stall=0.0, lane_bytes={}, lane_span={})

    # -- transfer streams -------------------------------------------------------------

    def _account_lane(self, gpu: int, nbytes: int, start: float) -> None:
        self._lane_bytes[gpu] = self._lane_bytes.get(gpu, 0) + nbytes
        first, _ = self._lane_span.get(gpu, (start, start))
        self._lane_span[gpu] = (min(first, start), self.sim.now)

    def _mark_ready(self, i: int) -> None:
        """Record layer *i*'s landing; wake its ready event, if any."""
        now = self.sim._now
        self._landed[i] = now
        event = self._ready.get(i)
        if event is not None:
            event.succeed(now)

    # -- execution stream ----------------------------------------------------------------

    def _execution_stream(self) -> typing.Generator[
            Event, object, list[LayerTrace]]:
        traces: list[LayerTrace] = []
        for i, layer in enumerate(self.plan.model.layers):
            method = self.plan.method(i)
            wait_start = self.sim.now
            if layer.loadable and method is ExecMethod.LOAD:
                yield self._ready[i]
                ready_at = self._landed[i]
                stall = self.sim.now - wait_start
                start = self.sim.now
                yield self.sim.timeout(
                    self.costs.exec_inmem(layer, self.batch)
                    + EVENT_SYNC_OVERHEAD)
            elif layer.loadable:
                ready_at, stall, start = 0.0, 0.0, self.sim.now
                yield from self._run_dha_layer(i)
            else:
                ready_at, stall, start = 0.0, 0.0, self.sim.now
                yield self.sim.timeout(self.costs.exec_inmem(layer, self.batch))
            traces.append(LayerTrace(
                index=i, name=layer.name, method=method, ready=ready_at,
                start=start, end=self.sim.now, stall=stall))
        return traces

    def _execution_stream_coalesced(self) -> typing.Generator[
            Event, object, float]:
        """Fast-path execution stream: identical timing, no traces.

        Runs of layers that never wait (parameter-free, plus the
        in-memory execution following each loaded layer) collapse into a
        single timeout.  The stream also *runs through* each wait whose
        layer had already landed when it last resumed: the ``exec``
        segments on either side extend one pending sleep, summed left to
        right (``((now + v1) + v2) + ...``) exactly as back-to-back
        timeouts would land.  The sleep is taken at a DHA segment, at a
        wait on a layer not landed yet (which is checked again when the
        sleep ends) and at the end.  A ready event exists only for a
        layer the stream does wait on.  Returns the summed stall time.
        """
        total_stall = 0.0
        sim = self.sim
        landed = self._landed
        network = self.machine.network
        path = self.machine.pcie_path(self.primary)
        run_end: float | None = None
        for kind, value in _cold_exec_segments(self.plan, self.costs):
            if kind == "exec":
                run_end = (sim._now if run_end is None
                           else run_end) + typing.cast(float, value)
                continue
            if kind == "wait" and value in landed:
                continue
            if run_end is not None:
                yield sim.timeout_at(run_end)
                run_end = None
            if kind == "dha":
                # Inlined DHA body (see run_warm): one generator frame
                # fewer per event.  Same arithmetic as _run_dha_layer.
                traffic, max_rate, compute, tail, extra = \
                    typing.cast(tuple, value)
                compute_end = sim.now + compute
                if traffic > 0:
                    yield network.transfer(path, traffic, max_rate=max_rate)
                resumed = sim.now
                if resumed < compute_end:
                    resumed = compute_end
                yield sim.timeout_at(resumed + tail + extra)
            elif value not in landed:
                ready = self._ready.get(value)
                if ready is None:
                    ready = self._ready[value] = Event(sim, name="ready")
                wait_start = sim.now
                yield ready
                total_stall += sim.now - wait_start
        if run_end is not None:
            yield sim.timeout_at(run_end)
        return total_stall

    def _run_dha_layer(self, i: int, tail_extra: float = 0.0
                       ) -> typing.Generator[Event, object, None]:
        """Execute layer *i* by direct-host-access.

        The kernel's zero-copy reads become a real flow on the primary
        GPU's PCIe lane (capped at the layer's effective DHA bandwidth),
        overlapped with the compute roofline; so DHA execution both
        suffers from and causes PCIe contention.

        The layer ends at ``max(compute end, transfer end)`` plus the
        kernel-switch penalty and activation writeback; waiting on the
        transfer and then sleeping to that precomputed absolute instant
        is equivalent to joining compute and transfer with ``all_of`` but
        costs two simulator events instead of six.

        ``tail_extra`` extends the final sleep: coalesced schedules fold
        the in-memory run that follows a DHA layer into its tail timeout
        (nothing touches the network during either), saving one event per
        pair at identical end times.
        """
        layer = self.plan.model.layers[i]
        traffic = layer.dha_pcie_bytes(self.batch)
        compute = max(KIND_TIME_FLOOR[layer.kind],
                      self.costs.compute_time(layer, self.batch))
        compute_end = self.sim.now + compute
        if traffic > 0:
            yield self.machine.network.transfer(
                self.machine.pcie_path(self.primary), traffic,
                max_rate=self.costs.dha_bandwidth(layer))
        act_time = (layer.act_bytes_per_item * self.batch
                    / self.costs.gpu.hbm_bandwidth)
        resumed = self.sim.now
        if resumed < compute_end:
            resumed = compute_end
        yield self.sim.timeout_at(
            resumed + (DHA_KERNEL_PENALTY + act_time) + tail_extra)


class _LoadStream:
    """One partition's load stream, driven by milestone callbacks.

    The partition's layers cross *gpu*'s PCIe lane as one flow with a
    milestone per layer; per-copy DMA setup overhead is folded in as
    equivalent wire bytes (identical timing to back-to-back copies on an
    uncontended lane).  On the primary (partition 0) a landed layer is
    ready at once.  A secondary loads at :data:`SECONDARY_LOAD_WEIGHT`
    into a staging buffer and forwards the *run* of layers landed since
    it last woke as one NVLink copy — per-layer forwarding when it keeps
    up (NVLink is ~4x faster than the lane), batching when it falls
    behind; the run is ready when the copy lands.

    Every milestone's target is :meth:`_crossed`, which counts the
    crossing and queues :meth:`_step` in the same-instant slot a
    milestone event's dispatch would take.  The stream advances from the
    slot of the milestone it waits on, or from a fresh slot when that
    slot already ran (as ``add_callback`` on a dispatched event would),
    so same-instant order is that of a process waiting on per-layer
    events.  Errors (a staging buffer larger than the secondary's
    workspace) propagate out of the simulator run.
    """

    __slots__ = ("runner", "partition", "gpu", "indices", "crossed",
                 "stepped", "waiting", "position", "run_end", "started")

    def __init__(self, runner: _PlanRunner, partition: int,
                 gpu: int) -> None:
        self.runner = runner
        self.partition = partition
        self.gpu = gpu
        self.position = self.run_end = 0
        #: Milestones crossed, and how many of their slots have run.
        self.crossed = self.stepped = 0
        #: The milestone whose slot advances the stream (-1: none).
        self.waiting = 0

    @property
    def _staging_tag(self) -> str:
        runner = self.runner
        return (f"staging:{runner.plan.model.name}:{id(runner)}:"
                f"{self.partition}")

    def start(self) -> None:
        runner = self.runner
        machine, plan = runner.machine, runner.plan
        self.indices = indices = plan.loaded_indices_in(self.partition)
        if not indices:
            return
        self.started = runner.sim.now
        spec = machine.spec
        overhead_bytes = spec.pcie_copy_overhead * spec.pcie_lane_bandwidth
        milestones = []
        total = 0.0
        crossed = self._crossed
        for i in indices:
            total += overhead_bytes + plan.model.layers[i].param_bytes
            milestones.append((total, crossed))
        weight = SECONDARY_LOAD_WEIGHT if self.partition else 1.0
        machine.network.transfer(machine.pcie_path(self.gpu), total,
                                 weight=weight, milestones=milestones)
        if self.partition:
            machine.gpu(self.gpu).memory.reserve_staging(
                self._staging_tag, plan.partition_load_bytes(self.partition))

    def _crossed(self, _flow: object) -> None:
        self.crossed += 1
        self.runner.sim._ripe.append(self._step)

    def _step(self) -> None:
        k = self.stepped
        self.stepped = k + 1
        if self.waiting == k:
            self.waiting = -1
            self._landed()

    def _landed(self) -> None:
        position = self.position
        if self.partition == 0:
            self.runner._mark_ready(self.indices[position])
            self.position = position + 1
            self._wait_next()
            return
        # Milestones cross in order: the run is every layer crossed so far.
        self.run_end = run_end = self.crossed
        runner = self.runner
        layers = runner.plan.model.layers
        nbytes = sum(layers[i].param_bytes
                     for i in self.indices[position:run_end])
        runner.machine.device_to_device(
            self.gpu, runner.primary, nbytes).add_callback(self._forwarded)

    def _forwarded(self, _event: Event) -> None:
        for i in self.indices[self.position:self.run_end]:
            self.runner._mark_ready(i)
        self.position = self.run_end
        self._wait_next()

    def _wait_next(self) -> None:
        position = self.position
        if position < len(self.indices):
            if position < self.stepped:
                # Its slot already ran: step from a fresh one, as
                # add_callback on a dispatched event would.
                self.runner.sim._ripe.append(self._landed)
            else:
                self.waiting = position
            return
        runner = self.runner
        nbytes = runner.plan.partition_load_bytes(self.partition)
        runner._account_lane(self.gpu, nbytes, self.started)
        if self.partition:
            runner.machine.gpu(self.gpu).memory.release_staging(
                self._staging_tag)


# Segment schedules are cached by *identity* of (plan, cost model): the
# serving system reuses one plan object across thousands of requests, and
# hashing a whole frozen ExecutionPlan (hundreds of layer specs) per
# request would dominate the simulation.  Entries hold no strong
# references to their keys; instead a finalizer on both objects drops the
# entry when either dies, so plans discarded by planner sweeps stay
# collectible and ids cannot be recycled while an entry is live.
_SEGMENT_CACHE: dict[tuple[str, int, int], tuple[tuple[str, object], ...]] = {}


def _cached_segments(kind: str, plan: ExecutionPlan, costs: CostModel,
                     builder) -> tuple[tuple[str, object], ...]:
    key = (kind, id(plan), id(costs))
    hit = _SEGMENT_CACHE.get(key)
    if hit is not None:
        return hit
    segments = builder(plan, costs)
    _SEGMENT_CACHE[key] = segments
    for anchor in (plan, costs):
        weakref.finalize(anchor, _SEGMENT_CACHE.pop, key, None)
    return segments


def _cold_exec_segments(plan: ExecutionPlan, costs: CostModel
                        ) -> tuple[tuple[str, object], ...]:
    """Cold-start execution schedule with non-waiting runs coalesced.

    Segment kinds: ``("wait", i)`` — block until layer *i*'s parameters
    are ready; ``("exec", seconds)`` — run for that long;
    ``("dha", (traffic, max_rate, compute, tail, extra))`` — execute a
    layer by direct-host-access, parameters precomputed by
    :func:`_dha_segment`, the following in-memory run folded into
    ``extra`` by :func:`_fold_dha_tails`.
    """
    return _cached_segments("cold", plan, costs, _build_cold_segments)


def _dha_segment(layer, costs: CostModel, batch: int) -> tuple[str, object]:
    """Precomputed DHA segment: ``("dha", (traffic, max_rate, compute,
    tail, extra))``.

    Everything that depends only on (plan, cost model, batch) — the PCIe
    traffic, the rate cap, the compute roofline and the
    penalty-plus-writeback tail — is evaluated once at schedule-build
    time instead of per request.  ``extra`` is the in-memory run folded
    into the tail sleep by :func:`_fold_dha_tails` (initially zero).
    Float associativity matches :meth:`_PlanRunner._run_dha_layer`
    term for term, so both paths land on bit-identical end times.
    """
    traffic = layer.dha_pcie_bytes(batch)
    compute = max(KIND_TIME_FLOOR[layer.kind],
                  costs.compute_time(layer, batch))
    act_time = layer.act_bytes_per_item * batch / costs.gpu.hbm_bandwidth
    return ("dha", (traffic, costs.dha_bandwidth(layer), compute,
                    DHA_KERNEL_PENALTY + act_time, 0.0))


def _fold_dha_tails(segments: list[tuple[str, object]]
                    ) -> tuple[tuple[str, object], ...]:
    """Fold each ``("exec", t)`` that follows a DHA segment into the DHA
    layer's tail sleep (its ``extra`` slot) — one simulator event instead
    of two, at a bit-identical end time (the tail sleep already targets
    an absolute instant; the run just extends it)."""
    folded: list[tuple[str, object]] = []
    for kind, value in segments:
        if kind == "exec" and folded and folded[-1][0] == "dha":
            dha = typing.cast(tuple, folded[-1][1])
            folded[-1] = ("dha", dha[:4] + (value,))
            continue
        folded.append((kind, value))
    return tuple(folded)


def _build_cold_segments(plan: ExecutionPlan, costs: CostModel
                         ) -> tuple[tuple[str, object], ...]:
    segments: list[tuple[str, object]] = []
    accumulated = 0.0
    for i, layer in enumerate(plan.model.layers):
        if layer.loadable and plan.method(i) is ExecMethod.LOAD:
            if accumulated:
                segments.append(("exec", accumulated))
                accumulated = 0.0
            segments.append(("wait", i))
            accumulated += (costs.exec_inmem(layer, plan.batch_size)
                            + EVENT_SYNC_OVERHEAD)
        elif layer.loadable:
            if accumulated:
                segments.append(("exec", accumulated))
                accumulated = 0.0
            segments.append(_dha_segment(layer, costs, plan.batch_size))
        else:
            accumulated += costs.exec_inmem(layer, plan.batch_size)
    if accumulated:
        segments.append(("exec", accumulated))
    return _fold_dha_tails(segments)


def warm_segments(plan: ExecutionPlan, costs: CostModel
                  ) -> tuple[tuple[str, object], ...]:
    """Warm-execution schedule: runs of in-memory layers coalesced.

    Public so the serving system can drive the warm loop from its own
    worker generator (one frame per event resume) instead of delegating
    through :func:`warm_generator`.  Segment kinds are those of
    :func:`_cold_exec_segments`, minus ``"wait"``.
    """
    return _cached_segments("warm", plan, costs, _build_warm_segments)


def _build_warm_segments(plan: ExecutionPlan, costs: CostModel
                         ) -> tuple[tuple[str, object], ...]:
    segments: list[tuple[str, object]] = []
    accumulated = 0.0
    for i, layer in enumerate(plan.model.layers):
        if layer.loadable and plan.method(i) is ExecMethod.DHA:
            if accumulated:
                segments.append(("exec", accumulated))
                accumulated = 0.0
            segments.append(_dha_segment(layer, costs, plan.batch_size))
        else:
            accumulated += costs.exec_inmem(layer, plan.batch_size)
    if accumulated:
        segments.append(("exec", accumulated))
    return _fold_dha_tails(segments)


def _per_layer_warm_segments(plan: ExecutionPlan, costs: CostModel
                             ) -> tuple[tuple[str, object], ...]:
    """Warm-execution schedule with one segment per layer (uncached)."""
    return tuple(
        ("dha", i) if layer.loadable and plan.method(i) is ExecMethod.DHA
        else ("exec", costs.exec_inmem(layer, plan.batch_size))
        for i, layer in enumerate(plan.model.layers))
