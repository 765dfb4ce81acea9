"""The inference server: dispatch, workers, cold-start provisioning.

Execution discipline follows the paper (Section 5.3): each GPU runs one
inference at a time (as in Clockwork); every instance has a *home* GPU
(instances are spread round-robin); requests queue FIFO at their home
GPU.  On a miss, the worker evicts least-recently-used instances until
the model fits, then provisions it with the configured strategy — for
parallel transmission the home GPU borrows the PCIe lane of its
cross-switch NVLink partner, which may simultaneously be serving its own
requests (the interference the paper measures in Table 4).

Warm-up: before measurement, instances are admitted in round-robin order
until every GPU is full, mirroring the paper's warm-up phase.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.core.deepplan import DeepPlan, Strategy
from repro.core.plan import ExecutionPlan
from repro.core.validate import validate_plan_on_machine
from repro.engine.executor import (
    plan_generator,
    warm_generator,
    warm_segments,
)
from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.models.graph import ModelSpec
from repro.serving.cache import InstanceCache
from repro.serving.instance import ModelInstance
from repro.serving.metrics import DEFAULT_SLO, MetricsCollector, RequestRecord
from repro.serving.workload import Request
from repro.simkit import Event, Interrupt, Link, Process, Store

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.audit import ServingAuditor
    from repro.cluster.cluster import Cluster

__all__ = ["Driver", "ServerConfig", "InferenceServer", "OutcomeListener",
           "ServingReport"]


HOMING_POLICIES = ("round-robin", "least-loaded")


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Serving-system configuration."""

    strategy: "Strategy | str" = Strategy.PT_DHA
    slo: float = DEFAULT_SLO
    #: Admit instances round-robin until GPUs are full before measuring.
    prewarm: bool = True
    #: Victim selection when GPU memory runs out ("lru" is the paper's).
    eviction_policy: str = "lru"
    #: How deploy() assigns instances to home GPUs.
    homing: str = "round-robin"
    #: Enable the runtime invariant-audit layer (:mod:`repro.audit`):
    #: link conservation, memory reserve/release balance, drained queues,
    #: exactly-once request accounting.  ``run()`` raises
    #: :class:`~repro.audit.AuditError` on any violation.
    audit: bool = False
    #: Use the per-layer execution paths (full traces for cold starts,
    #: one event per layer when warm) instead of the coalesced fast
    #: paths.  Slow; for debugging and differential testing only.
    detailed_traces: bool = False
    #: Per-request deadline (seconds, measured from submission).  When
    #: set, submit() sheds requests whose predicted completion (queue
    #: backlog + provision/service time) already exceeds the deadline
    #: instead of letting them queue and blow the tail.  ``None`` (the
    #: default) disables shedding entirely.
    deadline: float | None = None
    #: Fraction of nominal bandwidth below which a link counts as too
    #: degraded for parallel transmission: in-flight provisions crossing
    #: it abort to the fallback plan, and peer selection avoids it.
    degraded_link_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.homing not in HOMING_POLICIES:
            raise WorkloadError(
                f"unknown homing policy {self.homing!r}; options: "
                f"{', '.join(HOMING_POLICIES)}")
        if self.deadline is not None and self.deadline <= 0:
            raise WorkloadError(
                f"deadline must be positive, got {self.deadline}")
        if not 0 < self.degraded_link_threshold <= 1:
            raise WorkloadError(
                f"degraded_link_threshold must be in (0, 1], got "
                f"{self.degraded_link_threshold}")


@dataclasses.dataclass
class ServingReport:
    """Outcome of one serving run."""

    metrics: MetricsCollector
    num_instances: int
    #: Instances resident after warm-up (the system's warm capacity).
    prewarmed: int
    evictions: int
    duration: float
    #: Planner plan-cache counters over the planner's lifetime (zero when
    #: the planner runs without a cache).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Completed requests whose cold start ran on the degraded fallback
    #: plan after a device/link fault.
    degraded_cold_starts: int = 0
    #: Parallel provisions aborted mid-flight by a device/link fault.
    aborted_provisions: int = 0
    #: Requests shed at admission by the deadline guardrail.
    shed: int = 0

    def summary(self) -> dict[str, float]:
        data = self.metrics.summary()
        data.update(instances=float(self.num_instances),
                    prewarmed=float(self.prewarmed),
                    evictions=float(self.evictions),
                    plan_cache_hits=float(self.plan_cache_hits),
                    plan_cache_misses=float(self.plan_cache_misses))
        if self.degraded_cold_starts or self.aborted_provisions:
            data.update(degraded_cold_starts=float(self.degraded_cold_starts),
                        aborted_provisions=float(self.aborted_provisions))
        if self.shed:
            data.update(shed=float(self.shed))
        return data


class OutcomeListener:
    """A subscriber to request outcomes, with a no-op for each event.

    Servers and clusters keep a ``listeners`` list.  Each event calls the
    same-named method on every listener, in registration order, with the
    reporting server or cluster as *source*; subclasses override only the
    events they use.  Orphans and degraded cold starts come from servers
    only, drops from clusters only.
    """

    def request_completed(self, source: object, request: Request,
                          record: RequestRecord) -> None:
        """*request* finished; *record* is its completion record."""

    def request_shed(self, source: object, request: Request) -> None:
        """Admission control shed *request* (terminal)."""

    def request_orphaned(self, source: object, request: Request) -> None:
        """A crash race lost *request* after it left its queue."""

    def cold_start_degraded(self, source: object, request: Request) -> None:
        """*request*'s cold start ran on the degraded fallback plan."""

    def request_dropped(self, source: object, request: Request) -> None:
        """*request* failed its last retry (terminal)."""


class Driver(OutcomeListener):
    """Sends requests into a server or a cluster and waits for the end.

    The one request loop behind :meth:`InferenceServer.run`,
    :meth:`Cluster.run <repro.cluster.cluster.Cluster.run>` and
    :meth:`LoadGen.run <repro.loadgen.driver.LoadGen.run>`.  The *target*
    offers ``sim``, ``instance_names``, ``listeners`` and ``submit()``.

    *requests* (any iterable, consumed lazily in order) are sent each at
    its intended arrival, ``arrival_time`` after the instant :meth:`run`
    starts.  Open loop (the default), ``submitted_at`` is stamped with
    that instant, so latency includes any queueing the target imposed.
    With *clients*, a closed-loop connection pool sends a request only
    while fewer than *clients* are in flight, and ``submit()`` stamps the
    actual send.  The run ends once every request is sent and terminal:
    completed, shed or (on a cluster) dropped.
    """

    def __init__(self, target: "InferenceServer | Cluster",
                 requests: typing.Iterable[Request],
                 clients: int | None = None) -> None:
        self.target = target
        self._requests = requests
        self._clients = clients
        self.submitted = self.completed = self.shed = self.dropped = 0
        self._sent_all = False
        self._slot: Event | None = None
        self._done = target.sim.event(name="requests-done")

    @classmethod
    def replay(cls, target: "InferenceServer | Cluster",
               requests: typing.Sequence[Request]) -> "Driver":
        """An open-loop driver for a request list, in arrival order.

        Checks the list against the target's deployed instances, then
        sorts it by ``arrival_time`` (stably, so equal arrivals keep list
        order): an out-of-order list is still sent on time.
        """
        cls.check_requests(target.instance_names, requests)
        return cls(target, sorted(requests, key=lambda r: r.arrival_time))

    @staticmethod
    def check_requests(instance_names: typing.Iterable[str],
                       requests: typing.Sequence[Request]) -> None:
        """Reject a run's request list with :class:`WorkloadError`.

        The checks every run entry point shares: something is deployed,
        there is a request, and every request names a deployed instance.
        """
        known = set(instance_names)
        if not known:
            raise WorkloadError("no instances deployed")
        if not requests:
            raise WorkloadError("no requests to serve")
        unknown = {r.instance_name for r in requests} - known
        if unknown:
            raise WorkloadError(f"requests target unknown instances: "
                                f"{sorted(unknown)[:5]}")

    def run(self, listeners: typing.Sequence[OutcomeListener] = ()) -> None:
        """Send every request; return once each one is terminal.

        For the run, *listeners* and then the driver join the target's
        ``listeners``; they leave again afterwards, also when the run
        raises.  An exception in a server worker or in the sending loop
        (a bad request, a rejected ``submit()``) raises out of the
        simulator run, and so out of here.
        """
        target = self.target
        sim = target.sim
        subscribed = [*listeners, self]
        target.listeners.extend(subscribed)
        try:
            sim.process(self._send(sim.now), name="arrivals")
            sim.run(self._done)
        finally:
            for listener in subscribed:
                target.listeners.remove(listener)

    def _send(self, base: float) -> typing.Generator[Event, object, None]:
        sim = self.target.sim
        for request in self._requests:
            due = base + request.arrival_time
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            if self._clients is None:
                # The absolute intended arrival: arrival_time is
                # relative to the run's start, so latency stays right
                # when run() begins at sim.now > 0.
                request.submitted_at = due
            else:
                # Wait for a free connection.  Intended arrivals that
                # pass meanwhile are sent late: the coordinated
                # omission the open loop avoids.
                while self._in_flight() >= self._clients:
                    self._slot = sim.event(name="client-slot")
                    yield self._slot
                    self._slot = None
            self.submitted += 1
            self.target.submit(request)
        self._sent_all = True
        self._maybe_finish()

    def _in_flight(self) -> int:
        return self.submitted - self.completed - self.shed - self.dropped

    def request_completed(self, source: object, request: Request,
                          record: RequestRecord) -> None:
        self.completed += 1
        self._settle()

    def request_shed(self, source: object, request: Request) -> None:
        self.shed += 1
        self._settle()

    def request_dropped(self, source: object, request: Request) -> None:
        self.dropped += 1
        self._settle()

    def _settle(self) -> None:
        if self._slot is not None and not self._slot.triggered:
            self._slot.succeed()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (self._sent_all and not self._done.triggered
                and self._in_flight() <= 0):
            self._done.succeed()


class InferenceServer:
    """A multi-GPU model-serving system on one simulated machine."""

    def __init__(self, machine: Machine, planner: DeepPlan,
                 config: ServerConfig = ServerConfig()) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.planner = planner
        self.config = config
        self.strategy = Strategy.parse(config.strategy)
        self.metrics = MetricsCollector(slo=config.slo)
        self._instances: dict[str, ModelInstance] = {}
        self._instances_view = types.MappingProxyType(self._instances)
        self._caches = {gpu.index: InstanceCache(
            gpu.memory, policy=config.eviction_policy, seed=gpu.index)
            for gpu in machine.gpus}
        self._deployed_bytes = {gpu.index: 0 for gpu in machine.gpus}
        self._queues = {gpu.index: Store(self.sim, name=f"queue{gpu.index}")
                        for gpu in machine.gpus}
        self._plans: dict[str, ExecutionPlan] = {}
        self._secondaries = self._plan_secondaries()
        self._outstanding = 0
        self._workers_started = False
        # -- lifecycle state (drain / crash / recover) --
        self._draining = False
        self._down = False
        #: Bumped on every fail_over(); in-flight executions from an older
        #: epoch finish silently (no metrics, no listeners) — the cluster
        #: re-runs their requests elsewhere.
        self._epoch = 0
        self._drain_event: Event | None = None
        #: The request each GPU worker is currently executing.
        self._active: dict[int, Request] = {}
        #: :class:`OutcomeListener` subscribers to this server's request
        #: outcomes, notified in list order.
        self.listeners: list[OutcomeListener] = []
        # -- device-fault / guardrail state (all idle unless enabled) --
        #: When True, parallel cold starts run as abortable child
        #: processes so a GPU/link fault mid-provision can interrupt them
        #: (see handle_gpu_failure / handle_link_degradation).  Off by
        #: default: the watch wrapper changes event scheduling order, and
        #: fault-free runs must stay bit-identical to the plain path.
        self.watch_device_faults = False
        #: Per-GPU fault epoch, bumped by handle_gpu_failure(); in-flight
        #: phantom executions from an older GPU epoch are discarded just
        #: like machine-crash phantoms.
        self._gpu_epochs = {gpu.index: 0 for gpu in machine.gpus}
        #: gpu -> (provision process, peer GPU set, links it depends on).
        self._provisions: dict[
            int, tuple["Process", frozenset[int], frozenset[Link]]] = {}
        #: Lazily built degraded (single-partition DHA) plans per model,
        #: used when the deployed plan carries no precomputed fallback.
        self._fallback_plans: dict[str, ExecutionPlan] = {}
        self.aborted_provisions = 0
        #: Requests shed at admission by the deadline guardrail.
        self.shed_requests: list[Request] = []
        #: Predicted-service backlog per GPU, maintained only when a
        #: deadline is configured (the admission-control signal).
        self._backlog = {gpu.index: 0.0 for gpu in machine.gpus}
        self._backlog_charge: dict[int, tuple[int, float]] = {}
        #: Accumulated GPU busy time and completions across the server's
        #: lifetime (utilization accounting for cluster reports).
        self.busy_time = 0.0
        self.requests_served = 0
        self.auditor: "ServingAuditor | None" = None
        if config.audit:
            from repro.audit import ServingAuditor
            self.auditor = ServingAuditor(self)

    # -- deployment ----------------------------------------------------------------

    def deploy(self, models: typing.Sequence[tuple[ModelSpec, int]]
               ) -> list[ModelInstance]:
        """Deploy ``count`` instances of each model.

        Each instance's parameters are pinned in host memory (the
        substrate for both DMA loads and direct-host-access), so host RAM
        bounds total deployment.  Plans are generated once per
        architecture and shared by its instances.  Homing follows
        ``config.homing``: round-robin (the paper's setup) or
        least-loaded by deployed bytes.
        """
        created = []
        for model, count in models:
            if count < 1:
                raise WorkloadError(f"instance count must be >= 1, got {count}")
            existing = sum(1 for i in self._instances.values()
                           if i.model_name == model.name)
            for k in range(existing, existing + count):
                created.append(self.deploy_instance(model,
                                                    f"{model.name}#{k}"))
        return created

    def deploy_instance(self, model: ModelSpec, name: str) -> ModelInstance:
        """Deploy one instance under an explicit name.

        Cluster placement uses this so the *same* logical instance name
        (e.g. ``bert-base#3``) can exist as a replica on several machines.
        """
        if name in self._instances:
            raise WorkloadError(f"instance {name!r} already deployed")
        plan = self._plan_for(model)
        validate_plan_on_machine(plan, self.machine)
        self.machine.host.pin(name, model.param_bytes)
        instance = ModelInstance(name=name, plan=plan,
                                 home_gpu=self._choose_home(plan))
        self._instances[instance.name] = instance
        self._deployed_bytes[instance.home_gpu] += plan.gpu_resident_bytes
        return instance

    def undeploy(self, instance_name: str) -> None:
        """Decommission one instance: evict it and release its host pin."""
        try:
            instance = self._instances.pop(instance_name)
        except KeyError:
            raise WorkloadError(f"no deployed instance {instance_name!r}") \
                from None
        cache = self._caches[instance.home_gpu]
        if instance in cache:
            cache.evict(instance)
        self._deployed_bytes[instance.home_gpu] -= \
            instance.plan.gpu_resident_bytes
        self.machine.host.unpin(instance_name)

    def _choose_home(self, plan: ExecutionPlan) -> int:
        if self.config.homing == "least-loaded":
            return min(self._deployed_bytes, key=lambda gpu:
                       (self._deployed_bytes[gpu], gpu))
        counts: dict[int, int] = {gpu.index: 0 for gpu in self.machine.gpus}
        for instance in self._instances.values():
            counts[instance.home_gpu] += 1
        return min(counts, key=lambda gpu: (counts[gpu], gpu))

    def _plan_for(self, model: ModelSpec) -> ExecutionPlan:
        if model.name not in self._plans:
            self._plans[model.name] = self.planner.plan(model, self.strategy)
        return self._plans[model.name]

    def _plan_secondaries(self) -> dict[int, list[int]]:
        """Cross-switch NVLink partners used for parallel transmission."""
        partners = {}
        for gpu in self.machine.gpus:
            peers = self.machine.parallel_transmission_peers(gpu.index)
            partners[gpu.index] = peers
        return partners

    @property
    def instances(self) -> typing.Mapping[str, ModelInstance]:
        """The deployed instances by name: a live, read-only view."""
        return self._instances_view

    @property
    def instance_names(self) -> list[str]:
        return list(self._instances)

    def warm_capacity(self) -> int:
        """How many deployed instances fit resident simultaneously."""
        return self._prewarm(dry_run=True)

    def plan_of(self, instance_name: str) -> ExecutionPlan:
        """The execution plan a deployed instance was provisioned with."""
        try:
            return self._instances[instance_name].plan
        except KeyError:
            raise WorkloadError(f"no deployed instance {instance_name!r}") \
                from None

    def is_warm(self, instance_name: str) -> bool:
        """Whether the instance is currently GPU-resident."""
        try:
            return self._instances[instance_name].resident
        except KeyError:
            raise WorkloadError(f"no deployed instance {instance_name!r}") \
                from None

    # -- lifecycle -------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet completed (or orphaned)."""
        return self._outstanding

    @property
    def is_down(self) -> bool:
        return self._down

    @property
    def is_draining(self) -> bool:
        return self._draining

    def prewarm(self) -> int:
        """Admit instances until GPU memory is full; returns the count."""
        return self._prewarm()

    def start(self) -> None:
        """Start the per-GPU worker processes (idempotent).

        ``run()`` calls this implicitly; open-ended callers (the cluster)
        start workers once and then ``submit()`` at will.
        """
        self._start_workers()

    def drain(self) -> Event:
        """Stop accepting work; the event fires once in-flight work ends.

        Requests submitted after this point raise
        :class:`~repro.errors.WorkloadError` instead of silently queueing
        behind a server that will never pick them up.  ``resume()``
        reopens the server.
        """
        self._draining = True
        if self._drain_event is None:
            self._drain_event = self.sim.event(name="server-drain")
        if self._outstanding == 0 and not self._drain_event.triggered:
            self._drain_event.succeed()
        return self._drain_event

    def resume(self) -> None:
        """Accept work again after a drain()."""
        self._draining = False
        self._drain_event = None

    def fail_over(self) -> list[Request]:
        """Crash the machine: orphan all queued and in-flight requests.

        Queued requests are pulled back out of every GPU queue; in-flight
        executions become *phantoms* — their simulated work completes (the
        events are already scheduled) but an epoch check discards the
        results.  Returns the orphans, which the caller re-routes.  The
        server rejects submissions until :meth:`recover`.
        """
        self._epoch += 1
        self._down = True
        orphans: list[Request] = []
        for queue in self._queues.values():
            orphans.extend(typing.cast(Request, item)
                           for item in queue.drain())
        for gpu_index in sorted(self._active):
            orphans.append(self._active.pop(gpu_index))
        self._outstanding -= len(orphans)
        for request in orphans:
            self._settle_backlog(request)
            if self.auditor is not None:
                self.auditor.on_orphan(request)
        self._maybe_finish_drain()
        return orphans

    def recover(self) -> None:
        """Bring a crashed machine back, with cold GPUs.

        The crash lost all GPU state, so every previously resident
        instance is evicted — the first request per instance after
        recovery pays a full cold start.
        """
        if not self._down:
            raise WorkloadError("recover() on a machine that is not down")
        self._down = False
        self.invalidate_residency()

    def invalidate_residency(self) -> None:
        """Evict every resident instance (models GPU memory loss)."""
        for instance in self._instances.values():
            if instance.resident:
                self._caches[instance.home_gpu].evict(instance)

    # -- device faults ----------------------------------------------------------------

    def handle_gpu_failure(self, gpu_index: int) -> list[Request]:
        """React to one GPU dying while the machine keeps serving.

        Aborts any parallel provision that depends on the device (as
        primary or as peer), orphans the GPU's queued and in-flight
        requests (in-flight work becomes a phantom, discarded by the
        per-GPU epoch check), evicts instances resident there and rehomes
        them onto surviving GPUs.  Like :meth:`fail_over`, the orphans
        are returned for the caller to re-route; listeners are not told
        of them (``request_orphaned`` covers only orphans the server
        discovers on its own, which have no other path back to the
        re-router).
        """
        self.machine.gpu(gpu_index)  # validate the index
        self._gpu_epochs[gpu_index] += 1
        for primary, (proc, peers, _links) in list(self._provisions.items()):
            if not proc.is_alive:
                continue
            if primary == gpu_index:
                proc.interrupt("primary-gpu-failed")
            elif gpu_index in peers:
                proc.interrupt("peer-gpu-failed")
        orphans = [typing.cast(Request, item)
                   for item in self._queues[gpu_index].drain()]
        if gpu_index in self._active:
            orphans.append(self._active.pop(gpu_index))
        # The device's memory is gone: every instance homed here goes
        # cold, and a surviving GPU takes over as home so later requests
        # (including cluster retries) have somewhere to run.
        cache = self._caches[gpu_index]
        healthy = [g.index for g in self.machine.gpus if not g.failed]
        for instance in self._instances.values():
            if instance.home_gpu != gpu_index:
                continue
            if instance in cache:
                cache.evict(instance)
            if healthy:
                new_home = min(healthy, key=lambda g:
                               (self._deployed_bytes[g], g))
                bytes_ = instance.plan.gpu_resident_bytes
                self._deployed_bytes[gpu_index] -= bytes_
                self._deployed_bytes[new_home] += bytes_
                instance.home_gpu = new_home
        for request in orphans:
            self._orphan(request, notify=False)
        return orphans

    def handle_link_degradation(self, link: Link) -> None:
        """Abort parallel provisions crossing a link degraded too far.

        Called after a link's capacity changed.  A provision whose lane
        or NVLink fell below ``config.degraded_link_threshold`` of
        nominal is interrupted; its worker retries on the fallback plan.
        Restorations (capacity back above threshold) need no action.
        """
        threshold = self.config.degraded_link_threshold
        if link.bandwidth >= link.nominal_bandwidth * threshold:
            return
        for _primary, (proc, _peers, links) in list(self._provisions.items()):
            if proc.is_alive and link in links:
                proc.interrupt("link-degraded")

    def _maybe_finish_drain(self) -> None:
        if (self._outstanding == 0 and self._draining
                and self._drain_event is not None
                and not self._drain_event.triggered):
            self._drain_event.succeed()

    def _settle_backlog(self, request: Request) -> None:
        if self.config.deadline is None:
            return
        entry = self._backlog_charge.pop(request.request_id, None)
        if entry is None:
            return
        gpu, cost = entry
        self._backlog[gpu] = max(0.0, self._backlog[gpu] - cost)

    def _orphan(self, request: Request, notify: bool = True) -> None:
        """Account one orphaned request; optionally hand it to the
        re-router (bulk fault handlers return their orphans instead)."""
        self._outstanding -= 1
        self._settle_backlog(request)
        if self.auditor is not None:
            self.auditor.on_orphan(request)
        self._maybe_finish_drain()
        if notify:
            for listener in self.listeners:
                listener.request_orphaned(self, request)

    # -- running --------------------------------------------------------------------

    def run(self, requests: typing.Sequence[Request]) -> ServingReport:
        """Serve *requests* to completion and report metrics.

        Prewarms (when configured), starts the workers and replays the
        requests in arrival order through a :class:`Driver`, which owns
        the simulation loop for the duration of the run.
        """
        driver = Driver.replay(self, requests)
        for request in requests:
            self._check_batch_size(request)
        prewarmed = self._prewarm() if self.config.prewarm else 0
        self._start_workers()
        start_time = self.sim.now
        driver.run()
        if self.auditor is not None:
            self.auditor.check_quiesce()
        plan_cache = self.planner.plan_cache
        return ServingReport(
            metrics=self.metrics,
            num_instances=len(self._instances),
            prewarmed=prewarmed,
            evictions=sum(c.evictions for c in self._caches.values()),
            duration=self.sim.now - start_time,
            plan_cache_hits=plan_cache.hits if plan_cache is not None else 0,
            plan_cache_misses=(plan_cache.misses
                               if plan_cache is not None else 0),
            degraded_cold_starts=self.metrics.degraded_cold_starts,
            aborted_provisions=self.aborted_provisions,
            shed=len(self.shed_requests),
        )

    def _prewarm(self, dry_run: bool = False) -> int:
        """Admit instances round-robin per home GPU until memory is full."""
        total = 0
        by_gpu: dict[int, list[ModelInstance]] = {}
        for instance in self._instances.values():
            by_gpu.setdefault(instance.home_gpu, []).append(instance)
        for gpu_index, group in by_gpu.items():
            if dry_run:
                budget = self._caches[gpu_index].memory.available_bytes
                for instance in group:
                    if instance.gpu_bytes <= budget:
                        budget -= instance.gpu_bytes
                        total += 1
                    else:
                        break
            else:
                total += self._caches[gpu_index].prewarm(group)
        return total

    def _start_workers(self) -> None:
        if self._workers_started:
            return
        for gpu in self.machine.gpus:
            self.sim.process(self._worker(gpu.index), name=f"worker{gpu.index}")
        self._workers_started = True

    # -- processes ---------------------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Enqueue one request at its instance's home GPU.

        The request's batch size must match its instance's plan (plans
        are specialized per batch size); mismatches raise
        :class:`~repro.errors.WorkloadError`.  A draining or crashed
        server rejects submissions outright (also ``WorkloadError``) —
        silently queueing behind a server that will never run them would
        strand the requests.

        Returns ``True`` when the request was admitted; ``False`` when
        the deadline guardrail shed it (predicted completion past the
        deadline — see ``ServerConfig.deadline``).  Shed requests are a
        terminal outcome: they are appended to ``shed_requests`` and
        reported to ``listeners``, never queued or retried here.
        """
        if self._draining:
            raise WorkloadError(
                f"request {request.request_id} rejected: server is draining")
        if self._down:
            raise WorkloadError(
                f"request {request.request_id} rejected: server is down")
        self._check_batch_size(request)
        instance = self._instances[request.instance_name]
        if request.submitted_at is None:
            request.submitted_at = self.sim.now
        deadline = self.config.deadline
        if deadline is not None:
            gpu = instance.home_gpu
            service = (instance.current_plan.predicted_warm_latency
                       if instance.resident
                       else instance.plan.predicted_latency)
            predicted_finish = self.sim.now + self._backlog[gpu] + service
            if predicted_finish > request.submitted_at + deadline:
                self.shed_requests.append(request)
                self.metrics.record_shed()
                for listener in self.listeners:
                    listener.request_shed(self, request)
                return False
            self._backlog[gpu] += service
            self._backlog_charge[request.request_id] = (gpu, service)
        if self.auditor is not None:
            self.auditor.on_submit(request)
        self._outstanding += 1
        self._queues[instance.home_gpu].put(request)
        return True

    def _check_batch_size(self, request: Request) -> None:
        try:
            instance = self._instances[request.instance_name]
        except KeyError:
            raise WorkloadError(
                f"request {request.request_id} targets unknown instance "
                f"{request.instance_name!r}") from None
        expected = instance.plan.batch_size
        if request.batch_size != expected:
            raise WorkloadError(
                f"request {request.request_id} has batch size "
                f"{request.batch_size}, but instance {instance.name} was "
                f"deployed with a plan for batch size {expected}; deploy a "
                f"plan for the desired batch size instead")

    def _worker(self, gpu_index: int) -> typing.Generator[Event, object, None]:
        # The serving body lives directly in this loop (rather than in a
        # delegated sub-generator): the worker's frame is resumed once per
        # simulated event during plan execution, and every level of
        # ``yield from`` delegation adds a frame traversal to each resume.
        queue = self._queues[gpu_index]
        cache = self._caches[gpu_index]
        sim = self.sim
        network = self.machine.network
        pcie_path = self.machine.pcie_path(gpu_index)
        while True:
            request = typing.cast(Request, (yield queue.get()))
            if self._down:
                # The crash hit between this request leaving the queue and
                # the worker resuming: it is in neither the queue (so
                # fail_over's drain missed it) nor _active.  Orphan it
                # here so it is retried like the rest.
                self._orphan(request)
                continue
            if self.machine.gpus[gpu_index].failed:
                # Same race for a device fault: the request left the queue
                # before handle_gpu_failure() drained it.
                self._orphan(request)
                continue
            instance = self._instances[request.instance_name]
            epoch = self._epoch
            gpu_epoch = self._gpu_epochs[gpu_index]
            self._active[gpu_index] = request
            request.started_at = started = sim.now
            cold = instance not in cache
            request.cold_start = cold
            degraded = False
            if cold and self.watch_device_faults:
                outcome = yield from self._provision_cold(
                    gpu_index, instance, request)
                if outcome == "orphaned":
                    # The home GPU died mid-provision;
                    # handle_gpu_failure() already orphaned the
                    # request and popped it from _active.
                    continue
                degraded = outcome == "degraded"
            elif cold:
                cache.admit(instance)
                secondaries = self._cold_start_secondaries(instance)
                yield from plan_generator(
                    self.machine, self.planner.cost_model, instance.plan,
                    gpu_index, secondaries,
                    detailed_traces=self.config.detailed_traces)
            elif self.config.detailed_traces:
                cache.touch(instance)
                yield from warm_generator(
                    self.machine, self.planner.cost_model,
                    instance.current_plan, gpu_index, coalesced=False)
            else:
                # Warm hits dominate a serving run; the coalesced warm
                # loop lives here directly (the arithmetic of
                # _PlanRunner._run_dha_layer, precomputed into
                # segments) so each of its events resumes exactly one
                # generator frame.  current_plan is the primary plan
                # object itself unless the instance is resident under
                # its degraded fallback.
                cache.touch(instance)
                for kind, value in warm_segments(instance.current_plan,
                                                 self.planner.cost_model):
                    if kind == "exec":
                        yield sim.timeout(value)
                        continue
                    traffic, max_rate, compute, tail, extra = value
                    compute_end = sim.now + compute
                    if traffic > 0:
                        yield network.transfer(pcie_path, traffic,
                                               max_rate=max_rate)
                    resumed = sim.now
                    if resumed < compute_end:
                        resumed = compute_end
                    yield sim.timeout_at(resumed + tail + extra)
            if (epoch != self._epoch
                    or gpu_epoch != self._gpu_epochs[gpu_index]):
                # The machine (or this GPU) crashed mid-execution.
                # The simulated work ran to completion (its events
                # were already in flight), but the result is lost:
                # fail_over()/handle_gpu_failure() already orphaned
                # this request, so record nothing and notify no one.
                continue
            self._active.pop(gpu_index, None)
            request.finished_at = sim.now
            self.busy_time += sim.now - started
            self.requests_served += 1
            record = RequestRecord(
                request_id=request.request_id,
                instance_name=request.instance_name,
                arrival_time=request.arrival_time,
                submitted_at=typing.cast(float, request.submitted_at),
                started_at=request.started_at,
                finished_at=request.finished_at,
                cold_start=cold,
                degraded=degraded,
                qos=request.qos,
            )
            self.metrics.record(record)
            self._outstanding -= 1
            self._settle_backlog(request)
            for listener in self.listeners:
                listener.request_completed(self, request, record)
            self._maybe_finish_drain()

    def _cold_start_secondaries(self, instance: ModelInstance) -> list[int]:
        needed = instance.plan.num_partitions - 1
        if needed == 0:
            return []
        partners = self._secondaries[instance.home_gpu]
        if len(partners) < needed:
            raise WorkloadError(
                f"gpu{instance.home_gpu} lacks {needed} cross-switch NVLink "
                f"partners for parallel transmission")
        return partners[:needed]

    # -- degraded-mode provisioning ----------------------------------------------

    def _provision_cold(self, gpu_index: int, instance: ModelInstance,
                        request: Request
                        ) -> typing.Generator[Event, object, str]:
        """Cold-start provisioning under device-fault watch.

        Parallel provisions run as an abortable child process registered
        in ``_provisions`` so fault handlers can interrupt them.  Returns
        ``"ok"`` (primary plan landed), ``"degraded"`` (aborted or
        pre-empted by a fault; the request was served on the fallback
        plan) or ``"orphaned"`` (the home GPU itself died; the fault
        handler already re-routed the request).
        """
        cache = self._caches[gpu_index]
        plan = instance.plan
        if plan.uses_parallel_transmission:
            secondaries = self._healthy_secondaries(instance)
            if secondaries is not None:
                cache.admit(instance)
                proc = self.sim.process(
                    plan_generator(
                        self.machine, self.planner.cost_model, plan,
                        gpu_index, secondaries,
                        detailed_traces=self.config.detailed_traces),
                    name=f"provision:{instance.name}")
                self._provisions[gpu_index] = (
                    proc, frozenset(secondaries),
                    self._provision_links(gpu_index, secondaries))
                try:
                    yield proc.done
                    return "ok"
                except Interrupt as interrupt:
                    self.aborted_provisions += 1
                    # The partial residency is garbage; clear it before
                    # retrying.  handle_gpu_failure() may already have
                    # evicted it while rehoming, hence the guard.
                    if instance in cache:
                        cache.evict(instance)
                    if interrupt.cause == "primary-gpu-failed":
                        return "orphaned"
                finally:
                    self._provisions.pop(gpu_index, None)
            # Either too few healthy peers to even start, or the parallel
            # provision just aborted: serve the request on the degraded
            # single-GPU plan instead of dropping it.
            fallback = self._fallback_for(instance)
            instance.active_plan = fallback
            cache.admit(instance)
            yield from plan_generator(
                self.machine, self.planner.cost_model, fallback,
                gpu_index, (), detailed_traces=self.config.detailed_traces)
            for listener in self.listeners:
                listener.cold_start_degraded(self, request)
            return "degraded"
        cache.admit(instance)
        yield from plan_generator(
            self.machine, self.planner.cost_model, plan, gpu_index,
            self._cold_start_secondaries(instance),
            detailed_traces=self.config.detailed_traces)
        return "ok"

    def _healthy_secondaries(self, instance: ModelInstance
                             ) -> list[int] | None:
        """The plan's peer-GPU set, or ``None`` when too few are healthy.

        A peer qualifies when its GPU is alive and both links the
        provision would cross (its PCIe lane and the NVLink back to the
        primary) sit at or above the degraded-link threshold.
        """
        needed = instance.plan.num_partitions - 1
        primary = instance.home_gpu
        threshold = self.config.degraded_link_threshold
        machine = self.machine
        healthy = []
        for peer in self._secondaries[primary]:
            gpu = machine.gpus[peer]
            if gpu.failed:
                continue
            nvlink = machine.nvlinks[(peer, primary)]
            if nvlink.bandwidth < nvlink.nominal_bandwidth * threshold:
                continue
            lane = gpu.pcie_lane
            if lane.bandwidth < lane.nominal_bandwidth * threshold:
                continue
            healthy.append(peer)
            if len(healthy) == needed:
                return healthy
        return None

    def _provision_links(self, primary: int,
                         secondaries: typing.Sequence[int]
                         ) -> frozenset[Link]:
        """Every link a parallel provision depends on (abort triggers)."""
        links = set(self.machine.pcie_path(primary))
        for secondary in secondaries:
            links.update(self.machine.pcie_path(secondary))
            links.add(self.machine.nvlinks[(secondary, primary)])
        return frozenset(links)

    def _fallback_for(self, instance: ModelInstance) -> ExecutionPlan:
        plan = instance.plan
        if plan.fallback is not None:
            return plan.fallback
        fallback = self._fallback_plans.get(plan.model.name)
        if fallback is None:
            fallback = self.planner.plan(plan.model, Strategy.DHA,
                                         batch_size=plan.batch_size)
            self._fallback_plans[plan.model.name] = fallback
        return fallback
