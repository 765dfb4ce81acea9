"""The cluster: fleet construction, placement, dispatch, and reporting.

One :class:`~repro.simkit.sim.Simulator` drives every machine, so
cross-machine coordination (routing, retries, failover, autoscaling) is
ordinary event scheduling — no wall-clock races to reason about.

Request lifecycle:

1. the request driver (:class:`~repro.serving.server.Driver`, shared
   with ``InferenceServer.run`` and the load generator) stamps
   ``submitted_at`` with the request's intended arrival and calls
   :meth:`Cluster.submit`, which hands it to the
   :class:`~repro.cluster.router.Router`;
2. the chosen machine's :class:`~repro.serving.server.InferenceServer`
   queues and serves it; the cluster listens to every server's outcomes
   (``request_completed`` settles the router's backlog charge and
   records cluster-wide metrics) and reports each terminal outcome —
   completed, shed or dropped — to its own ``listeners``;
3. if the machine crashes first (a
   :class:`~repro.cluster.faults.FaultInjector` event running
   :meth:`ClusterMachine.crash <repro.cluster.machine.ClusterMachine.crash>`),
   the request is orphaned, its router charge settled, and it is retried
   on a surviving replica after exponential backoff, up to
   ``max_retries`` times; beyond that it is *dropped* — recorded,
   counted, and (under audit) proven to terminate the request's
   lifecycle exactly once.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig, ScalingEvent
from repro.cluster.faults import (
    DEVICE_FAULT_ACTIONS,
    FaultEvent,
    FaultInjector,
)
from repro.cluster.machine import ClusterMachine, MachineState
from repro.cluster.router import ROUTING_POLICIES, GlobalLedger, Placement, Router
from repro.core.deepplan import DeepPlan, Strategy
from repro.errors import WorkloadError
from repro.hw.machine import Machine
from repro.hw.specs import MachineSpec
from repro.models.graph import ModelSpec
from repro.serving.metrics import DEFAULT_SLO, MetricsCollector, RequestRecord
from repro.serving.server import (
    Driver,
    InferenceServer,
    OutcomeListener,
    ServerConfig,
)
from repro.serving.workload import Request
from repro.simkit import Event, Simulator
from repro.units import MS

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.audit.cluster import ClusterAuditor

__all__ = ["Cluster", "ClusterConfig", "ClusterReport", "MachineStats"]


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Fleet-level configuration."""

    #: Base fleet size (always-active machines).
    num_machines: int = 2
    #: Reserve machines the autoscaler may activate.
    num_standby: int = 0
    #: Replicas per logical instance across the base fleet.
    replication: int = 1
    #: Routing policy: round-robin, least-loaded, or affinity.
    policy: str = "affinity"
    strategy: "Strategy | str" = Strategy.PT_DHA
    slo: float = DEFAULT_SLO
    #: Warm the base fleet's caches before traffic (the paper's warm-up).
    prewarm: bool = True
    #: Failed dispatch attempts beyond the first before a request drops.
    max_retries: int = 3
    #: Base delay before a retry; doubles per subsequent failure.
    retry_backoff: float = 5 * MS
    #: Prove exactly-once request accounting across machine failures.
    audit: bool = False
    autoscale: AutoscalerConfig | None = None
    #: Per-request latency deadline; when set, servers shed requests
    #: whose predicted queue + service time would blow past it.
    deadline: float | None = None
    #: Seconds the router avoids routing cold starts to a machine after a
    #: degraded or aborted provision there (0 disables the breaker).
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise WorkloadError(
                f"need at least one machine, got {self.num_machines}")
        if self.num_standby < 0:
            raise WorkloadError(
                f"num_standby must be >= 0, got {self.num_standby}")
        if self.replication < 1:
            raise WorkloadError(
                f"replication must be >= 1, got {self.replication}")
        if self.replication > self.num_machines:
            raise WorkloadError(
                f"replication {self.replication} exceeds the base fleet "
                f"of {self.num_machines} machine(s)")
        if self.policy not in ROUTING_POLICIES:
            raise WorkloadError(
                f"unknown routing policy {self.policy!r}; options: "
                f"{', '.join(ROUTING_POLICIES)}")
        if self.max_retries < 0:
            raise WorkloadError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff <= 0:
            raise WorkloadError(
                f"retry_backoff must be positive, got {self.retry_backoff}")
        if self.deadline is not None and self.deadline <= 0:
            raise WorkloadError(
                f"deadline must be positive, got {self.deadline}")
        if self.breaker_cooldown < 0:
            raise WorkloadError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}")


@dataclasses.dataclass(frozen=True)
class MachineStats:
    """Per-machine breakdown for the cluster report.

    Every field covers the same runs as the report's ledger: all of
    them, from the cluster's first :meth:`Cluster.run` on.
    """

    name: str
    state: str
    served: int
    p99: float | None
    cold_start_rate: float
    busy_time: float
    #: GPU busy time over (summed run duration x GPU count).
    utilization: float
    crashes: int


@dataclasses.dataclass
class ClusterReport:
    """Outcome of a cluster's runs so far: ``metrics`` and ``ledger``
    are the cluster's own, and every field is cumulative over every
    :meth:`Cluster.run` (``duration`` sums the runs' durations)."""

    metrics: MetricsCollector
    per_machine: list[MachineStats]
    dropped: list[Request]
    ledger: GlobalLedger
    duration: float
    scaling_events: list[ScalingEvent]
    fault_log: list[tuple[FaultEvent, bool]]
    #: Plan-cache counters of the fleet's shared planner (zero when the
    #: planner runs without a cache).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Requests shed at admission because their deadline was unmeetable.
    shed: list[Request] = dataclasses.field(default_factory=list)
    #: Cold starts completed on the degraded fallback plan.
    degraded_cold_starts: int = 0
    #: Parallel transmissions aborted by a device/link fault.
    aborted_provisions: int = 0

    @property
    def completed(self) -> int:
        return len(self.metrics.records)

    @property
    def submitted(self) -> int:
        return self.ledger.submitted

    @property
    def retries(self) -> int:
        return self.ledger.retries

    def summary(self) -> dict[str, float]:
        data = {
            "submitted": float(self.submitted),
            "completed": float(self.completed),
            "dropped": float(len(self.dropped)),
            "retries": float(self.retries),
            "machines": float(len(self.per_machine)),
            "crashes": float(sum(m.crashes for m in self.per_machine)),
            "plan_cache_hits": float(self.plan_cache_hits),
            "plan_cache_misses": float(self.plan_cache_misses),
        }
        # Degradation keys appear only when the run actually exercised
        # them, so fault-free summaries stay byte-identical.
        if self.shed:
            data["shed"] = float(len(self.shed))
        if self.degraded_cold_starts:
            data["degraded_cold_starts"] = float(self.degraded_cold_starts)
        if self.aborted_provisions:
            data["aborted_provisions"] = float(self.aborted_provisions)
        if self.metrics.records:
            data.update(
                p99_ms=self.metrics.p99_latency / MS,
                goodput=self.metrics.goodput,
                cold_start_rate=self.metrics.cold_start_rate,
            )
        return data


class Cluster(OutcomeListener):
    """A fleet of serving machines behind one router, on one simulator.

    Listens to every machine's server and reports each terminal outcome
    to its own ``listeners``.
    """

    def __init__(self, spec: MachineSpec,
                 config: ClusterConfig = ClusterConfig(),
                 planner: DeepPlan | None = None) -> None:
        self.spec = spec
        self.config = config
        self.sim = Simulator()
        # One planner for the (homogeneous) fleet: plans are
        # machine-shape-specific, so every machine shares them.
        self.planner = planner if planner is not None else DeepPlan(spec)
        server_config = ServerConfig(strategy=config.strategy,
                                     slo=config.slo, prewarm=False,
                                     deadline=config.deadline,
                                     audit=config.audit)
        self.machines: list[ClusterMachine] = []
        for index in range(config.num_machines + config.num_standby):
            standby = index >= config.num_machines
            machine = Machine(self.sim, spec)
            server = InferenceServer(machine, self.planner, server_config)
            self.machines.append(ClusterMachine(
                name=f"m{index}", machine=machine, server=server,
                state=(MachineState.STANDBY if standby
                       else MachineState.ACTIVE),
                standby_origin=standby))
        self._by_name = {cm.name: cm for cm in self.machines}
        self._by_server = {cm.server: cm for cm in self.machines}
        self.router = Router(self.machines, config.policy,
                             clock=lambda: self.sim.now,
                             breaker_cooldown=config.breaker_cooldown)
        self.metrics = MetricsCollector(slo=config.slo)
        self.ledger = GlobalLedger()  # cumulative over every run
        self.placement = Placement(
            [cm.name for cm in self.machines if not cm.standby_origin],
            config.replication)
        self.autoscaler = (Autoscaler(self, config.autoscale)
                           if config.autoscale is not None else None)
        self.auditor: "ClusterAuditor | None" = None
        if config.audit:
            from repro.audit.cluster import ClusterAuditor
            self.auditor = ClusterAuditor(self)
        #: Logical instance name -> model, in deployment order.
        self._instance_models: dict[str, ModelSpec] = {}
        self.dropped: list[Request] = []
        self.shed: list[Request] = []
        #: Summed duration and fault log of every run so far.
        self._run_time = 0.0
        self._fault_log: list[tuple[FaultEvent, bool]] = []
        #: Subscribers to cluster-level terminal outcomes (a run's
        #: :class:`~repro.serving.server.Driver` registers here).
        self.listeners: list[OutcomeListener] = []
        for cm in self.machines:
            cm.server.listeners.append(self)

    # -- placement -------------------------------------------------------------------

    @property
    def instance_names(self) -> list[str]:
        return list(self._instance_models)

    @property
    def retries(self) -> int:
        return self.ledger.retries

    def machine(self, name: str) -> ClusterMachine:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkloadError(f"no machine {name!r} in the cluster") \
                from None

    def deploy(self, catalog: typing.Sequence[tuple[ModelSpec, int]]
               ) -> list[str]:
        """Place ``count`` logical instances of each model on the fleet.

        Every logical instance ``model#k`` gets ``config.replication``
        replicas on the base fleet, placed by the cluster's one
        :class:`~repro.cluster.router.Placement`.  Returns the new
        logical instance names.
        """
        created = []
        for model, count in catalog:
            for name in self.placement.place(model.name, count):
                for machine_name in self.placement.replicas[name]:
                    self._by_name[machine_name].server.deploy_instance(
                        model, name)
                self._instance_models[name] = model
                created.append(name)
        return created

    # -- fleet transitions -------------------------------------------------------------

    def activate_standby(self) -> ClusterMachine | None:
        """Turn the next standby active, deploying the full catalog on it.

        The new machine's GPUs are cold: its first request per instance
        pays the provision penalty, which is why the affinity policy only
        spills there once warm backlogs exceed that penalty.
        """
        for cm in self.machines:
            if cm.state is MachineState.STANDBY:
                for name, model in self._instance_models.items():
                    if not cm.has_replica(name):
                        cm.server.deploy_instance(model, name)
                cm.state = MachineState.ACTIVE
                return cm
        return None

    def drain_activated_standby(self) -> ClusterMachine | None:
        """Start draining the most recently activated standby machine."""
        candidates = [cm for cm in self.machines
                      if cm.state is MachineState.ACTIVE and cm.standby_origin]
        if not candidates:
            return None
        cm = candidates[-1]
        cm.state = MachineState.DRAINING
        self.sim.process(self._drain_process(cm), name=f"drain-{cm.name}")
        return cm

    def _drain_process(self, cm: ClusterMachine
                       ) -> typing.Generator[Event, object, None]:
        yield cm.server.drain()
        if cm.state is not MachineState.DRAINING:
            return  # a crash interrupted the drain
        cm.state = MachineState.STANDBY
        cm.server.resume()

    # -- signals ---------------------------------------------------------------------

    def windowed_p99(self, window: float,
                     min_requests: int = 1) -> float | None:
        """p99 latency over the trailing *window* seconds of completions.

        Returns ``None`` when fewer than *min_requests* completions fall
        in the window (the signal is too noisy to act on).
        """
        cutoff = self.sim.now - window
        # metrics.records is append-ordered, which is *nearly* but not
        # reliably finished_at-ordered: a retried or merged request is
        # recorded when its completion is reported, which can be after a
        # later-finishing one.  Breaking at the first stale record would
        # silently truncate the window, so the scan filters the whole
        # list instead.
        latencies = [record.latency for record in self.metrics.records
                     if record.finished_at >= cutoff]
        if len(latencies) < min_requests:
            return None
        return float(numpy.percentile(latencies, 99))

    # -- running ---------------------------------------------------------------------

    def start(self) -> None:
        """Start workers and prewarm the active fleet (idempotent).

        :meth:`run` does this itself.  Externally driven sessions — the
        load generator (:mod:`repro.loadgen`) — call this once up front
        and then :meth:`submit` at will.
        """
        for cm in self.machines:
            cm.server.start()
            if cm.state is MachineState.ACTIVE and self.config.prewarm:
                cm.server.prewarm()

    def submit(self, request: Request) -> bool:
        """Admit one request: stamp ``submitted_at`` when unset and route it.

        Always returns ``True`` — cluster-level terminal outcomes
        (completion, shed, drop) are asynchronous and reported to
        ``listeners``.
        """
        if request.submitted_at is None:
            request.submitted_at = self.sim.now
        self.ledger.submitted += 1
        if self.auditor is not None:
            self.auditor.on_submit(request)
        self._dispatch(request)
        return True

    def run(self, requests: typing.Sequence[Request],
            fault_schedule: typing.Sequence[FaultEvent] = ()
            ) -> ClusterReport:
        """Serve *requests* to termination (completed, shed or dropped);
        the report is cumulative over every run on this cluster."""
        driver = Driver.replay(self, requests)
        watch = any(event.action in DEVICE_FAULT_ACTIONS
                    for event in fault_schedule)
        for cm in self.machines:
            cm.server.watch_device_faults = watch
        self.start()
        # The fault injector and autoscaler start before the driver's
        # arrival process, which fixes their order at shared instants.
        injector = FaultInjector(self, fault_schedule) \
            if fault_schedule else None
        if injector is not None:
            self.sim.process(injector.process(), name="fault-injector")
        if self.autoscaler is not None:
            self.sim.process(self.autoscaler.process(), name="autoscaler")
        start_time = self.sim.now
        driver.run()
        self._run_time += self.sim.now - start_time
        if self.autoscaler is not None:
            self.autoscaler.stop()
        # Run the simulator dry: phantom executions, pending recoveries
        # and drains finish, so the audit sees a quiesced fleet.
        self.sim.run()
        if self.auditor is not None:
            self.auditor.check_quiesce()
        if injector is not None:
            self._fault_log.extend(injector.log)
        return self._build_report()

    def _dispatch(self, request: Request) -> None:
        machine = self.router.route(request)
        if machine is None:
            # Every replica is down or draining: count a failed attempt
            # and back off — a recovery may land before retries run out.
            self._attempt_failed(request, "unroutable")
            return
        if self.auditor is not None:
            self.auditor.on_dispatch(request, machine.name)
        machine.server.submit(request)

    def _attempt_failed(self, request: Request, where: str) -> None:
        if self.auditor is not None:
            self.auditor.on_failure(request, where)
        delay = self.ledger.attempt_failed(
            request.request_id, self.config.max_retries,
            self.config.retry_backoff)
        if delay is None:
            self.dropped.append(request)
            self.metrics.record_dropped()
            if self.auditor is not None:
                self.auditor.on_drop(request)
            for listener in self.listeners:
                listener.request_dropped(self, request)
            return
        self.sim.process(self._retry_process(request, delay),
                         name=f"retry{request.request_id}")

    def _retry_process(self, request: Request, delay: float
                       ) -> typing.Generator[Event, object, None]:
        yield self.sim.timeout(delay)
        self._dispatch(request)

    def orphaned(self, cm: ClusterMachine, request: Request,
                 where: str) -> None:
        """Settle a request *cm* lost, then retry it (the fault-target hook)."""
        self.router.routing.settle(cm.name, request.request_id)
        self._attempt_failed(request, where)

    # -- server outcomes ---------------------------------------------------------------

    def request_completed(self, source: object, request: Request,
                          record: RequestRecord) -> None:
        cm = self._by_server[source]
        self.router.routing.settle(cm.name, request.request_id)
        self.ledger.completed += 1
        self.metrics.record(record)
        if self.auditor is not None:
            self.auditor.on_complete(request, cm.name)
        for listener in self.listeners:
            listener.request_completed(self, request, record)

    def request_orphaned(self, source: object, request: Request) -> None:
        cm = self._by_server[source]
        self.orphaned(cm, request, cm.name)

    def request_shed(self, source: object, request: Request) -> None:
        # Shedding is terminal: the deadline is already unmeetable here,
        # and a retry elsewhere would only add queueing delay.
        cm = self._by_server[source]
        self.router.routing.settle(cm.name, request.request_id)
        self.ledger.shed += 1
        self.shed.append(request)
        self.metrics.record_shed()
        if self.auditor is not None:
            self.auditor.on_shed(request, cm.name)
        for listener in self.listeners:
            listener.request_shed(self, request)

    def cold_start_degraded(self, source: object, request: Request) -> None:
        self.router.trip(self._by_server[source].name)

    # -- reporting -------------------------------------------------------------------

    def _build_report(self) -> ClusterReport:
        duration = self._run_time
        per_machine = []
        for cm in self.machines:
            server = cm.server
            gpu_seconds = duration * len(cm.machine.gpus)
            has_records = bool(server.metrics.records)
            per_machine.append(MachineStats(
                name=cm.name,
                state=cm.state.value,
                served=server.requests_served,
                p99=server.metrics.p99_latency if has_records else None,
                cold_start_rate=(server.metrics.cold_start_rate
                                 if has_records else 0.0),
                busy_time=server.busy_time,
                utilization=(server.busy_time / gpu_seconds
                             if gpu_seconds > 0 else 0.0),
                crashes=cm.crashes,
            ))
        plan_cache = self.planner.plan_cache
        return ClusterReport(
            metrics=self.metrics,
            per_machine=per_machine,
            dropped=list(self.dropped),
            ledger=self.ledger,
            duration=duration,
            scaling_events=(list(self.autoscaler.events)
                            if self.autoscaler is not None else []),
            fault_log=list(self._fault_log),
            plan_cache_hits=plan_cache.hits if plan_cache is not None else 0,
            plan_cache_misses=(plan_cache.misses
                               if plan_cache is not None else 0),
            shed=list(self.shed),
            degraded_cold_starts=self.metrics.degraded_cold_starts,
            aborted_provisions=sum(cm.server.aborted_provisions
                                   for cm in self.machines),
        )
