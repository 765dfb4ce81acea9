"""The load-generator driver: open- and closed-loop traffic frontends.

The driver submits requests to a live serving target (an
:class:`~repro.serving.server.InferenceServer` or a
:class:`~repro.cluster.cluster.Cluster`) through the target's real
``submit()`` API, on the target's own simulator clock:

* **open loop** — arrivals fire at their *intended* times regardless of
  completion backpressure, and every request's ``submitted_at`` is preset
  to its intended arrival, so latency includes any queueing the system
  imposed.  This is the coordinated-omission-safe measurement.
* **closed loop** — a shared pool of ``clients`` connections: a request
  is sent only when a connection is free, and ``submitted_at`` is
  stamped at the actual send.  This reproduces the naive benchmark
  harness whose arrivals stall whenever the system stalls — intended
  load silently evaporates exactly when the tail blows up, which is the
  bias this PR exists to expose.

Run both against the same seed and the same target configuration and the
difference in reported p99 *is* the coordinated-omission gap.

The driver keeps its own :class:`~repro.serving.metrics.MetricsCollector`
(with shed/dropped accounting and a latency histogram), so one serving
target can be measured by several generator runs without mixing results.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.cluster.cluster import Cluster
from repro.errors import WorkloadError
from repro.loadgen.traffic import Arrival
from repro.serving.metrics import MetricsCollector
from repro.serving.histogram import LatencyHistogram
from repro.serving.server import InferenceServer, OutcomeListener
from repro.serving.workload import Request

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.serving.metrics import RequestRecord
    from repro.simkit import Event

__all__ = ["LoadGenConfig", "LoadGen", "LoadGenReport"]

MODES = ("open", "closed")


@dataclasses.dataclass(frozen=True)
class LoadGenConfig:
    """Knobs of one load-generation run."""

    #: Arrivals are generated over ``[0, duration)`` (seconds).
    duration: float
    #: "open" (arrivals fire on schedule) or "closed" (a connection pool
    #: gates sends on completions).
    mode: str = "open"
    #: Connection-pool size for closed-loop mode (ignored when open).
    clients: int = 4
    #: Optional cap on the number of arrivals taken from the traffic
    #: source (useful for smoke runs over long traces).
    max_requests: int | None = None
    #: Batch size stamped on every generated request; must match the
    #: batch size the target's plans were deployed with.
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError(
                f"duration must be positive, got {self.duration}")
        if self.mode not in MODES:
            raise WorkloadError(f"unknown mode {self.mode!r}; "
                                f"options: {', '.join(MODES)}")
        if self.clients < 1:
            raise WorkloadError(
                f"clients must be >= 1, got {self.clients}")
        if self.max_requests is not None and self.max_requests < 1:
            raise WorkloadError(
                f"max_requests must be >= 1, got {self.max_requests}")
        if self.batch_size < 1:
            raise WorkloadError(
                f"batch_size must be >= 1, got {self.batch_size}")


@dataclasses.dataclass
class LoadGenReport:
    """Outcome of one generator run against one target."""

    mode: str
    #: The driver's own collector: completion records, shed/dropped
    #: counters, and the run's latency histogram.
    metrics: MetricsCollector
    #: Arrivals taken from the traffic source.
    offered: int
    #: Requests handed to the target's ``submit()`` (== offered once the
    #: run finishes; shed-at-admission counts as submitted).
    submitted: int
    completed: int
    shed: int
    dropped: int
    #: Simulated seconds from the first arrival until the last terminal
    #: outcome.
    duration: float
    #: Per-QoS-class latency histograms over the completions.
    by_qos: dict[str, LatencyHistogram] = dataclasses.field(
        default_factory=dict)

    def summary(self) -> dict[str, float]:
        data = self.metrics.summary()
        data.update(offered=float(self.offered),
                    submitted=float(self.submitted),
                    duration=self.duration)
        return data


class _ServerTarget:
    """What differs when driving one InferenceServer."""

    def __init__(self, server: InferenceServer) -> None:
        self.server = server
        self.servers = [server]

    def instance_names(self) -> set[str]:
        return set(self.server.instances)

    def prepare(self) -> None:
        if self.server.config.prewarm:
            self.server.prewarm()
        self.server.start()


class _ClusterTarget:
    """What differs when driving a Cluster through its router."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.servers = [cm.server for cm in cluster.machines]

    def instance_names(self) -> set[str]:
        return set(self.cluster.instance_names)

    def prepare(self) -> None:
        self.cluster.start()


class LoadGen(OutcomeListener):
    """Drives one serving target with one traffic source.

    For the length of :meth:`run` the generator subscribes itself to the
    target's ``listeners`` to count each submitted request's terminal
    outcome (completed, shed, or — on a cluster — dropped).
    """

    def __init__(self, target: "InferenceServer | Cluster",
                 traffic: typing.Any, config: LoadGenConfig) -> None:
        if isinstance(target, InferenceServer):
            self._adapter: "_ServerTarget | _ClusterTarget" = \
                _ServerTarget(target)
        elif isinstance(target, Cluster):
            self._adapter = _ClusterTarget(target)
        else:
            raise WorkloadError(
                f"target must be an InferenceServer or Cluster, "
                f"got {type(target).__name__}")
        self.target = target
        if not hasattr(traffic, "arrivals"):
            raise WorkloadError(
                f"traffic source {type(traffic).__name__} has no "
                f"arrivals(duration) method")
        self.traffic = traffic
        self.config = config
        # -- per-run state --
        self._metrics: MetricsCollector | None = None
        self._by_qos: dict[str, LatencyHistogram] = {}
        self._in_flight = 0
        self._submitted = 0
        self._completed = 0
        self._shed = 0
        self._dropped = 0
        self._offered = 0
        self._generator_done = False
        self._done: "Event | None" = None
        self._slot: "Event | None" = None

    def run(self) -> LoadGenReport:
        """Drive the target until every offered request is terminal."""
        sim = self.target.sim
        metrics = self._metrics = MetricsCollector(
            slo=self.target.config.slo)
        self._by_qos = {}
        self._in_flight = self._submitted = 0
        self._completed = self._shed = self._dropped = self._offered = 0
        self._generator_done = False
        self._slot = None
        done = self._done = sim.event(name="loadgen-done")
        self._adapter.prepare()
        servers = self._adapter.servers
        prev_failure_events = [server.failure_event for server in servers]
        for server in servers:
            server.failure_event = done
        self.target.listeners.append(self)
        start = sim.now
        sim.process(self._traffic_process(start), name="loadgen")
        try:
            sim.run(done)
        finally:
            self.target.listeners.remove(self)
            for server, event in zip(servers, prev_failure_events):
                server.failure_event = event
            self._done = None
        # Run the simulator dry so pending phantoms/retries/recoveries in
        # the target quiesce before anyone audits it.
        sim.run()
        return LoadGenReport(
            mode=self.config.mode,
            metrics=metrics,
            offered=self._offered,
            submitted=self._submitted,
            completed=self._completed,
            shed=self._shed,
            dropped=self._dropped,
            duration=sim.now - start,
            by_qos=dict(self._by_qos),
        )

    # -- the traffic process ---------------------------------------------------------

    def _traffic_process(self, base: float
                         ) -> typing.Generator["Event", object, None]:
        sim = self.target.sim
        config = self.config
        known = self._adapter.instance_names()
        arrivals = self.traffic.arrivals(config.duration)
        if config.max_requests is not None:
            arrivals = itertools.islice(arrivals, config.max_requests)
        offered_any = False
        for request_id, arrival in enumerate(arrivals):
            offered_any = True
            self._offered += 1
            if arrival.instance not in known:
                self._fail(WorkloadError(
                    f"traffic targets unknown instance {arrival.instance!r}"))
                return
            due = base + arrival.time
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            if config.mode == "closed":
                # The connection pool: wait for a free client before
                # sending.  Intended arrivals that pass while we wait are
                # simply sent late — the omission the open loop avoids.
                while self._in_flight >= config.clients:
                    self._slot = sim.event(name="loadgen-slot")
                    yield self._slot
                    self._slot = None
            request = self._make_request(request_id, arrival)
            if config.mode == "open":
                # Latency is measured from the *intended* arrival, not
                # from whenever the harness got around to sending.
                request.submitted_at = due
            self._in_flight += 1
            self._submitted += 1
            try:
                self.target.submit(request)
            except Exception as error:
                self._fail(error)
                return
        if not offered_any:
            self._fail(WorkloadError(
                f"traffic source produced no arrivals within "
                f"{config.duration} s"))
            return
        self._generator_done = True
        self._check_done()

    def _make_request(self, request_id: int, arrival: Arrival) -> Request:
        return Request(request_id=request_id,
                       instance_name=arrival.instance,
                       arrival_time=arrival.time,
                       batch_size=self.config.batch_size,
                       qos=arrival.qos)

    def _fail(self, error: Exception) -> None:
        if self._done is not None and not self._done.triggered:
            self._done.fail(error)

    # -- terminal outcomes -------------------------------------------------------------

    def request_completed(self, source: object, request: Request,
                          record: "RequestRecord") -> None:
        assert self._metrics is not None
        self._metrics.record(record)
        qos_hist = self._by_qos.get(record.qos)
        if qos_hist is None:
            qos_hist = self._by_qos[record.qos] = LatencyHistogram()
        qos_hist.add(record.latency)
        self._completed += 1
        self._settle()

    def request_shed(self, source: object, request: Request) -> None:
        assert self._metrics is not None
        self._metrics.record_shed()
        self._shed += 1
        self._settle()

    def request_dropped(self, source: object, request: Request) -> None:
        assert self._metrics is not None
        self._metrics.record_dropped()
        self._dropped += 1
        self._settle()

    def _settle(self) -> None:
        self._in_flight -= 1
        if self._slot is not None and not self._slot.triggered:
            self._slot.succeed()
        self._check_done()

    def _check_done(self) -> None:
        if (self._generator_done and self._done is not None
                and not self._done.triggered
                and self._completed + self._shed + self._dropped
                >= self._submitted):
            self._done.succeed()
