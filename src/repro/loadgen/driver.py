"""The load-generator driver: open- and closed-loop traffic frontends.

The driver turns a traffic source's arrivals into requests and sends
them to a live serving target (an
:class:`~repro.serving.server.InferenceServer` or a
:class:`~repro.cluster.cluster.Cluster`) through the target's real
``submit()`` API, on the target's own simulator clock.  The sending is
the serving layer's :class:`~repro.serving.server.Driver`, the same
loop behind ``InferenceServer.run`` and ``Cluster.run``:

* **open loop** — arrivals fire at their *intended* times regardless of
  completion backpressure, and every request's ``submitted_at`` is preset
  to its intended arrival, so latency includes any queueing the system
  imposed.  This is the coordinated-omission-safe measurement, and it
  is exactly what ``run()`` does with the same requests.
* **closed loop** — a shared pool of ``clients`` connections: a request
  is sent only when a connection is free, and ``submitted_at`` is
  stamped at the actual send.  This reproduces the naive benchmark
  harness whose arrivals stall whenever the system stalls — intended
  load silently evaporates exactly when the tail blows up.

Run both against the same seed and the same target configuration and the
difference in reported p99 *is* the coordinated-omission gap.

The generator keeps its own :class:`~repro.serving.metrics.MetricsCollector`
(with shed/dropped accounting and a latency histogram) and per-QoS
histograms, so one serving target can be measured by several generator
runs without mixing results.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.cluster.cluster import Cluster
from repro.errors import WorkloadError
from repro.serving.metrics import MetricsCollector
from repro.serving.histogram import LatencyHistogram
from repro.serving.server import Driver, InferenceServer, OutcomeListener
from repro.serving.workload import Request

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.serving.metrics import RequestRecord

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


class LoadGen(OutcomeListener):
    """Drives one serving target with one traffic source.

    :meth:`run` turns the source's arrivals into requests and replays
    them through the serving layer's :class:`~repro.serving.server.Driver`
    (open loop, or closed loop behind a connection pool).  For the length
    of the run the generator listens to the target's outcomes too, to
    fill its own collector and per-QoS histograms.
    """

    def __init__(self, target: "InferenceServer | Cluster",
                 traffic: typing.Any, config: LoadGenConfig) -> None:
        if not isinstance(target, (InferenceServer, Cluster)):
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

    def run(self) -> LoadGenReport:
        """Drive the target until every offered request is terminal."""
        target = self.target
        config = self.config
        driver = Driver(target, self._requests(),
                        clients=config.clients
                        if config.mode == "closed" else None)
        metrics = self._metrics = MetricsCollector(slo=target.config.slo)
        self._by_qos = {}
        # A cluster's start() prewarms its active fleet itself.
        if isinstance(target, InferenceServer) and target.config.prewarm:
            target.prewarm()
        target.start()
        sim = target.sim
        start = sim.now
        driver.run(listeners=[self])
        if not driver.submitted:
            raise WorkloadError(
                f"traffic source produced no arrivals within "
                f"{config.duration} s")
        # Run the simulator dry so pending phantoms/retries/recoveries in
        # the target quiesce before anyone audits it.
        sim.run()
        return LoadGenReport(
            mode=config.mode,
            metrics=metrics,
            offered=driver.submitted,
            submitted=driver.submitted,
            completed=driver.completed,
            shed=driver.shed,
            dropped=driver.dropped,
            duration=sim.now - start,
            by_qos=dict(self._by_qos),
        )

    def _requests(self) -> typing.Iterator[Request]:
        """The traffic source's arrivals as requests, made as the driver
        sends them (a long trace is never held in memory at once)."""
        config = self.config
        known = set(self.target.instance_names)
        arrivals = self.traffic.arrivals(config.duration)
        if config.max_requests is not None:
            arrivals = itertools.islice(arrivals, config.max_requests)
        for request_id, arrival in enumerate(arrivals):
            if arrival.instance not in known:
                raise WorkloadError(
                    f"traffic targets unknown instance {arrival.instance!r}")
            yield Request(request_id=request_id,
                          instance_name=arrival.instance,
                          arrival_time=arrival.time,
                          batch_size=config.batch_size,
                          qos=arrival.qos)

    # -- terminal outcomes -------------------------------------------------------------

    def request_completed(self, source: object, request: Request,
                          record: "RequestRecord") -> None:
        assert self._metrics is not None
        self._metrics.record(record)
        qos_hist = self._by_qos.get(record.qos)
        if qos_hist is None:
            qos_hist = self._by_qos[record.qos] = LatencyHistogram()
        qos_hist.add(record.latency)

    def request_shed(self, source: object, request: Request) -> None:
        assert self._metrics is not None
        self._metrics.record_shed()

    def request_dropped(self, source: object, request: Request) -> None:
        assert self._metrics is not None
        self._metrics.record_dropped()
