"""The epoch broker: routing, retries and accounting at epoch boundaries.

In sharded replay the router stops being a live object on the machines'
simulator and becomes a message broker that only acts at epoch
boundaries.  It routes from :class:`~repro.shard.protocol.MachineSnapshot`
views (machine state, warm set, outstanding count) reported by the
shards at the previous horizon, feeds those views to the cluster's one
:class:`~repro.cluster.router.RoutingPolicy` (which keeps the backlog
book the affinity policy scores), and counts outcomes in the cluster's
one :class:`~repro.cluster.router.GlobalLedger`, whose retry/backoff/drop
ladder it applies to the failures shards report.

The broker's behavior is a pure function of the request sequence, the
fault schedule and the epoch grid — never of how machines are grouped
into shards — which is what lets the serial execution of this same
protocol serve as the differential oracle for the parallel one.

Route-ahead accounting: the broker routes epoch ``k+1`` *before*
ingesting epoch ``k``'s outcomes, so its outstanding charges
temporarily include deliveries no shard ledger has seen.
:meth:`EpochBroker.route_epoch` books each epoch's per-machine routed
counts into a preflight queue; :meth:`in_transit_for` /
:attr:`in_transit_total` expose the not-yet-ingested portion for the
conservation checks, and the coordinator calls :meth:`retire_epoch`
once an epoch's outcomes have been folded back in.

Scope: the epoch protocol covers the base fleet with the three routing
policies (round-robin, least-loaded, affinity).  Autoscaling, standby
activation and the cold-start circuit breaker are continuous-time
control loops on the single-simulator path and are deliberately not
replicated here — :class:`~repro.shard.replay.ShardedReplay` rejects
configurations that enable them.  The breaker is rejected only when
the fault schedule holds a device fault: it trips on degraded cold
starts, which nothing else can cause.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import typing

from repro.cluster.router import GlobalLedger, RoutingPolicy
from repro.core.deepplan import DeepPlan, Strategy
from repro.core.plan import ExecutionPlan
from repro.errors import WorkloadError
from repro.shard.supervision import ShardDeterminismError
from repro.models.zoo import build_model
from repro.serving.workload import Request
from repro.shard.protocol import Delivery, EpochOutcome, MachineSnapshot

__all__ = ["EpochBroker", "PendingRequest"]


@dataclasses.dataclass(frozen=True)
class PendingRequest:
    """A request waiting at the broker for its next dispatch boundary."""

    request_id: int
    instance_name: str
    arrival_time: float
    submitted_at: float
    batch_size: int
    qos: str
    #: Earliest time this request may be routed (its arrival, or the
    #: retry-backoff expiry after a failed attempt).
    ready: float


class EpochBroker:
    """Deterministic routing and conservation accounting for one replay."""

    def __init__(self, spec: typing.Any, policy: str,
                 strategy: "Strategy | str",
                 instance_models: typing.Mapping[str, str],
                 replicas: typing.Mapping[str, typing.Sequence[str]],
                 machine_names: typing.Sequence[str],
                 max_retries: int, retry_backoff: float,
                 router_latency: float) -> None:
        self.routing = RoutingPolicy(policy, machine_names)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.router_latency = router_latency
        #: instance name -> model name, and instance -> replica machines
        #: (sorted by name, the router's canonical candidate order).
        self._instance_models = dict(instance_models)
        self._replicas = {name: sorted(machines)
                          for name, machines in replicas.items()}
        self.ledger = GlobalLedger()
        # The broker regenerates plans with its own seeded planner, in
        # model-name order.  The profiler draws its noise in profiling
        # order, so these match the shards' plans only when the catalog
        # deploys in that order too; they feed routing scores alone.
        planner = DeepPlan(spec)
        parsed = Strategy.parse(strategy)
        self._plans: dict[str, ExecutionPlan] = {}
        for model_name in sorted(set(self._instance_models.values())):
            self._plans[model_name] = planner.plan(
                build_model(model_name), parsed)
        # -- mutable routing state --
        self._pending: list[tuple[float, int, PendingRequest]] = []
        self.snapshots: dict[str, MachineSnapshot] = {
            name: MachineSnapshot(name=name, state="active",
                                  warm=frozenset(), outstanding=0)
            for name in machine_names}
        #: Broker-side outstanding dispatches per machine (charged on
        #: dispatch, settled on completion/failure/shed) — reconciled
        #: against the shards' reported outstanding every epoch.
        self.outstanding = {name: 0 for name in machine_names}
        self._machine_of: dict[int, str] = {}
        #: request id -> the original intake entry (submitted_at and
        #: trace fields preserved across retries, so latency spans them).
        self._requests: dict[int, PendingRequest] = {}
        self.dropped: list[PendingRequest] = []
        #: One per-machine routed-count dict per epoch that has been
        #: routed but whose outcomes have not been ingested yet (the
        #: oldest entry is the epoch currently executing; anything
        #: newer is in transit — see :meth:`in_transit_for`).
        self._preflight: collections.deque[dict[str, int]] = \
            collections.deque()

    # -- intake ---------------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Accept one trace request; it becomes routable at its arrival.

        The request must name a placed instance
        (:meth:`~repro.serving.server.Driver.check_requests`).
        """
        self.ledger.submitted += 1
        pending = PendingRequest(
            request_id=request.request_id,
            instance_name=request.instance_name,
            arrival_time=request.arrival_time,
            # Latency is measured from the moment the request entered
            # the system, so epoch quantization of the dispatch counts
            # toward it rather than hiding inside the router.
            submitted_at=request.arrival_time,
            batch_size=request.batch_size,
            qos=request.qos,
            ready=request.arrival_time)
        if pending.request_id in self._requests:
            raise WorkloadError(
                f"duplicate request id {pending.request_id}")
        self._requests[pending.request_id] = pending
        self._enqueue(pending)

    def _enqueue(self, pending: PendingRequest) -> None:
        heapq.heappush(self._pending,
                       (pending.ready, pending.request_id, pending))

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def outstanding_total(self) -> int:
        return sum(self.outstanding.values())

    @property
    def next_ready(self) -> float:
        """Earliest time any pending request becomes routable."""
        return self._pending[0][0] if self._pending else float("inf")

    def done(self) -> bool:
        return not self._pending and self.outstanding_total == 0

    # -- route-ahead (preflight) accounting -------------------------------------------

    @property
    def in_transit_total(self) -> int:
        """Routed deliveries not yet visible in any shard ledger.

        The oldest preflight entry belongs to the epoch whose outcomes
        are ingested next, so everything *newer* is in transit.
        """
        rest = iter(self._preflight)
        next(rest, None)
        return sum(sum(bucket.values()) for bucket in rest)

    def in_transit_for(self, names: typing.Iterable[str]) -> int:
        """In-transit deliveries bound for the given machines."""
        names = tuple(names)
        rest = iter(self._preflight)
        next(rest, None)
        return sum(bucket.get(name, 0)
                   for bucket in rest for name in names)

    def retire_epoch(self) -> None:
        """Drop the oldest preflight entry: its outcomes are ingested."""
        self._preflight.popleft()

    # -- routing (the Router's policy, over snapshot views) ---------------------------

    def _route(self, pending: PendingRequest) -> str | None:
        instance = pending.instance_name
        plan = self._plans[self._instance_models[instance]]
        view = [(name, self.outstanding[name], instance in snapshot.warm, plan)
                for name in self._replicas[instance]
                if (snapshot := self.snapshots[name]).state == "active"]
        if not view:
            return None
        return view[self.routing.choose(pending.request_id, view)][0]

    def route_epoch(self, boundary: float) -> dict[str, list[Delivery]]:
        """Route everything ready at *boundary*; deliveries due later.

        Returns per-machine delivery lists in canonical
        ``(deliver_at, request_id)`` order.  Requests with no routable
        replica burn a failed attempt (mirroring the cluster's
        "unroutable" path) and re-enter the pending heap with backoff.
        Every call books one preflight entry (the epoch's per-machine
        routed counts) for the route-ahead accounting.
        """
        deliveries: dict[str, list[Delivery]] = {}
        bucket: dict[str, int] = {}
        batch: list[PendingRequest] = []
        while self._pending and self._pending[0][0] <= boundary:
            batch.append(heapq.heappop(self._pending)[2])
        for pending in batch:
            machine_name = self._route(pending)
            if machine_name is None:
                self._attempt_failed(pending, boundary)
                continue
            self.outstanding[machine_name] += 1
            bucket[machine_name] = bucket.get(machine_name, 0) + 1
            self._machine_of[pending.request_id] = machine_name
            deliveries.setdefault(machine_name, []).append(Delivery(
                request_id=pending.request_id,
                instance_name=pending.instance_name,
                machine_name=machine_name,
                arrival_time=pending.arrival_time,
                submitted_at=pending.submitted_at,
                deliver_at=boundary + self.router_latency,
                batch_size=pending.batch_size,
                qos=pending.qos))
        for machine_name in deliveries:
            deliveries[machine_name].sort(
                key=lambda d: (d.deliver_at, d.request_id))
        self._preflight.append(bucket)
        return deliveries

    # -- settlement -------------------------------------------------------------------

    def _settle(self, request_id: int) -> str:
        machine_name = self._machine_of.pop(request_id)
        self.routing.settle(machine_name, request_id)
        self.outstanding[machine_name] -= 1
        return machine_name

    def _attempt_failed(self, pending: PendingRequest, at: float) -> None:
        delay = self.ledger.attempt_failed(
            pending.request_id, self.max_retries, self.retry_backoff)
        if delay is None:
            self.dropped.append(pending)
        else:
            self._enqueue(dataclasses.replace(pending, ready=at + delay))

    def ingest(self, outcome: EpochOutcome) -> None:
        """Fold one shard's epoch outcome into the broker's books."""
        for completion in outcome.completions:
            self._settle(completion.record.request_id)
            self.ledger.completed += 1
        for shed in outcome.sheds:
            self._settle(shed.request_id)
            self.ledger.shed += 1
        for failure in outcome.failures:
            self._settle(failure.request_id)
            self._attempt_failed(self._requests[failure.request_id],
                                 failure.time)
        for snapshot in outcome.snapshots:
            self.snapshots[snapshot.name] = snapshot

    def check_shard(self, outcome: EpochOutcome) -> None:
        """Cross-check one shard's reported outstanding against ours.

        Runs *after* :meth:`ingest` for the epoch: the broker's charged
        dispatches for the shard's machines — minus the in-transit
        charges for epochs routed ahead, which the outcome predates —
        must match the servers' live outstanding plus deliveries
        scheduled past the horizon.
        """
        names = [snapshot.name for snapshot in outcome.snapshots]
        broker_side = (sum(self.outstanding[name] for name in names)
                       - self.in_transit_for(names))
        shard_side = (sum(snapshot.outstanding
                          for snapshot in outcome.snapshots)
                      + outcome.ledger.undelivered)
        if broker_side != shard_side:
            raise ShardDeterminismError(
                outcome.shard_id,
                f"outstanding mismatch at horizon {outcome.horizon}: "
                f"broker charges {broker_side}, shard reports "
                f"{shard_side}")
