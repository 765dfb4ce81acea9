"""Cluster request accounting, shared by :class:`~repro.cluster.cluster.Cluster`
and :class:`~repro.shard.broker.EpochBroker`: :class:`Placement`,
:class:`RoutingPolicy`, and :class:`GlobalLedger` with its retry ladder.

Routing policies, in increasing awareness of serving economics:

* ``round-robin`` — rotate over replicas, blind to load and residency;
* ``least-loaded`` — fewest outstanding requests wins;
* ``affinity`` — cache-affinity with cold-start-aware spill.  Each
  machine's score is its estimated backlog (``pending_cost``) plus what
  *this* request would cost there: the plan's predicted warm latency if
  the instance is GPU-resident, the full predicted cold-start latency if
  not.  A warm replica therefore keeps its traffic until its backlog
  exceeds the planner's
  :attr:`~repro.core.plan.ExecutionPlan.provision_penalty`, at which
  point spilling to a cold machine is predicted cheaper than queueing —
  the routing-level analogue of the paper's cold-start/latency trade-off.

:class:`RoutingPolicy` is the one implementation of these policies, the
``(score, machine name)`` tie-break, the round-robin cursor, the
warm-vs-cold service estimate and the backlog book the affinity score
reads.  Two callers feed it a load view — one ``(name, outstanding,
warm, plan)`` row per candidate, in name order: :class:`Router`
from a cluster's live machines, and
:class:`~repro.shard.broker.EpochBroker` from the snapshots shards
report at epoch boundaries.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.machine import ClusterMachine
from repro.core.plan import ExecutionPlan
from repro.errors import WorkloadError
from repro.serving.workload import Request

__all__ = ["GlobalLedger", "Placement", "ROUTING_POLICIES", "Router",
           "RoutingPolicy"]

ROUTING_POLICIES = ("round-robin", "least-loaded", "affinity")


class Placement:
    """Round-robin replica placement: logical instance ``model#k``, the
    ``slot``-th deployed, gets replicas on machines ``slot``,
    ``slot + 1``, ... modulo the fleet (so on distinct machines)."""

    def __init__(self, machine_names: typing.Sequence[str],
                 replication: int) -> None:
        self.machine_names = tuple(machine_names)
        self.replication = replication
        #: instance name -> model name / replica machines, in deploy order.
        self.models: dict[str, str] = {}
        self.replicas: dict[str, list[str]] = {}

    def place(self, model_name: str, count: int) -> list[str]:
        """Place ``count`` more instances of one model; their names."""
        if count < 1:
            raise WorkloadError(f"instance count must be >= 1, got {count}")
        names = self.machine_names
        start = sum(model == model_name for model in self.models.values())
        created = [f"{model_name}#{k}" for k in range(start, start + count)]
        for instance in created:
            slot = len(self.models)
            self.models[instance] = model_name
            self.replicas[instance] = [names[(slot + r) % len(names)]
                                       for r in range(self.replication)]
        return created


@dataclasses.dataclass
class GlobalLedger:
    """Cluster-wide request outcome counters and the failed-attempt ladder."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    dropped: int = 0
    retries: int = 0
    failures: int = 0
    #: Failed attempts so far, per request id.
    attempts: dict[int, int] = dataclasses.field(default_factory=dict,
                                                 repr=False)

    def attempt_failed(self, request_id: int, max_retries: int,
                       retry_backoff: float) -> float | None:
        """Count a failed attempt: the delay before the request's retry
        (``retry_backoff`` doubled per earlier failure), or ``None`` once
        its failures exceed *max_retries* and it drops."""
        self.failures += 1
        failed = self.attempts[request_id] = \
            self.attempts.get(request_id, 0) + 1
        if failed > max_retries:
            self.dropped += 1
            return None
        self.retries += 1
        return retry_backoff * (2 ** (failed - 1))


class RoutingPolicy:
    """One routing policy plus the per-dispatch backlog book it scores."""

    def __init__(self, policy: str,
                 machine_names: typing.Iterable[str]) -> None:
        if policy not in ROUTING_POLICIES:
            raise WorkloadError(
                f"unknown routing policy {policy!r}; options: "
                f"{', '.join(ROUTING_POLICIES)}")
        self.policy = policy
        self.cursor = 0
        #: Estimated seconds of queued + in-flight service per machine,
        #: the affinity score's backlog (charged on dispatch, settled on
        #: completion or failure).
        self.pending_cost = {name: 0.0 for name in machine_names}
        #: Outstanding charge per (machine, request) dispatch, so settles
        #: subtract exactly what was charged even if residency changed.
        self._charges: dict[tuple[str, int], float] = {}

    def choose(self, request_id: int,
               view: typing.Sequence[tuple[str, int, bool, ExecutionPlan]]
               ) -> int:
        """Index of the candidate that serves *request_id*.

        *view* holds one ``(name, outstanding, warm, plan)`` row per
        candidate, at least one, in name order.  Under ``affinity`` the
        chosen machine is charged the request's predicted service time.
        """
        if self.policy == "round-robin":
            index = self.cursor % len(view)
            self.cursor += 1
            return index
        if self.policy == "least-loaded":
            return min([(outstanding, name, i) for i, (name, outstanding, _, _)
                        in enumerate(view)])[2]
        # Backlog plus this request's predicted service time: the plan's
        # warm latency if the instance is resident there, else cold.
        pending = self.pending_cost
        _, name, cost, index = min([
            (pending[name] + (cost := plan.predicted_warm_latency if warm
                              else plan.predicted_latency), name, cost, i)
            for i, (name, _, warm, plan) in enumerate(view)])
        self._charges[(name, request_id)] = cost
        pending[name] += cost
        return index

    def settle(self, machine_name: str, request_id: int) -> None:
        """Remove a dispatch's backlog charge (completion or failure)."""
        cost = self._charges.pop((machine_name, request_id), 0.0)
        self.pending_cost[machine_name] = max(
            0.0, self.pending_cost[machine_name] - cost)


class Router:
    """Replica selection over a cluster's live machines."""

    def __init__(self, machines: typing.Sequence[ClusterMachine],
                 policy: str = "affinity",
                 clock: typing.Callable[[], float] | None = None,
                 breaker_cooldown: float = 0.0) -> None:
        if breaker_cooldown < 0:
            raise WorkloadError(
                f"breaker cooldown must be >= 0, got {breaker_cooldown}")
        self.routing = RoutingPolicy(policy, (m.name for m in machines))
        # Name order is the policies' candidate order.
        self.machines = sorted(machines, key=lambda m: m.name)
        #: Circuit breaker over cold-start routing: a tripped machine (one
        #: with a recent degraded/aborted provision) receives no requests
        #: that would cold-start there for ``breaker_cooldown`` seconds,
        #: unless no alternative replica exists.  Disabled when no clock
        #: is supplied or the cooldown is zero.
        self._clock = clock
        self.breaker_cooldown = breaker_cooldown
        self.breaker_trips = 0
        self._breaker_until: dict[str, float] = {}

    def trip(self, machine_name: str) -> None:
        """Open the cold-start circuit breaker for one machine."""
        if self._clock is None or self.breaker_cooldown <= 0:
            return
        self.breaker_trips += 1
        self._breaker_until[machine_name] = (self._clock()
                                             + self.breaker_cooldown)

    def breaker_open(self, machine_name: str) -> bool:
        until = self._breaker_until.get(machine_name)
        if until is None:
            return False
        if typing.cast(typing.Callable, self._clock)() >= until:
            del self._breaker_until[machine_name]
            return False
        return True

    def route(self, request: Request) -> ClusterMachine | None:
        """Pick the replica for *request*, or ``None`` if none is up."""
        instance = request.instance_name
        candidates = [m for m in self.machines
                      if m.routable and m.has_replica(instance)]
        if not candidates:
            return None
        if self._breaker_until:
            # Breaker-open machines are skipped only for requests that
            # would cold-start there — warm replicas keep their traffic —
            # and only while a replica elsewhere can take the request.
            filtered = [m for m in candidates
                        if m.server.is_warm(instance)
                        or not self.breaker_open(m.name)]
            if filtered:
                candidates = filtered
        return candidates[self.routing.choose(request.request_id, [
            (m.name, m.server.outstanding, m.server.is_warm(instance),
             m.server.plan_of(instance)) for m in candidates])]
