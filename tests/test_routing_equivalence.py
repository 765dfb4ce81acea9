"""The two load views fed into the one routing policy.

:meth:`repro.cluster.router.Router.route` routes live cluster machines;
:meth:`repro.shard.broker.EpochBroker._route` routes the snapshot views
shards report at epoch boundaries.  Both hand a load view — candidate
names, outstanding counts, warm flags and plans — to the same
:class:`~repro.cluster.router.RoutingPolicy`, so on the same fleet state
they must build the same view and pick the same machine.

Each seeded case draws a random fleet (replica placement, machines down,
outstanding counts, pending cost with deliberate ties, warm sets), loads
it into a real broker and into fake machines for the router, and
compares the views and choices request by request.  Round-robin
additionally keeps one cursor across the whole request sequence on both
sides.
"""

import dataclasses
import random

import pytest

from repro.cluster.router import Router
from repro.hw.specs import p3_8xlarge
from repro.serving.workload import Request
from repro.shard.broker import EpochBroker, PendingRequest
from repro.shard.protocol import MachineSnapshot

STRATEGY = "pt+dha"
MODELS = ("resnet50", "bert-base")
POLICIES = ["round-robin", "least-loaded", "affinity"]
REQUESTS_PER_SEED = 40


class _FakeServer:
    def __init__(self, plans, warm):
        self._plans = plans
        self.warm = warm
        self.outstanding = 0

    def plan_of(self, instance_name):
        return self._plans[instance_name]

    def is_warm(self, instance_name):
        return instance_name in self.warm


@dataclasses.dataclass
class _FakeMachine:
    """The slice of :class:`~repro.cluster.machine.ClusterMachine` the
    router reads."""

    name: str
    server: _FakeServer
    replicas: frozenset
    routable: bool = True

    def has_replica(self, instance_name):
        return instance_name in self.replicas


def _fleet(rng, policy):
    """A broker and a router over the same random placement."""
    names = [f"m{i}" for i in range(rng.randint(2, 6))]
    instance_models = {f"inst{k}": rng.choice(MODELS)
                       for k in range(rng.randint(1, 4))}
    replicas = {instance: rng.sample(names, rng.randint(1, len(names)))
                for instance in instance_models}
    broker = EpochBroker(
        p3_8xlarge(), policy, STRATEGY, instance_models, replicas, names,
        max_retries=2, retry_backoff=0.01, router_latency=0.001)
    # The fake servers serve the broker's own plan objects, so views
    # compare equal row for row: the broker plans in model-name order
    # and only the models placed, so its profiler noise can differ from
    # a cluster's; this test holds the views, not the planners, to each
    # other.
    instance_plans = {instance: broker._plans[model]
                      for instance, model in instance_models.items()}
    machines = []
    # Listed out of name order: the router must sort its candidates.
    for name in rng.sample(names, len(names)):
        held = frozenset(instance for instance, where in replicas.items()
                         if name in where)
        machines.append(_FakeMachine(
            name=name, server=_FakeServer(instance_plans, set()),
            replicas=held))
    return broker, Router(machines, policy=policy), machines, instance_plans


def _randomize_view(rng, broker, router, machines, instance_plans):
    """Draw one fleet state and install it on both sides."""
    warm_latencies = sorted({plan.predicted_warm_latency
                             for plan in instance_plans.values()})
    for machine in machines:
        up = rng.random() >= 0.25
        warm = {instance for instance in machine.replicas
                if rng.random() < 0.5}
        outstanding = rng.randint(0, 3)
        # A small value set makes equal scores, and so the name
        # tie-break, common.
        cost = rng.choice([0.0, 0.02] + warm_latencies)
        machine.routable = up
        machine.server.warm = warm
        machine.server.outstanding = outstanding
        router.routing.pending_cost[machine.name] = cost
        # The broker scores its own outstanding counts, not the ones
        # shards report, so the snapshot carries a decoy.
        broker.snapshots[machine.name] = MachineSnapshot(
            name=machine.name, state="active" if up else "down",
            warm=frozenset(warm), outstanding=rng.randint(0, 3))
        broker.outstanding[machine.name] = outstanding
        broker.routing.pending_cost[machine.name] = cost


def _record_views(routing):
    """Log every load view *routing* is asked to choose over."""
    views = []
    choose = routing.choose

    def spy(request_id, view):
        views.append((request_id, list(view)))
        return choose(request_id, view)

    routing.choose = spy
    return views


def _route_both(seed, policy):
    """Route one seeded request sequence on both sides; count outcomes."""
    rng = random.Random(seed)
    broker, router, machines, instance_plans = _fleet(rng, policy)
    router_views = _record_views(router.routing)
    broker_views = _record_views(broker.routing)
    instances = sorted(instance_plans)
    routed = unroutable = 0
    for request_id in range(REQUESTS_PER_SEED):
        _randomize_view(rng, broker, router, machines, instance_plans)
        instance = rng.choice(instances)
        expected = router.route(Request(
            request_id=request_id, instance_name=instance,
            arrival_time=0.0))
        actual = broker._route(PendingRequest(
            request_id=request_id, instance_name=instance,
            arrival_time=0.0, submitted_at=0.0, batch_size=1,
            qos="standard", ready=0.0))
        assert broker_views == router_views, (
            f"seed {seed} request {request_id}: load views differ")
        assert actual == (None if expected is None else expected.name), (
            f"seed {seed} request {request_id}: router chose "
            f"{expected and expected.name}, broker chose {actual}")
        assert broker.routing.pending_cost == router.routing.pending_cost
        if expected is None:
            unroutable += 1
        else:
            routed += 1
    assert broker.routing.cursor == router.routing.cursor
    return routed, unroutable


@pytest.mark.parametrize("policy", POLICIES)
def test_router_and_broker_choose_the_same_machine(policy, routing_seed):
    _route_both(routing_seed, policy)


def test_draw_exercises_both_outcomes():
    counts = [_route_both(seed, "affinity") for seed in range(10)]
    assert sum(routed for routed, _ in counts) > 0
    assert sum(unroutable for _, unroutable in counts) > 0
