"""The two routing implementations held to each other.

:meth:`repro.cluster.router.Router.route` routes live cluster machines;
:meth:`repro.shard.broker.EpochBroker._route` routes the snapshot views
shards report at epoch boundaries.  Both implement the same three
policies, so on the same load view they must pick the same machine.

Each seeded case draws a random fleet (replica placement, machines down,
outstanding counts, pending cost with deliberate ties, warm sets), loads
it into a real broker and into fake machines for the router, and
compares the choice request by request.  Round-robin additionally keeps
one cursor across the whole request sequence on both sides.
"""

import dataclasses
import random

import pytest

from repro.cluster.router import Router
from repro.core.deepplan import DeepPlan, Strategy
from repro.hw.specs import p3_8xlarge
from repro.models.zoo import build_model
from repro.serving.workload import Request
from repro.shard.broker import EpochBroker, PendingRequest
from repro.shard.protocol import MachineSnapshot

STRATEGY = "pt+dha"
MODELS = ("resnet50", "bert-base")
SEEDS = range(25)
REQUESTS_PER_SEED = 40


@pytest.fixture(scope="module")
def plans():
    planner = DeepPlan(p3_8xlarge())
    return {name: planner.plan(build_model(name), Strategy.parse(STRATEGY))
            for name in MODELS}


class _FakeServer:
    def __init__(self, plans, warm):
        self._plans = plans
        self.warm = warm

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
    outstanding: int = 0
    pending_cost: float = 0.0

    def has_replica(self, instance_name):
        return instance_name in self.replicas


def _fleet(rng, policy, plans):
    """A broker and a router over the same random placement."""
    names = [f"m{i}" for i in range(rng.randint(2, 6))]
    instance_models = {f"inst{k}": rng.choice(MODELS)
                       for k in range(rng.randint(1, 4))}
    replicas = {instance: rng.sample(names, rng.randint(1, len(names)))
                for instance in instance_models}
    broker = EpochBroker(
        p3_8xlarge(), policy, STRATEGY, instance_models, replicas, names,
        max_retries=2, retry_backoff=0.01, router_latency=0.001)
    instance_plans = {instance: plans[model]
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


def _randomize_view(rng, broker, machines, instance_plans):
    """Draw one load view and install it on both sides."""
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
        machine.outstanding = outstanding
        machine.pending_cost = cost
        broker.snapshots[machine.name] = MachineSnapshot(
            name=machine.name, state="active" if up else "down",
            warm=frozenset(warm), outstanding=outstanding)
        broker.outstanding[machine.name] = outstanding
        broker.pending_cost[machine.name] = cost


@pytest.mark.parametrize("policy",
                         ["round-robin", "least-loaded", "affinity"])
def test_router_and_broker_choose_the_same_machine(policy, plans):
    routed = unroutable = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        broker, router, machines, instance_plans = _fleet(rng, policy, plans)
        instances = sorted(instance_plans)
        for request_id in range(REQUESTS_PER_SEED):
            _randomize_view(rng, broker, machines, instance_plans)
            instance = rng.choice(instances)
            expected = router.route(Request(
                request_id=request_id, instance_name=instance,
                arrival_time=0.0))
            actual = broker._route(PendingRequest(
                request_id=request_id, instance_name=instance,
                arrival_time=0.0, submitted_at=0.0, batch_size=1,
                qos="standard", ready=0.0))
            assert actual == (None if expected is None else expected.name), (
                f"seed {seed} request {request_id}: router chose "
                f"{expected and expected.name}, broker chose {actual}")
            if expected is None:
                unroutable += 1
            else:
                routed += 1
        if policy == "round-robin":
            assert broker._rr_counter == router._rr_counter
    # The draw must exercise both outcomes.
    assert routed > 0 and unroutable > 0
