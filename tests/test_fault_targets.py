"""The two fault-injector targets, pinned to their orphan handling.

The six fault transitions live once, on
:class:`~repro.cluster.machine.ClusterMachine`; what differs between the
targets is what happens to the requests a transition orphans.
:class:`~repro.cluster.cluster.Cluster` settles the router charge and
retries; :class:`~repro.shard.worker.ShardWorker` reports an
:class:`~repro.shard.protocol.AttemptFailure` to the broker.  Both must
name the fault the same way: the machine for a crash, ``<machine>/gpu<k>``
for a GPU failure.
"""

from repro.cluster import Cluster, ClusterConfig, FaultEvent
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.serving.workload import Request
from repro.shard import ShardConfig, ShardedReplay
from repro.shard.protocol import Delivery
from repro.shard.worker import ShardWorker


def test_cluster_settles_the_router_charge_before_retrying():
    cluster = Cluster(p3_8xlarge(), ClusterConfig(
        num_machines=1, replication=1, prewarm=False, audit=True,
        max_retries=8))
    [name] = cluster.deploy([(build_model("bert-base"), 1)])
    routing = cluster.router.routing
    seen = []
    retry = cluster._attempt_failed

    def spy(request, where):
        seen.append((where, ("m0", request.request_id) in routing._charges))
        retry(request, where)

    cluster._attempt_failed = spy
    schedule = [FaultEvent(0.002, "m0", "crash"),
                FaultEvent(0.003, "m0", "crash"),  # already down: skipped
                FaultEvent(0.050, "m0", "recover")]
    requests = [Request(request_id=i, instance_name=name, arrival_time=0.0)
                for i in range(3)]
    report = cluster.run(requests, fault_schedule=schedule)
    crash_orphans = [charged for where, charged in seen if where == "m0"]
    assert len(crash_orphans) == 3
    assert not any(crash_orphans)
    assert [applied for _, applied in report.fault_log] == [True, False, True]
    assert report.completed == 3
    assert not routing._charges


def test_shard_worker_reports_attempt_failures_where_the_fault_hit():
    replay = ShardedReplay(p3_8xlarge(), ClusterConfig(
        num_machines=2, replication=2, prewarm=False, breaker_cooldown=0.0),
        ShardConfig(num_shards=1))
    names = replay.deploy([("bert-base", 2)])
    schedule = [FaultEvent(0.002, "m0", "gpu_fail", gpu=1),
                FaultEvent(0.004, "m0", "crash")]
    [init] = replay._worker_inits(schedule)
    worker = ShardWorker(init)
    homes = worker.machine("m0").server.instances
    [on_gpu1] = [name for name in names if homes[name].home_gpu == 1]
    [elsewhere] = [name for name in names if name != on_gpu1]
    deliveries = [
        Delivery(request_id=request_id, instance_name=name,
                 machine_name="m0", arrival_time=0.0, submitted_at=0.0,
                 deliver_at=0.001, batch_size=1, qos="standard")
        for request_id, name in enumerate([on_gpu1, elsewhere])]
    outcome = worker.run_epoch(0.01, deliveries)
    assert [(f.request_id, f.time, f.where) for f in outcome.failures] == [
        (0, 0.002, "m0/gpu1"), (1, 0.004, "m0")]
    assert outcome.ledger.orphaned == 2
