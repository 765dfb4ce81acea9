"""Wire-protocol round trips and route-ahead drive determinism.

Two properties of the route-ahead shard engine, pinned independently of
the end-to-end differential oracle:

* **wire level** — the columnar epoch/outcome encoding rebuilds the
  exact dataclasses the serial oracle passes around (float timestamps
  to the last bit, row order verbatim) and rejects frames from a
  different protocol generation outright;
* **drive level** — the drive streams epoch ``k+1``'s commands before
  epoch ``k``'s outcomes are in, so every shard count must still land
  on the 1-shard outcome signature, ledger and epoch count, with
  adaptive epochs on or off.  (Adaptive epochs define a *different*
  epoch grid than fixed ones, so comparisons are always same-mode.)

The process-backend case also doubles as the fd-leak regression test:
back-to-back replays must not accumulate pipe or sentinel descriptors.
The same backend boots its workers concurrently: every shard is
launched before the broker awaits any ``ready`` frame, and a worker
that dies during boot takes no process or descriptor with it.
"""

import dataclasses
import gc
import multiprocessing
import os

import numpy
import pytest

from repro.audit.shard import ShardLedger
from repro.errors import WorkloadError
from repro.hw.specs import p3_8xlarge
from repro.serving.metrics import RequestRecord
from repro.shard import ShardConfig, ShardedReplay, WorkerInternalError
from repro.shard.protocol import (
    WIRE_VERSION,
    AttemptFailure,
    Completion,
    Delivery,
    EpochOutcome,
    MachineSnapshot,
    ShedNotice,
    pack_epoch,
    pack_heartbeat,
    pack_outcome,
    unpack_epoch,
    unpack_heartbeat,
    unpack_outcome,
)
from repro.shard.replay import _ProcessShard
from repro.units import MS
from tests.test_shard_replay import random_scenario

MACHINES = tuple(f"m{i}" for i in range(5))
INSTANCES = tuple(f"model-{i}#{j}" for i in range(3) for j in range(2))
QOS = ("standard", "batch", "premium")


def random_delivery(rng) -> Delivery:
    return Delivery(
        request_id=int(rng.integers(0, 1 << 62)),
        instance_name=str(rng.choice(INSTANCES)),
        machine_name=str(rng.choice(MACHINES)),
        arrival_time=float(rng.uniform(0.0, 1e4)),
        submitted_at=float(rng.uniform(0.0, 1e4)),
        deliver_at=float(rng.uniform(0.0, 1e4)),
        batch_size=int(rng.integers(1, 64)),
        qos=str(rng.choice(QOS)))


def random_outcome(rng, rows: int) -> EpochOutcome:
    completions = [
        Completion(
            machine_name=str(rng.choice(MACHINES)),
            record=RequestRecord(
                request_id=int(rng.integers(0, 1 << 62)),
                instance_name=str(rng.choice(INSTANCES)),
                arrival_time=float(rng.uniform(0.0, 1e4)),
                submitted_at=float(rng.uniform(0.0, 1e4)),
                started_at=float(rng.uniform(0.0, 1e4)),
                finished_at=float(rng.uniform(0.0, 1e4)),
                cold_start=bool(rng.integers(2)),
                degraded=bool(rng.integers(2)),
                qos=str(rng.choice(QOS))))
        for _ in range(rows)]
    failures = [
        AttemptFailure(request_id=int(rng.integers(0, 1 << 62)),
                       time=float(rng.uniform(0.0, 1e4)),
                       where=str(rng.choice(MACHINES)))
        for _ in range(int(rng.integers(0, 4)))]
    sheds = [
        ShedNotice(request_id=int(rng.integers(0, 1 << 62)),
                   machine_name=str(rng.choice(MACHINES)),
                   time=float(rng.uniform(0.0, 1e4)))
        for _ in range(int(rng.integers(0, 4)))]
    snapshots = [
        MachineSnapshot(
            name=name,
            state=str(rng.choice(["active", "crashed", "recovering"])),
            warm=frozenset(
                str(s) for s in rng.choice(
                    INSTANCES, size=int(rng.integers(0, 4)),
                    replace=False)),
            outstanding=int(rng.integers(0, 1000)))
        for name in MACHINES[:int(rng.integers(1, len(MACHINES)))]]
    ledger = ShardLedger(
        shard_id=int(rng.integers(0, 8)),
        scheduled=int(rng.integers(0, 10_000)),
        delivered=int(rng.integers(0, 10_000)),
        completed=int(rng.integers(0, 10_000)),
        shed=int(rng.integers(0, 100)),
        orphaned=int(rng.integers(0, 100)))
    return EpochOutcome(
        shard_id=ledger.shard_id,
        horizon=float(rng.uniform(0.0, 1e4)),
        completions=completions,
        failures=failures,
        sheds=sheds,
        snapshots=snapshots,
        ledger=ledger)


class TestWireRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_epochs_round_trip_bit_exact(self, seed):
        rng = numpy.random.default_rng(seed)
        deliveries = [random_delivery(rng)
                      for _ in range(int(rng.integers(1, 40)))]
        horizon = float(rng.uniform(0.0, 1e4))
        got_horizon, got = unpack_epoch(pack_epoch(horizon, deliveries))
        # == on floats is bit-exact here: <f8> columns store the exact
        # IEEE-754 doubles, so any widening/narrowing would show up.
        assert got_horizon == horizon
        assert got == deliveries

    @pytest.mark.parametrize("seed", range(20))
    def test_random_outcomes_round_trip_bit_exact(self, seed):
        rng = numpy.random.default_rng(100 + seed)
        outcome = random_outcome(rng, rows=int(rng.integers(1, 40)))
        got = unpack_outcome(pack_outcome(outcome))
        assert got == outcome

    def test_empty_epoch_and_outcome(self):
        horizon, deliveries = unpack_epoch(pack_epoch(0.25, []))
        assert (horizon, deliveries) == (0.25, [])
        empty = EpochOutcome(shard_id=3, horizon=1.5, completions=[],
                             failures=[], sheds=[], snapshots=[],
                             ledger=ShardLedger(shard_id=3))
        assert unpack_outcome(pack_outcome(empty)) == empty

    def test_large_batch_round_trips(self):
        rng = numpy.random.default_rng(7)
        deliveries = [random_delivery(rng) for _ in range(5000)]
        _, got = unpack_epoch(pack_epoch(123.456, deliveries))
        assert got == deliveries

    def test_string_table_deduplicates(self):
        rng = numpy.random.default_rng(9)
        deliveries = [random_delivery(rng) for _ in range(200)]
        packed = pack_epoch(1.0, deliveries)
        # 200 rows over <= 14 distinct strings: everything beyond the
        # fixed-width columns is the one deduplicated table, so the
        # frame overhead must not scale with the per-row string copies
        # (3.5 KiB here) a naive encoding would carry.
        from repro.shard.protocol import _DELIVERY_DTYPE
        overhead = len(packed) - len(deliveries) * _DELIVERY_DTYPE.itemsize
        assert overhead < 300

    def test_version_mismatch_is_rejected(self):
        packed = bytearray(pack_epoch(1.0, []))
        packed[4:6] = (WIRE_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(WorkloadError, match="version mismatch"):
            unpack_epoch(bytes(packed))

    def test_bad_magic_is_rejected(self):
        packed = b"XXXX" + pack_epoch(1.0, [])[4:]
        with pytest.raises(WorkloadError, match="bad magic"):
            unpack_epoch(packed)

    def test_kind_confusion_is_rejected(self):
        epoch = pack_epoch(1.0, [])
        outcome = pack_outcome(EpochOutcome(
            shard_id=0, horizon=1.0, completions=[], failures=[],
            sheds=[], snapshots=[], ledger=ShardLedger()))
        with pytest.raises(WorkloadError, match="kind"):
            unpack_outcome(epoch)
        with pytest.raises(WorkloadError, match="kind"):
            unpack_epoch(outcome)

    def test_truncated_header_is_rejected(self):
        with pytest.raises(WorkloadError, match="shorter"):
            unpack_epoch(pack_epoch(1.0, [])[:3])

    def test_heartbeat_round_trips(self):
        for shard_id, epoch in ((0, 0), (7, 12), (1 << 40, 1 << 50)):
            assert unpack_heartbeat(pack_heartbeat(shard_id, epoch)) \
                == (shard_id, epoch)

    def test_heartbeat_rejects_other_kinds_and_truncation(self):
        with pytest.raises(WorkloadError, match="kind"):
            unpack_heartbeat(pack_epoch(1.0, []))
        with pytest.raises(WorkloadError, match="kind"):
            unpack_epoch(pack_heartbeat(0, 0))
        with pytest.raises(WorkloadError):
            unpack_heartbeat(pack_heartbeat(3, 9)[:-4])


def run_modes(scenario, num_shards, backend="serial", **shard_kwargs):
    config, catalog, requests, faults = scenario
    replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
        num_shards=num_shards, backend=backend, epoch_length=100 * MS,
        **shard_kwargs))
    replay.deploy(catalog)
    return replay.run(requests, fault_schedule=faults)


class TestPipeliningDeterminism:
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_shard_counts_match(self, shard_seed, adaptive):
        """Routing ahead is an execution detail, not a protocol change:
        every shard count must land on the 1-shard reference's outcomes,
        ledger and epoch count, with adaptive epochs on or off."""
        scenario = random_scenario(shard_seed)
        config = scenario[0]
        reference = None
        for num_shards in (1, 2, 4):
            if num_shards > config.num_machines:
                continue
            report = run_modes(scenario, num_shards,
                               adaptive_epochs=adaptive)
            if reference is None:
                reference = report
                continue
            assert (report.outcome_signature()
                    == reference.outcome_signature()), (
                f"{num_shards}-shard replay diverged from the 1-shard "
                f"reference (seed {shard_seed}, adaptive={adaptive})")
            assert report.ledger == reference.ledger
            assert report.epochs == reference.epochs

    def test_adaptive_epochs_reduce_epoch_count(self):
        """On a sparse tail the adaptive grid must coarsen: fewer epoch
        boundaries than the fixed grid, same request terminal set (its
        shard-count invariance is checked above)."""
        scenario = random_scenario(3)
        fixed = run_modes(scenario, 2, adaptive_epochs=False)
        adaptive = run_modes(scenario, 2, adaptive_epochs=True)
        assert adaptive.epochs < fixed.epochs
        assert (sorted(s[0] for s in adaptive.outcome_signature())
                == sorted(s[0] for s in fixed.outcome_signature()))


def open_fds() -> int:
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc to count descriptors")
class TestProcessBackendHygiene:
    def test_back_to_back_replays_leak_no_fds(self):
        """Regression: ``Process.join`` keeps the sentinel fd until
        ``Process.close``; before the fix every process-backend replay
        leaked one fd and one half-closed pipe per shard."""
        scenario = random_scenario(3)
        run_modes(scenario, 2, backend="process")  # warm spawn machinery
        before = open_fds()
        for _ in range(3):
            run_modes(scenario, 2, backend="process")
        after = open_fds()
        # Slack of 2 tolerates interpreter-internal descriptors
        # (e.g. lazily opened /dev/urandom), not per-run growth: three
        # runs x two shards would leak >= 6 descriptors unfixed.
        assert after - before <= 2, (
            f"process backend leaked {after - before} fds over three "
            f"back-to-back replays")


class TestConcurrentStart:
    """Process-backend workers boot in parallel, not one after another."""

    def test_every_worker_starts_before_any_ready_is_awaited(
            self, monkeypatch):
        launched: list[_ProcessShard] = []
        alive_at_await: list[list[bool]] = []
        original_init = _ProcessShard.__init__
        original_await = _ProcessShard.await_ready

        def recording_init(shard, *args, **kwargs):
            original_init(shard, *args, **kwargs)
            launched.append(shard)

        def recording_await(shard):
            alive_at_await.append(
                [other._process.is_alive() for other in launched])
            original_await(shard)

        monkeypatch.setattr(_ProcessShard, "__init__", recording_init)
        monkeypatch.setattr(_ProcessShard, "await_ready", recording_await)
        run_modes(random_scenario(1), 3, backend="process")  # 3 machines
        assert alive_at_await == [[True, True, True]] * 3

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to count descriptors")
    def test_worker_failing_before_ready_leaks_nothing(self, monkeypatch):
        """Shard 1 of 3 cannot build its machines (unknown model), so it
        reports an error instead of ``ready``: the replay must raise the
        typed fault and reap all three workers and their pipes."""
        original = ShardedReplay._worker_inits

        def poisoned_inits(replay, fault_schedule):
            inits = original(replay, fault_schedule)
            bad = inits[1]
            inits[1] = dataclasses.replace(bad, placements=(
                *bad.placements,
                (bad.machine_names[0], "ghost#0", "no-such-model")))
            return inits

        scenario = random_scenario(1)  # 3 machines
        run_modes(scenario, 3, backend="process")  # warm spawn machinery
        monkeypatch.setattr(ShardedReplay, "_worker_inits", poisoned_inits)
        before = open_fds()
        with pytest.raises(WorkerInternalError, match="no-such-model") \
                as info:
            run_modes(scenario, 3, backend="process")
        assert info.value.shard_id == 1
        assert multiprocessing.active_children() == []
        after = open_fds()
        assert after - before <= 2, (
            f"a failed boot leaked {after - before} fds")
