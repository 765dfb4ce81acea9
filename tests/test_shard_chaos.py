"""Crash-tolerance of the process backend: supervision, recovery, chaos.

The tentpole property: a process-backend replay with worker faults
injected at randomized epochs — SIGKILLs, wedges, corrupted frames —
must either *recover onto the crash-free trajectory* (outcome
signatures, histograms and ledgers bit-identical to the single-process
oracle) or fail with a typed :class:`repro.shard.ShardFaultError`;
never hang, never silently diverge.  The recovery mechanism under test
is the command journal: shard state is a pure function of
``(WorkerInit, epoch commands)``, so respawning a dead worker and
replaying its journal fast-forwards it to the exact pre-crash boundary.
"""

import os
import signal
import time

import pytest

from repro.errors import WorkloadError
from repro.hw.specs import p3_8xlarge
from repro.shard import (
    ChaosEvent,
    ShardConfig,
    ShardDeterminismError,
    ShardRecoveryExhaustedError,
    ShardedReplay,
    WorkerCrashError,
    WorkerInternalError,
    WorkerProtocolError,
    WorkerTimeoutError,
    parse_chaos_spec,
    random_chaos_plan,
)
from repro.shard.replay import _ProcessShard, _stop_process
from repro.shard.supervision import CommandJournal
from repro.audit.shard import ShardLedger, resume_divergence
from repro.units import MS
from tests.test_shard_replay import random_scenario

#: Fast supervision knobs for tests: tight deadline, minimal backoff.
FAST = dict(worker_timeout=15.0, restart_backoff=0.01)


def build_replay(scenario, num_shards, backend="serial", **shard_kwargs):
    config, catalog, _requests, _faults = scenario
    replay = ShardedReplay(p3_8xlarge(), config, ShardConfig(
        num_shards=num_shards, backend=backend, epoch_length=100 * MS,
        **shard_kwargs))
    replay.deploy(catalog)
    return replay


def run_replay(scenario, num_shards, backend="serial", **shard_kwargs):
    replay = build_replay(scenario, num_shards, backend, **shard_kwargs)
    return replay.run(scenario[2], fault_schedule=scenario[3])


class TestChaosDifferential:
    """Crash-injected runs must reproduce the oracle bit for bit."""

    def test_killed_and_corrupted_workers_recover_bit_identical(
            self, chaos_seed):
        scenario = random_scenario(chaos_seed)
        num_shards = min(2, scenario[0].num_machines)
        oracle = run_replay(scenario, 1)
        # Stalls are exercised separately (they cost wall-clock time);
        # the sweep concentrates on kills and frame corruption.
        chaos = random_chaos_plan(3, num_shards, max_epoch=12,
                                  seed=chaos_seed,
                                  kinds=("kill", "corrupt"))
        report = run_replay(scenario, num_shards, backend="process",
                            chaos=chaos, max_worker_restarts=len(chaos),
                            **FAST)
        assert report.outcome_signature() == oracle.outcome_signature(), (
            f"chaos-injected replay diverged from the crash-free "
            f"oracle (seed {chaos_seed})")
        assert report.metrics.histogram == oracle.metrics.histogram
        assert report.ledger == oracle.ledger
        merged = report.merged_histogram()
        assert merged.counts == oracle.metrics.histogram.counts
        assert merged.total == oracle.metrics.histogram.total
        for ledger in report.shard_ledgers:
            assert ledger.in_flight == 0

    def test_recovery_overhead_is_reported(self):
        scenario = random_scenario(7)
        num_shards = min(2, scenario[0].num_machines)
        chaos = (ChaosEvent(shard_id=0, epoch=2, kind="kill"),)
        report = run_replay(scenario, num_shards, backend="process",
                            chaos=chaos, max_worker_restarts=2, **FAST)
        assert report.worker_restarts == 1
        assert report.replayed_epochs >= 2
        summary = report.summary()
        assert summary["worker_restarts"] == 1.0
        assert summary["replayed_epochs"] == float(report.replayed_epochs)

    def test_stalled_worker_trips_the_deadline_and_recovers(self):
        """A wedge longer than worker_timeout is detected within the
        deadline (not a forever-hang) and recovery still lands on the
        oracle's trajectory."""
        scenario = random_scenario(4)
        num_shards = min(2, scenario[0].num_machines)
        oracle = run_replay(scenario, 1)
        chaos = (ChaosEvent(shard_id=0, epoch=1, kind="stall",
                            duration=60.0),)
        started = time.monotonic()
        report = run_replay(scenario, num_shards, backend="process",
                            chaos=chaos, max_worker_restarts=1,
                            worker_timeout=2.0, restart_backoff=0.01)
        elapsed = time.monotonic() - started
        assert report.outcome_signature() == oracle.outcome_signature()
        assert report.worker_restarts == 1
        # Far below the 60 s stall: the deadline fired, not the sleep.
        assert elapsed < 45.0


class TestTypedFaults:
    """Pre-existing failure modes now yield typed errors, not hangs."""

    def test_sigkill_exhausts_into_typed_error(self):
        scenario = random_scenario(5)
        num_shards = min(2, scenario[0].num_machines)
        chaos = (ChaosEvent(shard_id=0, epoch=1, kind="kill"),)
        with pytest.raises(ShardRecoveryExhaustedError) as info:
            run_replay(scenario, num_shards, backend="process",
                       chaos=chaos, max_worker_restarts=0, **FAST)
        assert info.value.restarts == 0
        assert isinstance(info.value.__cause__, WorkerCrashError)
        assert info.value.__cause__.shard_id == 0

    def test_corrupt_frame_exhausts_into_typed_error(self):
        scenario = random_scenario(5)
        num_shards = min(2, scenario[0].num_machines)
        chaos = (ChaosEvent(shard_id=0, epoch=1, kind="corrupt"),)
        with pytest.raises(ShardRecoveryExhaustedError) as info:
            run_replay(scenario, num_shards, backend="process",
                       chaos=chaos, max_worker_restarts=0, **FAST)
        assert isinstance(info.value.__cause__, WorkerProtocolError)

    def test_wedge_exhausts_into_timeout_error_within_deadline(self):
        scenario = random_scenario(5)
        num_shards = min(2, scenario[0].num_machines)
        chaos = (ChaosEvent(shard_id=0, epoch=1, kind="stall",
                            duration=120.0),)
        started = time.monotonic()
        with pytest.raises(ShardRecoveryExhaustedError) as info:
            run_replay(scenario, num_shards, backend="process",
                       chaos=chaos, max_worker_restarts=0,
                       worker_timeout=2.0, restart_backoff=0.01)
        assert time.monotonic() - started < 45.0
        assert isinstance(info.value.__cause__, WorkerTimeoutError)

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_supervision_cannot_be_disabled(self, timeout):
        """Every worker receive is deadline-bounded: there is no
        unsupervised mode for a wedged worker to hang forever in."""
        with pytest.raises(WorkloadError, match="worker_timeout"):
            ShardConfig(worker_timeout=timeout)

    def test_serial_fallback_reruns_and_matches_the_oracle(self):
        scenario = random_scenario(6)
        num_shards = min(2, scenario[0].num_machines)
        oracle = run_replay(scenario, 1)
        chaos = (ChaosEvent(shard_id=0, epoch=0, kind="kill"),)
        report = run_replay(scenario, num_shards, backend="process",
                            chaos=chaos, max_worker_restarts=0,
                            serial_fallback=True, **FAST)
        assert report.serial_fallback
        assert report.backend == "serial"
        assert report.worker_restarts == 0
        assert report.outcome_signature() == oracle.outcome_signature()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc (Linux)")
class TestFdHygieneUnderChaos:
    def test_chaos_recovery_reclaims_fds(self):
        """Respawns allocate fresh pipes and sentinels; every aborted
        incarnation's descriptors must be released."""
        scenario = random_scenario(3)
        chaos = (ChaosEvent(shard_id=0, epoch=1, kind="kill"),
                 ChaosEvent(shard_id=0, epoch=3, kind="corrupt"))
        kwargs = dict(backend="process", chaos=chaos,
                      max_worker_restarts=3, **FAST)
        run_replay(scenario, 2, **kwargs)  # warm spawn machinery
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            report = run_replay(scenario, 2, **kwargs)
            assert report.worker_restarts == 2
        after = len(os.listdir("/proc/self/fd"))
        assert after - before <= 2, (
            f"chaos recovery leaked {after - before} fds over three "
            f"crash-and-respawn replays")


def _ignore_sigterm_entry(started) -> None:
    """Spawn target that masks SIGTERM and sleeps (a stuck child)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    started.set()
    time.sleep(300)


class TestStopEscalation:
    def test_sigterm_ignoring_child_is_killed_not_leaked(self):
        import multiprocessing
        context = multiprocessing.get_context("spawn")
        started = context.Event()
        process = context.Process(target=_ignore_sigterm_entry,
                                  args=(started,), daemon=True)
        process.start()
        assert started.wait(timeout=60)
        begun = time.monotonic()
        exitcode = _stop_process(process, grace=0.5)
        elapsed = time.monotonic() - begun
        # terminate() was ignored; kill() cannot be.  -SIGKILL proves
        # the escalation ran, and the bounded grace proves we did not
        # sit in the old unbounded join.
        assert exitcode == -signal.SIGKILL
        assert elapsed < 30.0


class TestErrorTypePreservation:
    """Worker-side exceptions cross the pipe with their type intact."""

    def _one_shard(self, monkeypatch=None):
        import multiprocessing
        scenario = random_scenario(2)
        replay = build_replay(scenario, 1, backend="process",
                              max_worker_restarts=0, **FAST)
        init = replay._worker_inits(())[0]
        context = multiprocessing.get_context("spawn")
        shard = _ProcessShard(init, context, replay.shard)
        shard.await_ready()
        return shard

    def test_workload_error_is_reraised_as_workload_error(self):
        shard = self._one_shard()
        try:
            # A frame with a bad magic makes the worker's unpack_epoch
            # raise WorkloadError; the error frame carries the class
            # name and the broker re-raises the same type.
            shard._conn.send(("epoch", b"XXXXGARBAGE"))
            with pytest.raises(WorkloadError, match="corrupt wire"):
                shard.collect_epoch()
        finally:
            shard.stop()

    def test_internal_bug_surfaces_as_worker_internal_error(self):
        shard = self._one_shard()
        try:
            # A non-bytes payload explodes in the worker with TypeError
            # — not a workload error, so it must surface as an internal
            # error carrying the original class name.
            shard._conn.send(("epoch", 12345))
            with pytest.raises(WorkerInternalError) as info:
                shard.collect_epoch()
            assert info.value.exception_type == "TypeError"
            assert "Traceback" in info.value.remote_traceback
        finally:
            shard.stop()


class TestChaosPlumbing:
    def test_parse_chaos_spec(self):
        events = parse_chaos_spec("kill@0:2, stall@1:3:5.0,corrupt@2:7")
        assert events == (
            ChaosEvent(shard_id=0, epoch=2, kind="kill"),
            ChaosEvent(shard_id=1, epoch=3, kind="stall", duration=5.0),
            ChaosEvent(shard_id=2, epoch=7, kind="corrupt"))
        assert parse_chaos_spec("") == ()
        with pytest.raises(WorkloadError, match="unknown chaos kind"):
            parse_chaos_spec("explode@0:1")
        with pytest.raises(WorkloadError, match="malformed"):
            parse_chaos_spec("kill@zero:1")

    def test_chaos_event_validation(self):
        with pytest.raises(WorkloadError, match="unknown chaos kind"):
            ChaosEvent(shard_id=0, epoch=0, kind="explode")
        with pytest.raises(WorkloadError, match="duration"):
            ChaosEvent(shard_id=0, epoch=0, kind="stall")

    def test_random_plan_is_deterministic_and_unique(self):
        plan = random_chaos_plan(6, num_shards=3, max_epoch=10, seed=11)
        assert plan == random_chaos_plan(6, num_shards=3, max_epoch=10,
                                         seed=11)
        targets = [(e.shard_id, e.epoch) for e in plan]
        assert len(set(targets)) == len(targets)
        assert all(e.shard_id < 3 and e.epoch < 10 for e in plan)

    def test_chaos_requires_process_backend(self):
        with pytest.raises(WorkloadError, match="process"):
            ShardConfig(num_shards=2, backend="serial",
                        chaos=(ChaosEvent(0, 0, "kill"),))

    def test_chaos_shard_id_must_exist(self):
        scenario = random_scenario(2)
        with pytest.raises(WorkloadError, match="targets shard"):
            build_replay(scenario, 1, backend="process",
                         chaos=(ChaosEvent(shard_id=5, epoch=0,
                                           kind="kill"),))

    def test_env_chaos_applies_to_process_backend_only(self, monkeypatch):
        scenario = random_scenario(2)
        monkeypatch.setenv("REPRO_SHARD_CHAOS", "kill@0:4")
        process = build_replay(scenario, 1, backend="process",
                               max_worker_restarts=1, **FAST)
        assert process._chaos == (ChaosEvent(shard_id=0, epoch=4,
                                             kind="kill"),)
        serial = build_replay(scenario, 1, backend="serial")
        assert serial._chaos == ()

    def test_respawn_init_strips_already_fired_events(self):
        import dataclasses as dc

        @dc.dataclass(frozen=True)
        class FakeInit:
            chaos: tuple = ()

        journal = CommandJournal(FakeInit(chaos=(
            ChaosEvent(0, 0, "kill"), ChaosEvent(0, 3, "corrupt"))))
        journal.record_command(b"cmd0")
        journal.record_command(b"cmd1")
        # Epoch-0 event may already have fired in the dead worker;
        # epoch-3 lies ahead and must survive into the respawn.
        assert journal.respawn_init().chaos == (
            ChaosEvent(0, 3, "corrupt"),)

    def test_resume_divergence_flags_counter_drift(self):
        a = ShardLedger(shard_id=1, scheduled=10, delivered=9,
                        completed=8, shed=1, orphaned=0)
        assert resume_divergence(a, a.copy(), shard_id=1, epoch=4) == []
        b = a.copy()
        b.completed = 7
        violations = resume_divergence(a, b, shard_id=1, epoch=4)
        assert len(violations) == 1
        assert "completed" in violations[0].detail
        assert ShardDeterminismError(1, "x")  # exported and raisable
