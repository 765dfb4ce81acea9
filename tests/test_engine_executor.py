"""Unit and integration tests for the discrete-event plan executor."""

import pytest

from repro.core import DeepPlan, Strategy
from repro.engine import execute_plan, execute_warm, executor
from repro.errors import OutOfGPUMemoryError
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.simkit import Simulator
from repro.units import MS


@pytest.fixture(scope="module")
def planner():
    return DeepPlan(p3_8xlarge(), noise=0.0)


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


def fresh_machine():
    return Machine(Simulator(), p3_8xlarge())


def run(machine, process):
    return machine.sim.run(process.done)


class TestColdStart:
    def test_executed_latency_matches_prediction(self, planner, bert):
        """Contention-free, the DES executor and the analytic timeline
        must agree closely — they model the same stream semantics."""
        for strategy in (Strategy.PIPESWITCH, Strategy.PT):
            plan = planner.plan(bert, strategy)
            machine = fresh_machine()
            secondaries = planner.secondary_gpus(0, plan)
            result = run(machine, execute_plan(
                machine, planner.cost_model, plan, 0, secondaries))
            assert result.latency == pytest.approx(
                plan.predicted_latency, rel=0.02), strategy

    def test_all_layers_traced_in_order(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0))
        assert len(result.layer_traces) == len(bert.layers)
        ends = [t.end for t in result.layer_traces]
        assert ends == sorted(ends)

    def test_stall_decomposition_is_consistent(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0))
        assert result.latency == pytest.approx(
            result.total_stall + result.execution_time)
        # BERT under pure pipelining is stall-dominated (paper Figure 2).
        assert result.total_stall / result.latency > 0.6

    def test_dha_layers_report_zero_stall(self, planner, bert):
        plan = planner.plan(bert, Strategy.DHA)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0))
        word = bert.layer_index("embeddings.word")
        assert result.layer_traces[word].stall == 0.0

    def test_secondary_count_must_match_plan(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT)
        machine = fresh_machine()
        with pytest.raises(ValueError, match="secondary"):
            execute_plan(machine, planner.cost_model, plan, 0, [])

    def test_lane_accounting_covers_all_loaded_bytes(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0, [2]))
        assert sum(result.lane_bytes.values()) == plan.gpu_resident_bytes
        assert set(result.lane_bytes) == {0, 2}

    def test_lane_bandwidth_near_line_rate(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0))
        bandwidth = result.lane_bandwidth(0)
        assert 9e9 < bandwidth < 12.0e9  # Table 2: ~10.9 GB/s for BERT

    def test_baseline_executes_after_full_load(self, planner, bert):
        plan = planner.plan(bert, Strategy.BASELINE)
        machine = fresh_machine()
        result = run(machine, execute_plan(machine, planner.cost_model,
                                           plan, 0))
        load_time = planner.cost_model.model_load_time(bert)
        first = result.layer_traces[0]
        assert first.start >= load_time * 0.999

    def test_staging_memory_released_after_migration(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT)
        machine = fresh_machine()
        run(machine, execute_plan(machine, planner.cost_model, plan, 0, [2]))
        assert machine.gpu(2).memory.staging_used_bytes == 0

    @pytest.mark.parametrize("detailed", [True, False])
    def test_load_stream_error_propagates(self, planner, detailed):
        """A secondary whose workspace cannot stage its partition fails
        the run with that error, not with the execution stream starved
        of the partition's layers."""
        model = build_model("bert-large")
        plan = planner.plan(model, Strategy.PT_DHA)
        secondaries = planner.secondary_gpus(0, plan)
        assert secondaries
        machine = fresh_machine()
        machine.gpu(secondaries[0]).memory.workspace_bytes = 1
        with pytest.raises(OutOfGPUMemoryError, match="staging"):
            run(machine, execute_plan(machine, planner.cost_model, plan, 0,
                                      secondaries, detailed_traces=detailed))


class TestWarmExecution:
    def test_warm_latency_near_in_memory_exec(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        result = run(machine, execute_warm(machine, planner.cost_model,
                                           plan, 0))
        expected = planner.cost_model.model_exec_inmem(bert, 1)
        assert result.latency == pytest.approx(expected, rel=1e-6)

    def test_dha_plan_pays_recurring_pcie_cost(self, planner, bert):
        """DeepPlan's warm inferences keep reading host memory for the
        layers it never loads — slightly slower than fully resident."""
        loaded = planner.plan(bert, Strategy.PIPESWITCH)
        dha = planner.plan(bert, Strategy.DHA)
        m1, m2 = fresh_machine(), fresh_machine()
        warm_loaded = run(m1, execute_warm(m1, planner.cost_model, loaded, 0))
        warm_dha = run(m2, execute_warm(m2, planner.cost_model, dha, 0))
        assert warm_dha.latency > warm_loaded.latency
        assert warm_dha.latency < warm_loaded.latency + 3 * MS

    def test_warm_execution_requires_no_transfers(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        result = run(machine, execute_warm(machine, planner.cost_model,
                                           plan, 0))
        assert result.lane_bytes == {}


class TestContention:
    def test_two_pipeswitch_cold_starts_same_switch_slow_down(self, planner,
                                                              bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        first = execute_plan(machine, planner.cost_model, plan, 0)
        second = execute_plan(machine, planner.cost_model, plan, 1)
        r1 = run(machine, first)
        r2 = run(machine, second)
        alone = plan.predicted_latency
        assert r1.latency > 1.5 * alone
        assert r2.latency > 1.5 * alone

    def test_cross_switch_cold_starts_do_not_interfere(self, planner, bert):
        plan = planner.plan(bert, Strategy.PIPESWITCH)
        machine = fresh_machine()
        first = execute_plan(machine, planner.cost_model, plan, 0)
        second = execute_plan(machine, planner.cost_model, plan, 2)
        r1 = run(machine, first)
        assert r1.latency == pytest.approx(plan.predicted_latency, rel=0.02)


class TestCoalescedFastPath:
    def test_fast_path_matches_detailed_timing(self, planner, bert):
        """detailed_traces=False must produce identical latency and
        stall totals — it is the same schedule, coalesced."""
        for strategy in (Strategy.PIPESWITCH, Strategy.DHA, Strategy.PT_DHA):
            plan = planner.plan(bert, strategy)
            results = []
            for detailed in (True, False):
                machine = fresh_machine()
                secondaries = planner.secondary_gpus(0, plan)
                results.append(run(machine, execute_plan(
                    machine, planner.cost_model, plan, 0, secondaries,
                    detailed_traces=detailed)))
            detailed_result, fast_result = results
            assert fast_result.latency == pytest.approx(
                detailed_result.latency, rel=1e-9), strategy
            assert fast_result.total_stall == pytest.approx(
                detailed_result.total_stall, rel=1e-6, abs=1e-9), strategy
            assert fast_result.layer_traces == []


class TestLoadStreamStepOrder:
    """Pins where a load stream's step runs among same-instant actions.

    A milestone crossing queues the stream's step at the back of the
    current instant, where a per-layer ready event's dispatch would go:
    an action queued at that instant before the crossing's wake-up ran
    goes first.  The paper's execution stream blocks on the per-layer
    event of the layer it needs next, and that event fires in the same
    place.
    """

    @staticmethod
    def _cold_start(planner, monkeypatch, on_crossing):
        """A bert-large PT+DHA cold start on the coalesced path, with
        *on_crossing(stream, k)* called after the secondary's crossing
        *k* is queued."""
        plan = planner.plan(build_model("bert-large"), Strategy.PT_DHA)
        secondaries = planner.secondary_gpus(0, plan)
        assert secondaries
        crossed = executor._LoadStream._crossed

        def spy(stream, flow):
            crossed(stream, flow)
            if stream.partition:
                on_crossing(stream, stream.crossed - 1)

        machine = fresh_machine()
        with monkeypatch.context() as patch:
            patch.setattr(executor._LoadStream, "_crossed", spy)
            run(machine, execute_plan(machine, planner.cost_model, plan, 0,
                                      secondaries, detailed_traces=False))

    def test_step_runs_after_actions_queued_before_its_crossing(
            self, planner, monkeypatch):
        instants: list[float] = []
        self._cold_start(planner, monkeypatch,
                         lambda stream, k: instants.append(
                             stream.runner.sim.now))
        assert len(instants) > 100
        assert instants == sorted(set(instants))  # one crossing per instant

        seen: list[tuple[int, int]] = []

        def on_crossing(stream, k):
            if k + 1 == len(instants):
                return
            sim = stream.runner.sim

            def probe():
                seen.append((k + 1, stream.stepped))

            # A same-instant action that queues the probe after the
            # wake-up for crossing k + 1 was armed.
            sim.call_at(sim.now,
                        lambda: sim.call_at(instants[k + 1], probe))

        self._cold_start(planner, monkeypatch, on_crossing)
        assert len(seen) == len(instants) - 1
        # Each probe runs before step k + 1: steps 0..k ran, k + 1 not.
        assert [stepped for _, stepped in seen] == [k for k, _ in seen]


class TestSegmentCache:
    """The coalesced-segment cache must not keep dead plans alive."""

    def test_warm_per_layer_path_matches_coalesced(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT_DHA)
        times = []
        for coalesced in (True, False):
            machine = fresh_machine()
            run(machine, execute_warm(machine, planner.cost_model, plan, 0,
                                      coalesced=coalesced))
            times.append(machine.sim.now)
        assert times[0] == pytest.approx(times[1], rel=1e-12)

    def test_repeat_executions_reuse_cached_segments(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT_DHA)
        machine = fresh_machine()
        run(machine, execute_warm(machine, planner.cost_model, plan, 0))
        populated = len(executor._SEGMENT_CACHE)
        run(machine, execute_warm(machine, planner.cost_model, plan, 0))
        assert len(executor._SEGMENT_CACHE) == populated

    def test_dropped_plans_are_collected_with_their_cache_entries(
            self, planner, bert):
        import gc
        import weakref

        plan = planner.plan(bert, Strategy.PT_DHA)
        machine = fresh_machine()
        run(machine, execute_warm(machine, planner.cost_model, plan, 0))
        run(machine, execute_plan(machine, planner.cost_model, plan, 0,
                                  planner.secondary_gpus(0, plan),
                                  detailed_traces=False))
        before = len(executor._SEGMENT_CACHE)
        assert before >= 2  # warm + cold segments for this plan
        ref = weakref.ref(plan)
        del plan
        if planner.plan_cache is not None:  # the plan cache pins plans
            planner.plan_cache.clear()
        gc.collect()
        assert ref() is None, "cache kept a strong reference to the plan"
        assert len(executor._SEGMENT_CACHE) <= before - 2
