"""Tests for the runtime invariant-audit layer."""

import random

import pytest

from repro.audit import AuditError, MachineAuditor, ServingAuditor
from repro.core import DeepPlan, Strategy
from repro.engine import execute_plan, execute_warm
from repro.hw.machine import Machine
from repro.hw.specs import p3_8xlarge
from repro.models import build_model
from repro.serving import (
    InferenceServer,
    PoissonWorkload,
    Request,
    ServerConfig,
)
from repro.simkit import Simulator
from tests.test_simkit_links import flow_cycles


@pytest.fixture(scope="module")
def planner():
    return DeepPlan(p3_8xlarge(), noise=0.0)


@pytest.fixture(scope="module")
def bert():
    return build_model("bert-base")


#: One corruption of an active flow (or of its first link) per invariant
#: that ``MachineAuditor.on_rates_assigned`` checks.
RATE_HOOK_CORRUPTIONS = {
    "flow.rate_nonnegative":
        lambda flow: setattr(flow, "rate", -1.0),
    "flow.max_rate":
        lambda flow: setattr(flow, "max_rate", flow.rate / 2),
    "flow.residual_nonnegative":
        lambda flow: setattr(flow, "remaining", -1.0),
    "link.rate_capacity":
        lambda flow: setattr(flow, "rate", 2 * max(
            link.bandwidth for link in flow.path)),
    "link.over_credit":
        lambda flow: setattr(flow.path[0], "bytes_carried",
                             flow.path[0].bytes_carried + 1e6),
}


def audited_machine():
    machine = Machine(Simulator(), p3_8xlarge())
    return machine, MachineAuditor(machine)


class TestMachineAuditor:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_cold_start_runs_clean(self, planner, bert, strategy):
        plan = planner.plan(bert, strategy)
        machine, auditor = audited_machine()
        process = execute_plan(machine, planner.cost_model, plan, 0,
                               planner.secondary_gpus(0, plan))
        machine.sim.run(process.done)
        assert auditor.check_quiesce() == []
        assert auditor.checks > 0

    def test_warm_execution_runs_clean(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT_DHA)
        machine, auditor = audited_machine()
        process = execute_warm(machine, planner.cost_model, plan, 0)
        machine.sim.run(process.done)
        assert auditor.check_quiesce() == []

    def test_must_attach_before_traffic(self):
        machine = Machine(Simulator(), p3_8xlarge())
        machine.host_to_device(0, 1e9)
        machine.sim.run(until=1e-3)  # past copy setup; the flow is active
        with pytest.raises(ValueError, match="before traffic"):
            MachineAuditor(machine)

    def test_detach_removes_hooks(self):
        machine, auditor = audited_machine()
        auditor.detach()
        assert machine.network.observer is None
        assert machine.host.observer is None
        assert all(gpu.memory.observer is None for gpu in machine.gpus)

    def test_unbalanced_reserve_release_is_flagged(self):
        machine, auditor = audited_machine()
        memory = machine.gpus[0].memory
        memory.reserve("model-a", 1024)
        # Fault injection: bypass the accounting the auditor shadows.
        memory._used += 512
        memory.reserve("model-b", 2048)
        assert any(v.invariant == "memory.balance"
                   for v in auditor.violations)

    def test_unknown_release_is_flagged(self):
        machine, auditor = audited_machine()
        memory = machine.gpus[0].memory
        memory.reserve("model-a", 1024)
        auditor.on_release(memory, "never-reserved", 1)
        assert any(v.invariant == "memory.unknown_release"
                   for v in auditor.violations)

    def test_leaked_staging_tag_is_flagged_at_quiesce(self):
        machine, auditor = audited_machine()
        machine.gpus[1].memory.reserve_staging("stage:part1", 4096)
        violations = auditor.check_quiesce()
        assert any(v.invariant == "memory.staging_leak" for v in violations)

    def test_active_flow_at_quiesce_is_flagged(self):
        machine, auditor = audited_machine()
        machine.host_to_device(0, 1e9)
        machine.sim.run(until=1e-3)  # flow started but far from done
        violations = auditor.check_quiesce()
        assert any(v.invariant == "network.quiesced" for v in violations)

    def test_link_conservation_holds_under_contention(self, planner, bert):
        plan = planner.plan(bert, Strategy.PT_DHA)
        machine, auditor = audited_machine()
        first = execute_plan(machine, planner.cost_model, plan, 0,
                             planner.secondary_gpus(0, plan))
        second = execute_plan(machine, planner.cost_model, plan, 2,
                              planner.secondary_gpus(2, plan))
        machine.sim.run(first.done)
        machine.sim.run(second.done)
        assert auditor.check_quiesce() == []

    def test_byte_conservation_property(self, conservation_seed):
        """Every byte a link is credited with was progressed by a flow.

        Random contended schedules over the PCIe topology, with weights,
        rate caps and milestones; the quiesce ledger (bytes_carried vs.
        summed completed-flow progress, per link) and the running
        over-credit check must both hold, and no completed flow or flow
        event may be left as cyclic garbage.  The nightly sweep runs
        this over the full 200 seeds.
        """
        rng = random.Random(conservation_seed)
        machine, auditor = audited_machine()
        requested: dict[object, float] = {}
        with flow_cycles() as cycles:
            events = []
            for _ in range(12):
                path = machine.pcie_path(rng.randrange(4))
                nbytes = rng.uniform(1e3, 5e6)
                offsets = sorted(rng.uniform(0.0, nbytes)
                                 for _ in range(rng.randrange(4)))
                done, milestones = machine.network.transfer_with_milestones(
                    path, nbytes, offsets,
                    setup_delay=rng.uniform(0.0, 0.01),
                    max_rate=rng.choice([None, None, 2e9, 8e9]),
                    weight=rng.choice([0.5, 1.0, 1.0, 2.0]))
                events.append(done)
                events.extend(milestones)
                for link in path:
                    requested[link] = requested.get(link, 0.0) + nbytes
            machine.sim.run()
            assert all(event.triggered for event in events)
            del events, done, milestones
        assert cycles == {}
        assert auditor.check_quiesce() == []
        # The ledger is not vacuous: each touched link carried exactly
        # the bytes requested across it (deltas from an idle start).
        for link, expected in requested.items():
            assert link.bytes_carried == pytest.approx(expected, rel=1e-6,
                                                       abs=1e-1)

    @pytest.mark.parametrize("invariant", list(RATE_HOOK_CORRUPTIONS))
    def test_rate_hook_flags_each_invariant(self, invariant):
        """Corrupting one field of an active flow (or of its first link)
        flags exactly the invariant that field feeds."""
        machine, auditor = audited_machine()
        machine.network.transfer(machine.pcie_path(0), 1e9)
        (flow,) = machine.network.active_flows
        assert auditor.violations == []
        RATE_HOOK_CORRUPTIONS[invariant](flow)
        auditor.on_rates_assigned(machine.network)
        assert {v.invariant for v in auditor.violations} == {invariant}

    def test_non_positive_max_rate_rejected_before_any_traffic(self):
        """The ValueError fires before the network mutates any state, so
        the auditor sees neither a start nor a rate assignment."""
        machine, auditor = audited_machine()
        path = machine.pcie_path(0)
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError, match="max_rate"):
                machine.network.transfer(path, 1e6, max_rate=bad)
        assert not machine.network.active_flows
        assert auditor.checks == 0
        assert auditor.violations == []

    def test_on_rates_assigned_fires_on_quiesce(self):
        """The final completion's rebalance must still notify the
        observer: auditors close their ledgers on the quiescent (empty)
        assignment, and skipping it leaves them one assignment short."""

        class _QuiesceProbe(MachineAuditor):
            def __init__(self, machine):
                super().__init__(machine)
                self.active_at_assignment = []

            def on_rates_assigned(self, network):
                self.active_at_assignment.append(len(network.active_flows))
                super().on_rates_assigned(network)

        machine = Machine(Simulator(), p3_8xlarge())
        probe = _QuiesceProbe(machine)
        done = machine.network.transfer(machine.pcie_path(1), 1e6)
        machine.sim.run(done)
        assert probe.active_at_assignment
        assert probe.active_at_assignment[-1] == 0
        assert probe.check_quiesce() == []


class TestServingAuditor:
    def make_audited_server(self, planner):
        machine = Machine(Simulator(), p3_8xlarge())
        server = InferenceServer(machine, planner, ServerConfig(audit=True))
        return server

    def test_config_flag_creates_auditor(self, planner):
        server = self.make_audited_server(planner)
        assert isinstance(server.auditor, ServingAuditor)

    def test_run_is_clean(self, planner, bert):
        server = self.make_audited_server(planner)
        server.deploy([(bert, 6)])
        workload = PoissonWorkload(list(server.instances), rate=30.0,
                                   num_requests=60, seed=2)
        report = server.run(workload.generate())
        assert len(report.metrics) == 60
        assert server.auditor.violations == []

    def test_lost_record_raises_audit_error(self, planner, bert):
        server = self.make_audited_server(planner)
        server.deploy([(bert, 2)])
        server.run([Request(0, "bert-base#0", 0.0)])
        server.metrics.records.pop()  # simulate a dropped record
        with pytest.raises(AuditError, match="exactly_once"):
            server.auditor.check_quiesce()

    def test_double_submission_raises_audit_error(self, planner, bert):
        server = self.make_audited_server(planner)
        server.deploy([(bert, 2)])
        server.run([Request(0, "bert-base#0", 0.0)])
        server.auditor.on_submit(Request(1, "bert-base#0", 0.0))
        with pytest.raises(AuditError, match="exactly_once"):
            server.auditor.check_quiesce()

    def test_check_quiesce_can_report_without_raising(self, planner, bert):
        server = self.make_audited_server(planner)
        server.deploy([(bert, 2)])
        server.run([Request(0, "bert-base#0", 0.0)])
        server.metrics.records.pop()
        violations = server.auditor.check_quiesce(raise_on_violation=False)
        assert any(v.invariant == "requests.exactly_once"
                   for v in violations)
