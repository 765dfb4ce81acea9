"""The runtime invariant-audit layer.

:class:`MachineAuditor` attaches to a :class:`~repro.hw.machine.Machine`
*before any traffic runs* and observes every flow-network rate change and
every memory reserve/release through the observer hooks the instrumented
classes expose.  Violations are accumulated, never raised mid-simulation,
so auditing cannot change simulated behaviour; callers inspect
``violations`` or call :meth:`MachineAuditor.check_quiesce` once the
simulation settles.

:class:`ServingAuditor` wraps a :class:`~repro.serving.server.InferenceServer`
with a machine auditor plus the serving-level invariants, and raises
:class:`AuditError` from ``check_quiesce()`` (called by ``run()``) if any
invariant was violated during the run.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.errors import ReproError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.hw.host import HostMemory
    from repro.hw.machine import Machine
    from repro.hw.memory import GPUMemory
    from repro.serving.server import InferenceServer
    from repro.serving.workload import Request
    from repro.simkit.links import Flow, FlowNetwork, Link

__all__ = ["AuditError", "AuditViolation", "MachineAuditor", "ServingAuditor"]

#: Relative slack for rate-capacity checks (progressive filling is exact
#: up to float rounding).
_RATE_SLACK = 1e-9
#: Residuals are allowed to undershoot zero by the flow-completion
#: epsilon plus float noise.
_RESIDUAL_SLACK = 1e-2


@dataclasses.dataclass(frozen=True)
class AuditViolation:
    """One observed invariant violation."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.detail}"


class AuditError(ReproError):
    """At least one audited invariant was violated."""

    def __init__(self, violations: typing.Sequence[AuditViolation]) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n{lines}")


class MachineAuditor:
    """Continuous invariant checks for one machine's network and memory.

    Must be attached before any traffic runs on the machine (the per-link
    conservation ledger assumes it has seen every flow).
    """

    def __init__(self, machine: "Machine") -> None:
        if machine.network.active_flows:
            raise ValueError("attach the auditor before traffic starts")
        self.machine = machine
        self.violations: list[AuditViolation] = []
        self.checks = 0
        #: Summed progress of completed flows, per link.
        self._carried: dict["Link", float] = {}
        self._flows_completed: dict["Link", int] = {}
        #: Shadow reservation ledgers, per memory object.
        self._reserved: dict[int, dict[str, int]] = {}
        self._staged: dict[int, dict[str, int]] = {}
        self._pinned: dict[str, int] = {}
        machine.network.observer = self
        for gpu in machine.gpus:
            gpu.memory.observer = self
            self._reserved[id(gpu.memory)] = dict(
                (tag, gpu.memory.reservation_size(tag))
                for tag in gpu.memory.tags())
            self._staged[id(gpu.memory)] = {}
        machine.host.observer = self
        self._pinned = {}
        self._pinned_baseline = machine.host.pinned_bytes

    def detach(self) -> None:
        """Remove every observer hook installed by this auditor."""
        self.machine.network.observer = None
        for gpu in self.machine.gpus:
            gpu.memory.observer = None
        self.machine.host.observer = None

    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        self.violations.append(AuditViolation(invariant, subject, detail))

    # -- FlowNetwork observer hooks ------------------------------------------------

    def on_flow_started(self, flow: "Flow") -> None:
        for link in flow.path:
            self._carried.setdefault(link, 0.0)
            self._flows_completed.setdefault(link, 0)

    def on_flow_completed(self, flow: "Flow") -> None:
        for link in flow.path:
            self._carried[link] = self._carried.get(link, 0.0) \
                + flow.progressed
            self._flows_completed[link] = \
                self._flows_completed.get(link, 0) + 1

    def on_rates_assigned(self, network: "FlowNetwork") -> None:
        # One pass over the active flows in start order (the network's
        # own ordered set, not a copy), with one [rate, progress]
        # accumulator per link.
        totals: dict["Link", list[float]] = {}
        checks = 0
        for flow in network._active:
            checks += 1
            rate = flow.rate
            if rate < 0:
                self._flag("flow.rate_nonnegative", repr(flow),
                           f"negative rate {rate}")
            cap = flow.max_rate
            if cap is not None and rate > cap * (1 + _RATE_SLACK):
                self._flag("flow.max_rate", repr(flow),
                           f"rate {rate} exceeds cap {cap}")
            remaining = flow.remaining
            if remaining < -_RESIDUAL_SLACK:
                self._flag("flow.residual_nonnegative", repr(flow),
                           f"negative residual {remaining}")
            progressed = flow.nbytes - remaining
            for link in flow.path:
                total = totals.get(link)
                if total is None:
                    totals[link] = [rate, progressed]
                else:
                    total[0] += rate
                    total[1] += progressed
        for link, (rate, progressed) in totals.items():
            checks += 2
            if rate > link.bandwidth * (1 + _RATE_SLACK):
                self._flag(
                    "link.rate_capacity", link.name,
                    f"allocated {rate:.6g} B/s exceeds bandwidth "
                    f"{link.bandwidth:.6g} B/s")
            # Running conservation: a link is never credited with more
            # bytes than its flows have actually progressed.  The settle
            # clamp in FlowNetwork._settle (credit capped at the flow's
            # residual) is what makes this an invariant rather than a
            # best-effort bound — a wake-up landing past a flow's exact
            # completion instant must not inflate bytes_carried.
            accounted = self._carried.get(link, 0.0) + progressed
            tolerance = (1.0 + 1e-6 * max(accounted, link.bytes_carried)
                         + 1e-2 * self._flows_completed.get(link, 0))
            if link.bytes_carried > accounted + tolerance:
                self._flag(
                    "link.over_credit", link.name,
                    f"bytes_carried {link.bytes_carried:.3f} exceeds "
                    f"accounted flow progress {accounted:.3f}")
        self.checks += checks

    # -- memory observer hooks ------------------------------------------------------

    def _check_balance(self, memory: "GPUMemory") -> None:
        self.checks += 1
        expected = sum(self._reserved[id(memory)].values())
        if memory.used_bytes != expected:
            self._flag(
                "memory.balance", memory.device,
                f"used_bytes {memory.used_bytes} != ledger {expected} "
                f"(unbalanced reserve/release)")

    def on_reserve(self, memory: "GPUMemory", tag: str, nbytes: int) -> None:
        ledger = self._reserved[id(memory)]
        if tag in ledger:
            self._flag("memory.duplicate_reserve", memory.device, tag)
        ledger[tag] = nbytes
        self._check_balance(memory)

    def on_release(self, memory: "GPUMemory", tag: str, nbytes: int) -> None:
        ledger = self._reserved[id(memory)]
        if ledger.pop(tag, None) is None:
            self._flag("memory.unknown_release", memory.device, tag)
        self._check_balance(memory)

    def on_reserve_staging(self, memory: "GPUMemory", tag: str,
                           nbytes: int) -> None:
        self._staged[id(memory)][tag] = nbytes

    def on_release_staging(self, memory: "GPUMemory", tag: str,
                           nbytes: int) -> None:
        if self._staged[id(memory)].pop(tag, None) is None:
            self._flag("memory.unknown_staging_release", memory.device, tag)

    def on_pin(self, host: "HostMemory", tag: str, nbytes: int) -> None:
        if tag in self._pinned:
            self._flag("host.duplicate_pin", "host", tag)
        self._pinned[tag] = nbytes
        self.checks += 1
        if host.pinned_bytes != self._pinned_baseline \
                + sum(self._pinned.values()):
            self._flag("host.balance", "host",
                       f"pinned_bytes {host.pinned_bytes} out of balance "
                       f"with pin/unpin ledger")

    def on_unpin(self, host: "HostMemory", tag: str, nbytes: int) -> None:
        if self._pinned.pop(tag, None) is None:
            self._flag("host.unknown_unpin", "host", tag)

    # -- quiesce checks ---------------------------------------------------------------

    def check_quiesce(self) -> list[AuditViolation]:
        """Checks valid only once the simulation has settled.

        Appends any new violations and returns the full accumulated list.
        """
        network = self.machine.network
        self.checks += 1
        if network.active_flows:
            self._flag("network.quiesced", "network",
                       f"{len(network.active_flows)} flows still active")
        for link, expected in self._carried.items():
            self.checks += 1
            # bytes_carried and the per-flow progress are accumulated from
            # the same settle increments in different summation orders, and
            # each completed flow forgives up to the completion epsilon.
            tolerance = (1.0 + 1e-6 * max(expected, link.bytes_carried)
                         + 1e-2 * self._flows_completed.get(link, 0))
            if abs(link.bytes_carried - expected) > tolerance:
                self._flag(
                    "link.conservation", link.name,
                    f"bytes_carried {link.bytes_carried:.3f} != summed flow "
                    f"progress {expected:.3f}")
        for gpu in self.machine.gpus:
            self.checks += 1
            if self._staged[id(gpu.memory)]:
                leaked = sorted(self._staged[id(gpu.memory)])
                self._flag("memory.staging_leak", gpu.memory.device,
                           f"staging tags never released: {leaked}")
            if gpu.memory.staging_used_bytes != 0:
                self._flag("memory.staging_leak", gpu.memory.device,
                           f"{gpu.memory.staging_used_bytes} staging bytes "
                           f"still reserved")
            self._check_balance(gpu.memory)
        return list(self.violations)


class ServingAuditor:
    """Serving-system invariants on top of :class:`MachineAuditor`.

    Created by ``InferenceServer`` when ``ServerConfig(audit=True)``; the
    server calls :meth:`on_submit` for every accepted request and
    :meth:`check_quiesce` at the end of each ``run()``.
    """

    def __init__(self, server: "InferenceServer") -> None:
        self.server = server
        self.machine_auditor = MachineAuditor(server.machine)
        self._submitted: collections.Counter[int] = collections.Counter()
        self._orphaned: collections.Counter[int] = collections.Counter()

    @property
    def violations(self) -> list[AuditViolation]:
        return list(self.machine_auditor.violations)

    @property
    def checks(self) -> int:
        return self.machine_auditor.checks

    def on_submit(self, request: "Request") -> None:
        self._submitted[request.request_id] += 1

    def on_orphan(self, request: "Request") -> None:
        """An accepted request left this server unserved (crash/GPU loss)."""
        self._orphaned[request.request_id] += 1

    def check_quiesce(self, raise_on_violation: bool = True
                      ) -> list[AuditViolation]:
        """Verify end-of-run invariants; raise :class:`AuditError` on any."""
        audit = self.machine_auditor
        audit.check_quiesce()
        server = self.server
        for gpu_index, queue in server._queues.items():
            audit.checks += 1
            if len(queue):
                audit._flag("queue.drained", queue.name,
                            f"{len(queue)} requests still queued")
            if queue.total_put != queue.total_got:
                audit._flag(
                    "queue.put_got_balance", queue.name,
                    f"{queue.total_put} puts vs {queue.total_got} gets")
        audit.checks += 1
        recorded = collections.Counter(
            r.request_id for r in server.metrics.records)
        # Orphaned requests (machine crash or GPU failure mid-service)
        # legitimately leave without a record; everything else must be
        # recorded exactly as often as it was accepted.
        expected = self._submitted - self._orphaned
        if recorded != expected:
            missing = sorted((expected - recorded).keys())[:5]
            extra = sorted((recorded - expected).keys())[:5]
            audit._flag(
                "requests.exactly_once", "metrics",
                f"submitted but unrecorded: {missing}; recorded more often "
                f"than submitted: {extra}")
        for gpu in server.machine.gpus:
            audit.checks += 1
            resident = sum(
                instance.gpu_bytes
                for instance in server.instances.values()
                if instance.resident and instance.home_gpu == gpu.index)
            if gpu.memory.used_bytes != resident:
                audit._flag(
                    "server.residency", gpu.memory.device,
                    f"reserved {gpu.memory.used_bytes} bytes but resident "
                    f"instances account for {resident}")
        violations = self.violations
        if violations and raise_on_violation:
            raise AuditError(violations)
        return violations
