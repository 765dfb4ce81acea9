"""Cluster-level audit: exactly-once accounting across retries.

Machine failures plus retries make double-execution and request loss the
two easy bugs of any cluster serving layer.  :class:`ClusterAuditor`
records every submit, dispatch, failure, completion, shed and drop
itself, and at quiesce runs each server's own
:class:`~repro.audit.invariants.ServingAuditor` and proves:

* **exactly-once** — each submitted request completed exactly once
  cluster-wide, or was dropped exactly once, or was shed (deadline
  unmeetable) exactly once — never two outcomes and never none;
* **conservation** — ``submitted == completed + dropped + shed``;
* **bounded retries** — no request failed more than ``max_retries + 1``
  times, and dropped requests used *exactly* their full attempt budget;
* **provenance** — every completion and failure refers to a request that
  was actually submitted, on a machine it was actually dispatched to;
* **metrics and ledger reconciliation** — the cluster's metrics
  collector and :class:`~repro.cluster.router.GlobalLedger` count what
  these records count, so reported goodput and outcomes obey the
  conservation law.
"""

from __future__ import annotations

import collections
import typing

from repro.audit.invariants import AuditError, AuditViolation

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.audit.invariants import ServingAuditor
    from repro.cluster.cluster import Cluster
    from repro.serving.workload import Request

__all__ = ["ClusterAuditor"]


class ClusterAuditor:
    """Observes one cluster's request lifecycle end to end."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        #: Each machine's own serving auditor, run at quiesce.
        self.server_auditors = {
            cm.name: typing.cast("ServingAuditor", cm.server.auditor)
            for cm in cluster.machines}
        self._violations: list[AuditViolation] = []
        self._checks = 0
        self._submitted: set[int] = set()
        self._dispatched: dict[int, list[str]] = {}
        self._completions: collections.Counter[int] = collections.Counter()
        self._failures: collections.Counter[int] = collections.Counter()
        self._dropped: collections.Counter[int] = collections.Counter()
        self._shed: collections.Counter[int] = collections.Counter()

    @property
    def checks(self) -> int:
        """Invariant checks run so far, the servers' included."""
        return self._checks + sum(auditor.checks for auditor
                                  in self.server_auditors.values())

    @property
    def violations(self) -> list[AuditViolation]:
        """The servers' violations (subject prefixed by machine), then
        the cluster's own; a check that runs again reports nothing twice."""
        return list(dict.fromkeys([
            AuditViolation(v.invariant, f"{name}:{v.subject}", v.detail)
            for name, auditor in self.server_auditors.items()
            for v in auditor.violations] + self._violations))

    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        self._violations.append(AuditViolation(invariant, subject, detail))

    # -- lifecycle hooks (called by the cluster) ------------------------------------

    def on_submit(self, request: "Request") -> None:
        if request.request_id in self._submitted:
            self._flag("cluster.duplicate_submit", "router",
                       f"request {request.request_id} submitted twice")
        self._submitted.add(request.request_id)

    def on_dispatch(self, request: "Request", machine_name: str) -> None:
        self._dispatched.setdefault(request.request_id, []) \
            .append(machine_name)
        if request.request_id not in self._submitted:
            self._flag("cluster.dispatch_provenance", machine_name,
                       f"request {request.request_id} dispatched without "
                       f"submission")

    def on_failure(self, request: "Request", where: str) -> None:
        self._failures[request.request_id] += 1

    def on_complete(self, request: "Request", machine_name: str) -> None:
        self._completions[request.request_id] += 1
        if machine_name not in self._dispatched.get(request.request_id, []):
            self._flag("cluster.completion_provenance", machine_name,
                       f"request {request.request_id} completed on a "
                       f"machine it was never dispatched to")

    def on_drop(self, request: "Request") -> None:
        self._dropped[request.request_id] += 1

    def on_shed(self, request: "Request", machine_name: str) -> None:
        self._shed[request.request_id] += 1
        if machine_name not in self._dispatched.get(request.request_id, []):
            self._flag("cluster.shed_provenance", machine_name,
                       f"request {request.request_id} shed by a machine "
                       f"it was never dispatched to")

    # -- quiesce ---------------------------------------------------------------------

    def check_quiesce(self, raise_on_violation: bool = True
                      ) -> list[AuditViolation]:
        """Verify end-of-run invariants; raise :class:`AuditError` on any.

        May run again: each call adds only the checks it runs.
        """
        for auditor in self.server_auditors.values():
            auditor.check_quiesce(raise_on_violation=False)
        max_attempts = self.cluster.config.max_retries + 1
        for request_id in self._submitted:
            self._checks += 1
            outcomes = (self._completions[request_id]
                        + self._dropped[request_id]
                        + self._shed[request_id])
            if outcomes != 1:
                self._flag(
                    "cluster.exactly_once", f"request {request_id}",
                    f"{self._completions[request_id]} completion(s) + "
                    f"{self._dropped[request_id]} drop(s) + "
                    f"{self._shed[request_id]} shed(s); expected "
                    f"exactly one outcome")
            if self._failures[request_id] > max_attempts:
                self._flag(
                    "cluster.bounded_retries", f"request {request_id}",
                    f"{self._failures[request_id]} failed attempts exceed "
                    f"the budget of {max_attempts}")
            if (self._dropped[request_id]
                    and self._failures[request_id] != max_attempts):
                self._flag(
                    "cluster.drop_budget", f"request {request_id}",
                    f"dropped after {self._failures[request_id]} failed "
                    f"attempts; drops must exhaust all {max_attempts}")
        for request_id in (set(self._completions) | set(self._dropped)
                           | set(self._shed)) - self._submitted:
            self._flag("cluster.outcome_provenance", f"request {request_id}",
                       "completed, dropped or shed but never submitted")
        self._checks += 1
        completed = sum(self._completions.values())
        dropped = sum(self._dropped.values())
        shed = sum(self._shed.values())
        if completed + dropped + shed != len(self._submitted):
            self._flag(
                "cluster.conservation", "cluster",
                f"{len(self._submitted)} submitted != {completed} "
                f"completed + {dropped} dropped + {shed} shed")
        # The reported metrics must tell the same story as the lifecycle
        # records: goodput's denominator (records + shed + dropped) has to
        # match the conservation law above, or the published numbers are
        # silently dropping terminal outcomes.  So must the ledger the
        # report reads.
        self._checks += 1
        metrics, ledger = self.cluster.metrics, self.cluster.ledger
        if (len(metrics.records) != completed or metrics.shed != shed
                or metrics.dropped != dropped):
            self._flag(
                "cluster.metrics_reconciliation", "metrics",
                f"collector saw {len(metrics.records)} completions + "
                f"{metrics.shed} shed + {metrics.dropped} dropped, but the "
                f"lifecycle records have {completed} + {shed} + {dropped}")
        recorded = (len(self._submitted), completed, shed, dropped,
                    sum(self._failures.values()))
        if (ledger.submitted, ledger.completed, ledger.shed, ledger.dropped,
                ledger.failures) != recorded:
            self._flag("cluster.ledger_reconciliation", "ledger",
                       f"{ledger} != lifecycle records (submitted, "
                       f"completed, shed, dropped, failures) {recorded}")
        violations = self.violations
        if violations and raise_on_violation:
            raise AuditError(violations)
        return violations
