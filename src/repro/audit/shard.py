"""Sharded-replay audit: conservation per shard, reconciled globally.

The sharded simulator (:mod:`repro.shard`) splits one cluster replay
across several simulator instances, so the single-process
:class:`~repro.audit.cluster.ClusterAuditor` cannot watch the whole
request lifecycle from one place.  Instead each shard maintains a
:class:`ShardLedger` — a picklable running count of every terminal and
in-flight state its machines have seen — and the coordinator keeps a
:class:`~repro.cluster.router.GlobalLedger` (the outcome ledger the
continuous-time cluster keeps too) over the broker's view.  At every
epoch boundary and again at quiesce, :func:`reconcile` proves the
two-level conservation law:

* **per shard** — ``delivered == completed + shed + orphaned +
  in_flight`` (and ``in_flight`` matches the live servers' outstanding
  count plus deliveries scheduled but not yet due);
* **globally** — ``submitted == completed + shed + dropped + pending +
  in_flight`` where ``pending`` counts arrivals and retries the broker
  has not yet dispatched;
* **cross-level** — the sum of shard ledgers tells the same story as
  the broker's ledger: every delivery the broker charged is accounted
  for by exactly one shard, and every failure a shard reported was
  settled by the broker.

Violations raise :class:`~repro.audit.invariants.AuditError` carrying
:class:`~repro.audit.invariants.AuditViolation` entries, exactly like
the machine- and cluster-level auditors.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.audit.invariants import AuditError, AuditViolation

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.router import GlobalLedger

__all__ = ["ShardLedger", "reconcile", "resume_divergence"]


@dataclasses.dataclass
class ShardLedger:
    """Running conservation counters for one shard (picklable).

    ``delivered`` counts requests whose delivery callback fired (i.e.
    they reached a machine's ``submit`` path — including ones that were
    immediately shed or orphaned because the machine was down);
    ``scheduled`` counts deliveries handed to the shard that may not
    have fired yet (epoch horizons can precede a delivery's due time).
    """

    shard_id: int = 0
    scheduled: int = 0
    delivered: int = 0
    completed: int = 0
    shed: int = 0
    orphaned: int = 0

    @property
    def in_flight(self) -> int:
        """Requests inside this shard with no terminal outcome yet."""
        return (self.scheduled - self.completed - self.shed - self.orphaned)

    @property
    def undelivered(self) -> int:
        """Deliveries scheduled beyond the current horizon."""
        return self.scheduled - self.delivered

    def check(self, outstanding: int) -> None:
        """Balance the ledger against the live servers' outstanding count.

        *outstanding* is the sum of ``server.outstanding`` over the
        shard's machines at the moment of the check (an epoch horizon).
        """
        expect = self.delivered - self.completed - self.shed - self.orphaned
        if outstanding != expect:
            raise AuditError([AuditViolation(
                "shard.conservation", f"shard {self.shard_id}",
                f"{self.delivered} delivered != {self.completed} completed "
                f"+ {self.shed} shed + {self.orphaned} orphaned + "
                f"{outstanding} outstanding")])

    def copy(self) -> "ShardLedger":
        return dataclasses.replace(self)


def reconcile(global_ledger: GlobalLedger,
              shard_ledgers: typing.Sequence[ShardLedger],
              pending: int, outstanding: int,
              in_transit: int = 0,
              raise_on_violation: bool = True) -> list[AuditViolation]:
    """Prove the global conservation law at one epoch boundary.

    ``submitted == completed + shed + dropped + pending + in_transit +
    in_flight`` must hold at every boundary.  *in_transit* counts
    deliveries the broker has already routed ahead (the next epoch's
    commands, streamed to the shards while the current epoch is still
    being collected) that no shard ledger has recorded yet.  At quiesce
    *pending*, *in_transit* and the shards' in-flight counts are all
    zero, reducing the law to the familiar
    ``submitted == completed + shed + dropped``.
    """
    violations: list[AuditViolation] = []
    g = global_ledger
    in_flight = sum(ledger.in_flight for ledger in shard_ledgers)
    if (g.submitted != g.completed + g.shed + g.dropped + pending
            + in_transit + in_flight):
        violations.append(AuditViolation(
            "shard.global_conservation", "broker",
            f"{g.submitted} submitted != {g.completed} completed + "
            f"{g.shed} shed + {g.dropped} dropped + {pending} pending + "
            f"{in_transit} in-transit + {in_flight} in-flight"))
    if in_flight + in_transit != outstanding:
        violations.append(AuditViolation(
            "shard.outstanding_reconciliation", "broker",
            f"shard ledgers say {in_flight} in flight + {in_transit} "
            f"in transit but the broker charges {outstanding} "
            f"outstanding dispatches"))
    completed = sum(ledger.completed for ledger in shard_ledgers)
    if completed != g.completed:
        violations.append(AuditViolation(
            "shard.completion_reconciliation", "broker",
            f"shards completed {completed} requests but the broker "
            f"recorded {g.completed}"))
    shed = sum(ledger.shed for ledger in shard_ledgers)
    if shed != g.shed:
        violations.append(AuditViolation(
            "shard.shed_reconciliation", "broker",
            f"shards shed {shed} requests but the broker recorded {g.shed}"))
    if violations and raise_on_violation:
        raise AuditError(violations)
    return violations


def resume_divergence(expected: ShardLedger, actual: ShardLedger,
                      shard_id: int, epoch: int) -> list[AuditViolation]:
    """Compare a fast-forward replay's ledger against the journalled one.

    Used by the process backend's crash recovery: a respawned worker
    re-executes the journalled epoch commands, and because shard state
    is a pure function of (init, commands) every counter must land on
    the exact value the dead worker reported for that epoch.  Any
    difference means the recovered shard walked a different path and
    the bit-identity contract would silently break — the caller turns a
    non-empty result into a
    :class:`~repro.shard.supervision.ShardDeterminismError`.
    """
    violations: list[AuditViolation] = []
    for field in dataclasses.fields(ShardLedger):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        if want != got:
            violations.append(AuditViolation(
                "shard.resume_divergence",
                f"shard {shard_id} epoch {epoch}",
                f"{field.name}: journalled {want}, replayed {got}"))
    return violations
