"""Runtime invariant auditing and differential-execution testing.

Every headline number of this reproduction flows through the
discrete-event simulator and :class:`~repro.serving.metrics.MetricsCollector`,
so a silent accounting bug corrupts the science.  This package turns the
simulator's redundancy into a correctness oracle:

* :class:`MachineAuditor` hooks one machine's
  :class:`~repro.simkit.links.FlowNetwork` and memory accounting and
  checks conservation invariants continuously (allocated rates never
  exceed link bandwidth, residuals stay non-negative, every reserve has
  a matching release, per-link ``bytes_carried`` equals the summed
  progress of the flows that crossed it);
* :class:`ServingAuditor` adds the serving-system invariants on top
  (request queues drained at quiesce, every submitted request recorded
  exactly once, GPU reservations match resident instances, no leaked
  staging buffers) and is enabled with ``ServerConfig(audit=True)`` or
  the ``--audit`` CLI flag;
* :mod:`repro.audit.differential` cross-checks the coalesced execution
  fast paths against the per-layer reference paths over seeded random
  models, plans and workloads.

The hooks are observer attributes that default to ``None``, so the audit
layer costs one attribute check per instrumented operation when off.
"""

from repro.audit.invariants import (
    AuditError,
    AuditViolation,
    MachineAuditor,
    ServingAuditor,
)
from repro.audit.cluster import ClusterAuditor
from repro.audit.shard import ShardLedger, reconcile
from repro.audit.differential import (
    DifferentialCase,
    DifferentialResult,
    differential_serving,
    random_model,
    run_case,
    run_differential_suite,
)

__all__ = [
    "AuditError",
    "AuditViolation",
    "ClusterAuditor",
    "DifferentialCase",
    "DifferentialResult",
    "MachineAuditor",
    "ServingAuditor",
    "ShardLedger",
    "reconcile",
    "differential_serving",
    "random_model",
    "run_case",
    "run_differential_suite",
]
