"""Cluster-scale serving: a fleet of machines behind a request router.

The paper serves models from one multi-GPU machine; production fleets
put many such machines behind a router.  This package simulates that
tier on a single :class:`~repro.simkit.sim.Simulator`:

* :class:`ClusterMachine` pairs one :class:`~repro.hw.machine.Machine`
  with one :class:`~repro.serving.server.InferenceServer` and a
  lifecycle state (active / standby / draining / down);
* :class:`Router` picks a replica per request — round-robin,
  least-loaded, or cache-affinity with cold-start-aware spill driven by
  the planner's :attr:`~repro.core.plan.ExecutionPlan.provision_penalty`;
* :class:`FaultInjector` crashes and recovers machines mid-run;
  orphaned requests are retried on surviving replicas with bounded
  exponential backoff;
* :class:`GlobalLedger` counts request outcomes and runs that retry ladder;
* :class:`Autoscaler` activates standby machines when windowed p99
  crosses a threshold and drains them back when load subsides;
* :class:`Cluster` ties it together and produces a
  :class:`ClusterReport` with per-machine breakdowns.

With ``ClusterConfig(audit=True)`` a
:class:`~repro.audit.cluster.ClusterAuditor` proves exactly-once
accounting: every submitted request completes exactly once cluster-wide,
is shed, or is dropped after ``max_retries + 1`` failed attempts.
"""

from repro.cluster.machine import ClusterMachine, MachineState
from repro.cluster.router import ROUTING_POLICIES, GlobalLedger, Router
from repro.cluster.faults import FaultEvent, FaultInjector, random_fault_schedule
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.cluster import (
    Cluster,
    ClusterConfig,
    ClusterReport,
    MachineStats,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "Cluster",
    "ClusterConfig",
    "ClusterMachine",
    "ClusterReport",
    "FaultEvent",
    "FaultInjector",
    "GlobalLedger",
    "MachineState",
    "MachineStats",
    "ROUTING_POLICIES",
    "Router",
    "random_fault_schedule",
]
