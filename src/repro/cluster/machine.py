"""One machine of the fleet: a server plus its lifecycle state.

:class:`ClusterMachine` also holds the six fault transitions
(:meth:`~ClusterMachine.crash` … :meth:`~ClusterMachine.restore_link`),
written once for both cluster simulators: the single-simulator
:class:`~repro.cluster.cluster.Cluster` and the sharded-replay
:class:`~repro.shard.worker.ShardWorker` differ only in what they do
with the requests a transition orphans.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.hw.machine import Machine
from repro.serving.server import InferenceServer
from repro.serving.workload import Request

__all__ = ["ClusterMachine", "MachineState"]


class MachineState(enum.Enum):
    """Where a machine sits in the fleet lifecycle.

    Only ``ACTIVE`` machines receive traffic.  ``STANDBY`` machines are
    provisioned but idle (the autoscaler's reserve pool); ``DRAINING``
    machines finish in-flight work before returning to standby; ``DOWN``
    machines have crashed and lost all GPU state.
    """

    ACTIVE = "active"
    STANDBY = "standby"
    DRAINING = "draining"
    DOWN = "down"


@dataclasses.dataclass
class ClusterMachine:
    """A named machine in the cluster with its fault transitions.

    Each transition returns the requests it orphaned — an empty list when
    it orphans none — or ``None`` when the machine's state makes the
    action meaningless (crashing a machine that is already down, failing
    a GPU twice, any device action on a down machine) and nothing
    changed.
    """

    name: str
    machine: Machine
    server: InferenceServer
    state: MachineState = MachineState.ACTIVE
    crashes: int = 0
    #: Machines that began life as standbys; only these are eligible for
    #: autoscaler scale-down (the base fleet never drains).
    standby_origin: bool = False
    #: Device-granular fault counters (machine-level crashes excluded).
    gpu_failures: int = 0

    @property
    def routable(self) -> bool:
        return self.state is MachineState.ACTIVE

    def has_replica(self, instance_name: str) -> bool:
        return instance_name in self.server.instances

    # -- fault transitions ----------------------------------------------------------

    def crash(self) -> list[Request] | None:
        """Take the machine down, orphaning all its queued and live work."""
        if self.state not in (MachineState.ACTIVE, MachineState.DRAINING):
            return None
        self.state = MachineState.DOWN
        self.crashes += 1
        return self.server.fail_over()

    def recover(self) -> list[Request] | None:
        """Bring a crashed machine back into rotation, cold."""
        if self.state is not MachineState.DOWN:
            return None
        self.server.recover()
        self.state = MachineState.ACTIVE
        return []

    def fail_gpu(self, gpu: int) -> list[Request] | None:
        """Fail one GPU: abort its provisions and orphan its work.

        Unlike a crash, the rest of the machine keeps serving, and
        in-flight parallel transmissions touching the GPU abort onto the
        degraded fallback plan.
        """
        if self.state is MachineState.DOWN or not self.machine.fail_gpu(gpu):
            return None
        self.gpu_failures += 1
        return self.server.handle_gpu_failure(gpu)

    def recover_gpu(self, gpu: int) -> list[Request] | None:
        """Bring a failed GPU back, cold."""
        if (self.state is MachineState.DOWN
                or not self.machine.recover_gpu(gpu)):
            return None
        return []

    def degrade_link(self, link: str, factor: float) -> list[Request] | None:
        """Degrade one link to *factor* x nominal bandwidth.

        In-flight flows rebalance immediately; parallel transmissions
        relying on the link abort onto the fallback plan when the factor
        drops below the server's degraded-link threshold.
        """
        if (self.state is MachineState.DOWN
                or not self.machine.degrade_link(link, factor)):
            return None
        self.server.handle_link_degradation(self.machine.link(link))
        return []

    def restore_link(self, link: str) -> list[Request] | None:
        """Restore a degraded link to nominal bandwidth."""
        if (self.state is MachineState.DOWN
                or not self.machine.restore_link(link)):
            return None
        return []
