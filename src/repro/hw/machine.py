"""The Machine: GPUs, links, and topology queries.

A :class:`Machine` instantiates a :class:`~repro.hw.specs.MachineSpec` on
a simulator: one :class:`~repro.simkit.links.Link` per GPU PCIe lane, one
per PCIe switch uplink, one per NVLink pair, a
:class:`~repro.simkit.links.FlowNetwork` tying them together, and per-GPU
compute resources and memory accounting.

Topology queries answer the questions DeepPlan's transmission planner
asks (Section 4.3.3): which GPUs share a PCIe switch (parallel loading
through the same switch halves both lanes — Table 2), and which GPU pairs
are bridged by NVLink (required for merging partitions).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.hw.host import HostMemory
from repro.hw.memory import DEFAULT_WORKSPACE_BYTES, GPUMemory
from repro.hw.specs import MachineSpec
from repro.simkit import Event, FlowNetwork, Link, Resource, Simulator

__all__ = ["GPU", "Machine"]


class GPU:
    """One GPU: compute engine, device memory, and its PCIe lane."""

    def __init__(self, machine: "Machine", index: int, switch: int,
                 workspace_bytes: int) -> None:
        spec = machine.spec.gpu
        self.machine = machine
        self.index = index
        self.switch = switch
        self.spec = spec
        self.name = f"gpu{index}"
        self.pcie_lane = Link(f"{self.name}.pcie", machine.spec.pcie_lane_bandwidth)
        #: Serializes inferences: one model runs on a GPU at a time, the
        #: execution discipline the paper adopts from Clockwork (§5.3).
        self.compute = Resource(machine.sim, capacity=1, name=f"{self.name}.compute")
        self.memory = GPUMemory(spec.memory_bytes, device=self.name,
                                workspace_bytes=workspace_bytes)
        #: Device-fault flag (see :meth:`Machine.fail_gpu`).  A failed GPU
        #: is excluded from parallel-transmission peer selection and its
        #: queued work is orphaned by the serving layer; its links stay up
        #: so in-flight phantom transfers can drain.
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPU {self.index} ({self.spec.name}) on switch {self.switch}>"


class Machine:
    """A multi-GPU server instantiated on a simulator."""

    def __init__(self, sim: Simulator, spec: MachineSpec,
                 workspace_bytes: int = DEFAULT_WORKSPACE_BYTES) -> None:
        self.sim = sim
        self.spec = spec
        self.network = FlowNetwork(sim)
        self._switch_of = {
            gpu: switch
            for switch, group in enumerate(spec.pcie_switch_groups)
            for gpu in group
        }
        self.gpus = [GPU(self, i, self._switch_of[i], workspace_bytes)
                     for i in range(spec.gpu_count)]
        #: Pinned host memory holding every deployed instance's weights.
        self.host = HostMemory(spec.host_memory_bytes)
        self.switch_uplinks = [
            Link(f"switch{s}.uplink", spec.pcie_uplink_bandwidth)
            for s in range(len(spec.pcie_switch_groups))
        ]
        # NVLink is full-duplex: one Link per direction, so opposing
        # migrations (e.g., two mutual parallel transmissions) never
        # contend with each other.
        self.nvlinks: dict[tuple[int, int], Link] = {}
        for a, b in spec.nvlink_pairs:
            if (a, b) in self.nvlinks:
                continue
            for src, dst in ((a, b), (b, a)):
                self.nvlinks[src, dst] = Link(f"nvlink{src}->{dst}",
                                              spec.nvlink_bandwidth)
        #: Every link on the machine by name (``gpuN.pcie``,
        #: ``switchS.uplink``, ``nvlinkA->B``) — the address space fault
        #: schedules use to target individual links.
        self._links: dict[str, Link] = {}
        for gpu in self.gpus:
            self._links[gpu.pcie_lane.name] = gpu.pcie_lane
        for uplink in self.switch_uplinks:
            self._links[uplink.name] = uplink
        for nvlink in self.nvlinks.values():
            self._links[nvlink.name] = nvlink

    # -- indexing ---------------------------------------------------------------

    def gpu(self, index: int) -> GPU:
        try:
            return self.gpus[index]
        except IndexError:
            raise TopologyError(
                f"machine {self.spec.name} has no GPU {index} "
                f"(only {len(self.gpus)})") from None

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise TopologyError(
                f"machine {self.spec.name} has no link {name!r} "
                f"(links: {', '.join(self.link_names())})") from None

    def link_names(self) -> list[str]:
        return sorted(self._links)

    # -- device faults -----------------------------------------------------------

    def fail_gpu(self, index: int) -> bool:
        """Mark one GPU as failed; ``False`` when it already was.

        The GPU's links are deliberately left at full capacity: transfers
        already in flight when the device dies are phantoms (their results
        are discarded by the serving layer's epoch checks) and must still
        drain so the flow network quiesces.
        """
        gpu = self.gpu(index)
        if gpu.failed:
            return False
        gpu.failed = True
        return True

    def recover_gpu(self, index: int) -> bool:
        """Bring a failed GPU back; ``False`` when it was not failed."""
        gpu = self.gpu(index)
        if not gpu.failed:
            return False
        gpu.failed = False
        return True

    def healthy_gpus(self) -> list[GPU]:
        return [gpu for gpu in self.gpus if not gpu.failed]

    def degrade_link(self, name: str, factor: float) -> bool:
        """Set a link to ``factor`` x nominal capacity, rebalancing flows.

        Returns ``False`` when the link already sits at that capacity.
        """
        if not 0 < factor <= 1:
            raise ValueError(
                f"link degradation factor must be in (0, 1], got {factor}")
        link = self.link(name)
        target = link.nominal_bandwidth * factor
        if target == link.bandwidth:
            return False
        self.network.set_link_bandwidth(link, target)
        return True

    def restore_link(self, name: str) -> bool:
        """Restore a link to nominal capacity; ``False`` if already there."""
        link = self.link(name)
        if link.bandwidth == link.nominal_bandwidth:
            return False
        self.network.set_link_bandwidth(link, link.nominal_bandwidth)
        return True

    def link_degraded(self, name: str) -> bool:
        link = self.link(name)
        return link.bandwidth < link.nominal_bandwidth

    # -- topology queries --------------------------------------------------------

    def switch_of(self, gpu_index: int) -> int:
        self.gpu(gpu_index)
        return self._switch_of[gpu_index]

    def share_pcie_switch(self, a: int, b: int) -> bool:
        return self.switch_of(a) == self.switch_of(b)

    def has_nvlink(self, a: int, b: int) -> bool:
        self.gpu(a)
        self.gpu(b)
        return (a, b) in self.nvlinks

    def parallel_transmission_peers(self, primary: int) -> list[int]:
        """Secondary-GPU candidates for parallel transmission.

        A useful secondary sits on a *different* PCIe switch (otherwise
        the shared uplink halves both lanes, Section 3.2) and must be
        NVLink-connected to the primary so partitions can be merged.
        Candidates are returned nearest-index first for determinism.
        """
        return [g.index for g in self.gpus
                if g.index != primary
                and not self.share_pcie_switch(primary, g.index)
                and self.has_nvlink(primary, g.index)]

    # -- data movement -------------------------------------------------------------

    def pcie_path(self, gpu_index: int) -> list[Link]:
        gpu = self.gpu(gpu_index)
        return [gpu.pcie_lane, self.switch_uplinks[gpu.switch]]

    def nvlink_path(self, src: int, dst: int) -> list[Link]:
        if not self.has_nvlink(src, dst):
            raise TopologyError(
                f"no NVLink between GPU {src} and GPU {dst} on {self.spec.name}")
        return [self.nvlinks[src, dst]]

    def host_to_device(self, gpu_index: int, nbytes: float,
                       overhead: float | None = None,
                       weight: float = 1.0) -> Event:
        """Start a host->GPU copy over PCIe; returns its completion event.

        ``weight`` sets the copy's DMA priority (weighted fair share) —
        parallel transmission issues borrowed-lane copies below the
        lane's own traffic.
        """
        if overhead is None:
            overhead = self.spec.pcie_copy_overhead
        return self.network.transfer(self.pcie_path(gpu_index), nbytes,
                                     setup_delay=overhead, weight=weight)

    def device_to_device(self, src: int, dst: int, nbytes: float,
                         overhead: float | None = None) -> Event:
        """Start a GPU->GPU copy over NVLink; returns its completion event."""
        if overhead is None:
            overhead = self.spec.nvlink_copy_overhead
        return self.network.transfer(self.nvlink_path(src, dst), nbytes,
                                     setup_delay=overhead)

    # -- introspection ----------------------------------------------------------

    def describe(self) -> str:
        """Human-readable topology summary (mirrors ``nvidia-smi topo``)."""
        lines = [f"machine {self.spec.name}: {self.gpu_count}x {self.spec.gpu.name}"]
        for switch, group in enumerate(self.spec.pcie_switch_groups):
            gpus = ", ".join(f"gpu{g}" for g in group)
            lines.append(
                f"  pcie switch {switch}: {gpus} "
                f"(uplink {self.spec.pcie_uplink_bandwidth / 1e9:.1f} GB/s)")
        pairs = ", ".join(sorted({f"{min(p)}-{max(p)}"
                                  for p in self.nvlinks}))
        lines.append(
            f"  nvlink ({self.spec.nvlink_bandwidth / 1e9:.0f} GB/s): {pairs}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.spec.name} with {self.gpu_count} GPUs>"
