"""Layer execution planning: the paper's Algorithm 1.

Starting from the pure pipeline (every parameterized layer loaded), the
planner walks the layers in order and, wherever the pipeline stalls,
converts *earlier* layers to direct-host-access — cheapest conversions
first (smallest ``PerfDiff = Exe(DHA) - Exe(InMem)``) — because removing
a layer's load from the load stream lets every subsequent load start
earlier (paper Figures 7 and 8).

The paper's Step 4 ("UpdatePipelineExecutionFrom") re-profiles the
pipeline once a stall is eliminated; this implementation recomputes the
full timeline from the decision vector before examining each layer,
which is the same fixed point computed more simply.

:func:`initial_approach` implements the strawman the paper contrasts in
Table 3: per-layer comparison of the two methods with no pipeline
awareness.
"""

from __future__ import annotations

import typing

from repro import fastpath
from repro.core.plan import ExecMethod, Partition
from repro.core.stall import Timeline, TimelineMemo, compute_timeline
from repro.models.costs import LayerCosts

__all__ = ["LayerExecutionPlanner", "initial_approach"]


def initial_approach(costs: typing.Sequence[LayerCosts]) -> list[ExecMethod]:
    """Naive per-layer choice: DHA wherever it beats load-then-execute.

    This ignores that a load's latency may be *hidden* by pipelining —
    the flaw Algorithm 1 fixes (e.g., ResNet-101's mid-network convs in
    the paper's Table 3a are DHA here but loaded by DeepPlan).
    """
    decisions = []
    for cost in costs:
        if cost.load_pcie_bytes == 0:
            decisions.append(ExecMethod.DHA)
        elif cost.exec_dha < cost.load_time + cost.exec_inmem:
            decisions.append(ExecMethod.DHA)
        else:
            decisions.append(ExecMethod.LOAD)
    return decisions


class LayerExecutionPlanner:
    """Algorithm 1 over a profile report.

    Parameters
    ----------
    costs:
        Per-layer profile (load time, both execution times).
    partitions:
        Partition layout when planning on top of parallel transmission.
        Only partition 0 is eligible for DHA conversion; later partitions
        arrive over NVLink and stay loads (paper Section 4.3.3).
    nvlink_time:
        Transfer-time function for the NVLink hop (required with more
        than one partition).
    """

    def __init__(self, costs: typing.Sequence[LayerCosts],
                 partitions: typing.Sequence[Partition] = (),
                 nvlink_time: typing.Callable[[int], float] | None = None) -> None:
        self.costs = list(costs)
        self.partitions = tuple(partitions) or (
            Partition(index=0, start=0, stop=len(self.costs)),)
        self.nvlink_time = nvlink_time
        self._primary = self.partitions[0]
        # Conversion candidates in PerfDiff order, computed once:
        # eligibility by layer index and current decision varies per
        # stalled layer, but the ordering key never does, so the per-
        # stall ``sorted`` reduces to a filtered scan of this list
        # (ties break by layer index, matching the stable sort over an
        # index-ascending generator it replaces).
        self._candidate_order = sorted(
            (j for j in range(self._primary.start, self._primary.stop)
             if self.costs[j].load_pcie_bytes > 0),
            key=lambda j: self.costs[j].perf_diff)

    # -- the algorithm -----------------------------------------------------------

    def plan(self, memoize: bool | None = None) -> list[ExecMethod]:
        """Run Algorithm 1 and return the final decision vector.

        ``memoize`` selects the memoized timeline (default: the fast-path
        setting).  The reference path recomputes the full timeline before
        each layer; the memoized path restores the pipeline clocks at the
        first layer a conversion changed and re-accumulates only the
        suffix — same arithmetic, same order, bit-identical decisions.
        """
        if memoize is None:
            memoize = fastpath.enabled()
        decisions = self.all_loaded()
        if not memoize:
            for i in range(len(self.costs)):
                timeline = self._timeline(decisions)
                stall = timeline.stall_of(i)
                if stall <= 0:
                    continue
                self._reduce_stall(i, stall, decisions)
            return decisions

        memo = TimelineMemo(self.costs, decisions, self.partitions,
                            self.nvlink_time)
        for i in range(len(self.costs)):
            stall = memo.stall_of(i)
            if stall <= 0:
                continue
            changed_from = self._reduce_stall(i, stall, decisions)
            if changed_from is not None:
                memo.refresh(decisions, changed_from)
        return decisions

    def _reduce_stall(self, i: int, stall: float,
                      decisions: list[ExecMethod]) -> int | None:
        """Steps 1-4 of Algorithm 1 for one stalled layer ``L_i``.

        Returns the smallest converted layer index (``None`` when no
        conversion happened) so a memoized timeline knows where its
        cached prefix ends.
        """
        # Step 1: candidate layers L_1..L_i not yet converted, cheapest
        # conversions (smallest PerfDiff) first — a filtered scan of the
        # precomputed order.
        limit = min(i, self._primary.stop - 1)
        first_converted: int | None = None
        for j in self._candidate_order:
            if j > limit or decisions[j] is not ExecMethod.LOAD:
                continue
            perf_diff = self.costs[j].perf_diff
            # Step 2: a conversion only helps while its execution-time
            # penalty is smaller than the stall left to remove.
            if stall < perf_diff:
                break
            # Step 3: convert L_j and credit its removed load time.
            decisions[j] = ExecMethod.DHA
            if first_converted is None or j < first_converted:
                first_converted = j
            stall -= self.costs[j].load_time + perf_diff
            # Step 4: stall eliminated; the timeline is recomputed before
            # the next layer is examined.
            if stall <= 0:
                break
        return first_converted

    # -- helpers ----------------------------------------------------------------------

    def all_loaded(self) -> list[ExecMethod]:
        return [ExecMethod.LOAD if cost.load_pcie_bytes > 0 else ExecMethod.DHA
                for cost in self.costs]

    def _timeline(self, decisions: typing.Sequence[ExecMethod]) -> Timeline:
        return compute_timeline(self.costs, decisions, self.partitions,
                                self.nvlink_time)
