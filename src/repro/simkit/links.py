"""Bandwidth-shared links with max-min fair allocation.

PCIe lanes, PCIe switch uplinks and NVLink bricks are all modelled as
:class:`Link` objects.  A transfer is a :class:`Flow` that traverses a
*path* of links (e.g., GPU PCIe lane -> switch uplink) and receives the
max-min fair bandwidth across every link it crosses, recomputed whenever
a flow starts or finishes.  This is what makes contention effects in the
paper — two GPUs halving each other's bandwidth through a shared switch
(Table 2), or parallel transmission interfering across models (Table 4) —
emerge from the model instead of being special-cased.

Rates are recomputed with the classic progressive-filling (water-filling)
algorithm, which yields the unique max-min fair allocation.  The
allocation decomposes exactly over connected components of the
flow/link contention graph (two flows interact only if a chain of shared
links connects them), which enables the incremental fast path: when a
flow starts or finishes, only its connected component is refilled; rates
elsewhere are provably unchanged.  Wake-ups that change no membership at
all (milestone crossings, completions of flows that shared no link) skip
the fill entirely.

The fast path runs the fill as a flat-array kernel: links and flows are
numbered with component-local integers, the flow×link incidence is a
per-flow index list, and each water-filling iteration freezes a whole
bottleneck group at once, in the reference fill's float evaluation
order.  ``REPRO_SLOW_PATH=1`` (see :mod:`repro.fastpath`) refills every
component from scratch with the original dict-based arithmetic instead
— same per-component evaluation order, so all paths produce
bit-identical rates — and
:meth:`FlowNetwork.reference_fair_rates` exposes the original
whole-network progressive filling for differential testing.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import typing

from repro import fastpath
from repro.simkit.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkit.sim import Simulator

__all__ = ["Link", "Flow", "FlowNetwork"]

# Residual bytes below which a flow counts as complete (absorbs float error).
_EPSILON_BYTES = 1e-3

_INF = float("inf")

_flow_id = operator.attrgetter("id")

#: A milestone's target: called with the flow at the crossing.
MilestoneTarget = typing.Callable[["Flow"], None]


class Link:
    """A unidirectional link with a fixed capacity in bytes/second."""

    __slots__ = ("name", "bandwidth", "nominal_bandwidth", "bytes_carried")

    def __init__(self, name: str, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bandwidth}")
        self.name = name
        self.bandwidth = float(bandwidth)
        #: Design capacity.  ``bandwidth`` is the *current* capacity and can
        #: drop below nominal while a fault schedule degrades the link (see
        #: :meth:`FlowNetwork.set_link_bandwidth`); restoring resets it here.
        self.nominal_bandwidth = float(bandwidth)
        #: Cumulative bytes that have crossed this link (for bandwidth stats).
        self.bytes_carried = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth / 1e9:.2f} GB/s>"


class Flow:
    """An in-flight transfer across a path of links.

    A completed flow drops its done event and milestone targets (the
    events carry the flow as their value), so neither side forms a
    reference cycle and both are freed by reference counting.
    """

    __slots__ = ("id", "path", "nbytes", "remaining", "rate", "max_rate",
                 "weight", "done", "started_at", "milestones",
                 "_next_milestone", "_next_offset")

    _ids = itertools.count()

    def __init__(self, path: typing.Sequence[Link], nbytes: float,
                 done: Event, max_rate: float | None, weight: float,
                 milestones: typing.Sequence[
                     tuple[float, MilestoneTarget]] = ()
                 ) -> None:
        self.id = next(Flow._ids)
        self.path = tuple(path)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.max_rate = max_rate
        self.weight = float(weight)
        self.done: Event | None = done
        #: (byte offset, target) pairs, ascending; each target is called
        #: with the flow when the flow's progress crosses its offset.  Lets
        #: one bulk flow stand in for a whole stream of back-to-back copies
        #: (one milestone per layer) without per-copy flow churn.  Most
        #: flows carry none.
        self.milestones = milestones
        self._next_milestone = 0
        #: Byte offset of the next unfired milestone (``inf`` when none
        #: is left), so the wake-up arithmetic reads one attribute.
        self._next_offset = milestones[0][0] if milestones else _INF

    @property
    def progressed(self) -> float:
        return self.nbytes - self.remaining

    def fire_due_milestones(self) -> None:
        milestones = self.milestones
        i = self._next_milestone
        n = len(milestones)
        due = (self.nbytes - self.remaining) + _EPSILON_BYTES
        while i < n and milestones[i][0] <= due:
            milestones[i][1](self)
            i += 1
        self._next_milestone = i
        self._next_offset = milestones[i][0] if i < n else _INF

    def time_to_next_event(self) -> float:
        """Seconds until this flow's next milestone or completion.

        ``inf`` for a rate-starved flow.  :meth:`FlowNetwork._settle`
        repeats this arithmetic inline, term for term.
        """
        rate = self.rate
        if rate <= 0.0:
            return _INF
        remaining = self.remaining
        # A milestone distance of 0.0 (or less, for a crossed milestone
        # not yet fired) is a real target.
        to_milestone = self._next_offset - (self.nbytes - remaining)
        if to_milestone < remaining:
            return to_milestone / rate
        return remaining / rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow #{self.id} {self.remaining:.0f}/{self.nbytes:.0f}B "
                f"@{self.rate / 1e9:.2f}GB/s>")


class FlowNetwork:
    """Manages active flows and keeps their fair-share rates current."""

    def __init__(self, sim: "Simulator",
                 incremental: bool | None = None) -> None:
        self.sim = sim
        #: Active flows in start order (dict-as-ordered-set: deterministic
        #: iteration, unlike a plain set keyed on object ids).
        self._active: dict[Flow, None] = {}
        #: Links currently carrying flows -> the flows crossing them; the
        #: adjacency structure for connected-component lookups.
        self._link_flows: dict[Link, set[Flow]] = {}
        self._last_settle = sim.now
        self._timer_token = 0
        if incremental is None:
            incremental = fastpath.enabled()
        self._incremental = incremental
        #: Optional audit hook (see :mod:`repro.audit`).  When set, it
        #: receives ``on_flow_completed(flow)`` and
        #: ``on_rates_assigned(network, flows)`` callbacks, where
        #: *flows* are the flows just filled (closed under link sharing:
        #: every flow on their links is among them); ``None`` (the
        #: default) costs one attribute check per rate change.
        self.observer: typing.Any = None

    # -- public API -----------------------------------------------------------

    def transfer(self, path: typing.Sequence[Link], nbytes: float,
                 setup_delay: float = 0.0,
                 max_rate: float | None = None,
                 weight: float = 1.0,
                 milestones: typing.Sequence[
                     tuple[float, MilestoneTarget]] = ()) -> Event:
        """Start a transfer of *nbytes* across *path*.

        Returns an event that succeeds (with the flow) once the last byte
        arrives.  ``setup_delay`` models fixed per-copy overhead (driver
        and DMA-engine setup) that elapses before any byte moves.
        ``max_rate`` optionally caps the flow below link fair share (e.g.,
        a DMA engine limit).  ``weight`` biases the fair share: rates are
        allocated proportionally to weight (weighted max-min fairness),
        which models DMA queue priorities.

        ``milestones`` are ``(byte offset, target)`` pairs, offsets
        ascending: each target is called with the flow when its
        cumulative progress crosses the offset, inside the pass that
        credits the progress, before the wake-up's done events.  A target
        must not start, stop or resize flows; to act at the crossing it
        queues a same-instant action (as ``Event.succeed`` does).
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {nbytes}")
        if not path:
            raise ValueError("transfer path must contain at least one link")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if max_rate is not None and max_rate <= 0:
            # A non-positive cap would create a permanently rate-starved
            # flow whose done event can never fire — reject it like the
            # other argument errors instead of hanging the caller.
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        if milestones:
            offsets = [offset for offset, _ in milestones]
            if offsets[0] < 0:
                raise ValueError(f"milestone offsets must be non-negative, "
                                 f"got {offsets[0]}")
            if sorted(offsets) != offsets:
                raise ValueError("milestone offsets must be ascending")
            if offsets[-1] > nbytes + _EPSILON_BYTES:
                raise ValueError(f"milestone {offsets[-1]} beyond flow size "
                                 f"{nbytes}")
        done = Event(self.sim, name="flow.done")
        flow = Flow(path, nbytes, done, max_rate, weight, milestones)
        if setup_delay > 0:
            self.sim._schedule_callback(functools.partial(self._start, flow),
                                        setup_delay)
        else:
            self._start(flow)
        return done

    @property
    def active_flows(self) -> frozenset[Flow]:
        return frozenset(self._active)

    def set_link_bandwidth(self, link: Link, bandwidth: float) -> None:
        """Change *link*'s capacity at runtime.

        Progress is credited at the old rates up to "now", then every
        in-flight flow crossing the link has its fair share recomputed —
        the degraded (or restored) capacity takes effect immediately, on
        both the incremental fast path and the from-scratch slow path.
        A no-op when the capacity is unchanged.  On an idle link the
        call still settles progress and sets the new capacity, but has
        no flow to refill.
        """
        if bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bandwidth}")
        bandwidth = float(bandwidth)
        if bandwidth == link.bandwidth:
            return
        completed, _ = self._settle()
        link.bandwidth = bandwidth
        flows = self._link_flows.get(link)
        if not flows:
            return
        self._rebalance(completed, None, changed=sorted(flows, key=_flow_id))

    def reference_fair_rates(self) -> dict[Flow, float]:
        """Whole-network progressive filling, without touching flow state.

        The original from-scratch reference implementation: one global
        fill over every active flow, no component decomposition.  Returns
        the would-be rate per flow; differential tests compare this
        against the incremental allocator's assignments.
        """
        rates: dict[Flow, float] = {}
        self._fill_reference(sorted(self._active, key=_flow_id), rates)
        return rates

    # -- internals --------------------------------------------------------------

    def _start(self, flow: Flow) -> None:
        flow.started_at = self.sim._now
        if flow.remaining <= _EPSILON_BYTES:
            self._complete(flow)
            return
        completed, wait = self._settle()
        self._active[flow] = None
        for link in flow.path:
            flows = self._link_flows.get(link)
            if flows is None:
                self._link_flows[link] = {flow}
            else:
                flows.add(flow)
        # Milestones sitting at the flow's current progress (offset 0, or
        # an offset equal to bytes already credited) are due immediately;
        # fire them here so the wake-up timer targets the *next* unfired
        # milestone instead of deferring them to flow completion.
        if flow.milestones:
            flow.fire_due_milestones()
        self._rebalance(completed, wait, started=flow)

    def _complete(self, flow: Flow) -> None:
        """The one completion point of a flow (already off the network).

        Fires the milestones still pending, then the done event, and
        drops the flow's references to the done event and the milestone
        targets: an event holds the flow as its value, so keeping them
        would make the flow cyclic garbage.
        """
        flow.remaining = 0.0
        if flow.milestones:
            flow.fire_due_milestones()
            flow.milestones = ()
        done = flow.done
        flow.done = None
        done.succeed(flow)  # type: ignore[union-attr]
        if self.observer is not None:
            self.observer.on_flow_completed(flow)

    def _settle(self, fire_milestones: bool = False
                ) -> tuple[list[Flow], float]:
        """Credit progress for time elapsed since the last rate change.

        One pass over the active flows, in start order.  Returns the
        flows now within the completion epsilon (the caller completes
        them in :meth:`_rebalance`) and the next wake-up's wait over the
        others — :meth:`Flow.time_to_next_event` at their current rates,
        which is the timer's wait whenever no rate changes before it is
        armed.  With *fire_milestones* (timer wake-ups) each flow's due
        milestones fire in the same pass, so every milestone fires
        before any done event of the wake-up.

        The credit is clamped at the flow's residual bytes: a wake-up
        that lands past the flow's exact completion instant (superseded
        timers, float overshoot in ``remaining / rate``) must not push
        ``remaining`` below zero or credit ``bytes_carried`` with bytes
        the flow never had — the auditor's conservation ledger holds
        exactly because of this clamp.
        """
        now = self.sim._now
        elapsed = now - self._last_settle
        self._last_settle = now
        completed: list[Flow] = []
        wait = _INF
        for flow in self._active:
            remaining = flow.remaining
            rate = flow.rate
            # Zero elapsed time moves zero bytes: rates are finite.
            moved = rate * elapsed
            if moved > 0.0:
                if moved >= remaining:
                    moved = remaining if remaining > 0.0 else 0.0
                remaining = remaining - moved
                flow.remaining = remaining
                for link in flow.path:
                    link.bytes_carried += moved
            if (fire_milestones and flow._next_offset
                    <= (flow.nbytes - remaining) + _EPSILON_BYTES):
                flow.fire_due_milestones()
            if remaining <= _EPSILON_BYTES:
                completed.append(flow)
            elif rate > 0.0:
                # Flow.time_to_next_event, inlined.
                to_milestone = flow._next_offset - (flow.nbytes - remaining)
                candidate = (to_milestone if to_milestone < remaining
                             else remaining) / rate
                if candidate < wait:
                    wait = candidate
        return completed, wait

    def _rebalance(self, completed: typing.Sequence[Flow],
                   wait: float | None,
                   started: Flow | None = None,
                   changed: typing.Sequence[Flow] = ()) -> None:
        """Complete *completed*, recompute fair rates, re-arm the timer.

        On the fast path only the connected component(s) touched by
        *started*, *changed* (flows on a link whose capacity just moved)
        and *completed* are refilled; completions of flows that shared no
        link with a survivor leave every rate untouched.  The observer
        hears the flows refilled: ``(started,)`` for a lone start, the
        sorted component, every active flow on the slow path, or ``()``
        when no flow is left on the links of *completed*.

        *wait* is :meth:`_settle`'s wait over the flows active before
        *started* joined.  It arms the timer when no survivor's rate
        changes here (no fill, or a lone start, whose own wait joins
        it); after any other fill, or with ``None``, the timer rescans.
        """
        active = self._active
        seeds: list[Flow] = [] if started is None else [started]
        if changed:
            seeds.extend(changed)
        if completed:
            link_flows = self._link_flows
            for flow in completed:
                del active[flow]
                for link in flow.path:
                    flows = link_flows[link]
                    flows.discard(flow)
                    if flows:
                        seeds.extend(flows)
                    else:
                        del link_flows[link]
                self._complete(flow)
        filled: typing.Sequence[Flow] = ()
        if not self._incremental:
            self._fill_all_components()
            filled = tuple(active)
            wait = None
        elif started is not None and not completed and not changed:
            # A flow just started and nothing finished: its component
            # seeds the fill, and when its links carry nothing else the
            # component is the flow alone — no walk, no sort, and no
            # other flow's rate moves.
            link_flows = self._link_flows
            filled = (started,)
            for link in started.path:
                if len(link_flows[link]) > 1:
                    filled = sorted(self._component_of(filled),
                                    key=_flow_id)
                    wait = None
                    break
            self._fill(filled)
            if wait is not None:
                own = started.time_to_next_event()
                if own < wait:
                    wait = own
        elif seeds:
            filled = sorted(self._component_of(seeds), key=_flow_id)
            self._fill(filled)
            wait = None
        # Also when *filled* is empty: the last completion of a run
        # leaves the network quiescent, and auditors need that final
        # allocation, or their ledgers end one assignment short.
        if self.observer is not None:
            self.observer.on_rates_assigned(self, filled)
        self._arm_timer(wait)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a later rebalance
        completed, wait = self._settle(fire_milestones=True)
        if completed:
            self._rebalance(completed, wait)
            return
        # A milestone-only wake-up: no flow started or finished, so the
        # allocation is already the fair one (on both paths), no rate
        # changed and only the timer moves — to the wait _settle found
        # (the slow path rescans).
        self._arm_timer(wait if self._incremental else None)

    def _scan_wait(self) -> float:
        """The next wake-up's wait: the min over active flows of
        :meth:`Flow.time_to_next_event`, ``inf`` when none has one."""
        return min((flow.time_to_next_event() for flow in self._active),
                   default=_INF)

    def _arm_timer(self, wait: float | None = None) -> None:
        """Schedule the next wake-up, superseding any pending one.

        The timer fires at the earliest flow completion *or* milestone
        crossing, whichever comes first: after *wait* seconds, or, with
        ``None``, after the wait a full :meth:`_scan_wait` finds.
        """
        self._timer_token += 1
        if wait is None:
            wait = self._scan_wait()
        if wait == _INF:
            # No active flow, or every one is rate-starved (e.g. links
            # drained to a zero residual by float-exhausted allocations);
            # rates will be reassigned when another flow starts or
            # finishes.
            return
        sim = self.sim
        # A partial, not a lambda: the wake-up then runs without an extra
        # Python frame.
        wake = functools.partial(self._on_timer, self._timer_token)
        if wait <= 0.0:
            sim._ripe.append(wake)
        else:
            now = sim._now
            if now + wait <= now:
                # The next byte event is closer than one representable
                # tick of the clock (a sub-epsilon residue on a fast
                # link, late in a long run).  A same-timestamp wake-up
                # settles zero elapsed time, recomputes the identical
                # wait, and spins forever — clamp to one ulp so time,
                # and therefore settled progress, actually advances.
                wait = math.ulp(now)
            sim._schedule_at(now + wait, wake)

    def _component_of(self, seeds: typing.Iterable[Flow]) -> set[Flow]:
        """Active flows connected to *seeds* through chains of shared links.

        The walk is link-granular: each link's whole flow set joins the
        component in one bulk set union and each link is expanded exactly
        once, so the cost is O(flows + links) instead of the
        O(flows × links × neighbours) of a flow-by-flow walk.
        """
        active = self._active
        link_flows = self._link_flows
        component: set[Flow] = set()
        pending: list[Link] = []
        for flow in seeds:
            if flow in active and flow not in component:
                component.add(flow)
                pending.extend(flow.path)
        seen: set[Link] = set()
        while pending:
            link = pending.pop()
            if link in seen:
                continue
            seen.add(link)
            fresh = link_flows[link] - component
            if fresh:
                component |= fresh
                for flow in fresh:
                    pending.extend(flow.path)
        return component

    def _fill_all_components(self) -> None:
        """From-scratch refill of every component (the slow path).

        Each component is filled independently with the same arithmetic
        the incremental path uses, so slow- and fast-path runs produce
        bit-identical rates.
        """
        visited: set[Flow] = set()
        for flow in self._active:
            if flow in visited:
                continue
            component = self._component_of((flow,))
            visited |= component
            self._fill(sorted(component, key=_flow_id))

    # -- the water-filling kernels ------------------------------------------------
    #
    # Two implementations of weighted progressive filling share one
    # float evaluation order, which makes their outputs bit-identical:
    #
    # * _fill_reference — the original dict-bookkeeping loop, kept as the
    #   executable spec (reference_fair_rates, REPRO_SLOW_PATH=1);
    # * _fill_small — the same algorithm over flat arrays indexed by
    #   component-local integers (the fast path).
    #
    # The order contract: flows are visited in ascending flow id; a
    # frozen flow's rate is subtracted from its path links in path
    # order; per-link load/count bookkeeping follows the same sequence.

    def _fill(self, ordered: typing.Sequence[Flow]) -> None:
        """Weighted progressive filling over *ordered* (a closed flow set).

        Freezes flows at bottlenecks: each unfrozen flow receives
        ``weight * share`` where ``share`` is the per-unit-weight
        allocation of its tightest link; flows capped below their fair
        share free the remainder for the rest.  *ordered* must be closed
        under link sharing (a union of connected components) and sorted
        by flow id, which fixes the float evaluation order.  Writes
        rates to ``flow.rate``.
        """
        n = len(ordered)
        if n == 0:
            # Every seed completed and took its neighbours with it;
            # nothing left to allocate.
            return
        if n == 1:
            # A lone flow (its links carry nothing else — the usual case
            # for a warm DHA read on an uncontended lane) gets the
            # per-unit-weight share of its tightest link, capped.  The
            # arithmetic is the general loop's first iteration verbatim
            # (``0.0 + weight`` is exact), so the shortcut is
            # bit-identical.
            flow = ordered[0]
            weight = flow.weight
            rate = _INF
            for link in flow.path:
                share = link.bandwidth / weight
                if share < rate:
                    rate = share
            rate = weight * rate
            if flow.max_rate is not None and flow.max_rate <= rate:
                rate = flow.max_rate
            flow.rate = rate
            return
        if self._incremental:
            self._fill_small(ordered)
        else:
            self._fill_reference(ordered)

    def _fill_small(self, ordered: typing.Sequence[Flow]) -> None:
        """Flat-array progressive filling over *ordered*.

        Links carry component-local integer ids in first-seen order (the
        same order the reference fill's dicts iterate), per-link state
        lives in parallel lists, and each iteration freezes one whole
        bottleneck group — no per-flow dict bookkeeping.
        """
        n = len(ordered)
        link_ids: dict[Link, int] = {}
        residual: list[float] = []
        load: list[float] = []
        count: list[int] = []
        flows_of: list[list[int]] = []
        links_of: list[tuple[int, ...]] = []
        weights: list[float] = []
        caps: list[float | None] = []
        any_cap = False
        for i, flow in enumerate(ordered):
            weight = flow.weight
            ids: list[int] = []
            for link in flow.path:
                j = link_ids.get(link)
                if j is None:
                    j = link_ids[link] = len(residual)
                    residual.append(link.bandwidth)
                    load.append(0.0)
                    count.append(0)
                    flows_of.append([])
                load[j] += weight
                count[j] += 1
                flows_of[j].append(i)
                ids.append(j)
            cap = flow.max_rate
            if cap is not None:
                any_cap = True
            links_of.append(tuple(ids))
            weights.append(weight)
            caps.append(cap)
        m = len(residual)

        frozen = bytearray(n)
        left = n
        while left:
            # The next bottleneck is the smallest per-unit-weight share,
            # considering links and per-flow rate caps.  One pass finds
            # both the share and the first link attaining it, matching
            # min()'s first-strict-minimum semantics on the dict order.
            share = _INF
            bottleneck = -1
            for j in range(m):
                if count[j] > 0:
                    s = residual[j] / load[j]
                    if s < share:
                        share = s
                        bottleneck = j
            if any_cap:
                capped = [i for i in range(n)
                          if not frozen[i] and caps[i] is not None
                          and caps[i] <= weights[i] * share]
                if capped:
                    # Freeze capped flows at their own limit first; their
                    # unused share is redistributed on the next iteration.
                    for i in capped:
                        rate = caps[i]
                        ordered[i].rate = rate
                        frozen[i] = 1
                        left -= 1
                        weight = weights[i]
                        for j in links_of[i]:
                            r = residual[j] - rate
                            residual[j] = r if r > 0.0 else 0.0
                            c = count[j] - 1
                            count[j] = c
                            load[j] = load[j] - weight if c else 0.0
                    continue
            for i in flows_of[bottleneck]:
                if not frozen[i]:
                    rate = weights[i] * share
                    ordered[i].rate = rate
                    frozen[i] = 1
                    left -= 1
                    weight = weights[i]
                    for j in links_of[i]:
                        r = residual[j] - rate
                        residual[j] = r if r > 0.0 else 0.0
                        c = count[j] - 1
                        count[j] = c
                        load[j] = load[j] - weight if c else 0.0

    def _fill_reference(self, ordered: typing.Sequence[Flow],
                        into: dict[Flow, float] | None = None) -> None:
        """The original dict-bookkeeping progressive filling.

        Kept verbatim as the executable specification: it backs
        :meth:`reference_fair_rates` and the ``REPRO_SLOW_PATH=1``
        from-scratch path the differential sweeps compare against.
        Writes rates to ``flow.rate``, or into *into* when given
        (reference mode).
        """
        if len(ordered) == 1:
            flow = ordered[0]
            weight = flow.weight
            rate = _INF
            for link in flow.path:
                share = link.bandwidth / weight
                if share < rate:
                    rate = share
            rate = weight * rate
            if flow.max_rate is not None and flow.max_rate <= rate:
                rate = flow.max_rate
            if into is None:
                flow.rate = rate
            else:
                into[flow] = rate
            return
        residual: dict[Link, float] = {}
        load: dict[Link, float] = {}
        # Unfrozen-flow count per link.  The "link still contested" test
        # must use this integer, not ``load > 0``: fractional weights
        # (e.g. 0.4) leave float residue when subtracted back out, and a
        # drained link with residual load but no unfrozen flows would be
        # picked as a bottleneck that no iteration can freeze — an
        # infinite loop.
        count: dict[Link, int] = {}
        for flow in ordered:
            for link in flow.path:
                residual.setdefault(link, link.bandwidth)
                load[link] = load.get(link, 0.0) + flow.weight
                count[link] = count.get(link, 0) + 1

        unfrozen = dict.fromkeys(ordered)
        while unfrozen:
            # The next bottleneck is the smallest per-unit-weight share,
            # considering links and per-flow rate caps.
            share = min(residual[link] / load[link]
                        for link in residual if count[link] > 0)
            capped = [f for f in unfrozen
                      if f.max_rate is not None
                      and f.max_rate <= f.weight * share]
            if capped:
                # Freeze capped flows at their own limit first; their unused
                # share is redistributed on the next iteration.
                for flow in capped:
                    self._freeze(flow, typing.cast(float, flow.max_rate),
                                 unfrozen, residual, load, count, into)
                continue
            bottleneck = min((link for link in residual if count[link] > 0),
                             key=lambda link: residual[link] / load[link])
            for flow in [f for f in unfrozen if bottleneck in f.path]:
                self._freeze(flow, flow.weight * share, unfrozen, residual,
                             load, count, into)

    @staticmethod
    def _freeze(flow: Flow, rate: float, unfrozen: dict[Flow, None],
                residual: dict[Link, float], load: dict[Link, float],
                count: dict[Link, int],
                into: dict[Flow, float] | None = None) -> None:
        if into is None:
            flow.rate = rate
        else:
            into[flow] = rate
        del unfrozen[flow]
        for link in flow.path:
            residual[link] = max(0.0, residual[link] - rate)
            count[link] -= 1
            load[link] = load[link] - flow.weight if count[link] else 0.0
