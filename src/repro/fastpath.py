"""Global switch for the simulation fast path.

The fast path is on by default and produces the same simulated results
as the reference implementations; it exists purely to cut wall-clock
time.  It switches three things:

* the flow engine (:mod:`repro.simkit.links`): incremental per-component
  rebalancing with the flat-array fill kernel, instead of a from-scratch
  dict-based refill of every component;
* the planner: the memoized Algorithm-1 timeline;
* the default plan cache of :class:`~repro.core.deepplan.DeepPlan`.

The simulator's event loop and the shard broker's routing have a single
implementation each and do not consult the switch.  Two ways to fall
back to the reference code paths:

* environment: run with ``REPRO_SLOW_PATH=1``;
* in-process: ``with fastpath.forced(False): ...`` — used by the
  differential tests to run both paths side by side.
"""

from __future__ import annotations

import contextlib
import os

_forced: bool | None = None


def enabled() -> bool:
    """True when the fast path should be used."""
    if _forced is not None:
        return _forced
    return os.environ.get("REPRO_SLOW_PATH") != "1"


@contextlib.contextmanager
def forced(value: bool):
    """Force the fast path on/off for the duration of the block."""
    global _forced
    previous = _forced
    _forced = value
    try:
        yield
    finally:
        _forced = previous
