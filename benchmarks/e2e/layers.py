"""The layer map, and the per-layer view of a cProfile'd rep.

Self time (pstats ``tottime``) is bucketed by source file into the
stack's layers.  Code outside ``src/repro`` — C builtins, numpy, the
rest of the standard library — is charged to the layer of its caller,
split over the pstats caller edges in proportion to the time each edge
carried.  The exception is the standard library's IPC machinery
(multiprocessing, pickle, select), which is a layer of its own,
``shard.ipc``: the broker waiting on, or talking to, its workers.  The
harness's own code (driving the rep, sampling the machine's speed) and
what it calls is left out, so the layers' shares sum to 1 over the
program's time.

Counts come from the same profile: the number of calls into a few
functions at layer boundaries (:data:`COUNTED_CALLS`).
"""

from __future__ import annotations

import importlib
import pathlib
import pstats
import typing

#: (layer, path under ``src/``); a path ending in ``/`` covers a whole
#: package.  Every module of the program matches exactly one rule (the
#: self-test checks it), so a new module is assigned deliberately rather
#: than landing in ``other``.
LAYER_RULES: tuple[tuple[str, str], ...] = (
    ("simkit.sim", "repro/simkit/__init__.py"),
    ("simkit.sim", "repro/simkit/sim.py"),
    ("simkit.sim", "repro/simkit/events.py"),
    ("simkit.sim", "repro/simkit/resources.py"),
    ("simkit.links", "repro/simkit/links.py"),
    ("engine", "repro/engine/"),
    ("serving", "repro/serving/__init__.py"),
    ("serving", "repro/serving/server.py"),
    ("serving", "repro/serving/cache.py"),
    ("serving", "repro/serving/instance.py"),
    ("serving", "repro/serving/workload.py"),
    ("serving", "repro/serving/maf.py"),
    ("serving.metrics", "repro/serving/metrics.py"),
    ("serving.metrics", "repro/serving/histogram.py"),
    ("core", "repro/core/"),
    ("models", "repro/models/"),
    ("hw", "repro/hw/"),
    ("cluster", "repro/cluster/"),
    ("loadgen", "repro/loadgen/"),
    ("audit", "repro/audit/"),
    ("shard.broker", "repro/shard/__init__.py"),
    ("shard.broker", "repro/shard/broker.py"),
    ("shard.broker", "repro/shard/replay.py"),
    ("shard.broker", "repro/shard/worker.py"),
    ("shard.wire", "repro/shard/protocol.py"),
    ("shard.wire", "repro/shard/supervision.py"),
    ("other", "repro/__init__.py"),
    ("other", "repro/errors.py"),
    ("other", "repro/units.py"),
    ("other", "repro/fastpath.py"),
    ("other", "repro/cli.py"),
    ("other", "repro/analysis/"),
)

IPC = "shard.ipc"
OTHER = "other"
#: Not a layer: the harness's own time, dropped from the totals.
HARNESS = "harness"

#: Standard-library files that, with the multiprocessing package, make
#: up :data:`IPC`.
IPC_FILES = ("/pickle.py", "/selectors.py")
#: C builtins (pstats file ``~``) of :data:`IPC`, by name fragment.
IPC_BUILTINS = ("_pickle.", "select.")

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _ in LAYER_RULES if layer != OTHER] + [IPC, OTHER]))

#: Calls into the program counted from the profile: metric -> functions.
#: A function a later change removes simply stops counting.
COUNTED_CALLS: dict[str, tuple[str, ...]] = {
    "core.plan_calls": ("repro.core.deepplan.DeepPlan.plan",),
    "simkit.sim.timeouts": ("repro.simkit.sim.Simulator.timeout",
                            "repro.simkit.sim.Simulator.timeout_at"),
    "simkit.sim.processes": ("repro.simkit.sim.Simulator.process",),
    "simkit.links.transfers": ("repro.simkit.links.Flow.__init__",),
    "serving.evictions": ("repro.serving.cache.InstanceCache._evict_victim",
                          "repro.serving.cache.InstanceCache.evict"),
    "cluster.route_calls": (
        "repro.cluster.router.Router.route",
        "repro.shard.broker.EpochBroker._route",
        "repro.shard.broker.EpochBroker._route_batch_vectorized"),
}

Func = tuple[str, int, str]


def rules_for(module: str) -> list[str]:
    """Layers of every rule covering *module* (a path like ``repro/x.py``)."""
    return [layer for layer, rule in LAYER_RULES
            if module == rule or (rule.endswith("/")
                                  and module.startswith(rule))]


class LayerMap:
    """Charges the self time of profiled functions to layers."""

    def __init__(self, src: pathlib.Path, harness: pathlib.Path) -> None:
        self._src = str(src.resolve()) + "/"
        self._harness = str(harness.resolve()) + "/"

    def own_layer(self, func: Func) -> str | None:
        """The layer the code of *func* belongs to; ``None`` for library
        code (builtins included), which is charged to its caller."""
        filename, _, name = func
        if filename.startswith(self._src):
            layers = rules_for(filename[len(self._src):])
            return layers[0] if layers else OTHER
        if filename.startswith(self._harness):
            return HARNESS
        if ("/multiprocessing/" in filename or filename.endswith(IPC_FILES)
                or (filename == "~" and any(fragment in name for fragment
                                            in IPC_BUILTINS))):
            return IPC
        return None

    def layer_seconds(self, stats: pstats.Stats) -> dict[str, float]:
        """Self seconds per layer; they sum to the profile's total less
        the harness's own time."""
        table: dict[Func, tuple] = stats.stats  # type: ignore[attr-defined]
        memo: dict[Func, dict[str, float]] = {}

        def shares(func: Func, active: set[Func]) -> dict[str, float]:
            layer = self.own_layer(func)
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            callers = table[func][4] if func in table else {}
            # Each caller edge carries (calls, primitive calls, self
            # time, cumulative time) of *func* when called from there.
            weights = {caller: edge[2] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {caller: edge[0] for caller, edge in
                           callers.items()}
            total = sum(weights.values())
            if func in active or total <= 0:
                return {OTHER: 1.0}
            active.add(func)
            result: dict[str, float] = {}
            for caller, weight in weights.items():
                for layer, share in shares(caller, active).items():
                    result[layer] = result.get(layer, 0.0) \
                        + share * weight / total
            active.discard(func)
            memo[func] = result
            return result

        seconds = dict.fromkeys((*LAYERS, HARNESS), 0.0)
        for func, entry in table.items():
            for layer, share in shares(func, set()).items():
                seconds[layer] += entry[2] * share
        del seconds[HARNESS]
        return seconds


def _pstats_key(dotted: str) -> Func | None:
    """The pstats key of the function at *dotted*; ``None`` if absent."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            target: typing.Any = importlib.import_module(
                ".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr, None)
        code = getattr(target, "__code__", None)
        if code is None:
            return None
        return code.co_filename, code.co_firstlineno, code.co_name
    return None


def call_counts(stats: pstats.Stats) -> dict[str, float]:
    """Calls into each :data:`COUNTED_CALLS` group during the profile."""
    table = stats.stats  # type: ignore[attr-defined]
    counts = {}
    for metric, paths in COUNTED_CALLS.items():
        keys = {_pstats_key(path) for path in paths} - {None}
        counts[metric] = float(sum(table[key][1] for key in keys
                                   if key in table))
    return counts
