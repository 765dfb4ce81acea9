"""The child processes of the end-to-end benchmark.

``run.py`` starts this file in a fresh interpreter in one of two modes::

    python bench.py measure '<json params>'
        Set the program up, run one untimed warm-up rep, then timed reps
        until ``seconds`` have passed and at least ``min_reps`` ran, each
        with its machine speed sampled (see ``measure.py``); with
        ``trace`` one more rep under cProfile; then ``launches`` set-up
        probes.  Prints one JSON object as its last line.
    python bench.py probe <workload> <seed> <quick>
        The set-up probe: a fresh interpreter imports the program, sets
        it up and serves the first request, then prints ``ready``.

Only the standard library and ``measure`` are imported at module level:
the sharded workload's spawned workers import this file as their
``__main__`` (named ``__mp_main__``), and during a measurement they
start sampling their speed right here, so a rep's samples cover every
process that does its work.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time
import traceback
import typing

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

from measure import (  # noqa: E402
    SAMPLES_ENV,
    Speed,
    SpeedSampler,
    collect,
    sample_until_exit,
)

if __name__ == "__mp_main__" and SAMPLES_ENV in os.environ:
    sample_until_exit(pathlib.Path(os.environ[SAMPLES_ENV]))

#: Where the traced rep's profile is written (``<workload>.pstats``).
OUT = HERE / "out"
#: Upper bound on timed reps, whatever ``seconds`` allows.
MAX_REPS = 60
PROBE_TIMEOUT = 60.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(worker_processes: int) -> float:
    """This process's peak RSS plus, per worker, the largest worker's.

    Read before any set-up probe runs, so the only reaped children are
    the workload's own worker processes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * worker) / 1024.0


def _speed_record(wall: float, speed: Speed) -> dict:
    if not speed.count:
        raise RuntimeError(f"no speed samples in {wall:.3f} s")
    return {"wall": wall, "speed": speed.mean, "samples": speed.count}


def _timed(workload: typing.Any, sampler: SpeedSampler,
           samples: pathlib.Path, offered: int,
           run: typing.Callable[[typing.Any], typing.Any]
           ) -> tuple[dict, typing.Any]:
    """One rep with its speed sampled; a raising rep is recorded."""
    inputs = workload.inputs()
    gc.collect()  # don't bill this rep for the previous rep's garbage
    collect(samples)  # drop what earlier processes left behind
    outcome, error = None, None
    start = time.perf_counter()
    sampler.start()
    try:
        outcome = run(inputs)
    except Exception as exc:  # the rep's requests count as failed
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    finally:
        own = sampler.stop()
    wall = time.perf_counter() - start
    record = {**_speed_record(wall, own + collect(samples)),
              "offered": offered, "error": error,
              "summary": None if outcome is None else outcome.summary()}
    return record, outcome


@contextlib.contextmanager
def _wire_bytes() -> typing.Iterator[dict[str, float]]:
    """Count the bytes the broker's pipes carry while the block runs."""
    from multiprocessing import connection

    tally = {"shard.bytes_to_workers": 0.0, "shard.bytes_from_workers": 0.0}
    send = connection.Connection._send_bytes
    recv = connection.Connection._recv_bytes

    def counted_send(self: typing.Any, buf: typing.Any) -> None:
        tally["shard.bytes_to_workers"] += len(buf)
        send(self, buf)

    def counted_recv(self: typing.Any, maxsize: int | None = None
                     ) -> typing.Any:
        buf = recv(self, maxsize)
        with buf.getbuffer() as view:
            tally["shard.bytes_from_workers"] += view.nbytes
        return buf

    connection.Connection._send_bytes = counted_send
    connection.Connection._recv_bytes = counted_recv
    try:
        yield tally
    finally:
        connection.Connection._send_bytes = send
        connection.Connection._recv_bytes = recv


@contextlib.contextmanager
def _plan_cache_lookups() -> typing.Iterator[dict[str, float]]:
    """Count plan-cache hits and misses of every planner in the block."""
    from repro.core.plan_cache import PlanCache

    tally = {"core.plan_cache_hits": 0.0, "core.plan_cache_misses": 0.0}
    get = PlanCache.get

    def counted_get(self: typing.Any, key: typing.Any) -> typing.Any:
        plan = get(self, key)
        tally["core.plan_cache_hits" if plan is not None
              else "core.plan_cache_misses"] += 1
        return plan

    PlanCache.get = counted_get
    try:
        yield tally
    finally:
        PlanCache.get = get


def _traced(workload: typing.Any, sampler: SpeedSampler,
            samples: pathlib.Path, offered: int, name: str) -> dict:
    """One rep under cProfile: layer self times and exact counts."""
    import cProfile
    import pstats

    from layers import LayerMap, call_counts

    profiler = cProfile.Profile()

    def run(inputs: typing.Any) -> typing.Any:
        profiler.enable()
        try:
            return workload.rep(inputs)
        finally:
            profiler.disable()

    with _wire_bytes() as wire, _plan_cache_lookups() as plans:
        record, outcome = _timed(workload, sampler, samples, offered, run)
    OUT.mkdir(exist_ok=True)
    profiler.dump_stats(OUT / f"{name}.pstats")
    stats = pstats.Stats(profiler)
    record["layer_seconds"] = LayerMap(SRC, HERE).layer_seconds(stats)
    record["counts"] = {**call_counts(stats), **plans, **wire,
                        **(outcome.layer_counts() if outcome else {})}
    return record


def _launch(name: str, seed: int, quick: bool,
            samples: pathlib.Path) -> dict:
    """Time one set-up probe from spawn to its first served request."""
    collect(samples)
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, __file__, "probe", name, str(seed),
             str(int(quick))], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        try:
            child.wait(timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe of {name} failed "
                           f"(exit code {child.returncode})")
    # The probe and its workers left their samples when they exited.
    return _speed_record(wall, collect(samples))


def measure(params: dict) -> dict:
    from workloads import WORKLOADS

    name = params["workload"]
    samples = OUT / "samples" / str(os.getpid())
    samples.mkdir(parents=True, exist_ok=True)
    os.environ[SAMPLES_ENV] = str(samples)
    try:
        workload = WORKLOADS[name](params["seed"], params["quick"])
        workload.setup()
        sampler = SpeedSampler()
        warm = workload.rep(workload.inputs())
        reference = warm.summary()
        del warm
        offered = reference["offered"]
        reps = []
        cpu_before = _children_cpu()
        start = time.perf_counter()
        while len(reps) < params["min_reps"] or (
                time.perf_counter() - start < params["seconds"]
                and len(reps) < MAX_REPS):
            reps.append(_timed(workload, sampler, samples, offered,
                               workload.rep)[0])
        result = {"reference": reference, "reps": reps,
                  "worker_cpu_s": _children_cpu() - cpu_before,
                  "rss_mb": _peak_rss_mb(workload.worker_processes)}
        if params["trace"]:
            result["traced"] = _traced(workload, sampler, samples, offered,
                                       name)
        result["setup"] = [_launch(name, params["seed"], params["quick"],
                                   samples)
                           for _ in range(params["launches"])]
    finally:
        shutil.rmtree(samples, ignore_errors=True)
    return result


def probe(name: str, seed: int, quick: bool) -> None:
    sample_until_exit(pathlib.Path(os.environ[SAMPLES_ENV]))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    workload.setup()
    outcome = workload.rep(workload.probe_inputs())
    if outcome.completed != 1:
        raise SystemExit(f"set-up probe of {name}: the first request did "
                         f"not complete")
    print("ready", flush=True)


def main(argv: list[str]) -> None:
    if argv[0] == "probe":
        probe(argv[1], int(argv[2]), argv[3] == "1")
    elif argv[0] == "measure":
        print(json.dumps(measure(json.loads(argv[1]))), flush=True)
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
