"""Machine-speed calibration and the summary statistics of the harness.

The benchmark box is shared.  On the 2-CPU reference box a fixed
pure-Python loop runs in one of two speeds that differ by about 1.6x,
switching every 0.1-1 s, and the share of time spent in the slow one
drifts over minutes; each CPU switches on its own.  Raw rep walls
spread 13-24% (IQR/median) within one run.  Timing a calibration loop
before and after each rep cannot see a switch inside the rep: it left
the spread at 13-19%.

So the harness samples the machine's speed *during* each rep, in every
process that does the rep's work.  A :class:`SpeedSampler` arms a
``SIGPROF`` interval timer; each :data:`SAMPLE_INTERVAL` seconds of CPU
time the process spends, the handler times :func:`probe`, a fixed
~12 us loop, so the samples follow the CPU the work runs on, whenever
it runs.  A rep's wall is then expressed in reference-machine seconds::

    calibrated wall = wall * CAL_REF * mean(1 / probe seconds)

``mean(1 / probe)`` is the machine's average speed over the rep's CPU
time, in probes per second; ``CAL_REF`` is one probe's seconds on the
reference machine at full speed.  This cut the rep spread to 1-4% on
every workload, the sharded one included.

This module deliberately imports nothing from ``repro`` (the self-test
checks it), so a change to the program under test cannot change the
yardstick.
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import signal
import statistics
import time
import typing

#: Seconds :func:`probe` takes on the reference machine (the 2-CPU box
#: that produced ``results/baseline.json``) at its full speed.  It only
#: sets the unit: calibrated walls are in reference-machine seconds.
CAL_REF = 12e-6

#: CPU seconds between two speed samples of one process.
SAMPLE_INTERVAL = 0.005

#: Environment variable naming the directory where processes started
#: during a measurement leave their samples (:func:`sample_until_exit`).
SAMPLES_ENV = "E2E_SPEED_SAMPLES"


def probe(rounds: int = 60) -> float:
    """Time one fixed integer loop; return its wall seconds.

    It allocates no containers, so it cannot trigger the collector or
    depend on how large a heap the sampled process holds.
    """
    x = 12345
    acc = 0
    start = time.perf_counter()
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += x >> 7
        acc ^= i
    return time.perf_counter() - start


class Speed(typing.NamedTuple):
    """Speed samples: the sum of ``1 / probe seconds`` and their count."""

    total: float = 0.0
    count: int = 0

    def __add__(self, other: "Speed") -> "Speed":  # type: ignore[override]
        return Speed(self.total + other.total, self.count + other.count)

    @property
    def mean(self) -> float:
        """Average probes per second; 0 without samples."""
        return self.total / self.count if self.count else 0.0


class SpeedSampler:
    """Samples this process's speed every :data:`SAMPLE_INTERVAL` of CPU
    time between :meth:`start` and :meth:`stop` (main thread only)."""

    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def _sample(self, signum: int, frame: typing.Any) -> None:
        self._total += 1.0 / probe()
        self._count += 1

    def start(self) -> None:
        self._total, self._count = 0.0, 0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL,
                         SAMPLE_INTERVAL)

    def stop(self) -> Speed:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        return Speed(self._total, self._count)


def sample_until_exit(directory: pathlib.Path) -> None:
    """Sample this process from now on; at exit, leave the samples in
    ``directory/<pid>.json`` for :func:`collect`."""
    sampler = SpeedSampler()

    def dump() -> None:
        speed = sampler.stop()
        (directory / f"{os.getpid()}.json").write_text(
            json.dumps([speed.total, speed.count]))

    sampler.start()
    atexit.register(dump)


def collect(directory: pathlib.Path) -> Speed:
    """Take (and remove) every process's samples left in *directory*."""
    speed = Speed()
    for path in directory.glob("*.json"):
        total, count = json.loads(path.read_text())
        speed += Speed(total, count)
        path.unlink()
    return speed


def rescale(wall: float, speed: float) -> float:
    """A raw wall time at average *speed* (probes per second) in
    reference-machine seconds."""
    return wall * CAL_REF * speed


def median(values: typing.Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: typing.Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: typing.Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
