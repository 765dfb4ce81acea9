"""Paired end-to-end perf gate: this tree against the merge base of BASE.

    python benchmarks/perf_gate.py BASE [WORKLOAD]

Exports ``git merge-base BASE HEAD`` with ``git archive`` into a
temporary directory and overlays this tree's ``benchmarks/e2e/`` and
``BENCHMARK.json`` onto it, so both sides run identical benchmark code.
For every workload of ``BENCHMARK.json``, or just WORKLOAD, it runs
``benchmarks/e2e/run.py --workload W`` on both trees :data:`PAIRS`
times, alternating which side goes first, at the harness's default seed
and ``run_seconds``.  It prints each run's JSON result as it lands, then
one row per workload and end-to-end metric::

    workload metric  base median -> head median  (delta)
        head better in k/n, base IQR q  verdict

A pair counts as head-better when the head's run reads strictly better.
The verdict is ``REGRESSION`` when the head median is worse than the
base median by more than the metric's ``BENCHMARK.json`` bound,
``unresolved`` when the base runs' IQR/median exceeds the bound (they
spread too widely to tell), and ``ok`` otherwise.

The exit status is non-zero when any head run is not ``correct``, the
head's failed/attempted share exceeds the base's, or any metric reads
``REGRESSION``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import typing

ROOT = pathlib.Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"

#: Pairs of base and head runs per workload.
PAIRS = 5


class GateError(Exception):
    """A run produced no result, so the two sides cannot be compared."""


class Row(typing.NamedTuple):
    """The comparison of one end-to-end metric on one workload."""

    workload: str
    metric: str
    base: float
    head: float
    base_iqr: float
    head_better: int
    pairs: int
    verdict: str

    def __str__(self) -> str:
        delta = (self.head - self.base) / self.base
        return (f"{self.workload:13s} {self.metric:12s} {self.base:14.4f} "
                f"-> {self.head:14.4f}  ({delta:+.1%})  head better in "
                f"{self.head_better}/{self.pairs}, base IQR "
                f"{self.base_iqr:.4f}  {self.verdict}")


def _failed_share(runs: list[dict]) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def judge(spec: dict, workload: str, base_runs: list[dict],
          head_runs: list[dict]) -> tuple[list[Row], list[str]]:
    """Compare paired run results of one workload.

    ``base_runs[i]`` and ``head_runs[i]`` are pair *i*, each a
    ``run.py --workload`` JSON result.  Returns the metric rows and the
    reasons the gate fails, empty when it passes.
    """
    failures = []
    if not all(run["correct"] for run in head_runs):
        failures.append(f"{workload}: a head run is not correct")
    base_share, head_share = (_failed_share(base_runs),
                              _failed_share(head_runs))
    if head_share > base_share:
        failures.append(f"{workload}: head failed share {head_share:.2%} "
                        f"exceeds the base's {base_share:.2%}")
    rows = []
    for entry in spec["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        sign = 1.0 if entry["better"] == "higher" else -1.0
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        q1, base_median, q3 = statistics.quantiles(base, n=4)
        head_median = statistics.median(head)
        worse_by = sign * (base_median - head_median) / base_median
        if worse_by > bound:
            verdict = "REGRESSION"
            failures.append(f"{workload} {name}: head median worse by "
                            f"{worse_by:.1%}, bound {bound:.0%}")
        elif (q3 - q1) / base_median > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append(Row(workload, name, base_median, head_median, q3 - q1,
                        sum(sign * (h - b) > 0 for b, h in zip(base, head)),
                        len(base), verdict))
    return rows, failures


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_base(base: str, dest: pathlib.Path) -> str:
    """Export the merge base of *base* and HEAD into *dest* with this
    tree's benchmark on top; return the merge-base commit."""
    commit = _git("merge-base", base, "HEAD")
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)
    shutil.rmtree(dest / "benchmarks" / "e2e", ignore_errors=True)
    shutil.copytree(E2E, dest / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return commit


def run_workload(tree: pathlib.Path, workload: str) -> dict:
    """One ``run.py --workload`` run in *tree*; its JSON result."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateError(f"{workload}: no result from {tree} (exit code "
                        f"{proc.returncode})") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired end-to-end perf gate against a base revision.")
    parser.add_argument("base", help="revision whose merge base with HEAD "
                                     "is the comparison base")
    parser.add_argument("workload", nargs="?",
                        help="one workload of BENCHMARK.json (default: all)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; options: "
                     f"{', '.join(names)}")
    rows: list[Row] = []
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        trees = {"base": pathlib.Path(tmp), "head": ROOT}
        try:
            commit = export_base(args.base, trees["base"])
            print(f"# base {commit} (merge base of {args.base}), head "
                  f"{_git('rev-parse', 'HEAD')} (working tree)")
            print(f"# nproc {len(os.sched_getaffinity(0))}, Python "
                  f"{platform.python_version()}, {PAIRS} pairs per "
                  f"workload, odd pairs run the base first", flush=True)
            for workload in [args.workload] if args.workload else names:
                runs: dict[str, list[dict]] = {"base": [], "head": []}
                for pair in range(PAIRS):
                    order = ("base", "head") if pair % 2 == 0 \
                        else ("head", "base")
                    for side in order:
                        result = run_workload(trees[side], workload)
                        runs[side].append(result)
                        print(f"{workload} {side} {pair + 1} "
                              f"{json.dumps(result)}", flush=True)
                workload_rows, workload_failures = judge(
                    spec, workload, runs["base"], runs["head"])
                rows += workload_rows
                failures += workload_failures
        except (GateError, subprocess.CalledProcessError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    for row in rows:
        print(row)
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
