"""Self-test of the end-to-end benchmark harness.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
tier-1 suite collects only ``tests/``.
"""

from __future__ import annotations

import ast
import json
import pathlib
import statistics
import subprocess
import sys
import time

import pytest

import layers
import measure

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_every_module_maps_to_exactly_one_layer() -> None:
    modules = [path.relative_to(SRC).as_posix()
               for path in sorted((SRC / "repro").rglob("*.py"))]
    assert modules
    ambiguous = {module: layers.rules_for(module) for module in modules
                 if len(layers.rules_for(module)) != 1}
    assert not ambiguous, "assign each module to one layer in LAYER_RULES"
    stale = [rule for _, rule in layers.LAYER_RULES
             if not any(module == rule or (rule.endswith("/")
                                           and module.startswith(rule))
                        for module in modules)]
    assert not stale


def test_calibration_imports_only_the_standard_library() -> None:
    tree = ast.parse((HERE / "measure.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module is not None
            imported.add(node.module.split(".")[0])
    assert imported
    assert imported <= sys.stdlib_module_names - {"repro"}


def test_rescale_expresses_walls_in_reference_seconds() -> None:
    # At the reference speed a wall stays as it is; at half that speed
    # the same work would have taken half the time there.
    reference_speed = 1.0 / measure.CAL_REF
    assert measure.rescale(1.5, reference_speed) == pytest.approx(1.5)
    assert measure.rescale(2.0, reference_speed / 2) == pytest.approx(1.0)
    assert measure.rescale(3.0, reference_speed * 4) == pytest.approx(12.0)


def test_speed_pools_samples_across_processes() -> None:
    pooled = measure.Speed(30.0, 3) + measure.Speed(10.0, 2)
    assert pooled == measure.Speed(40.0, 5)
    assert pooled.mean == pytest.approx(8.0)
    assert measure.Speed().mean == 0.0


def test_sampler_samples_while_the_process_runs(tmp_path: pathlib.Path
                                                ) -> None:
    sampler = measure.SpeedSampler()
    sampler.start()
    deadline = time.process_time() + 0.1
    while time.process_time() < deadline:
        pass
    speed = sampler.stop()
    assert speed.count >= 5
    assert speed.mean > 0
    (tmp_path / "1.json").write_text(json.dumps([speed.total, speed.count]))
    assert measure.collect(tmp_path) == speed
    assert not list(tmp_path.iterdir())


def test_median_quartiles_and_spread() -> None:
    values = [7.0, 1.0, 4.0, 10.0, 2.0, 5.0, 3.0, 9.0, 6.0, 8.0]
    assert measure.median(values) == 5.5
    assert measure.quartiles(values) == (2.75, 5.5, 8.25)
    assert measure.quartiles(values) == tuple(
        statistics.quantiles(values, n=4))
    assert measure.spread(values) == pytest.approx(1.0)
    assert measure.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert measure.spread([4.0]) == 0.0


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_quick_traced_run_is_correct(workload: str) -> None:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == [entry["name"] for entry in SPEC["per_layer"]]
    shares = [metrics[f"{layer}.share"]["value"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
