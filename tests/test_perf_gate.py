"""The decision rule of ``benchmarks/perf_gate.py`` on synthetic runs.

Each case builds paired base/head ``run.py --workload`` results and
judges them against the real ``BENCHMARK.json`` bounds.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_module = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_module)
_module.loader.exec_module(perf_gate)

#: Five base runs 0.5% apart around a median of 1.0 on every metric.
SPREAD = (0.99, 0.995, 1.0, 1.005, 1.01)
BASE = {"req_per_s": 10_000.0, "setup_s": 0.25, "peak_rss_mb": 50.0,
        "sim_goodput": 0.8}


def _run(correct=True, attempted=10_000, failed=0, **metrics) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in metrics.items()}}


def _runs(scale=None, spread=SPREAD, **fields) -> list[dict]:
    """Five runs: every metric at BASE times a spread factor, times
    ``scale[metric]`` where given."""
    scale = scale or {}
    return [_run(**fields, **{name: value * factor * scale.get(name, 1.0)
                              for name, value in BASE.items()})
            for factor in spread]


def _judge(base_runs, head_runs):
    rows, failures = perf_gate.judge(SPEC, "maf_warm", base_runs, head_runs)
    return {row.metric: row for row in rows}, failures


def test_identical_runs_pass():
    rows, failures = _judge(_runs(), _runs())
    assert failures == []
    assert {row.verdict for row in rows.values()} == {"ok"}
    assert set(rows) == {entry["name"] for entry in SPEC["end_to_end"]}


def test_twenty_percent_throughput_drop_fails():
    rows, failures = _judge(_runs(), _runs({"req_per_s": 0.8}))
    assert rows["req_per_s"].verdict == "REGRESSION"
    assert rows["req_per_s"].head_better == 0
    assert len(failures) == 1 and "req_per_s" in failures[0]


def test_three_percent_throughput_drop_passes():
    rows, failures = _judge(_runs(), _runs({"req_per_s": 0.97}))
    assert failures == []
    assert rows["req_per_s"].verdict == "ok"


def test_incorrect_head_run_fails():
    head = _runs()
    head[2]["correct"] = False
    _, failures = _judge(_runs(), head)
    assert any("not correct" in failure for failure in failures)


def test_incorrect_base_run_alone_passes():
    base = _runs()
    base[2]["correct"] = False
    assert _judge(base, _runs())[1] == []


def test_higher_head_failed_share_fails():
    _, failures = _judge(_runs(failed=1), _runs(failed=2))
    assert len(failures) == 1 and "failed share" in failures[0]


def test_equal_failed_share_passes():
    assert _judge(_runs(failed=1), _runs(failed=1))[1] == []


def test_memory_rise_inside_bound_passes():
    rows, failures = _judge(_runs(), _runs({"peak_rss_mb": 1.04}))
    assert failures == []
    assert rows["peak_rss_mb"].verdict == "ok"


def test_memory_rise_beyond_bound_fails():
    rows, failures = _judge(_runs(), _runs({"peak_rss_mb": 1.06}))
    assert rows["peak_rss_mb"].verdict == "REGRESSION"
    assert len(failures) == 1


def test_wide_base_spread_is_unresolved():
    """Base quartiles 25% apart against req_per_s's 10% bound."""
    wide = (0.7, 0.85, 1.0, 1.15, 1.3)
    rows, failures = _judge(_runs(spread=wide), _runs({"req_per_s": 0.95}))
    assert failures == []
    assert rows["req_per_s"].verdict == "unresolved"
    assert rows["setup_s"].verdict == "unresolved"
    assert rows["peak_rss_mb"].verdict == "unresolved"


def test_lower_is_better_metrics_compare_downwards():
    rows, failures = _judge(_runs(), _runs({"setup_s": 0.6}))
    assert failures == []
    assert rows["setup_s"].verdict == "ok"
    assert rows["setup_s"].head_better == 5
    rows, failures = _judge(_runs(), _runs({"setup_s": 1.4}))
    assert rows["setup_s"].verdict == "REGRESSION"
    assert rows["setup_s"].head_better == 0


def test_higher_is_better_metrics_compare_upwards():
    rows, failures = _judge(_runs(), _runs({"req_per_s": 1.5}))
    assert failures == []
    assert rows["req_per_s"].head_better == 5


def test_row_layout():
    rows, _ = _judge(_runs(), _runs({"req_per_s": 0.8}))
    text = str(rows["req_per_s"])
    assert text.startswith("maf_warm      req_per_s")
    assert "10000.0000 ->" in text and "(-20.0%)" in text
    assert "head better in 0/5, base IQR" in text
    assert text.endswith("REGRESSION")
