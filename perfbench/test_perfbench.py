"""Small-size checks of the benchmark itself: smoke runs, determinism, output contract.

Run with ``python -m pytest perfbench`` from the repository root; the
workloads are shrunk here, so the whole file takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "desk-calibrate": partial(workloads.DeskCalibrate, n_train=40, n_test=6),
    "desk-recalibrate": partial(workloads.DeskRecalibrate, n_train=40, n_test=6),
    "desk-backtest": partial(workloads.DeskBacktest, n_train=40, n_test=6),
    "hourly-profile": partial(workloads.HourlyProfile, n_days=30),
    "curve-shaping": partial(workloads.CurveShaping, n_prices=8),
}
TRACE_OPS = dict.fromkeys(SMALL, 1) | {"curve-shaping": 3}
# Counts and quality figures that two traced runs on one seed must repeat exactly.
REPEATED = (
    "robust.qn_pairs",
    "estimator.iterations",
    "estimator.penalized_wls_solve.calls",
    "estimator.design_bytes",
    "shaping.apply_level.calls",
    "shaping.recal_irls_calls",
    "coef_err_max",
    "oos_mae",
    "infeasible_fit_frac",
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_checks_every_op(name, tmp_path):
    result = run.run_timed(partial(SMALL[name], 5, tmp_path), seconds=0.05)
    tally = result["tally"]
    assert tally.attempted >= 1
    assert tally.failed == 0
    assert set(run.END_TO_END) <= set(result["metrics"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    make = partial(SMALL[name], 7, tmp_path)
    first = run.run_traced(make, TRACE_OPS[name], tmp_path / "a.jsonl")["metrics"]
    second = run.run_traced(make, TRACE_OPS[name], tmp_path / "b.jsonl")["metrics"]
    for key in REPEATED:
        assert first[key] == second[key], key
    counts = [key for key, (_, unit) in first.items() if unit == "count"]
    assert {key: first[key] for key in counts} == {key: second[key] for key in counts}


def _traced(name, tmp_path):
    result = run.run_traced(partial(SMALL[name], 3, tmp_path), TRACE_OPS[name], tmp_path / "s.jsonl")
    return {key: value for key, (value, _) in result["metrics"].items()}


def test_traced_calibrate_goes_through_cli_and_market(tmp_path):
    m = _traced("desk-calibrate", tmp_path)
    assert m["cli.main.calls"] == 1
    assert m["market.load_quotes.calls"] == 1
    assert m["market.quotes_parsed"] == 40 * 5
    assert m["robust.qn_scale.calls"] == m["estimator.irls_fit.calls"] == 1
    assert m["shaping.recal_irls_calls"] == m["backtest.refits"] == 0
    assert 0.0 < m["estimator.useful_solve_ratio"] <= 1.0


def test_traced_recalibrate_counts_its_escalation(tmp_path):
    m = _traced("desk-recalibrate", tmp_path)
    assert m["shaping.recal_irls_calls"] >= 1
    assert m["estimator.irls_fit.calls"] == m["shaping.recal_irls_calls"]
    assert m["cli.main.calls"] == m["backtest.refits"] == 0
    assert 0.0 < m["estimator.useful_solve_ratio"] <= 1.0


def test_traced_backtest_refits_every_test_date(tmp_path):
    m = _traced("desk-backtest", tmp_path)
    # The train fit plus one expanding-window refit per test date.
    assert m["backtest.refits"] == 1 + 6
    assert m["periods.period_children.calls"] > 0
    assert m["market.build_regression_dataset.calls"] > 0
    assert m["cli.main.calls"] == m["shaping.recal_irls_calls"] == 0


def test_traced_hourly_adds_the_cutoff_case(tmp_path):
    m = _traced("hourly-profile", tmp_path)
    # The timed fit plus the fixed near-cutoff fit, each one irls_fit.
    assert m["estimator.irls_fit.calls"] == 2
    assert m["robust.qn_pairs"] == 2 * (30 * 24) * (30 * 24 - 1) // 2
    assert m["robust.qn_scale.alloc_peak_mb"] > 0.0


def test_tracer_restores_the_package():
    import curveshape
    from curveshape import estimator, robust, shaping
    from spans import Tracer

    before = (curveshape.irls_fit, estimator.qn_scale, shaping.irls_fit, robust.WeightFunctionSpec.weight)
    with Tracer():
        assert shaping.irls_fit is not before[2]
        assert estimator.qn_scale is not before[1]
    after = (curveshape.irls_fit, estimator.qn_scale, shaping.irls_fit, robust.WeightFunctionSpec.weight)
    assert after == before


def _final_line(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=120, check=False)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_final_line_carries_the_listed_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "curve-shaping",
           "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    code, lines = _final_line(cmd, ROOT)
    assert code == 0
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == listed


def test_fails_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        shutil.copy(HERE / name, bench / name)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "curve-shaping",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    code, lines = _final_line(cmd, tmp_path)
    assert code != 0
    assert lines == []
