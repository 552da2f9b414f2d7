"""Closed-loop desk benchmark for curveshape.

Run from the repository root:

    python3 perfbench/run.py --workload desk-backtest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller runs the workload's ops back to back, each starting after the
previous one returns, and checks every output.  ``--trace 0`` times the
ops for ``--seconds`` seconds with nothing wrapped; ``--trace 1`` runs a
fixed op list untraced, then with only the allocation probe, then under
the span tracer, so its counts repeat exactly for a seed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name with its unit.  The package is
imported from ``src/`` of the checkout the script lives in, with BLAS
limited to one thread (see README.md for why).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("desk-calibrate", "desk-recalibrate", "desk-backtest", "hourly-profile", "curve-shaping")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Fixed op list of a traced run: ops per workload.
TRACE_OPS = dict.fromkeys(WORKLOAD_NAMES, 1) | {"curve-shaping": 200}
# End-to-end metrics every workload reports, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "op_ms_mean", "peak_rss_mb")
QUALITY_UNITS = {"infeasible_fit_frac": "ratio", "coef_err_max": "price", "oos_mae": "EUR/MWh"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]: always one of the samples."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


class Tally:
    """Ops attempted and failed, the wall time of every op, and of each op that passed its check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_s: dict[str, list[float]] = {}
        self.all_s: list[float] = []

    def run_op(self, op, i: int, tracer=None) -> None:
        """Run op ``i`` and check its output; the check is not timed."""
        op_name, call, check = op
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = f"{op_name}#{i}"
        t0 = time.perf_counter()
        try:
            out = call()
            elapsed = time.perf_counter() - t0
            ok = check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            elapsed, ok = time.perf_counter() - t0, False
        self.all_s.append(elapsed)
        if ok:
            self.op_s.setdefault(op_name, []).append(elapsed)
        else:
            self.failed += 1
            print(f"op {op_name} #{i} failed", file=sys.stderr)

    def run_ops(self, ops, tracer=None) -> None:
        for i, op in enumerate(ops):
            self.run_op(op, i, tracer)


def setup(make) -> tuple[object, float]:
    """Set a fresh workload up SETUP_REPEATS times; returns the last one and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def op_metrics(op_s: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """Per-op timing metrics, named as in the README table; ops with no passing sample are left out."""
    metrics = {}
    if "calibrate" in op_s:
        metrics["calibrate_ms_p50"] = (1e3 * statistics.median(op_s["calibrate"]), "ms")
        metrics["calibrate_ms_p90"] = (1e3 * quantile(op_s["calibrate"], 0.9), "ms")
    if "recalibrate" in op_s:
        metrics["recalibrate_ms_p50"] = (1e3 * statistics.median(op_s["recalibrate"]), "ms")
    if "backtest" in op_s:
        metrics["backtest_s"] = (statistics.median(op_s["backtest"]), "s")
    if "fit" in op_s:
        metrics["fit_s_p50"] = (statistics.median(op_s["fit"]), "s")
    if "shape_curve" in op_s:
        metrics["curves_per_s"] = (len(op_s["shape_curve"]) / sum(op_s["shape_curve"]), "1/s")
    return metrics


def run_timed(make, seconds: float, import_s: float = 0.0) -> dict:
    """Closed loop for ``seconds`` on the workload ``make()`` builds, nothing traced."""
    workload, setup_s = setup(make)
    tally = Tally()
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        tally.run_op(workload.op(i), i)
        i += 1
    wall_s = time.perf_counter() - t_start
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        # The mean, not the median: the host's speed changes within a run, and a
        # median over a mix of fast and slow ops jumps from one mode to the other.
        "op_ms_mean": (1e3 * statistics.fmean(tally.all_s), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        **op_metrics(tally.op_s),
        "ops_failed_frac": (tally.failed / tally.attempted, "ratio"),
    }
    for key, value in workload.quality_metrics().items():
        metrics[key] = (value, QUALITY_UNITS[key])
    samples = {op: len(v) for op, v in tally.op_s.items()}
    return {
        "tally": tally,
        "metrics": metrics,
        "gated": END_TO_END,
        "notes": {"ops": len(tally.all_s), "samples": samples, "measured_s": round(wall_s, 3)},
    }


def run_traced(make, n_ops: int, spans_path: Path) -> dict:
    """A fixed op list untraced, again with only the allocation probe, then under the span tracer.

    The tracer times the ops of a fresh set-up of the same inputs, after
    its warm-up op, so its times compare with the untraced ones.
    """
    from spans import ALLOC_SPANS, Tracer, layer_metrics

    workload = make()
    workload.setup()
    ops = workload.trace_ops(n_ops)
    untraced = Tally()
    t0 = time.perf_counter()
    untraced.run_ops(ops)
    untraced_ms = 1e3 * (time.perf_counter() - t0)
    with Tracer(alloc_only=ALLOC_SPANS) as alloc:
        untraced.run_ops(ops, alloc)

    workload = make()
    tally = Tally()
    with Tracer() as tracer:
        tracer.op_id = "setup"
        workload.setup()
        ops = workload.trace_ops(n_ops)
        t0 = time.perf_counter()
        tally.run_ops(ops, tracer)
        traced_ms = 1e3 * (time.perf_counter() - t0)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, alloc)
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    # Every traced run reports every quality figure; 0 where the workload returns no fit.
    quality = dict.fromkeys(QUALITY_UNITS, 0.0) | workload.quality_metrics()
    for key, value in quality.items():
        metrics[key] = (value, QUALITY_UNITS[key])
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    metrics["ops_failed_frac"] = (tally.failed / tally.attempted, "ratio")
    return {
        "tally": tally,
        "metrics": metrics,
        "gated": tuple(metrics),
        "notes": {"ops": len(ops), "spans_file": os.path.relpath(spans_path, ROOT)},
    }


def print_report(name: str, args, env: dict, result: dict) -> None:
    tally = result["tally"]
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print("run " + json.dumps(result["notes"]))
    print(f"  {'ops_attempted':<44} {tally.attempted:>16}")
    print(f"  {'ops_failed':<44} {tally.failed:>16}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<44} {value:>16.6g} {unit}")


def run_one(args) -> int:
    t0 = time.perf_counter()
    if not (SRC / "curveshape" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import curveshape

    if Path(curveshape.__file__).resolve().parent != SRC / "curveshape":
        print(f"error: imported curveshape from {curveshape.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # numpy and the package load here, inside set-up time

    import_s = time.perf_counter() - t0
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    make = partial(workloads.WORKLOADS[args.workload], args.seed, work_dir)
    if args.trace:
        result = run_traced(make, TRACE_OPS[args.workload], work_dir / "spans.jsonl")
    else:
        result = run_timed(make, args.seconds, import_s)
    env = environment()
    print_report(args.workload, args, env, result)
    tally = result["tally"]
    final = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result["metrics"].items()
            if key in result["gated"]
        },
    }
    everything = {key: {"value": v, "unit": u} for key, (v, u) in result["metrics"].items()}
    (work_dir / "result.json").write_text(
        json.dumps({"environment": env, "run": result["notes"], **final, "metrics": everything}, indent=1)
    )
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
