"""In-memory timing spans around the package's public functions.

``Tracer.install`` wraps every public function of the measured modules at
each place it is bound: the defining module, every module that imported it
with ``from ... import``, and the package namespace.  Wrapping only the
defining module would miss the nested calls.  Two public methods that the
per-layer metrics name are wrapped on their class.  Private functions are
left alone, so their time counts as the self time of the public caller.

A span is ``(name, start_ns, end_ns, parent span index, op id)``.  Calls
are synchronous and single-threaded, so a span's children lie inside it
and its self time is its duration minus theirs.  A few wrappers also note
a count from their arguments or result (pairs, design size, iterations).

tracemalloc slows every allocation it sees, so the timing tracer never
starts it.  Allocation peaks come from a second tracer, built with
``alloc_only``, that wraps just the named functions and runs the same ops
in a pass of their own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

PACKAGE = "curveshape"
# Layers measured; ``baselines`` is not, since no workload's path runs through it.
LAYERS = ("robust", "estimator", "market", "periods", "constraints", "shaping", "backtest", "cli")
METHODS = (("robust", "WeightFunctionSpec", "weight"), ("market", "QuoteTable", "filter_dates"))
ALLOC_SPANS = ("robust.qn_scale",)


def _note(name, args, result):
    """Count recorded at a span boundary, or None."""
    if name == "robust.qn_scale":
        n = np.size(args[0])
        return n * (n - 1) // 2
    if name == "estimator.penalized_wls_solve":
        y, system = np.asarray(args[1]), args[3]
        n, k = y.shape[0], (1 if y.ndim == 1 else y.shape[1])
        return (n * k + system.n_rows) * 2 * k * 8
    if name == "market.load_quotes":
        return len(result)
    if name in ("estimator.irls_fit", "shaping.recalibrate_with_traded"):
        return (result.iterations, result.converged)
    return None


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of the current op.

    With ``alloc_only``, only those span names are wrapped, and each call
    records its tracemalloc peak in ``alloc_peak``.
    """

    def __init__(self, alloc_only: tuple[str, ...] = ()) -> None:
        self.spans: list = []
        self.notes: dict[int, object] = {}
        self.alloc_peak: dict[int, int] = {}
        self.alloc_only = alloc_only
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        measure_alloc = bool(self.alloc_only)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            if measure_alloc:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op_id)
                if measure_alloc:
                    tracer.alloc_peak[sid] = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
            note = _note(name, args, result)
            if note is not None:
                tracer.notes[sid] = note
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if self.alloc_only and f"{layer}.{attr}" not in self.alloc_only:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for site in modules:
                    for site_attr, value in vars(site).copy().items():
                        if value is fn:
                            self._restore.append((site, site_attr, fn))
                            setattr(site, site_attr, wrapper)
        for layer, cls_name, method in METHODS:
            if self.alloc_only and f"{layer}.{method}" not in self.alloc_only:
                continue
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"{layer}.{method}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, alloc: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from a finished trace.

    Spans of the ``setup`` op (set-up and warm-up) only feed
    ``backtest.synthesize_market.ms``; every other metric covers the ops.
    ``alloc`` is the allocation pass over the same ops.
    """
    spans = tracer.spans
    dur = [(s[2] - s[1]) / 1e6 for s in spans]
    child_ms = [0.0] * len(spans)
    for sid, s in enumerate(spans):
        if s[3] >= 0:
            child_ms[s[3]] += dur[sid]
    calls: dict[str, int] = defaultdict(int)
    total_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    layer_self_ms: dict[str, float] = defaultdict(float)
    setup_ms: dict[str, float] = defaultdict(float)
    ids: dict[str, list[int]] = defaultdict(list)
    for sid, s in enumerate(spans):
        name = s[0]
        if s[4] == "setup":
            setup_ms[name] += dur[sid]
            continue
        calls[name] += 1
        total_ms[name] += dur[sid]
        self_ms[name] += dur[sid] - child_ms[sid]
        layer_self_ms[name.split(".")[0]] += dur[sid] - child_ms[sid]
        ids[name].append(sid)

    def has_ancestor(sid: int, name: str) -> bool:
        parent = spans[sid][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def parent_is(sid: int, name: str) -> bool:
        return spans[sid][3] >= 0 and spans[spans[sid][3]][0] == name

    # Fits whose result reaches the caller: recalibration results, and irls_fit
    # results outside a recalibration (whose escalation retries are waste).
    fit_ids = ids["shaping.recalibrate_with_traded"] + [
        sid for sid in ids["estimator.irls_fit"]
        if not has_ancestor(sid, "shaping.recalibrate_with_traded")
    ]
    useful = [tracer.notes[sid] for sid in fit_ids if sid in tracer.notes]
    iterations = sum(it for it, _ in useful)
    solves = calls["estimator.penalized_wls_solve"]
    qn_ids = ids["robust.qn_scale"]
    return {
        "robust.qn_scale.ms": (total_ms["robust.qn_scale"], "ms"),
        "robust.qn_scale.calls": (calls["robust.qn_scale"], "count"),
        "robust.qn_pairs": (sum(tracer.notes.get(sid, 0) for sid in qn_ids), "count"),
        "robust.qn_scale.alloc_peak_mb": (max(alloc.alloc_peak.values(), default=0) / 2**20, "MB"),
        "robust.weight.ms": (total_ms["robust.weight"], "ms"),
        "estimator.irls_fit.calls": (calls["estimator.irls_fit"], "count"),
        "estimator.irls_fit.self_ms": (self_ms["estimator.irls_fit"], "ms"),
        "estimator.penalized_wls_solve.ms": (total_ms["estimator.penalized_wls_solve"], "ms"),
        "estimator.penalized_wls_solve.calls": (solves, "count"),
        "estimator.iterations": (iterations, "count"),
        "estimator.useful_solve_ratio": (iterations / solves if solves else 0.0, "ratio"),
        "estimator.unconverged_fits": (sum(not ok for _, ok in useful), "count"),
        "estimator.design_bytes": (
            sum(tracer.notes.get(sid, 0) for sid in ids["estimator.penalized_wls_solve"]), "bytes"
        ),
        "market.load_quotes.ms": (total_ms["market.load_quotes"], "ms"),
        "market.load_quotes.calls": (calls["market.load_quotes"], "count"),
        "market.quotes_parsed": (
            sum(tracer.notes.get(sid, 0) for sid in ids["market.load_quotes"]), "count"
        ),
        "market.build_regression_dataset.ms": (total_ms["market.build_regression_dataset"], "ms"),
        "market.build_regression_dataset.calls": (calls["market.build_regression_dataset"], "count"),
        "market.filter_dates.ms": (total_ms["market.filter_dates"], "ms"),
        "market.filter_dates.calls": (calls["market.filter_dates"], "count"),
        "periods.parse_contract.calls": (calls["periods.parse_contract"], "count"),
        "periods.period_children.calls": (calls["periods.period_children"], "count"),
        "periods.self_ms": (layer_self_ms["periods"], "ms"),
        "constraints.constraints_for_weights.calls": (
            calls["constraints.constraints_for_weights"], "count"
        ),
        "constraints.arbitrage_gap.calls": (calls["constraints.arbitrage_gap"], "count"),
        "constraints.self_ms": (layer_self_ms["constraints"], "ms"),
        "shaping.shape_curve.self_ms": (self_ms["shaping.shape_curve"], "ms"),
        "shaping.apply_level.calls": (calls["shaping.apply_level"], "count"),
        "shaping.apply_level.ms": (total_ms["shaping.apply_level"], "ms"),
        "shaping.recalibrate_with_traded.self_ms": (
            self_ms["shaping.recalibrate_with_traded"], "ms"
        ),
        "shaping.recal_irls_calls": (
            sum(parent_is(sid, "shaping.recalibrate_with_traded") for sid in ids["estimator.irls_fit"]),
            "count",
        ),
        "backtest.backtest.self_ms": (self_ms["backtest.backtest"], "ms"),
        "backtest.refits": (
            sum(parent_is(sid, "backtest.backtest") for sid in ids["backtest.fit_method"]), "count"
        ),
        "backtest.synthesize_market.ms": (setup_ms["backtest.synthesize_market"], "ms"),
        "cli.main.calls": (calls["cli.main"], "count"),
        # cli.main together with the cli helpers it calls (argparse set-up).
        "cli.main.self_ms": (layer_self_ms["cli"], "ms"),
        "trace.spans": (len(spans), "count"),
    }
