"""Command-line interface: fit, predict, backtest, outliers, check-arbitrage, simulate.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    METHOD_NAMES,
    SyntheticMarketConfig,
    XPathParams,
    backtest,
    fit_method,
    synthesize_market,
)
from .constraints import (
    FEASIBILITY_TOLERANCE, arbitrage_gap, constraints_for_weights, split_from_config, split_to_config,
)
from .estimator import FitConfig, gamma_from_report, irls_fit, outlier_report
from .exceptions import CurveShapeError, DataError, NumericalError, _floats
from .market import build_regression_dataset, load_quotes
from .periods import parse_period_label, period_children
from .robust import WeightFunctionSpec
from .shaping import cascade, cascade_from_config, read_leaf_label, shape_curve

_GRANULARITY_DEPTH_NAMES = ("quarter", "month", "day", "hour")


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # missing, a directory, unreadable or not text
        raise DataError(f"cannot read file: {path}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past int()'s digit limit
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path} must hold a JSON object")
    return data


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except (OSError, ValueError) as exc:  # a directory, a missing folder or no permission
        raise DataError(f"cannot write file: {path}") from exc


def _parse_alpha(raw: str):
    if raw.upper() == "AUTO":
        return "auto"
    try:
        return float(raw)
    except ValueError as exc:
        raise DataError(f"bad --alpha value {raw!r}; expected AUTO or a number") from exc


def _parse_date(raw: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise DataError(f"bad date {raw!r}; expected ISO-8601") from exc


def _parse_range(raw: str) -> tuple[date, date]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise DataError(f"bad range {raw!r}; expected START:END")
    start, end = _parse_date(parts[0]), _parse_date(parts[1])
    if end < start:
        raise DataError(f"range {raw!r} ends before it starts")
    return start, end


def _fit_config(args) -> FitConfig:
    spec = WeightFunctionSpec(kind=args.weight_fn)
    return FitConfig(
        weight_spec=spec,
        alpha_multiplier=_parse_alpha(args.alpha),
        scale_estimator=args.scale,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
    )


def _load_fit_inputs(args):
    """The quotes, the split, its constraint system, and the parent and child kinds.

    The split must list every child of its parent at the first child's kind,
    in delivery order, since each weight pairs with the dataset column in
    its place.
    """
    table = load_quotes(args.quotes)
    split = split_from_config(_read_json(args.split))
    try:
        parent = parse_period_label(split.parent_label)
        children = [parse_period_label(c) for c in split.child_labels]
    except DataError:
        raise DataError("split config must name resolvable parent and child periods") from None
    expected = [child.label for child in period_children(parent, children[0].kind)]
    if [child.label for child in children] != expected:
        raise DataError(f"split of {parent.label} must list {', '.join(expected)}, in that order")
    return table, split, constraints_for_weights(split.weights), parent.kind, children[0].kind


def _cmd_fit(args) -> int:
    table, split, system, parent_kind, child_kind = _load_fit_inputs(args)
    dataset, completeness = build_regression_dataset(table, parent_kind, child_kind)
    result = fit_method(args.method, dataset, system, _fit_config(args))
    report = result.to_report()
    report["completeness"] = completeness.as_dict()
    report["split"] = split_to_config(split)
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _resolve_target_depth(casc, target: str) -> int | None:
    """Depth for a level name or granularity keyword; None for period labels."""
    if target in casc.level_names:
        return casc.level_names.index(target) + 1
    wanted = target.lower()
    if wanted in _GRANULARITY_DEPTH_NAMES:
        for i, level_map in enumerate(casc.levels):
            if read_leaf_label(next(iter(level_map.values())).split.child_labels[0])[0] == wanted:
                return i + 1
        raise DataError(f"no shaping path to granularity {target!r}")
    return None


def _cmd_predict(args) -> int:
    config = _read_json(args.cascade)
    report = _read_json(args.coeffs) if args.coeffs else None
    if report is not None:
        gamma_from_report(report)  # a report that fills no split is read all the same
    casc = cascade_from_config(config, report)
    target, override = args.target, args.override_arbitrage
    depth = _resolve_target_depth(casc, target)
    with np.errstate(over="ignore", invalid="ignore"):  # a price that overflows exits 3 below
        if depth is None:  # a specific period label: the single chained price, with no weight
            rows = [(target, "", cascade(args.parent_price, casc, target, override=override))]
        else:
            leaves = shape_curve(args.parent_price, casc, depth, override)
            rows = [(label, repr(weight), price) for label, weight, price in leaves]
    if not all(math.isfinite(price) for _, _, price in rows):
        raise NumericalError("a shaped price overflowed to a non-finite value")
    lines = ["label,period_start,period_end,weight,price"]
    for label, weight, price in rows:
        period = read_leaf_label(label)[1]
        start, end = (period.start.isoformat(), period.end.isoformat()) if period else ("", "")
        lines.append(f"{label},{start},{end},{weight},{price!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_backtest(args) -> int:
    table, _, system, parent_kind, child_kind = _load_fit_inputs(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    comparison = backtest(
        table,
        _parse_range(args.train),
        _parse_range(args.test),
        methods,
        system,
        _fit_config(args),
        parent_kind=parent_kind,
        child_kind=child_kind,
        refit_out_of_sample=args.refit,
    )
    _write_text(args.out, comparison.to_csv())
    return 0


def _cmd_outliers(args) -> int:
    table, _, system, parent_kind, child_kind = _load_fit_inputs(args)
    dataset, _ = build_regression_dataset(table, parent_kind, child_kind)
    result = irls_fit(dataset, system, _fit_config(args))
    flagged = {cid for cid, _ in outlier_report(result, args.threshold)}
    k = dataset.n_children
    header = "case_id,weight," + ",".join(["x"] + [f"y{j + 1}" for j in range(k)]) + ",flagged"
    lines = [header]
    for i, cid in enumerate(dataset.case_ids):
        ys = ",".join(repr(float(v)) for v in dataset.y[i])
        lines.append(
            f"{cid},{float(result.case_weights[i])!r},{float(dataset.x[i])!r},{ys},"
            f"{int(cid in flagged)}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_check_arbitrage(args) -> int:
    report = _read_json(args.coeffs)
    split = split_from_config(_read_json(args.split))
    gamma = gamma_from_report(report, split.child_labels)
    max_gap = arbitrage_gap(constraints_for_weights(split.weights), gamma)
    sys.stdout.write(f"max-abs arbitrage gap: {max_gap:.6g} (tolerance {args.tol:g})\n")
    if not max_gap <= args.tol:  # a NaN gap is a violation
        sys.stderr.write("non-arbitrage constraints violated\n")
        return 2
    return 0


def _cmd_simulate(args) -> int:
    if args.gamma:
        gamma_file = _read_json(args.gamma)
        if "gamma" not in gamma_file:
            raise DataError(f"{args.gamma} has no 'gamma' key")
        gamma = _floats(gamma_file["gamma"], f"'gamma' in {args.gamma}")
        if gamma.size < 2:
            raise DataError(f"'gamma' in {args.gamma} must hold at least one (A, B) pair")
    else:
        gamma = np.array([1.12, -1.6, 0.88, 1.4, 0.92, 0.9, 1.08, -0.7])
    start = _parse_date(args.start_date)
    if args.n_dates < 3:  # the fewest cases a fit takes
        raise DataError(f"--n-dates must be at least 3, not {args.n_dates}")
    k = gamma.size // 2
    weights = np.full(k, 1.0 / k)
    config = SyntheticMarketConfig(
        true_gamma=gamma,
        weights=weights,
        n_dates=args.n_dates,
        start=start,
        delivery_year=args.year,
        x_path=XPathParams(level=args.level, seasonal_amplitude=args.amplitude, noise=args.path_noise),
        noise_scale=args.noise,
        contamination_fraction=args.fraction,
        outlier_magnitude=args.magnitude,
        contamination_type=args.contamination_type,
        seed=args.seed,
    )
    delivery = date(args.year, 1, 1)  # the config has checked the year
    if args.n_dates - 1 > (delivery - start).days:  # the rule load_quotes holds each row to
        raise DataError(
            f"{args.n_dates} quote dates from {start} run past {delivery}, when CAL-{args.year} delivery starts"
        )
    market = synthesize_market(config)
    _write_text(args.out, market.table.to_csv())
    if args.labels_out:
        _write_text(args.labels_out, "\n".join(["case_id"] + market.contaminated_ids) + "\n")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The process's one argument parser, built on the first call; parsing leaves it unchanged."""
    parser = _Parser(prog="curveshape", description=__doc__)
    parser.add_argument("--version", action="version", version=f"curveshape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_flags(p):
        p.add_argument("--quotes", required=True)
        p.add_argument("--split", required=True, help="split config JSON")
        p.add_argument("--out", default=None)
        p.add_argument("--alpha", default="AUTO", help="penalty multiplier c (alpha = c*N*Qn(Y)) or AUTO")
        p.add_argument("--weight-fn", choices=("hampel", "bisquare"), default="hampel")
        p.add_argument("--scale", choices=("mad", "qn"), default="mad")
        p.add_argument("--tolerance", type=float, default=1e-8)
        p.add_argument("--max-iterations", type=int, default=100)

    p_fit = sub.add_parser("fit", help="estimate shaping coefficients from quotes")
    p_fit.add_argument("--method", choices=METHOD_NAMES, default="mcrm")
    add_fit_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="shape a parent price down a cascade")
    p_pred.add_argument("--coeffs", default=None, help="fit report JSON filling missing coefficients")
    p_pred.add_argument("--cascade", required=True, help="cascade config JSON")
    p_pred.add_argument("--parent-price", type=float, required=True)
    p_pred.add_argument("--target", required=True, help="level name, granularity, or period label")
    p_pred.add_argument("--override-arbitrage", action="store_true")
    p_pred.add_argument("--out", default=None)
    p_pred.set_defaults(func=_cmd_predict)

    p_back = sub.add_parser("backtest", help="compare methods in and out of sample")
    p_back.add_argument("--train", required=True, help="ISO range START:END")
    p_back.add_argument("--test", required=True, help="ISO range START:END")
    p_back.add_argument("--methods", default="mcrm,classical")
    p_back.add_argument(
        "--refit", action="store_true",
        help="re-fit on an expanding window for each out-of-sample date instead of freezing coefficients",
    )
    add_fit_flags(p_back)
    p_back.set_defaults(func=_cmd_backtest)

    p_out = sub.add_parser("outliers", help="fit robustly and export flagged cases")
    p_out.add_argument("--threshold", type=float, default=0.6)
    add_fit_flags(p_out)
    p_out.set_defaults(func=_cmd_outliers)

    p_chk = sub.add_parser("check-arbitrage", help="verify a coefficient report against a split")
    p_chk.add_argument("--coeffs", required=True, help="fit report JSON")
    p_chk.add_argument("--split", required=True)
    p_chk.add_argument("--tol", type=float, default=FEASIBILITY_TOLERANCE)
    p_chk.set_defaults(func=_cmd_check_arbitrage)

    p_sim = sub.add_parser("simulate", help="generate a synthetic quote table")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--labels-out", default=None)
    p_sim.add_argument("--gamma", default=None, help="JSON file with {'gamma': [...]} interleaved pairs")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n-dates", type=int, default=250)
    p_sim.add_argument("--start-date", default="2013-01-02")
    p_sim.add_argument("--year", type=int, default=2014)
    p_sim.add_argument("--level", type=float, default=50.0)
    p_sim.add_argument("--amplitude", type=float, default=5.0)
    p_sim.add_argument("--path-noise", type=float, default=0.5)
    p_sim.add_argument("--noise", type=float, default=0.5)
    p_sim.add_argument("--fraction", type=float, default=0.0)
    p_sim.add_argument("--magnitude", type=float, default=8.0)
    p_sim.add_argument("--contamination-type", choices=("vertical", "leverage"), default="vertical")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():  # a nan or inf slips past the range checks below
            if isinstance(value, float) and not np.isfinite(value):
                raise DataError(f"--{name.replace('_', '-')} must be finite, not {value!r}")
        return args.func(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except CurveShapeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
