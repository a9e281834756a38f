"""Command-line front end: single-lag evaluation, tables, verification.

Exit codes: 0 on success, 1 on usage or domain errors (and when fewer
than two methods of a verification return a value), 2 when a requested
tolerance could not be certified (or a verification discrepancy exceeds
its bound).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .config import EvalConfig
from .errors import ConvergenceError, DomainError, IavarError, SlowConvergenceError
from .oracle import (
    QuadratureSettings,
    bessel_laplace_variogram,
    quadrature_variogram,
)
from .variogram import (
    EPS_EDGE,
    CoeffPair,
    Lag,
    Method,
    Regime,
    VariogramResult,
    variogram,
    variogram_diagonal,
    variogram_edge,
    variogram_exact,
    variogram_integral,
    variogram_symmetric,
)

__all__ = ["main"]

CSV_HEADER = ["s", "t", "a", "b", "value", "method", "est_error", "terms"]
METHODS = ("auto", "exact", "edge", "symmetric", "quad", "bessel")


def _fmt(x) -> str:
    # Floats print with 17 significant digits, which round-trip any double.
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _fields(a: float, b: float, lag: Lag, res: VariogramResult) -> dict:
    """One output row, keyed by ``CSV_HEADER``."""
    row = (lag.s, lag.t, a, b, res.value, res.method.value, res.est_error, res.terms)
    return dict(zip(CSV_HEADER, row))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _make_config(args) -> EvalConfig:
    if args.tol is None:
        return EvalConfig(max_terms=args.max_terms)
    return EvalConfig(rel_tol=args.tol, max_terms=args.max_terms)


def _make_quadrature(args) -> QuadratureSettings:
    if args.tol is None:
        return QuadratureSettings()
    return QuadratureSettings(abs_tol=args.tol, rel_tol=args.tol)


def _eval_one(a, b, lag, method, cfg, quad_settings) -> dict:
    if method == "auto":
        res = variogram(CoeffPair(a, b), lag)
    elif method == "exact":
        res = variogram_exact(CoeffPair(a, b), lag, cfg)
    elif method == "edge":
        if abs(a + b - 0.5) > EPS_EDGE:
            raise DomainError("--method edge requires a + b = 1/2")
        res = variogram_edge(a, lag, cfg)
    elif method == "symmetric":
        pair = CoeffPair(a, b)
        if pair.regime is not Regime.SYMMETRIC_QUARTER:
            raise DomainError("--method symmetric requires a = b = 1/4")
        res = variogram_symmetric(lag, cfg)
    elif method in ("quad", "bessel"):
        oracle = quadrature_variogram if method == "quad" else bessel_laplace_variogram
        value = oracle(CoeffPair(a, b), lag, quad_settings)
        # The bound the oracles enforce: they raise when it is not met.
        bound = max(quad_settings.abs_tol, quad_settings.rel_tol * abs(value))
        res = VariogramResult(value, Method(method), bound)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown method {method}")
    return _fields(a, b, lag, res)


def _cmd_eval(args) -> int:
    lag = Lag(args.s, args.t)
    fields = _eval_one(
        args.a, args.b, lag, args.method, _make_config(args), _make_quadrature(args)
    )
    if args.json:
        print(json.dumps(fields))
    else:
        print(" ".join(f"{k}={_fmt(v)}" for k, v in fields.items()))
    return 0


def _cmd_table(args) -> int:
    cfg = _make_config(args)
    quad_settings = _make_quadrature(args)
    records = [
        _eval_one(args.a, args.b, Lag(s, t), args.method, cfg, quad_settings)
        for s in range(args.smax + 1)
        for t in range(args.tmax + 1)
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([_fmt(v) for v in rec.values()] for rec in records)
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(records))
    return 0


def _cmd_verify(args) -> int:
    lag = Lag(args.s, args.t)
    pair = CoeffPair(args.a, args.b)
    # --tol bounds the allowed discrepancy; evaluations always run at
    # full precision so the comparison is meaningful.
    cfg = EvalConfig(max_terms=args.max_terms)
    quad_settings = QuadratureSettings()
    values: dict[str, float] = {}
    refusals: dict[str, IavarError] = {}

    def attempt(name, evaluate):
        # A method that refuses the input (its domain, or the Abel path's
        # reach) is reported; the other methods are still compared.
        try:
            values[name] = evaluate()
        except (DomainError, SlowConvergenceError) as exc:
            refusals[name] = exc

    if pair.regime is Regime.INTERIOR:
        values["exact"] = variogram_exact(pair, lag, cfg).value
    else:
        quarter = pair.regime is Regime.SYMMETRIC_QUARTER
        if quarter:
            values["symmetric"] = variogram_symmetric(lag, cfg).value
        attempt("reduced", lambda: variogram_integral(pair, lag).value)
        if quarter and lag.s == lag.t:
            values["diagonal-closed"] = variogram_diagonal(lag.s)
        attempt("edge-abel", lambda: variogram_edge(args.a, lag, cfg).value)
    attempt("quad", lambda: quadrature_variogram(pair, lag, quad_settings))
    attempt("bessel-difference", lambda: bessel_laplace_variogram(pair, lag, quad_settings))

    for name, value in values.items():
        print(f"{name:18s} {_fmt(value)}")
    for name, exc in refusals.items():
        print(f"{name:18s} refused: {exc}")
    if len(values) < 2:
        print(
            "verification FAILED: fewer than two methods returned a value; "
            f"refused: {', '.join(refusals)}",
            file=sys.stderr,
        )
        return 1
    names = list(values)
    spread = max(
        abs(values[m] - values[n]) for i, m in enumerate(names) for n in names[i + 1 :]
    )
    print(f"max discrepancy    {_fmt(spread)}  (tolerance {_fmt(args.tol)})")
    if spread <= args.tol:
        return 0
    print("verification FAILED: discrepancy exceeds tolerance", file=sys.stderr)
    return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="iavar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
        return value

    def positive_finite(text: str) -> float:
        value = float(text)
        if not 0.0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value

    def add_common(p, with_lag=True):
        p.add_argument("--a", type=float, required=True, help="horizontal coefficient")
        p.add_argument("--b", type=float, required=True, help="vertical coefficient")
        if with_lag:
            p.add_argument("--s", type=int, required=True, help="horizontal lag")
            p.add_argument("--t", type=int, required=True, help="vertical lag")
        p.add_argument("--max-terms", type=int, default=10_000_000)

    p_eval = sub.add_parser("eval", help="evaluate a single lag")
    add_common(p_eval)
    p_eval.add_argument("--method", choices=METHODS, default="auto")
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_table = sub.add_parser("table", help="evaluate a rectangle of lags")
    add_common(p_table, with_lag=False)
    p_table.add_argument("--smax", type=nonnegative_int, required=True)
    p_table.add_argument("--tmax", type=nonnegative_int, required=True)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--method", choices=METHODS, default="auto")
    p_table.add_argument("--tol", type=float, default=None)
    p_table.set_defaults(fn=_cmd_table)

    p_verify = sub.add_parser(
        "verify", help="run every applicable method plus both oracles"
    )
    add_common(p_verify)
    p_verify.add_argument("--tol", type=positive_finite, default=1e-6)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"iavar: convergence failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IavarError) as exc:
        print(f"iavar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
