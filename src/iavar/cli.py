"""Command-line front end: single-lag evaluation, tables, verification.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when a
requested tolerance could not be certified (or a verification
discrepancy exceeds its bound).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

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
    Regime,
    variogram,
    variogram_diagonal,
    variogram_edge,
    variogram_exact,
    variogram_reduced,
    variogram_symmetric,
)

__all__ = ["main", "OutputRecord"]

CSV_HEADER = ["s", "t", "a", "b", "value", "method", "est_error", "terms"]
METHODS = ("auto", "exact", "edge", "symmetric", "quad", "bessel")


@dataclass(frozen=True)
class OutputRecord:
    s: int
    t: int
    a: float
    b: float
    value: float
    method: str
    est_error: float
    terms: int

    def to_row(self) -> list[str]:
        return [
            str(self.s),
            str(self.t),
            _fmt(self.a),
            _fmt(self.b),
            _fmt(self.value),
            self.method,
            _fmt(self.est_error),
            str(self.terms),
        ]


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double exactly.
    return format(x, ".17g")


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


def _record(a, b, lag, value, method: str, est_error, diagnostics=None) -> OutputRecord:
    """One output row; ``terms`` sums the series terms in ``diagnostics``."""
    terms = sum(sv.terms_used for sv in (diagnostics or {}).values())
    return OutputRecord(lag.s, lag.t, a, b, value, method, est_error, terms)


def _eval_one(a, b, lag, method, cfg, quad_settings) -> OutputRecord:
    if method == "auto":
        res = variogram(CoeffPair.from_ab(a, b), lag)
    elif method == "exact":
        res = variogram_exact(CoeffPair.from_ab(a, b), lag, cfg)
    elif method == "edge":
        if abs(a + b - 0.5) > EPS_EDGE:
            raise DomainError("--method edge requires a + b = 1/2")
        res = variogram_edge(a, lag, cfg)
    elif method == "symmetric":
        pair = CoeffPair.from_ab(a, b)
        if pair.regime is not Regime.SYMMETRIC_QUARTER:
            raise DomainError("--method symmetric requires a = b = 1/4")
        res = variogram_symmetric(lag, cfg)
    elif method in ("quad", "bessel"):
        oracle = quadrature_variogram if method == "quad" else bessel_laplace_variogram
        value = oracle(CoeffPair.from_ab(a, b), lag, quad_settings)
        # The bound the oracles enforce: they raise when it is not met.
        bound = max(quad_settings.abs_tol, quad_settings.rel_tol * abs(value))
        return _record(a, b, lag, value, method, bound)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown method {method}")
    return _record(a, b, lag, res.value, res.method.value, res.est_error, res.diagnostics)


def _cmd_eval(args) -> int:
    lag = Lag(args.s, args.t)
    record = _eval_one(
        args.a, args.b, lag, args.method, _make_config(args), _make_quadrature(args)
    )
    if args.json:
        print(json.dumps(asdict(record)))
    else:
        print(
            f"s={record.s} t={record.t} a={_fmt(record.a)} b={_fmt(record.b)} "
            f"value={_fmt(record.value)} method={record.method} "
            f"est_error={_fmt(record.est_error)} terms={record.terms}"
        )
    return 0


def _cmd_table(args) -> int:
    cfg = _make_config(args)
    quad_settings = _make_quadrature(args)
    records = []
    for s in range(args.smax + 1):
        for t in range(args.tmax + 1):
            records.append(
                _eval_one(args.a, args.b, Lag(s, t), args.method, cfg, quad_settings)
            )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_row())
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps([asdict(rec) for rec in records]))
    return 0


def _cmd_verify(args) -> int:
    lag = Lag(args.s, args.t)
    pair = CoeffPair.from_ab(args.a, args.b)
    # --tol bounds the allowed discrepancy; evaluations always run at
    # full precision so the comparison is meaningful.
    cfg = EvalConfig(max_terms=args.max_terms)
    quad_settings = QuadratureSettings()
    values: dict[str, float] = {}
    edge_refusal = None
    if pair.regime is Regime.INTERIOR:
        values["exact"] = variogram_exact(pair, lag, cfg).value
    else:
        if pair.regime is Regime.SYMMETRIC_QUARTER:
            values["symmetric"] = variogram_symmetric(lag, cfg).value
            values["reduced"] = variogram_reduced(lag).value
            if lag.s == lag.t:
                values["diagonal-closed"] = variogram_diagonal(lag.s)
        # The Abel path refuses lags past those its offsets resolve; the
        # refusal is reported and the other methods are still compared.
        try:
            values["edge-abel"] = variogram_edge(args.a, lag, cfg).value
        except SlowConvergenceError as exc:
            edge_refusal = exc
    values["quad"] = quadrature_variogram(pair, lag, quad_settings)
    values["bessel-difference"] = bessel_laplace_variogram(pair, lag, quad_settings)

    for name, value in values.items():
        print(f"{name:18s} {_fmt(value)}")
    if edge_refusal is not None:
        print(f"{'edge-abel':18s} refused: {edge_refusal}")
    names = list(values)
    spread = max(
        (abs(values[m] - values[n]) for i, m in enumerate(names) for n in names[i + 1 :]),
        default=0.0,
    )
    print(f"max discrepancy    {_fmt(spread)}  (tolerance {_fmt(args.tol)})")
    if spread <= args.tol:
        return 0
    print("verification FAILED: discrepancy exceeds tolerance", file=sys.stderr)
    return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="iavar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

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
    p_table.add_argument("--smax", type=int, required=True)
    p_table.add_argument("--tmax", type=int, required=True)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--method", choices=METHODS, default="auto")
    p_table.add_argument("--tol", type=float, default=None)
    p_table.set_defaults(fn=_cmd_table)

    p_verify = sub.add_parser(
        "verify", help="run every applicable method plus both oracles"
    )
    add_common(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-6)
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
