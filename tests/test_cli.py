"""Command-line interface contract tests."""

import csv
import io
import json
import math

import pytest

from iavar.cli import CSV_HEADER, main
from iavar.variogram import CoeffPair, Lag, variogram, variogram_exact

from conftest import reduced_integral


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_symmetric_unit_lag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--a", "0.25", "--b", "0.25", "--s", "1", "--t", "1"
        )
        assert code == 0
        assert "value=1.2732395447" in out

    def test_zero_lag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--a", "0.25", "--b", "0.25", "--s", "0", "--t", "0"
        )
        assert code == 0
        assert "value=0 " in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--a", "0.25", "--b", "0.25", "--s", "1", "--t", "1", "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["s"] == 1 and record["t"] == 1
        assert record["value"] == pytest.approx(4.0 / math.pi, rel=1e-12)
        assert record["method"] in ("DiagonalClosed", "SymmetricClosed")

    def test_symmetric_method_keeps_b_series(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--a", "0.25", "--b", "0.25", "--s", "2", "--t", "1",
            "--method", "symmetric",
        )
        assert code == 0
        assert "method=SymmetricClosed" in out

    def test_exact_matches_quad_method(self, capsys):
        args = ["--a", "0.4848", "--b", "0.0132", "--s", "1", "--t", "0"]
        code1, out1, _ = run_cli(capsys, "eval", *args, "--method", "exact", "--json")
        code2, out2, _ = run_cli(capsys, "eval", *args, "--method", "quad", "--json")
        assert code1 == 0 and code2 == 0
        v1 = json.loads(out1)["value"]
        v2 = json.loads(out2)["value"]
        assert v1 == pytest.approx(v2, abs=1e-6)

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "0.25", "--s", "1", "--t", "1")
        assert code == 1
        assert "error" in err

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--a", "0.9", "--b", "0.2", "--s", "1", "--t", "0"
        )
        assert code == 1
        assert "exceeds" in err

    def test_term_cap_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--a", "0.2", "--b", "0.2", "--s", "1", "--t", "1",
            "--method", "exact", "--max-terms", "10",
        )
        assert code == 2
        assert "convergence" in err

    def test_large_lag_exit_0(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--a", "0.2", "--b", "0.1", "--s", "600", "--t", "600"
        )
        assert code == 0, err
        assert "value=1.12660787" in out

    @pytest.mark.parametrize("method", ["quad", "bessel"])
    @pytest.mark.parametrize("a,b", [("0", "0.5"), ("0.5", "0")])
    def test_oracle_refuses_boundary_corner(self, capsys, method, a, b):
        # The quadrature oracle raised ZeroDivisionError at (0, 1/2).
        code, out, err = run_cli(
            capsys,
            "eval", "--a", a, "--b", b, "--s", "0", "--t", "1", "--method", method,
        )
        assert code == 1 and out == ""
        assert err.startswith("iavar: error: ") and "boundary corner" in err

    @pytest.mark.parametrize("method", ["quad", "bessel"])
    def test_oracle_error_bar_is_enforced_bound(self, capsys, method):
        # The oracles certify max(abs_tol, rel_tol |value|), which exceeds
        # abs_tol once |value| > 1.
        code, out, _ = run_cli(
            capsys,
            "eval", "--a", "0.2", "--b", "0.1", "--s", "3", "--t", "3",
            "--method", method, "--tol", "1e-6", "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] > 1.0
        assert record["est_error"] == 1e-6 * record["value"]

    def test_bessel_refuses_tolerance_below_kernel_accuracy(self, capsys):
        # The 30-digit value is 1.2609740712989586; the kernel's 1e-14
        # cannot certify 1e-20.
        code, out, err = run_cli(
            capsys,
            "eval", "--a", "0.3", "--b", "0.1", "--s", "2", "--t", "1",
            "--method", "bessel", "--tol", "1e-20",
        )
        assert code == 2 and out == ""
        assert "convergence failure" in err

    def test_method_constraints(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--a", "0.1", "--b", "0.1", "--s", "1", "--t", "0",
            "--method", "edge",
        )
        assert code == 1
        code, _, err = run_cli(
            capsys,
            "eval", "--a", "0.2", "--b", "0.2", "--s", "1", "--t", "0",
            "--method", "symmetric",
        )
        assert code == 1


class TestOutputFormats:
    """The text line, the JSON object and the CSV row carry the same fields."""

    @pytest.mark.parametrize(
        "method,a,b,s,t,seen",
        [
            ("auto", "0.2", "-0.1", "2", "1", "ReducedQuad"),
            ("exact", "0.2", "0.1", "2", "1", "ExactF4"),
            ("symmetric", "0.25", "0.25", "2", "1", "SymmetricClosed"),
            ("quad", "0.2", "0.1", "2", "1", "quad"),
            ("bessel", "0.2", "0.1", "2", "1", "bessel"),
        ],
    )
    def test_text_json_csv_agree(self, capsys, method, a, b, s, t, seen):
        ab = ["--a", a, "--b", b]
        lag = ["--s", s, "--t", t]
        code, text, _ = run_cli(capsys, "eval", *ab, *lag, "--method", method)
        assert code == 0
        code, js, _ = run_cli(capsys, "eval", *ab, *lag, "--method", method, "--json")
        assert code == 0
        code, table, _ = run_cli(
            capsys, "table", *ab, "--smax", s, "--tmax", t, "--method", method
        )
        assert code == 0

        pairs = [field.split("=", 1) for field in text.split()]
        assert [k for k, _ in pairs] == CSV_HEADER
        from_text = [v for _, v in pairs]
        record = json.loads(js)
        assert list(record) == CSV_HEADER
        from_json = [
            format(v, ".17g") if isinstance(v, float) else str(v) for v in record.values()
        ]
        rows = list(csv.reader(io.StringIO(table)))
        assert rows[0] == CSV_HEADER
        from_csv = rows[-1]  # the last row is lag (s, t)
        assert from_text == from_json == from_csv

        # terms is the series work the result carries: F4 or B-series
        # terms, none under the reduced rule and the oracles.
        assert record["method"] == seen
        assert (record["terms"] > 0) == (method in ("exact", "symmetric"))
        if method in ("auto", "exact"):
            fn = variogram if method == "auto" else variogram_exact
            res = fn(CoeffPair(float(a), float(b)), Lag(int(s), int(t)))
            assert record["terms"] == res.terms


class TestTable:
    def test_csv_header_and_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.2", "--b", "0.1", "--smax", "1", "--tmax", "1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
        ]
        assert all(r[5] == "ReducedQuad" for r in rows[1:])
        assert all(r[7] == "0" for r in rows[1:])  # no series terms under auto
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.2", "--b", "0.1", "--smax", "1", "--tmax", "1",
            "--method", "exact",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(r[5] == "ExactF4" for r in rows[1:])

    def test_symmetric_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.25", "--b", "0.25", "--smax", "2", "--tmax", "0",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert float(rows[0][4]) == 0.0
        ref = reduced_integral(0.25, 0.25, 1, 0)
        assert float(rows[1][4]) == pytest.approx(ref, abs=1e-6)

    def test_csv_round_trip_bit_identical(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.15", "--b", "0.22", "--smax", "2", "--tmax", "2",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            for idx in (2, 3, 4, 6):
                value = float(row[idx])
                assert format(value, ".17g") == row[idx]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.2", "--b", "0.1", "--smax", "1", "--tmax", "0",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0]["value"] == 0.0

    @pytest.mark.parametrize("bounds", [("-1", "2"), ("2", "-1")])
    def test_negative_lag_bound_usage_error(self, capsys, bounds):
        # --smax -1 printed only the CSV header and exited 0.
        code, out, err = run_cli(
            capsys,
            "table", "--a", "0.2", "--b", "0.1", "--smax", bounds[0], "--tmax", bounds[1],
        )
        assert code == 1 and out == ""
        assert "must be nonnegative" in err


class TestVerify:
    def test_interior_three_way(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--a", "0.15", "--b", "0.25", "--s", "2", "--t", "3"
        )
        assert code == 0
        assert "exact" in out and "quad" in out and "bessel-difference" in out

    def test_symmetric_all_methods(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a", "0.25", "--b", "0.25", "--s", "1", "--t", "1",
            "--tol", "1e-3",
        )
        assert code == 0
        for name in ("symmetric", "reduced", "diagonal-closed", "edge-abel", "quad", "bessel"):
            assert name in out

    def test_zero_lag_all_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--a", "0.2", "--b", "0.2", "--s", "0", "--t", "0"
        )
        assert code == 0
        assert "max discrepancy    0" in out

    def test_boundary_within_edge_tolerance(self, capsys):
        # a + b exceeds 1/2 by less than EPS_EDGE: every route takes the
        # pair as a boundary point, the oracles included.
        args = ["--a", "0.3", "--b", "0.2000000005", "--s", "1", "--t", "0"]
        code, out, _ = run_cli(capsys, "eval", *args)
        assert code == 0 and "ReducedQuad" in out
        code, out, _ = run_cli(capsys, "eval", *args, "--method", "edge")
        assert code == 0 and "EdgeAbel" in out
        code, out, err = run_cli(capsys, "verify", *args, "--tol", "1e-3")
        assert code == 0, err
        for name in ("edge-abel", "quad", "bessel-difference"):
            assert name in out

    @pytest.mark.parametrize(
        "a,b,s", [("0.25", "0.25", "60"), ("0.00005", "0.49995", "1")]
    )
    def test_edge_refusal_reported_and_rest_compared(self, capsys, a, b, s):
        # Past the Abel path's reach verify names its refusal and still
        # compares every other method.
        code, out, err = run_cli(
            capsys, "verify", "--a", a, "--b", b, "--s", s, "--t", "0", "--tol", "1e-9"
        )
        assert code == 0, err
        assert "edge-abel          refused: the boundary offsets cannot resolve" in out
        assert "quad" in out and "bessel-difference" in out
        if a == "0.25":
            assert "symmetric" in out and "reduced" in out

    def test_boundary_corner_refusals_reported(self, capsys):
        # Only the default route returns a value (exactly 2): the Abel
        # path and both oracles refuse, so there is nothing to compare.
        code, out, err = run_cli(
            capsys, "verify", "--a", "0", "--b", "0.5", "--s", "0", "--t", "2", "--tol", "1e-3"
        )
        assert code == 1
        assert out.splitlines()[0] == "reduced            2"
        for name in ("edge-abel", "quad", "bessel-difference"):
            assert f"{name:18s} refused: " in out
        assert "max discrepancy" not in out
        assert "fewer than two methods" in err
        assert "refused: edge-abel, quad, bessel-difference" in err

    def test_every_method_refuses_exit_1(self, capsys):
        # At (1/2, 0) lag (0, 1) the variogram diverges.
        code, out, err = run_cli(
            capsys, "verify", "--a", "0.5", "--b", "0", "--s", "0", "--t", "1"
        )
        assert code == 1
        assert "reduced            refused: the variogram diverges" in out
        assert "refused: reduced, edge-abel, quad, bessel-difference" in err

    def test_boundary_runs_default_rule(self, capsys):
        # On the boundary verify also runs auto's rule, which agrees with
        # both oracles far inside --tol.
        code, out, err = run_cli(
            capsys, "verify", "--a", "0.3", "--b", "0.2", "--s", "2", "--t", "1",
            "--tol", "1e-3",
        )
        assert code == 0, err
        values = dict(line.split() for line in out.splitlines() if len(line.split()) == 2)
        assert list(values) == ["reduced", "edge-abel", "quad", "bessel-difference"]
        reduced = float(values["reduced"])
        for oracle in ("quad", "bessel-difference"):
            assert abs(reduced - float(values[oracle])) <= 1e-8

    @pytest.mark.parametrize(
        "a,b,s,tol,methods",
        [
            ("-0.2", "0.1", "1", "1e-6", ["exact", "bessel-difference"]),
            ("-0.3", "0.2", "2", "1e-3", ["reduced", "bessel-difference"]),
        ],
    )
    def test_negative_coefficient_compared(self, capsys, a, b, s, tol, methods):
        # The Bessel-Laplace oracle takes either sign, so the negative half
        # of the region has two values to compare; only the quadrature
        # oracle (and the Abel path) refuse there.
        code, out, err = run_cli(
            capsys, "verify", "--a", a, "--b", b, "--s", s, "--t", "0", "--tol", tol
        )
        assert code == 0, err
        values = dict(line.split() for line in out.splitlines() if len(line.split()) == 2)
        assert list(values) == methods
        assert "quad               refused: quadrature oracle requires a, b >= 0" in out

    def test_diverging_sign_refused(self, capsys):
        # On the boundary with (-1)^(s [a<0] + t [b<0]) = -1 the variogram
        # diverges: the default route and the difference form both refuse.
        code, out, err = run_cli(
            capsys, "verify", "--a", "-0.3", "--b", "0.2", "--s", "1", "--t", "0",
            "--tol", "1e-3",
        )
        assert code == 1
        for name in ("reduced", "bessel-difference"):
            assert f"{name:18s} refused: the variogram diverges" in out
        assert "fewer than two methods" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tolerance_not_positive_finite_usage_error(self, capsys, tol):
        # --tol -1 and --tol nan ran every method and then failed the
        # comparison with exit 2.
        code, out, err = run_cli(
            capsys, "verify", "--a", "0.2", "--b", "0.1", "--s", "1", "--t", "0", "--tol", tol
        )
        assert code == 1 and out == ""
        assert "must be positive and finite" in err

    def test_tolerance_of_one_or_more_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--a", "0.2", "--b", "0.1", "--s", "1", "--t", "0", "--tol", "2"
        )
        assert code == 0, err
        assert "(tolerance 2)" in out

    def test_breach_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--a", "0.25", "--b", "0.25", "--s", "2", "--t", "2",
            "--tol", "1e-16",
        )
        assert code == 2
        assert "FAILED" in err
