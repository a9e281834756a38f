"""Command-line interface contract tests."""

import csv
import io
import json
import math

import pytest

from iavar.cli import CSV_HEADER, main
from iavar.oracle import quadrature_variogram
from iavar.variogram import CoeffPair, Lag


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
        assert all(r[5] == "ExactF4" for r in rows[1:])

    def test_symmetric_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "0.25", "--b", "0.25", "--smax", "2", "--tmax", "0",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert float(rows[0][4]) == 0.0
        ref = quadrature_variogram(CoeffPair.from_ab(0.25, 0.25), Lag(1, 0))
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
        assert code == 0 and "EdgeAbel" in out
        code, out, err = run_cli(capsys, "verify", *args, "--tol", "1e-3")
        assert code == 0, err
        for name in ("edge-abel", "quad", "bessel-difference"):
            assert name in out

    def test_breach_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--a", "0.25", "--b", "0.25", "--s", "2", "--t", "2",
            "--tol", "1e-16",
        )
        assert code == 2
        assert "FAILED" in err
