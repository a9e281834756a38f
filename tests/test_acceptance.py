"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line with the measured worst case so the
suite doubles as a verification report (run with ``pytest -s``).
"""

import math
import time
from contextlib import contextmanager

import pytest

from iavar.config import EvalConfig
from iavar.errors import PoleInTermError
from iavar.oracle import (
    QuadratureSettings,
    bessel_laplace_i_st,
    bessel_laplace_variogram,
    quadrature_variogram,
)
from iavar.specfun import F4Params, ZeroBalanced4F3, appell_f2, appell_f4, f4_equal_args_reduction, hyp4f3_series
from iavar.variogram import (
    CoeffPair,
    Lag,
    b_ss_closed,
    b_st,
    b_st_transformed,
    gamma_st,
    l_st,
    variogram,
    variogram_diagonal,
    variogram_edge,
    variogram_exact,
    variogram_symmetric,
    i_st,
)

from conftest import i00_closed_form

GRID_COEFFS = [0.05, 0.10, 0.15, 0.20]


@contextmanager
def runtime_budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds budget {seconds}s"


def test_criterion_01_diagonal_closed_form():
    with runtime_budget(10.0):
        quad_settings = QuadratureSettings(abs_tol=5e-8, rel_tol=5e-8)
        pair = CoeffPair.from_ab(0.25, 0.25)
        worst_series = 0.0
        worst_quad = 0.0
        for s in range(11):
            closed = variogram_diagonal(s)
            via_series = variogram_symmetric(Lag(s, s)).value
            via_quad = quadrature_variogram(pair, Lag(s, s), quad_settings)
            worst_series = max(worst_series, abs(via_series - closed))
            worst_quad = max(worst_quad, abs(via_quad - closed))
        assert worst_series <= 1e-10
        assert worst_quad <= 1e-6
        spot = [variogram_diagonal(s) for s in (0, 1, 2)]
        assert spot[0] == 0.0
        assert spot[1] == pytest.approx(4.0 / math.pi, rel=1e-14)
        assert spot[2] == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-14)
    print(
        f"\nPASS criterion 1: diagonal closed form, worst series diff "
        f"{worst_series:.2e} (<=1e-10), worst quadrature diff {worst_quad:.2e} (<=1e-6)"
    )


def test_criterion_02_diagonal_b_identity():
    with runtime_budget(5.0):
        worst = 0.0
        for s in range(11):
            diff = abs(b_st(Lag(s, s)).value - b_ss_closed(s))
            worst = max(worst, diff)
        assert worst <= 1e-10
    print(f"\nPASS criterion 2: diagonal B identity, worst diff {worst:.2e} (<=1e-10)")


def _grid_pairs():
    for a in GRID_COEFFS:
        for b in GRID_COEFFS:
            if a + b <= 0.45:
                yield a, b


def test_criterion_03_exact_vs_quadrature_grid():
    with runtime_budget(120.0):
        quad_settings = QuadratureSettings(abs_tol=2e-8, rel_tol=1e-7)
        cache = {}
        worst = 0.0
        cases = 0
        for a, b in _grid_pairs():
            pair = CoeffPair.from_ab(a, b)
            for s in range(5):
                for t in range(5):
                    mirror = (b, a, t, s)
                    if mirror in cache:
                        ref = cache[mirror]
                    else:
                        ref = quadrature_variogram(pair, Lag(s, t), quad_settings)
                        cache[(a, b, s, t)] = ref
                    got = variogram_exact(pair, Lag(s, t)).value
                    worst = max(worst, abs(got - ref))
                    cases += 1
        assert worst <= 1e-6
    print(
        f"\nPASS criterion 3: exact vs quadrature on {cases} grid cases, "
        f"worst diff {worst:.2e} (<=1e-6)"
    )


def test_criterion_04_laplace_identity_grid():
    with runtime_budget(120.0):
        worst = 0.0
        cases = 0
        for a, b in _grid_pairs():
            pair = CoeffPair.from_ab(a, b)
            for s in range(5):
                for t in range(5):
                    series = i_st(pair, Lag(s, t)).value
                    integral = bessel_laplace_i_st(pair, Lag(s, t))
                    scaled = abs(series - integral) / max(1.0, abs(series))
                    worst = max(worst, scaled)
                    cases += 1
        assert worst <= 1e-8
    print(
        f"\nPASS criterion 4: Laplace-transform identity on {cases} grid cases, "
        f"worst scaled diff {worst:.2e} (<=1e-8)"
    )


def test_criterion_05_near_unit_remainder_order():
    with runtime_budget(60.0):
        cfg = EvalConfig(rel_tol=1e-9)
        worst_growth = 0.0
        for s, t in [(0, 0), (1, 1), (2, 1)]:
            params = ZeroBalanced4F3(
                (s + t + 1) / 2.0,
                (s + t) / 2.0 + 1.0,
                (s + t) / 2.0 + 1.0,
                (s + t + 1) / 2.0,
                s + 1.0,
                t + 1.0,
                s + t + 1.0,
            )
            base = None
            b_val = b_st(Lag(s, t), cfg).value
            g_val = gamma_st(Lag(s, t))
            l_val = l_st(Lag(s, t))
            for theta in (1e-2, 1e-3, 1e-4):
                full = hyp4f3_series(params, 1.0 - theta, cfg).value
                approx = (l_val + b_val - math.log(theta)) / g_val
                ratio = abs(full - approx) / (theta * abs(math.log(theta)))
                if base is None:
                    base = ratio
                else:
                    assert ratio <= 3.0 * base, (s, t, theta, ratio, base)
                    worst_growth = max(worst_growth, ratio / base)
    print(
        f"\nPASS criterion 5: near-unit remainder stays O(theta log theta), "
        f"worst growth factor {worst_growth:.2f} (<=3)"
    )


def test_criterion_06_equal_argument_reduction(rng):
    with runtime_budget(30.0):
        worst = 0.0
        for _ in range(50):
            alpha = rng.uniform(0.2, 2.5)
            beta = rng.uniform(0.2, 2.5)
            g1 = rng.uniform(0.4, 2.5)
            g2 = rng.uniform(0.4, 2.5)
            x = rng.uniform(0.001, 0.06)
            lhs = appell_f4(F4Params(alpha, beta, g1, g2, x, x)).value
            rhs = f4_equal_args_reduction(alpha, beta, g1, g2, x).value
            rel = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, rel)
        assert worst <= 1e-10
    print(
        f"\nPASS criterion 6: equal-argument reduction on 50 draws, "
        f"worst relative diff {worst:.2e} (<=1e-10)"
    )


def test_criterion_07_f4_f2_transformation(rng):
    # Classical quadratic-transformation pattern: the F4 upper pair is
    # {alpha/2, (alpha+1)/2}.  (The alternative reading with alpha in the
    # first slot fails its own closed-form instance alpha=1, gamma=1/2,
    # y=0 by a factor (1-x^2)^(1/2), so it is not a tolerance matter.)
    with runtime_budget(30.0):
        worst = 0.0
        for _ in range(50):
            alpha = rng.uniform(0.05, 2.0)
            g1 = rng.uniform(0.3, 2.0)
            g2 = rng.uniform(0.3, 2.0)
            x = rng.uniform(0.005, 0.15)
            y = rng.uniform(0.005, 0.15)
            lhs = appell_f4(
                F4Params(alpha / 2.0, (alpha + 1.0) / 2.0, g1 + 0.5, g2 + 0.5, x * x, y * y)
            ).value
            denom = 1.0 + x + y
            f2 = appell_f2(
                alpha, g1, g2, 2.0 * g1, 2.0 * g2, 2.0 * x / denom, 2.0 * y / denom
            ).value
            rhs = denom**-alpha * f2
            rel = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, rel)
        assert worst <= 1e-9
    print(
        f"\nPASS criterion 7: F4/F2 transformation on 50 draws, "
        f"worst relative diff {worst:.2e} (<=1e-9)"
    )


def test_i00_closed_form_against_f4():
    # The paper's s = t = 0 particular case: F4 at the origin is the
    # complete elliptic integral, 1 / (sqrt(d) AGM(1, sqrt(gap(2 - gap)/d))).
    with runtime_budget(10.0):
        worst = 0.0
        for a, b in [(0.2, 0.1), (-0.15, 0.3), (0.1, -0.35), (-0.2, -0.25),
                     (0.4848, 0.0132), (0.3, 0.1995)]:
            f4 = i_st(CoeffPair(a, b), Lag(0, 0))
            want = i00_closed_form(a, b)
            diff = float(abs(f4.value - want))
            assert diff <= f4.tail_estimate, (a, b, f4.value, want, f4.tail_estimate)
            worst = max(worst, diff / f4.tail_estimate)
    print(
        f"\nPASS I_00 closed form: F4 at the origin within its tail estimate of the "
        f"AGM on 6 pairs, worst diff/tail {worst:.2f} (<=1)"
    )


def test_criterion_08_edge_path_consistency():
    with runtime_budget(120.0):
        worst_err = 0.0
        worst_est = 0.0
        for s in range(4):
            for t in range(4):
                if s == 0 and t == 0:
                    continue
                edge = variogram_edge(0.25, Lag(s, t))
                sym = variogram_symmetric(Lag(s, t))
                diff = abs(edge.value - sym.value)
                assert diff <= edge.est_error, (s, t, diff, edge.est_error)
                assert edge.est_error <= 1e-3, (s, t, edge.est_error)
                worst_err = max(worst_err, diff)
                worst_est = max(worst_est, edge.est_error)
    print(
        f"\nPASS criterion 8: edge path within reported error on 15 lags, "
        f"worst diff {worst_err:.2e}, worst est_error {worst_est:.2e} (<=1e-3)"
    )


def test_criterion_09_near_edge_parameters():
    with runtime_budget(60.0):
        pair = CoeffPair.from_ab(0.4848, 0.0132)
        cfg = EvalConfig(rel_tol=1e-10, max_terms=10_000_000)
        got = variogram_exact(pair, Lag(1, 0), cfg).value
        ref = quadrature_variogram(pair, Lag(1, 0))
        diff = abs(got - ref)
        assert diff <= 1e-5
    print(f"\nPASS criterion 9: near-edge parameter pair, diff {diff:.2e} (<=1e-5)")


def test_criterion_10_b_series_duality():
    with runtime_budget(30.0):
        worst = 0.0
        flagged = []
        checked = 0
        for s in range(7):
            for t in range(7):
                try:
                    alt = b_st_transformed(Lag(s, t)).value
                except PoleInTermError:
                    flagged.append((s, t))
                    continue
                ref = b_st(Lag(s, t)).value
                worst = max(worst, abs(ref - alt))
                checked += 1
        assert worst <= 1e-9
        # poles occur exactly where a lower parameter of the embedded
        # finite sum hits a nonpositive integer: s > t with s - t odd
        expected_flags = [
            (s, t) for s in range(7) for t in range(7) if s > t and (s - t) % 2 == 1
        ]
        assert flagged == expected_flags
    print(
        f"\nPASS criterion 10: B-series duality on {checked} lags, worst diff "
        f"{worst:.2e} (<=1e-9); flagged poles (s>t, s-t odd): {flagged}"
    )


def test_criterion_11_zero_lag_property(rng):
    with runtime_budget(30.0):
        lag = Lag(0, 0)
        for i in range(100):
            if i % 10 == 0:
                a = float(rng.uniform(0.05, 0.45))
                b = 0.5 - a  # boundary pair
            elif i % 10 == 5:
                a = b = 0.25  # symmetric quarter point
            else:
                a = float(rng.uniform(0.01, 0.45))
                b = float(rng.uniform(0.01, min(0.49 - a, 0.45)))
            pair = CoeffPair.from_ab(a, b)
            assert variogram(pair, lag).value == 0.0
            assert quadrature_variogram(pair, lag) == 0.0
            assert bessel_laplace_variogram(pair, lag) == 0.0
    print("\nPASS criterion 11: zero-lag variogram is 0 for 100 admissible pairs, all methods")
