"""Unit tests for the integral oracles."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from iavar.errors import DomainError, OutOfRegionError, ToleranceNotReachedError
from iavar.oracle import (
    QuadratureSettings,
    _ive_vec,
    _quadrature_variogram_impl,
    bessel_laplace_i_st,
    bessel_laplace_variogram,
    quadrature_variogram,
)
from iavar.variogram import EPS_EDGE, CoeffPair, Lag, Regime, variogram_integral

from conftest import i00_closed_form, reduced_integral


class TestSettings:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSettings(rel_tol=-1e-8)


def ive(n, x):
    return float(_ive_vec(n, [x])[0])


class TestModifiedBessel:
    # exp(-x) I_n(x), the scaled Bessel factor of the Laplace-route integrands
    def test_at_zero(self):
        assert ive(0, 0.0) == 1.0
        assert ive(3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("x", [0.1, 2.5, 30.0, 200.0, 690.0])
    def test_against_scipy(self, n, x):
        ref = float(scipy.special.ive(n, x))
        assert ive(n, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 50.0])
    def test_recurrence(self, n, x):
        lhs = ive(n - 1, x) - ive(n + 1, x)
        rhs = 2.0 * n / x * ive(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("n", range(65))
    def test_against_mpmath_every_order(self, n):
        # Both sides of each branch switch: 30, n^2 and 650; then far out,
        # and seeded draws over the whole range.
        fixed = [0.0, 1e-3, 0.5, 2.0, 10.0, 29.9, 30.0, 100.0, 400.0, 649.9, 650.0,
                 650.5, 651.0, 700.0, 900.0, 1200.0, 5e3, 2e4, 1e5]
        near_n2 = [n * n * f for f in (0.999, 1.0, 1.001)]
        drawn = 10.0 ** np.random.default_rng(n).uniform(-2.0, 5.0, 12)
        xs = np.array(sorted({x for x in [*fixed, *near_n2, *drawn] if x <= 1e5}))
        got = _ive_vec(n, xs)
        with mp.workdps(40):
            want = [float(mp.besseli(n, x) * mp.exp(-x)) for x in xs]
        for x, g, w in zip(xs, got, want):
            assert abs(g - w) <= 1e-14 * abs(w), (n, x, g, w)


class TestQuadrature:
    def test_zero_lag(self):
        assert quadrature_variogram(CoeffPair.from_ab(0.13, 0.22), Lag(0, 0)) == 0.0

    def test_symmetric_edge_unit_lag(self):
        got = quadrature_variogram(CoeffPair.from_ab(0.25, 0.25), Lag(1, 1))
        assert got == pytest.approx(4.0 / math.pi, abs=1e-7)

    def test_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            quadrature_variogram(CoeffPair(0.3, 0.3), Lag(1, 0))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            quadrature_variogram(CoeffPair(-0.1, 0.2), Lag(1, 0))

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unreachable_tolerance_refused(self):
        tiny = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(ToleranceNotReachedError):
            quadrature_variogram(CoeffPair(0.3, 0.1), Lag(40, 3), tiny)

    def test_refinement_convergence(self, rng):
        # halving tolerances moves the value by less than the previous
        # error estimate
        for _ in range(20):
            a = rng.uniform(0.02, 0.45)
            b = rng.uniform(0.02, min(0.48 - a, 0.45))
            s = int(rng.integers(0, 4))
            t = int(rng.integers(0, 4))
            if s == 0 and t == 0:
                s = 1
            pair = CoeffPair.from_ab(a, b)
            coarse = QuadratureSettings(abs_tol=1e-7, rel_tol=1e-6)
            fine = QuadratureSettings(abs_tol=5e-8, rel_tol=5e-7)
            v1, e1 = _quadrature_variogram_impl(pair, Lag(s, t), coarse)
            v2, _ = _quadrature_variogram_impl(pair, Lag(s, t), fine)
            assert abs(v2 - v1) <= max(e1, 1e-12)


class TestReducedIntegral:
    """The oracle integrates over y in closed form and over x by quadrature."""

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.45])
    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_b_zero_closed_form(self, a, s):
        # 1-D lattice: nu(s, t > 0) = 1 / sqrt(1 - 4a^2) and
        # nu(s, 0) = (1 - rho_a**s) / sqrt(1 - 4a^2)
        root = math.sqrt(1.0 - 4.0 * a * a)
        rho_a = 2.0 * a / (1.0 + root)
        for t, want in ((2, 1.0 / root), (0, (1.0 - rho_a**s) / root)):
            if s == 0 and t == 0:
                continue
            got, err = _quadrature_variogram_impl(
                CoeffPair(a, 0.0), Lag(s, t), QuadratureSettings()
            )
            assert abs(got - want) <= err + 4.0 * math.ulp(want)

    def test_exact_gap_within_error_estimate(self):
        # 1 - 2a - 2b rounded in floating point is off by 4.2e-17 here,
        # which moves the value by 2.6e-13.
        a, b = 0.0536, 0.4464 - 5e-7
        got, err = _quadrature_variogram_impl(
            CoeffPair(a, b), Lag(20, 15), QuadratureSettings(1e-12, 1e-12)
        )
        assert abs(got - reduced_integral(a, b, 20, 15)) <= err

    @pytest.mark.parametrize(
        "a,b,s,t",
        [
            (0.2, 0.1, 2, 1),
            (0.1, 0.3, 1, 0),
            (0.35, 0.1, 3, 2),
            (0.3, 0.19995, 1, 1),  # gap 1e-4
            (0.3, 0.19999975, 1, 0),  # gap 5e-7
            (0.3, 0.2, 12, 0),  # boundary
            (0.25, 0.25, 5, 2),  # quarter point
        ],
    )
    def test_error_estimate_bounds_error(self, a, b, s, t):
        got, err = _quadrature_variogram_impl(CoeffPair(a, b), Lag(s, t), QuadratureSettings())
        assert abs(got - reduced_integral(a, b, s, t)) <= err


class TestLaplaceRoute:
    def test_unit_integral(self):
        got = bessel_laplace_i_st(CoeffPair.from_ab(0.0, 0.0), Lag(0, 0))
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_single_form_rejects_edge(self):
        with pytest.raises(OutOfRegionError):
            bessel_laplace_i_st(CoeffPair.from_ab(0.25, 0.25), Lag(1, 0))

    def test_single_form_rejects_edge_band(self):
        # The boundary band of CoeffPair.regime, not half of it.
        pair = CoeffPair(0.3, 0.2 - 0.75 * EPS_EDGE)
        assert pair.regime is Regime.EDGE
        with pytest.raises(OutOfRegionError):
            bessel_laplace_i_st(pair, Lag(1, 0))

    @pytest.mark.parametrize("a,b,s,t", [(0.3, 0.2 - 1e-8, 1, 0), (0.3, 0.199999, 2, 1)])
    def test_single_form_near_boundary(self, a, b, s, t):
        # Just outside the boundary band, where a truncation point of the
        # exponential tail bound passed 1e5 and the term was refused.
        q = QuadratureSettings(1e-12, 1e-12)
        got = bessel_laplace_i_st(CoeffPair(a, b), Lag(s, t), q)
        want = float(i00_closed_form(a, b)) - reduced_integral(a, b, s, t, dps=40)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * abs(want))

    def test_tolerance_below_kernel_accuracy_refused(self):
        # A zero panel-doubling difference does not certify 1e-20: the
        # kernel itself is accurate to about 1e-14 relative.
        tiny = QuadratureSettings(abs_tol=1e-20, rel_tol=1e-20)
        with pytest.raises(ToleranceNotReachedError):
            bessel_laplace_variogram(CoeffPair(0.3, 0.1), Lag(2, 1), tiny)
        with pytest.raises(ToleranceNotReachedError):
            bessel_laplace_i_st(CoeffPair(0.3, 0.1), Lag(2, 1), tiny)

    def test_difference_form_zero_lag(self):
        assert bessel_laplace_variogram(CoeffPair.from_ab(0.2, 0.1), Lag(0, 0)) == 0.0

    def test_difference_form_edge_value(self):
        got = bessel_laplace_variogram(CoeffPair.from_ab(0.25, 0.25), Lag(1, 1))
        assert got == pytest.approx(4.0 / math.pi, abs=1e-6)

    @pytest.mark.parametrize(
        "s,t,want",
        [(40, 0, 3.3748869509611), (60, 0, 3.6383698009919), (500, 500, 5.313710559741011)],
    )
    def test_difference_form_large_boundary_lags(self, s, t, want):
        q = QuadratureSettings()
        got = bessel_laplace_variogram(CoeffPair(0.3, 0.2), Lag(s, t), q)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * want)

    @pytest.mark.parametrize(
        "a,b,s,t",
        [
            # gaps 1e-6 and 1e-8 at direction share 0.6
            *((0.6 * h, h - 0.6 * h, s, t)
              for h in ((1.0 - 1e-6) / 2.0, (1.0 - 1e-8) / 2.0)
              for s, t in ((1, 0), (1, 1), (2, 1), (2, 2))),
            (0.0536, 0.4464 - 5e-7, 20, 15),
        ],
    )
    def test_difference_form_near_boundary(self, a, b, s, t):
        # The u = 1/x tail has a feature at u ~ gap that equal panels
        # miss, and a rounded gap moves the value by more than 1e-12.
        q = QuadratureSettings(1e-12, 1e-12)
        got = bessel_laplace_variogram(CoeffPair(a, b), Lag(s, t), q)
        assert abs(got - reduced_integral(a, b, s, t)) <= max(q.abs_tol, q.rel_tol * abs(got))

    @pytest.mark.parametrize("s,t", [(1, 0), (2, 1), (0, 1)])
    @pytest.mark.parametrize("a", [1e-9, 1e-7, 1e-6, 3e-6, 1e-5, 1e-4])
    def test_difference_form_tail_graded_on_the_small_coefficient(self, a, s, t):
        # On the boundary near a = 0 the tail integrand changes at u ~ 2a,
        # inside the first equal panel; at a = 1e-6 the gap rounds below 0
        # and lag (1, 0) was off by 2.2e-2 with a bar of 4.5e-6.
        q = QuadratureSettings()
        got = bessel_laplace_variogram(CoeffPair(a, 0.5 - a), Lag(s, t), q)
        want = reduced_integral(a, 0.5 - a, s, t)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * abs(want))

    @pytest.mark.parametrize("a,b", [(0.0, 0.3), (0.0, 0.4999), (0.3, 0.0), (0.49999, 0.0)])
    @pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 0), (2, 1)])
    def test_difference_form_zero_coefficient(self, a, b, s, t):
        # Grading on 2|a| or 2|b| skips a zero coefficient.
        q = QuadratureSettings(1e-12, 1e-12)
        got = bessel_laplace_variogram(CoeffPair(a, b), Lag(s, t), q)
        want = reduced_integral(a, b, s, t)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * abs(want))

    def test_oracle_self_consistency(self):
        # the two oracles share no numerical kernel; agreement localizes bugs
        coeffs = [0.1, 0.2, 0.25]
        for a in coeffs:
            for b in coeffs:
                if a + b > 0.5:
                    continue
                pair = CoeffPair.from_ab(a, b)
                for s in range(4):
                    for t in range(4):
                        if s == 0 and t == 0:
                            continue
                        vq = quadrature_variogram(pair, Lag(s, t))
                        vb = bessel_laplace_variogram(pair, Lag(s, t))
                        assert vq == pytest.approx(vb, abs=1e-6)


class TestBoundaryCorners:
    """On the boundary with a or b zero the walk is one-dimensional."""

    @pytest.mark.parametrize("oracle", [quadrature_variogram, bessel_laplace_variogram])
    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 0.0)])
    @pytest.mark.parametrize("s,t", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_refused(self, oracle, a, b, s, t):
        # At (0, 1/2) lag (0, 1) the quadrature oracle divided by zero and
        # the Bessel-Laplace oracle certified 0.99995 against the exact 1;
        # at (1/2, 0) lag (0, 1), where the variogram diverges, both
        # returned a finite value.
        with pytest.raises(DomainError, match="boundary corner"):
            oracle(CoeffPair(a, b), Lag(s, t))

    @pytest.mark.parametrize("oracle", [quadrature_variogram, bessel_laplace_variogram])
    @pytest.mark.parametrize("a", [1e-6, 1e-9])
    def test_values_near_the_corner_kept(self, oracle, a):
        q = QuadratureSettings()
        got = oracle(CoeffPair(a, 0.5 - a), Lag(0, 1), q)
        want = reduced_integral(a, 0.5 - a, 0, 1)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * abs(got))


@st.composite
def signed_pairs(draw):
    """(a, b) over the whole region: either sign, gap 0 or 1e-9 to 0.5, a or b
    0 or down to 1e-9 of ``|a| + |b|``.

    The gap is drawn; the one the oracle sees is that of the rounded
    pair, which may round to the boundary or just past it.  A smaller
    nonzero share puts a feature at ``x ~ sqrt(|a|)`` on the boundary
    that the reference integral does not resolve.
    """
    gap = draw(st.one_of(st.just(0.0), st.floats(-9.0, math.log10(0.5)).map(lambda e: 10.0**e)))
    share = draw(st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(1e-9, 1.0),
        st.floats(-9.0, -2.0).map(lambda e: 10.0**e),
    ))
    if draw(st.booleans()):
        share = 1.0 - share
    total = (1.0 - gap) / 2.0
    a = total * share
    b = total - a
    return (-a if draw(st.booleans()) else a, -b if draw(st.booleans()) else b)


class TestDifferenceFormOverTheRegion:
    # No shrink phase: each example costs an mpmath integral, and the
    # failing example is reported as drawn.
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(signed_pairs(), st.integers(0, 20), st.integers(0, 20))
    def test_value_or_domain_error(self, pair, s, t):
        # A value within the enforced bar of the 30-digit reduced
        # integral, or DomainError exactly where the default route raises
        # it and at the boundary corners.
        a, b = pair
        c, lag = CoeffPair(a, b), Lag(s, t)
        q = QuadratureSettings()
        on_boundary = 1 - 2 * abs(Fraction(a)) - 2 * abs(Fraction(b)) <= 0
        try:
            variogram_integral(c, lag)
            diverges = False
        except DomainError:
            diverges = True
        if diverges or (on_boundary and (a == 0.0 or b == 0.0)):
            with pytest.raises(DomainError):
                bessel_laplace_variogram(c, lag, q)
            return
        got = bessel_laplace_variogram(c, lag, q)
        want = reduced_integral(a, b, s, t)
        assert abs(got - want) <= max(q.abs_tol, q.rel_tol * abs(want))
