"""Unit tests for the variogram evaluation paths."""

import importlib
import math

import mpmath as mp
import pytest

from iavar.config import EvalConfig
from iavar.errors import DomainError, OutOfRegionError, PoleInTermError
from iavar.oracle import bessel_laplace_i_st, quadrature_variogram
from iavar.specfun import EULER_GAMMA, digamma
from iavar.variogram import (
    CoeffPair,
    Lag,
    Method,
    Regime,
    b_ss_closed,
    b_st,
    b_st_transformed,
    gamma_st,
    i_st,
    l_st,
    variogram,
    variogram_diagonal,
    variogram_edge,
    variogram_exact,
    variogram_reduced,
    variogram_symmetric,
    zero_balanced_4f3_near_unit,
)

from conftest import potential_kernel

LN4 = math.log(4.0)
# The module, not the package's ``variogram`` function of the same name.
variogram_module = importlib.import_module("iavar.variogram")


class TestTypes:
    def test_lag_validation(self):
        with pytest.raises(DomainError):
            Lag(-1, 0)

    @pytest.mark.parametrize(
        "a,b,regime",
        [
            (0.1, 0.2, Regime.INTERIOR),
            (0.3, 0.2, Regime.EDGE),
            (0.25, 0.25, Regime.SYMMETRIC_QUARTER),
            (0.25 + 5e-10, 0.25 - 5e-10, Regime.EDGE),
            (-0.1, 0.2, Regime.INTERIOR),
        ],
    )
    def test_classification(self, a, b, regime):
        assert CoeffPair.from_ab(a, b).regime is regime

    def test_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            CoeffPair.from_ab(0.4, 0.2)
        with pytest.raises(OutOfRegionError):
            CoeffPair(math.nan, 0.1)

    def test_regime_derived_from_coefficients(self):
        # A regime stored beside (a, b) once sent the interior pair
        # (0.1, 0.1) down the edge path, which returned nu at (0.1, 0.4).
        with pytest.raises(TypeError):
            CoeffPair(0.1, 0.1, Regime.EDGE)
        pair = CoeffPair(0.1, 0.1)
        with pytest.raises(AttributeError):
            pair.regime = Regime.EDGE
        assert pair.regime is Regime.INTERIOR
        res = variogram(pair, Lag(1, 0))
        assert res.method is Method.EXACT_F4
        assert res.value == pytest.approx(quadrature_variogram(pair, Lag(1, 0)), abs=1e-8)
        assert res.value == pytest.approx(0.9339, abs=1e-4)


class TestIst:
    def test_zero_coefficients_zero_lag(self):
        res = i_st(CoeffPair.from_ab(0.0, 0.0), Lag(0, 0))
        assert res.value == 1.0

    def test_vanishing_prefactor(self):
        res = i_st(CoeffPair.from_ab(0.0, 0.3), Lag(2, 1))
        assert res.value == 0.0

    def test_against_laplace_oracle(self):
        pair = CoeffPair.from_ab(0.2, 0.2)
        got = i_st(pair, Lag(1, 0))
        ref = bessel_laplace_i_st(pair, Lag(1, 0))
        assert got.value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize(
        "a,b,s,t", [(0.1, 0.3, 2, 1), (0.05, 0.2, 0, 3), (0.22, 0.15, 4, 4)]
    )
    def test_lag_coefficient_symmetry(self, a, b, s, t):
        lhs = i_st(CoeffPair.from_ab(a, b), Lag(s, t))
        rhs = i_st(CoeffPair.from_ab(b, a), Lag(t, s))
        assert lhs.value == pytest.approx(rhs.value, rel=1e-12)

    def test_requires_interior(self):
        with pytest.raises(OutOfRegionError):
            i_st(CoeffPair.from_ab(0.25, 0.25), Lag(1, 0))


class TestExactPath:
    def test_zero_lag(self):
        res = variogram_exact(CoeffPair.from_ab(0.2, 0.2), Lag(0, 0))
        assert res.value == 0.0
        assert res.method is Method.EXACT_F4

    def test_against_quadrature(self):
        pair = CoeffPair.from_ab(0.1, 0.2)
        res = variogram_exact(pair, Lag(2, 1))
        ref = quadrature_variogram(pair, Lag(2, 1))
        assert res.value == pytest.approx(ref, abs=1e-8)

    def test_remark_parameters_against_quadrature(self):
        pair = CoeffPair.from_ab(0.4848, 0.0132)
        res = variogram_exact(pair, Lag(1, 0))
        ref = quadrature_variogram(pair, Lag(1, 0))
        assert res.value == pytest.approx(ref, abs=1e-6)

    def test_negative_coefficients_supported(self):
        pair = CoeffPair.from_ab(-0.15, 0.2)
        res = variogram_exact(pair, Lag(1, 1))
        ref = quadrature_variogram(CoeffPair.from_ab(0.15, 0.2), Lag(1, 1))
        assert res.value >= 0.0
        # sign flip of a with odd s changes the cross term
        assert res.value != pytest.approx(ref, abs=1e-3)


class TestEdgePath:
    def test_zero_lag(self):
        res = variogram_edge(0.25, Lag(0, 0))
        assert res.value == 0.0
        assert res.est_error == 0.0

    def test_symmetric_point_unit_lag(self):
        res = variogram_edge(0.25, Lag(1, 1))
        assert abs(res.value - 4.0 / math.pi) <= res.est_error

    def test_against_edge_quadrature(self):
        res = variogram_edge(0.3, Lag(1, 0))
        ref = quadrature_variogram(CoeffPair.from_ab(0.3, 0.2), Lag(1, 0))
        assert res.value == pytest.approx(ref, abs=1e-4)

    def test_consistency_with_symmetric(self):
        for lag in [Lag(1, 0), Lag(2, 2), Lag(3, 1)]:
            edge = variogram_edge(0.25, lag)
            sym = variogram_symmetric(lag)
            assert abs(edge.value - sym.value) <= edge.est_error
            assert edge.est_error <= 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            variogram_edge(0.0, Lag(1, 0))
        with pytest.raises(DomainError):
            variogram_edge(0.5, Lag(1, 0))


class TestSharedF4Cache:
    """Interior and boundary paths share one F4 cache keyed by the series."""

    @pytest.fixture
    def f4_calls(self, monkeypatch):
        calls = []
        appell_f4 = variogram_module.appell_f4

        def counting(p, cfg=None):
            calls.append(p)
            return appell_f4(p, cfg)

        monkeypatch.setattr(variogram_module, "appell_f4", counting)
        variogram_module._cached_f4.cache_clear()
        yield calls
        variogram_module._cached_f4.cache_clear()

    def test_interior_table_computes_i00_once(self, f4_calls):
        pair = CoeffPair(0.2, 0.1)
        for s in range(3):
            for t in range(3):
                variogram_exact(pair, Lag(s, t))
        # eight nonzero lags, each with its own I_st, plus one shared I_00
        assert len(f4_calls) == 9

    def test_edge_shares_f00_across_lags(self, f4_calls):
        variogram_edge(0.2, Lag(1, 0))
        variogram_edge(0.2, Lag(2, 1))
        # four offsets: one f00 each, and one fst per offset and lag
        assert len(f4_calls) == 12


class TestExpansionConstants:
    @pytest.mark.parametrize(
        "s,t,want",
        [(0, 0, math.pi), (1, 1, math.pi / 8.0), (3, 2, 10.0 * math.pi / 1024.0)],
    )
    def test_gamma_st(self, s, t, want):
        assert gamma_st(Lag(s, t)) == pytest.approx(want, rel=1e-15)

    def test_l_st_zero_lag(self):
        assert l_st(Lag(0, 0)) == pytest.approx(LN4, abs=1e-13)

    def test_l_st_substitution(self):
        want = -2.0 * EULER_GAMMA - digamma(1.5) - digamma(2.0)
        assert l_st(Lag(1, 1)) == pytest.approx(want, rel=1e-14)

    def test_l_st_depends_on_order_only(self):
        assert l_st(Lag(2, 0)) == l_st(Lag(1, 1))

    def test_b_00(self):
        res = b_st(Lag(0, 0))
        assert res.value == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_b_11(self):
        res = b_st(Lag(1, 1))
        assert res.value == pytest.approx(LN4 - 1.0, abs=1e-10)

    def test_b_10_cross_checked(self):
        # quadrature first: nu(1,0) at the quarter point pins B(1,0)
        nu_ref = quadrature_variogram(CoeffPair.from_ab(0.25, 0.25), Lag(1, 0))
        b_implied = LN4 + 2.0 - math.pi * nu_ref
        res = b_st(Lag(1, 0))
        alt = b_st_transformed(Lag(0, 1))
        assert res.value == pytest.approx(alt.value, abs=1e-10)
        assert res.value == pytest.approx(b_implied, abs=1e-7)
        assert res.value == pytest.approx(LN4 + 2.0 - math.pi, abs=1e-10)

    @pytest.mark.parametrize("s", [0, 1, 5, 10])
    def test_b_diagonal_closed_form(self, s):
        assert b_st(Lag(s, s)).value == pytest.approx(b_ss_closed(s), abs=1e-10)

    def test_b_ss_closed_values(self):
        assert b_ss_closed(0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert b_ss_closed(1) == pytest.approx(LN4 - 1.0, rel=1e-13)

    def test_transformed_diagonal_reduction(self):
        # on the diagonal the embedded 3F2 collapses to 1 and the series
        # telescopes to the digamma difference
        for s in [0, 2, 4]:
            res = b_st_transformed(Lag(s, s))
            assert res.value == pytest.approx(b_ss_closed(s), abs=1e-10)

    def test_transformed_pole_flagged(self):
        with pytest.raises(PoleInTermError):
            b_st_transformed(Lag(2, 1))
        with pytest.raises(PoleInTermError):
            b_st_transformed(Lag(5, 0))

    def test_transformed_matches_defining_series(self):
        for s, t in [(1, 2), (0, 3), (2, 4), (2, 2)]:
            assert b_st_transformed(Lag(s, t)).value == pytest.approx(
                b_st(Lag(s, t)).value, abs=1e-9
            )

    def test_transformed_covers_pole_lags_by_symmetry(self):
        # B(2,1) itself: the transformed series has an in-range pole
        # there, but B is symmetric so the swapped lag supplies the
        # cross-check the defining series needs
        assert b_st_transformed(Lag(1, 2)).value == pytest.approx(
            b_st(Lag(2, 1)).value, abs=1e-9
        )


class TestNearUnitApproximation:
    def test_closed_form_zero_lag(self):
        theta = 1e-3
        want = (LN4 + 2.0 * math.log(2.0) - math.log(theta)) / math.pi
        assert zero_balanced_4f3_near_unit(Lag(0, 0), theta) == pytest.approx(
            want, rel=1e-10
        )

    @pytest.mark.parametrize("s,t,theta", [(0, 0, 1e-3), (1, 1, 1e-2)])
    def test_remainder_order(self, s, t, theta):
        from iavar.specfun import ZeroBalanced4F3, hyp4f3_series

        params = ZeroBalanced4F3(
            (s + t + 1) / 2.0,
            (s + t) / 2.0 + 1.0,
            (s + t) / 2.0 + 1.0,
            (s + t + 1) / 2.0,
            s + 1.0,
            t + 1.0,
            s + t + 1.0,
        )
        cfg = EvalConfig(rel_tol=1e-9)
        full = hyp4f3_series(params, 1.0 - theta, cfg)
        approx = zero_balanced_4f3_near_unit(Lag(s, t), theta, cfg)
        bound = 30.0 * theta * abs(math.log(theta))
        assert abs(full.value - approx) <= bound

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            zero_balanced_4f3_near_unit(Lag(0, 0), 1.5)


class TestSymmetricPath:
    def test_zero_lag_exact_zero(self):
        res = variogram_symmetric(Lag(0, 0))
        assert res.value == 0.0

    def test_unit_diagonal(self):
        res = variogram_symmetric(Lag(1, 1))
        assert res.value == pytest.approx(4.0 / math.pi, abs=1e-10)

    def test_lag_10_against_quadrature(self):
        ref = quadrature_variogram(CoeffPair.from_ab(0.25, 0.25), Lag(1, 0))
        res = variogram_symmetric(Lag(1, 0))
        assert res.value == pytest.approx(ref, abs=1e-6)
        # the series pins the value at exactly 1 (B(1,0) = log4 + 2 - pi)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", range(0, 11))
    def test_matches_diagonal_closed_form(self, s):
        sym = variogram_symmetric(Lag(s, s))
        assert sym.value == pytest.approx(variogram_diagonal(s), abs=1e-10)

    def test_sums_b_once(self, monkeypatch):
        calls = []
        b_series_eval = variogram_module._b_series_eval

        def counting(*args, **kwargs):
            calls.append(args)
            return b_series_eval(*args, **kwargs)

        monkeypatch.setattr(variogram_module, "_b_series_eval", counting)
        res = variogram_symmetric(Lag(5, 2))
        assert len(calls) == 1
        harmonic = math.fsum(1.0 / k for k in range(1, 8))
        assert res.value == (LN4 + 2.0 * harmonic - b_st(Lag(5, 2)).value) / math.pi

    @pytest.mark.parametrize("s,t", [(1, 0), (5, 2), (3, 3), (12, 7)])
    def test_cached_weights_match_lu_solve(self, s, t):
        # The Richardson limit from weights solved once per order equals,
        # bit for bit, a fresh LU solve on the same partial sums.
        kmax = variogram_module._BSERIES_KMAX
        with mp.workdps(variogram_module._BSERIES_DPS):
            partials = variogram_module._b_series_partials(s, t, kmax, False)
            got = variogram_module._half_power_limit(partials, order=14)
            estimates = []
            for j_top in (14, 12):
                step = max(4, kmax // (2 * (j_top + 1)))
                nodes = [kmax - i * step for i in range(j_top + 1)]
                m = mp.matrix(
                    [[mp.power(kn, mp.mpf(-j) / 2) for j in range(j_top + 1)] for kn in nodes]
                )
                rhs = mp.matrix([partials[kn - 1] for kn in nodes])
                estimates.append(mp.lu_solve(m, rhs)[0])
            want = (float(estimates[0]), float(abs(estimates[0] - estimates[1])) + 1e-14)
        assert got == want

    @pytest.mark.xfail(
        strict=True,
        reason="the half-power Richardson spread undershoots the B-series error at "
        "lags >= 11 (ROADMAP item 2)",
    )
    @pytest.mark.parametrize(
        "s,t", [(11, 5), (12, 3), (12, 7), (13, 1), (14, 3), (15, 1), (16, 6)]
    )
    def test_est_error_bounds_exact_kernel(self, s, t):
        res = variogram_symmetric(Lag(s, t))
        assert abs(res.value - potential_kernel(16)[(s, t)]) <= res.est_error


class TestReducedQuarterPoint:
    def test_bounds_exact_kernel(self):
        # Every lag up to 30: the error bar holds with no slack and stays
        # tight, so it cannot hold by being vacuous.
        exact = potential_kernel(30)
        misses, loose, methods = [], [], set()
        for (s, t), want in exact.items():
            res = variogram(CoeffPair(0.25, 0.25), Lag(s, t))
            methods.add((s == t, res.method))
            if not abs(res.value - want) <= res.est_error:
                misses.append((s, t, res.value - want, res.est_error))
            if not res.est_error <= 1e-13 * max(1.0, res.value):
                loose.append((s, t, res.est_error))
        assert not misses
        assert not loose
        assert methods == {(True, Method.DIAGONAL_CLOSED), (False, Method.REDUCED_QUAD)}

    def test_zero_lag(self):
        res = variogram_reduced(Lag(0, 0))
        assert res.value == 0.0 and res.method is Method.REDUCED_QUAD


class TestDiagonalClosedForm:
    @pytest.mark.parametrize(
        "s,want", [(0, 0.0), (1, 4.0 / math.pi), (2, 16.0 / (3.0 * math.pi))]
    )
    def test_values(self, s, want):
        assert variogram_diagonal(s) == pytest.approx(want, rel=1e-14)

    def test_monotone_growth(self):
        values = [variogram_diagonal(s) for s in range(13)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDispatch:
    def test_symmetric_diagonal(self):
        res = variogram(CoeffPair.from_ab(0.25, 0.25), Lag(3, 3))
        want = 4.0 / math.pi * (1.0 + 1.0 / 3.0 + 1.0 / 5.0)
        assert res.value == pytest.approx(want, rel=1e-14)
        assert res.method is Method.DIAGONAL_CLOSED

    def test_symmetric_off_diagonal(self):
        res = variogram(CoeffPair.from_ab(0.25, 0.25), Lag(2, 1))
        assert res.method is Method.REDUCED_QUAD
        assert abs(res.value - potential_kernel(2)[(2, 1)]) <= res.est_error

    def test_interior(self):
        res = variogram(CoeffPair.from_ab(0.2, 0.2), Lag(0, 0))
        assert res.value == 0.0
        assert res.method is Method.EXACT_F4

    def test_edge(self):
        res = variogram(CoeffPair.from_ab(0.3, 0.2), Lag(1, 1))
        ref = quadrature_variogram(CoeffPair.from_ab(0.3, 0.2), Lag(1, 1))
        assert res.method is Method.EDGE_ABEL
        assert res.value == pytest.approx(ref, abs=1e-4)

    def test_zero_lag_everywhere(self, rng):
        for _ in range(15):
            a = rng.uniform(0.01, 0.45)
            b = rng.uniform(0.01, min(0.49 - a, 0.45))
            res = variogram(CoeffPair.from_ab(a, b), Lag(0, 0))
            assert res.value == 0.0

    def test_rejects_inadmissible_pair(self):
        with pytest.raises(OutOfRegionError):
            variogram(CoeffPair(0.4, 0.2), Lag(1, 0))


class TestBudgets:
    def test_edge_slow_convergence(self):
        from iavar.errors import SlowConvergenceError

        with pytest.raises(SlowConvergenceError):
            variogram_edge(0.25, Lag(1, 1), EvalConfig(max_terms=500))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            EvalConfig(max_terms=0)
