"""Unit tests for the hypergeometric kernel."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from iavar.config import EvalConfig
from iavar.errors import (
    DomainError,
    MaxTermsExceededError,
    OutOfRegionError,
    PoleInTermError,
)
from iavar.specfun import (
    EULER_GAMMA,
    F4Params,
    ZeroBalanced4F3,
    appell_f2,
    appell_f4,
    binomial,
    digamma,
    f4_equal_args_reduction,
    hyp4f3_series,
)
from iavar.variogram import _exact_3f2_int_pair, _exact_3f2_transformed_int_pair

import iavar.specfun as specfun
from conftest import (
    exact_3f2_terminating,
    full_triangle_f2,
    full_triangle_f4,
    gauss_2f1_direct,
    naive_f4,
    naive_f4_diag_partials,
)

# Frozen via the brute-force double sums in conftest (300 anti-diagonals,
# 30 working digits), computed before the series engine was written.
F4_AT_016_016 = 1.2702492001213228
F2_AT_02_03 = 1.3540629392527235
# Frozen via 300-term direct high-precision summation of the unit-lag
# zero-balanced family at z = 1/2.
H4F3_LAG11_HALF = 1.6261663462294002


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)

    def test_recurrence(self):
        assert digamma(7.3) == pytest.approx(digamma(6.3) + 1.0 / 6.3, abs=1e-13)

    @given(x=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("x", np.logspace(-3, 6, 25).tolist())
    def test_against_scipy(self, x):
        ref = float(scipy.special.digamma(x))
        assert digamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.5)


class TestBinomial:
    @pytest.mark.parametrize("n,k,want", [(0, 0, 1.0), (2, 1, 2.0), (10, 4, 210.0)])
    def test_small(self, n, k, want):
        assert binomial(n, k) == want

    def test_large_relative_accuracy(self):
        got = binomial(200, 80)
        want = math.comb(200, 80)
        assert abs(got - want) / want <= 1e-14

    def test_contract(self):
        with pytest.raises(DomainError):
            binomial(3, 4)


class TestHyp3F2Terminating:
    # The B series' terminating 3F2 has uppers (s+t)/2, (s+t+1)/2, -k and
    # lowers s+1/2, t+1/2; it is summed as one exact integer fraction.
    @staticmethod
    def _exact(s, t, k):
        return Fraction(*_exact_3f2_int_pair(s, t, k))

    def test_k_zero(self):
        assert self._exact(2, 3, 0) == 1

    def test_zero_numerator(self):
        # s = t = 0 puts a zero upper parameter in the first term ratio
        assert self._exact(0, 0, 7) == 1

    def test_known_rational(self):
        want = exact_3f2_terminating(1, Fraction(1, 2), 3, Fraction(3, 2), Fraction(1, 2))
        assert want == Fraction(1, 7)
        assert self._exact(1, 0, 3) == want

    @pytest.mark.parametrize("k", [1, 5, 12, 25, 40])
    def test_against_exact_rational(self, k):
        # The alternating (-k)_m factor cancels catastrophically in
        # floating point; the integer-fraction sum must be exact.
        for s, t in [(1, 0), (2, 2), (0, 3), (5, 1), (7, 4)]:
            want = exact_3f2_terminating(
                Fraction(s + t, 2), Fraction(s + t + 1, 2), k,
                Fraction(2 * s + 1, 2), Fraction(2 * t + 1, 2),
            )
            assert self._exact(s, t, k) == want, (s, t, k)

    def test_pole(self):
        # transformed series: lower parameter (s-t+1)/2 - k hits 0 at
        # s - t = 1, k = 1
        with pytest.raises(PoleInTermError):
            _exact_3f2_transformed_int_pair(2, 1, 1)


class TestAppellF4:
    def test_zero_arguments(self):
        res = appell_f4(F4Params(0.3, 2.0, 1.5, 2.5, 0.0, 0.0))
        assert res.value == 1.0
        assert res.converged

    def test_single_variable_binomial(self):
        res = appell_f4(F4Params(0.5, 1.0, 1.0, 1.0, 0.25, 0.0))
        assert res.value == pytest.approx(0.75**-0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta,g1,g2,x",
        [(0.5, 1.0, 1.0, 1.0, 0.3), (1.2, 0.7, 2.0, 1.5, 0.5), (2.5, 0.4, 3.0, 1.0, 0.13)],
    )
    def test_single_variable_collapse(self, alpha, beta, g1, g2, x):
        res = appell_f4(F4Params(alpha, beta, g1, g2, x, 0.0))
        ref = gauss_2f1_direct(alpha, beta, g1, x)
        assert res.value == pytest.approx(ref, rel=1e-12)
        res_y = appell_f4(F4Params(alpha, beta, g2, g1, 0.0, x))
        assert res_y.value == pytest.approx(ref, rel=1e-12)

    def test_frozen_brute_force_value(self):
        res = appell_f4(F4Params(0.5, 1.0, 1.0, 1.0, 0.16, 0.16))
        assert res.value == pytest.approx(F4_AT_016_016, abs=2e-10)
        # the frozen constant itself re-derives from the naive oracle
        assert naive_f4(0.5, 1.0, 1.0, 1.0, 0.16, 0.16, n_max=200) == pytest.approx(
            F4_AT_016_016, abs=1e-13
        )

    def test_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            appell_f4(F4Params(0.5, 1.0, 1.0, 1.0, 0.5, 0.3))

    def test_term_cap(self):
        with pytest.raises(MaxTermsExceededError):
            appell_f4(
                F4Params(0.5, 1.0, 1.0, 1.0, 0.2, 0.2),
                EvalConfig(rel_tol=1e-12, max_terms=40),
            )

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            F4Params(0.5, 1.0, -1.0, 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            F4Params(0.5, 1.0, 1.0, 1.0, -0.1, 0.1)

    def test_tail_estimate_bounds_error_on_grid(self, rng):
        loose = EvalConfig(rel_tol=1e-8)
        tight = EvalConfig(rel_tol=1e-9)
        for _ in range(50):
            alpha = rng.uniform(0.2, 3.0)
            beta = rng.uniform(0.2, 3.0)
            g1 = rng.uniform(0.5, 3.0)
            g2 = rng.uniform(0.5, 3.0)
            r = rng.uniform(0.05, 0.85)
            frac = rng.uniform(0.2, 0.8)
            x = (r * frac) ** 2
            y = (r * (1.0 - frac)) ** 2
            got = appell_f4(F4Params(alpha, beta, g1, g2, x, y), loose)
            ref = appell_f4(F4Params(alpha, beta, g1, g2, x, y), tight)
            assert abs(got.value - ref.value) <= got.tail_estimate + 1e-15

    def test_anti_diagonal_partials_nondecreasing(self):
        partials = naive_f4_diag_partials(0.8, 1.3, 1.1, 2.0, 0.09, 0.16)
        assert all(b >= a for a, b in zip(partials, partials[1:]))


class TestEngineAgainstFullTriangle:
    """The block engine against every term of the triangle, with no cutoff.

    The gap is ``1 - (sqrt(x) + sqrt(y))`` for F4 and ``1 - (x + y)`` for
    F2; a share near 0 or 1 puts the anchors of the early diagonals at
    ``j = 0`` or ``j = n``.
    """

    @given(
        log_gap=st.floats(math.log(0.01), math.log(0.5)),
        share=st.floats(0.01, 0.99),
        alpha=st.floats(0.2, 3.0),
        beta=st.floats(0.2, 3.0),
        g1=st.floats(0.5, 3.0),
        g2=st.floats(0.5, 3.0),
        rel_tol=st.sampled_from([1e-10, 1e-9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_f4_within_tail_estimate(self, log_gap, share, alpha, beta, g1, g2, rel_tol):
        r = 1.0 - math.exp(log_gap)
        x, y = (r * share) ** 2, (r * (1.0 - share)) ** 2
        got = appell_f4(F4Params(alpha, beta, g1, g2, x, y), EvalConfig(rel_tol=rel_tol))
        ref = full_triangle_f4(alpha, beta, g1, g2, x, y)
        assert abs(got.value - ref) <= got.tail_estimate + 1e-14 * ref

    @given(
        log_gap=st.floats(math.log(0.01), math.log(0.5)),
        share=st.floats(0.01, 0.99),
        alpha=st.floats(0.2, 3.0),
        b1=st.floats(0.2, 3.0),
        b2=st.floats(0.2, 3.0),
        g1=st.floats(0.5, 3.0),
        g2=st.floats(0.5, 3.0),
        rel_tol=st.sampled_from([1e-10, 1e-9]),
    )
    @settings(max_examples=30, deadline=None)
    def test_f2_within_tail_estimate(self, log_gap, share, alpha, b1, b2, g1, g2, rel_tol):
        r = 1.0 - math.exp(log_gap)
        x, y = r * share, r * (1.0 - share)
        got = appell_f2(alpha, b1, b2, g1, g2, x, y, EvalConfig(rel_tol=rel_tol))
        ref = full_triangle_f2(alpha, b1, b2, g1, g2, x, y)
        assert abs(got.value - ref) <= got.tail_estimate + 1e-14 * ref

    def test_tail_estimate_with_rising_diagonal_ratios(self):
        # alpha + b - g is negative here, so the ratio of successive
        # diagonal sums rises towards x + y; a tail on the last ratio
        # alone falls short of the true tail by half a percent.
        args = (0.37589302012568926, 1.4408904285740756, 0.8466267624549528,
                2.3690279924540483, 2.9044612672985206, 0.7773972513552552,
                0.20794302909975462)
        got = appell_f2(*args)
        ref = full_triangle_f2(*args)
        assert abs(got.value - ref) <= got.tail_estimate + 1e-14 * ref

    def test_window_widens_mid_series(self, monkeypatch):
        calls = []
        window = specfun._window

        def recording(ratio, ns, jstar, width, step):
            calls.append((int(ns[0]), step, width))
            return window(ratio, ns, jstar, width, step)

        monkeypatch.setattr(specfun, "_window", recording)
        p = F4Params(0.5, 1.0, 1.0, 1.0, 0.2, 0.2)
        got = appell_f4(p)
        widths = {}
        redone = []
        for n0, step, width in calls:
            if (n0, step) in widths:
                redone.append((n0, widths[(n0, step)], width))
            widths[(n0, step)] = width
        assert any(n0 > 1 and new == 2 * old for n0, old, new in redone)
        ref = full_triangle_f4(0.5, 1.0, 1.0, 1.0, 0.2, 0.2)
        assert abs(got.value - ref) <= got.tail_estimate + 1e-14 * ref


class TestTermCap:
    """``terms_used`` and the term cap keep their meaning across engines."""

    # Term counts of the per-diagonal sweep engine that came before the
    # block engine, for the same series.
    @pytest.mark.parametrize(
        "params,rel_tol,sweep_terms",
        [
            # interior, gap 0.011, share 0.55, lag (0, 0)
            ((0.5, 1.0, 1.0, 1.0, (0.55 * 0.989) ** 2, (0.45 * 0.989) ** 2), 1e-10, 89868),
            # published pair (0.4848, 0.0132), lag (1, 0)
            ((1.0, 1.5, 2.0, 1.0, 4 * 0.4848**2, 4 * 0.0132**2), 1e-10, 136623),
            # boundary a = 1/4, theta = 1e-3, f00
            ((0.5, 1.0, 1.0, 1.0, 0.25 * 0.999, 0.25 * 0.999), 1e-9, 7158912),
        ],
    )
    def test_terms_used_pinned(self, params, rel_tol, sweep_terms):
        got = appell_f4(F4Params(*params), EvalConfig(rel_tol=rel_tol))
        assert got.terms_used == pytest.approx(sweep_terms, rel=0.05)

    def test_cap_names_the_diagonal_count(self):
        p = F4Params(0.5, 1.0, 1.0, 1.0, (0.55 * 0.989) ** 2, (0.45 * 0.989) ** 2)
        with pytest.raises(MaxTermsExceededError) as info:
            appell_f4(p, EvalConfig(max_terms=20_000))
        match = re.search(r"(\d+) terms over (\d+) diagonals", str(info.value))
        assert match is not None
        terms, diagonals = int(match.group(1)), int(match.group(2))
        assert 20_000 < terms < 21_000
        # the series needs about 820 diagonals; 20k terms reach a fraction
        assert 50 < diagonals < 800


class TestAppellF2:
    def test_zero_arguments(self):
        res = appell_f2(0.4, 0.9, 1.1, 1.5, 2.5, 0.0, 0.0)
        assert res.value == 1.0

    def test_single_variable_log(self):
        res = appell_f2(1.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.0)
        assert res.value == pytest.approx(-math.log(0.7) / 0.3, rel=1e-12)

    def test_frozen_brute_force_value(self):
        res = appell_f2(0.9, 0.5, 0.7, 1.3, 1.1, 0.2, 0.3)
        assert res.value == pytest.approx(F2_AT_02_03, abs=2e-10)

    def test_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            appell_f2(0.9, 0.5, 0.7, 1.3, 1.1, 0.6, 0.5)


class TestHyp4F3:
    def _params(self, s, t):
        return ZeroBalanced4F3(
            (s + t + 1) / 2.0,
            (s + t) / 2.0 + 1.0,
            (s + t) / 2.0 + 1.0,
            (s + t + 1) / 2.0,
            s + 1.0,
            t + 1.0,
            s + t + 1.0,
        )

    def test_zero_argument(self):
        assert hyp4f3_series(self._params(1, 1), 0.0).value == 1.0

    def test_zero_upper_parameter(self):
        p = ZeroBalanced4F3(0.0, 1.0, 2.0, 3.0, 1.5, 2.0, 2.5)
        assert hyp4f3_series(p, 0.7).value == 1.0

    def test_frozen_direct_sum(self):
        res = hyp4f3_series(self._params(1, 1), 0.5)
        assert res.value == pytest.approx(H4F3_LAG11_HALF, rel=1e-12)

    def test_out_of_region(self):
        with pytest.raises(OutOfRegionError):
            hyp4f3_series(self._params(1, 1), 1.0)

    def test_balance_enforced(self):
        with pytest.raises(DomainError):
            ZeroBalanced4F3(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5)


class TestBurchnallReduction:
    def test_zero_argument(self):
        assert f4_equal_args_reduction(0.7, 1.3, 1.5, 2.0, 0.0).value == 1.0

    @pytest.mark.parametrize(
        "alpha,beta,g1,g2,x",
        [(0.5, 1.0, 1.0, 1.0, 0.04), (0.3, 0.6, 1.2, 0.8, 0.05)],
    )
    def test_matches_double_series(self, alpha, beta, g1, g2, x):
        lhs = appell_f4(F4Params(alpha, beta, g1, g2, x, x))
        rhs = f4_equal_args_reduction(alpha, beta, g1, g2, x)
        assert lhs.value == pytest.approx(rhs.value, rel=1e-10)

    def test_sampled_reduction(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0.2, 2.5)
            beta = rng.uniform(0.2, 2.5)
            g1 = rng.uniform(0.4, 2.5)
            g2 = rng.uniform(0.4, 2.5)
            x = rng.uniform(0.001, 0.06)
            lhs = appell_f4(F4Params(alpha, beta, g1, g2, x, x))
            rhs = f4_equal_args_reduction(alpha, beta, g1, g2, x)
            assert abs(lhs.value - rhs.value) <= 1e-10 * max(1.0, abs(lhs.value))

    def test_flagged_outside_region(self):
        res = f4_equal_args_reduction(0.5, 1.0, 1.0, 1.0, 0.3)
        assert not res.converged
        assert math.isnan(res.value)


class TestF4F2Transformation:
    # The classical quadratic transformation pairs F4 upper parameters
    # {alpha/2, (alpha+1)/2} with an F2 whose lower parameters are twice
    # its uppers; its closed-form check at alpha=1, gamma=1/2, y=0 is
    # (1-x^2)^(-1/2) on both sides.
    def test_sampled_identity(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0.05, 2.0)
            g1 = rng.uniform(0.3, 2.0)
            g2 = rng.uniform(0.3, 2.0)
            x = rng.uniform(0.01, 0.15)
            y = rng.uniform(0.01, 0.15)
            lhs = appell_f4(
                F4Params(alpha / 2.0, (alpha + 1.0) / 2.0, g1 + 0.5, g2 + 0.5, x * x, y * y)
            )
            denom = 1.0 + x + y
            rhs = appell_f2(
                alpha, g1, g2, 2.0 * g1, 2.0 * g2, 2.0 * x / denom, 2.0 * y / denom
            )
            rhs_val = denom**-alpha * rhs.value
            assert abs(lhs.value - rhs_val) <= 1e-9 * max(1.0, abs(lhs.value))

    def test_closed_form_instance(self):
        x = 0.3
        lhs = appell_f4(F4Params(0.5, 1.0, 1.0, 1.0, x * x, 0.0))
        assert lhs.value == pytest.approx((1.0 - x * x) ** -0.5, rel=1e-12)
        rhs = (1.0 + x) ** -1.0 * gauss_2f1_direct(1.0, 0.5, 1.0, 2.0 * x / (1.0 + x))
        assert lhs.value == pytest.approx(rhs, rel=1e-12)

    def test_against_naive_f2(self):
        got = appell_f2(0.9, 0.5, 0.7, 1.3, 1.1, 0.2, 0.3, EvalConfig(rel_tol=1e-12))
        # independence check of the F2 engine itself
        assert got.value == pytest.approx(
            naive_f2_local(0.9, 0.5, 0.7, 1.3, 1.1, 0.2, 0.3), abs=1e-11
        )


def naive_f2_local(alpha, b1, b2, g1, g2, x, y):
    from conftest import naive_f2

    return naive_f2(alpha, b1, b2, g1, g2, x, y, n_max=250)
