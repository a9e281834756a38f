"""Lag-(s,t) variogram of a first-order intrinsic autoregression.

:func:`variogram` evaluates every admissible ``(a, b)`` with one route:

* the defining double integral reduced to one dimension (its inner
  integral in closed form) on a fixed, graded Gauss-Legendre rule,
  :func:`variogram_integral`, over the interior, the boundary and
  negative coefficients alike;
* except diagonal lags at the quarter point (a = b = 1/4), which have an
  elementary odd-harmonic closed form.

The paper's constructions stay as named methods:

* interior (|a| + |b| < 1/2): difference of two fourth-kind Appell
  series evaluations (:func:`variogram_exact`);
* boundary (a + b = 1/2): Abel-limit approximation evaluated on a
  schedule of interior offsets and extrapolated to the boundary
  (:func:`variogram_edge`);
* symmetric quarter point: closed form in terms of an expansion
  constant B given by a slowly convergent series
  (:func:`variogram_symmetric`).

The B series has terms decaying like ``k**-1.5`` (faster for larger
lags), so direct truncation cannot certify tight tolerances.  Terms are
generated in exact integer arithmetic (the embedded terminating 3F2
cancels catastrophically in floating point once k exceeds ~45) and the
tail is removed by eliminating half-integer powers of 1/K from the
partial sums at high working precision.  mpmath, which that elimination
needs, is imported by the B-series functions when they first run, so
``import iavar`` and the other routes run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
    ConvergenceError,
    DomainError,
    MaxTermsExceededError,
    NumericalConsistencyError,
    OutOfRegionError,
    PoleInTermError,
    SlowConvergenceError,
)
from .specfun import (
    EULER_GAMMA,
    F4Params,
    SeriesValue,
    appell_f4,
    binomial,
    digamma,
)

__all__ = [
    "EPS_EDGE",
    "EPS_SYM",
    "Regime",
    "Method",
    "Lag",
    "CoeffPair",
    "VariogramResult",
    "i_st",
    "variogram_exact",
    "variogram_edge",
    "gamma_st",
    "l_st",
    "b_st",
    "b_st_transformed",
    "b_ss_closed",
    "zero_balanced_4f3_near_unit",
    "variogram_symmetric",
    "variogram_diagonal",
    "variogram_integral",
    "variogram",
]

# Distance of |a|+|b| from 1/2 below which the interior series is
# considered hopeless and the boundary path engages.
EPS_EDGE = 1e-9
# The symmetric closed form applies only at the quarter point to
# machine precision.
EPS_SYM = 1e-14
# Interior offsets of the boundary path, largest first.  Four points
# let the extrapolation model carry the next-order remainder term.
_THETA_SCHEDULE = (8e-3, 4e-3, 2e-3, 1e-3)
# Largest lag the boundary path resolves, as a multiple of 1/sqrt(theta)
# at the smallest offset, in the norm |x|_Q = sqrt(s^2/2a + t^2/2b) of the
# boundary walk's covariance.  At offset theta the interior variogram
# saturates past lags of about 1/sqrt(theta) in that norm, and the fit
# in theta stops seeing the lag.  Against the reduced integral, over
# a = 0.001 to 0.499 and lags along five directions, error/bar depends
# on sqrt(theta_min) |x|_Q alone: 0.2 at 1, 0.47 at 2, 0.63 at 2.5, 0.81
# at 3 and 1 at about 3.5.  The cut at 2.5 leaves the bar 1.6 times the
# error; past it the F4 term cap fires at some a (0.25, 0.3) anyway.
_EDGE_MAX_REACH = 2.5
# Exactly computed leading terms of the expansion-constant series
# before the half-power tail elimination takes over, and the working
# precision of that elimination.
_BSERIES_KMAX = 192
_BSERIES_DPS = 60
# Gauss-Legendre orders of the reduced quarter-point integral: the
# higher one gives the value, their difference the truncation error.
_GL_ORDERS = (16, 32)
# Rounded floating-point operations per integrand value, which scale
# the rounding term of the reduced integral's error bar.
_GL_ROUNDING_OPS = 16
# Panels of the reduced integral evaluated per array operation; larger
# lags take more blocks, not larger arrays.
_PANEL_BLOCK = 256


class Regime(Enum):
    INTERIOR = "Interior"
    EDGE = "Edge"
    SYMMETRIC_QUARTER = "SymmetricQuarter"


class Method(Enum):
    EXACT_F4 = "ExactF4"
    EDGE_ABEL = "EdgeAbel"
    SYMMETRIC_CLOSED = "SymmetricClosed"
    DIAGONAL_CLOSED = "DiagonalClosed"
    REDUCED_QUAD = "ReducedQuad"
    QUAD_ORACLE = "quad"
    BESSEL_ORACLE = "bessel"


@dataclass(frozen=True)
class Lag:
    """Nonnegative integer lag pair (s, t)."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s < 0 or self.t < 0 or self.s != int(self.s) or self.t != int(self.t):
            raise DomainError(f"lag components must be nonnegative integers, got {self}")

    @property
    def order(self) -> int:
        return self.s + self.t


@dataclass(frozen=True)
class CoeffPair:
    """Admissible autoregression coefficients, |a| + |b| <= 1/2.

    The regime is derived from (a, b), so it cannot disagree with them;
    an inadmissible pair raises :class:`OutOfRegionError`.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        total = abs(self.a) + abs(self.b)
        if not total <= 0.5 + EPS_EDGE:
            raise OutOfRegionError(f"|a| + |b| = {total} exceeds 1/2")

    @classmethod
    def from_ab(cls, a: float, b: float) -> "CoeffPair":
        """Same as ``CoeffPair(a, b)``; kept because the benchmark's code calls it."""
        return cls(a, b)

    @property
    def regime(self) -> Regime:
        """The evaluation regime of (a, b), within ``EPS_SYM`` and ``EPS_EDGE``."""
        if abs(self.a - 0.25) <= EPS_SYM and abs(self.b - 0.25) <= EPS_SYM:
            return Regime.SYMMETRIC_QUARTER
        if abs(abs(self.a) + abs(self.b) - 0.5) <= EPS_EDGE:
            return Regime.EDGE
        return Regime.INTERIOR


@dataclass(frozen=True)
class VariogramResult:
    value: float
    method: Method
    est_error: float
    diagnostics: dict[str, SeriesValue] = field(default_factory=dict)

    @property
    def terms(self) -> int:
        """Series terms summed over ``diagnostics``; 0 for routes that sum no series."""
        return sum(sv.terms_used for sv in self.diagnostics.values())


def _exact_gap(a: float, b: float) -> float:
    """``1 - 2a - 2b`` correctly rounded (``2a`` and ``2b`` are exact)."""
    return math.fsum((1.0, -2.0 * a, -2.0 * b))


def _finalize_value(raw: float, est_error: float) -> float:
    """Clamp cancellation-level negatives to zero; reject larger ones."""
    if raw >= 0.0:
        return raw
    budget = 10.0 * max(est_error, 1e-15)
    if raw > -budget:
        return 0.0
    raise NumericalConsistencyError(
        f"variogram evaluated to {raw:.6e}, below the negative budget {-budget:.2e}"
    )


# ---------------------------------------------------------------------------
# Interior path
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _cached_f4(p: F4Params, cfg: EvalConfig) -> SeriesValue:
    # I_00 recurs at every lag of a table and of a boundary fit.
    return appell_f4(p, cfg)


def i_st(c: CoeffPair, lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesValue:
    """One Laplace-transform term of the interior decomposition.

    Equals ``C(s+t, s) a^s b^t F4[(s+t+1)/2, (s+t)/2 + 1; s+1, t+1;
    4a^2, 4b^2]``.
    """
    if c.regime is not Regime.INTERIOR:
        raise OutOfRegionError("interior decomposition requires |a| + |b| < 1/2")
    s, t = lag.s, lag.t
    try:
        pref = binomial(s + t, s) * c.a**s * c.b**t
    except OverflowError:
        # C(s+t, s) leaves the float range once s + t > 1029, but
        # C(s+t, s) |a|^s |b|^t <= (|a| + |b|)^(s+t) < 1 does not.  That
        # product may underflow where its product with F4 does not, so
        # it is kept exact.
        pref = math.comb(s + t, s) * Fraction(c.a) ** s * Fraction(c.b) ** t
    if pref == 0.0:
        return SeriesValue(0.0, 1, 0.0)
    f4 = _cached_f4(
        F4Params(
            (s + t + 1) / 2.0,
            (s + t) / 2.0 + 1.0,
            s + 1.0,
            t + 1.0,
            4.0 * c.a * c.a,
            4.0 * c.b * c.b,
        ),
        cfg,
    )
    if isinstance(pref, Fraction):
        value = float(pref * Fraction(f4.value))
        tail = float(abs(pref) * Fraction(f4.tail_estimate))
        return SeriesValue(value, f4.terms_used, tail)
    return SeriesValue(pref * f4.value, f4.terms_used, abs(pref) * f4.tail_estimate)


def variogram_exact(c: CoeffPair, lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> VariogramResult:
    """Interior variogram as a difference of two series terms."""
    if c.regime is not Regime.INTERIOR:
        raise OutOfRegionError("exact path requires |a| + |b| < 1/2; use the edge path")
    if lag.s == 0 and lag.t == 0:
        return VariogramResult(0.0, Method.EXACT_F4, 0.0, {})
    base = i_st(c, Lag(0, 0), cfg)
    shifted = i_st(c, lag, cfg)
    est = base.tail_estimate + shifted.tail_estimate + 4e-16 * abs(base.value)
    value = _finalize_value(base.value - shifted.value, est)
    return VariogramResult(
        value, Method.EXACT_F4, est, {"term_00": base, "term_st": shifted}
    )


# ---------------------------------------------------------------------------
# Boundary (Abel-limit) path
# ---------------------------------------------------------------------------


def variogram_edge(a: float, lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> VariogramResult:
    """Boundary variogram at (a, 1/2 - a) by Abel-limit extrapolation.

    The value at offset theta is the interior variogram at
    ``(a, 1/2 - a) * sqrt(1 - theta)``; it is evaluated at theta = 8e-3,
    4e-3, 2e-3 and 1e-3 and extrapolated to theta -> 0.  The shared
    ``I_00`` term is computed once per offset across lags.
    The remainder of the approximation is O(theta) + O(theta log theta);
    the four-point fit also removes the next-order ``theta**2 log theta``
    term, and its spread against the three-point fit on the smallest
    offsets is reported as the extrapolation residual.

    The offsets resolve lags up to ``2.5 / sqrt(1e-3)`` in the norm
    ``sqrt(s^2/2a + t^2/2b)``; larger lags raise
    :class:`SlowConvergenceError`.
    """
    if not (0.0 < a < 0.5):
        raise DomainError(f"edge path requires a in (0, 1/2), got {a}")
    if lag.s == 0 and lag.t == 0:
        return VariogramResult(0.0, Method.EDGE_ABEL, 0.0, {})
    b = 0.5 - a
    reach = math.hypot(lag.s / math.sqrt(2.0 * a), lag.t / math.sqrt(2.0 * b))
    if reach * math.sqrt(_THETA_SCHEDULE[-1]) > _EDGE_MAX_REACH:
        raise SlowConvergenceError(
            f"the boundary offsets cannot resolve lag ({lag.s}, {lag.t}) at a = {a}"
        )
    nus: list[float] = []
    tails: list[float] = []
    diagnostics: dict[str, SeriesValue] = {}
    # Boundary series need a looser target than the interior default:
    # near the edge the term count scales like 1/theta and the
    # extrapolation residual dominates anyway.
    f4_cfg = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-9))
    for theta in _THETA_SCHEDULE:
        shrink = math.sqrt(1.0 - theta)
        shrunk = CoeffPair(a * shrink, b * shrink)
        try:
            f00 = i_st(shrunk, Lag(0, 0), f4_cfg)
            fst = i_st(shrunk, lag, f4_cfg)
        except ConvergenceError as exc:
            raise SlowConvergenceError(
                f"edge path exhausted its series budget at theta={theta}: {exc}"
            ) from exc
        nus.append(f00.value - fst.value)
        tails.append(f00.tail_estimate + fst.tail_estimate)
        diagnostics[f"f00_theta_{theta:g}"] = f00
        diagnostics[f"fst_theta_{theta:g}"] = fst
    th = np.asarray(_THETA_SCHEDULE)
    nu = np.asarray(nus)
    lth = np.log(th)
    th3 = th[-3:]
    design3 = np.column_stack([np.ones_like(th3), th3, th3 * np.log(th3)])
    nu0_three = float(np.linalg.solve(design3, nu[-3:])[0])
    design = np.column_stack([np.ones_like(th), th, th * lth, th * th * lth])
    nu0 = float(np.linalg.solve(design, nu)[0])
    weights = np.linalg.solve(design.T, np.eye(len(th))[0])
    series_err = float(np.abs(weights) @ np.asarray(tails))
    est = 3.0 * abs(nu0 - nu0_three) + 10.0 * series_err + 1e-14
    value = _finalize_value(nu0, est)
    return VariogramResult(value, Method.EDGE_ABEL, est, diagnostics)


# ---------------------------------------------------------------------------
# Near-unit expansion constituents
# ---------------------------------------------------------------------------


def gamma_st(lag: Lag) -> float:
    """Gamma-ratio constant of the lag family: C(s+t, s) * pi / 4**(s+t)."""
    # Integer division keeps both factors in range at any lag; 4**(s+t)
    # is a power of two, so the bits match C(s+t, s) * pi / 4.0**(s+t).
    return math.comb(lag.order, lag.s) / 4**lag.order * math.pi


def l_st(lag: Lag) -> float:
    """Digamma constant of the lag family (depends on s + t only)."""
    n = lag.order
    return -2.0 * EULER_GAMMA - digamma((n + 1) / 2.0) - digamma(n / 2.0 + 1.0)


def b_ss_closed(s: int) -> float:
    """Closed form of the expansion constant on the diagonal."""
    if s < 0:
        raise DomainError("s must be nonnegative")
    return digamma(s + 1.0) - digamma(s + 0.5)


def _exact_3f2_int_pair(u1: int, u2: int, v1: int, v2: int, k: int) -> tuple[int, int]:
    """Terminating 3F2(u1/2, u2/2, -k; v1/2, v2/2; 1), exactly.

    The B series' parameters are integers or half-integers, so they are
    passed doubled and the sum is accumulated as one integer numerator
    over a shared denominator (the alternating binomial cancellation
    makes floating point useless past k ~ 45).  Returns (numerator,
    denominator); a zero lower factor in a term raises
    :class:`PoleInTermError`.
    """
    sn = 1
    sd = 1
    tn = 1
    for m in range(k):
        den_step = (v1 + 2 * m) * (v2 + 2 * m) * (m + 1)
        if den_step == 0:
            raise PoleInTermError(
                f"terminating 3F2 with lower parameters {v1}/2, {v2}/2 has a pole "
                f"at term {m + 1} of {k}"
            )
        tn *= (u1 + 2 * m) * (u2 + 2 * m) * (m - k)
        sn = sn * den_step + tn
        sd *= den_step
        if tn == 0:
            break
    return sn, sd


def _b_series_partials(s: int, t: int, kmax: int, transformed: bool) -> list:
    """Exact partial sums of the expansion-constant series as mpf values."""
    import mpmath as mp

    partials = []
    total = mp.mpf(0)
    u2, w = (s - t, t - s + 1) if transformed else (s + t + 1, 2 * t + 1)
    # Running integer Pochhammer products, doubled to stay integral:
    # q1 ~ (s+1/2)_k, q2 ~ (w/2)_k (w = 2t+1 for the defining series,
    # t-s+1 for the transformed one), r1 ~ ((s+t+1)/2)_k,
    # r2 ~ ((s+t)/2+1)_k; common 2**k factors cancel.
    q1 = 1
    q2 = 1
    r1 = 1
    r2 = 1
    for k in range(1, kmax + 1):
        i = k - 1
        q1 *= 2 * s + 1 + 2 * i
        q2 *= w + 2 * i
        r1 *= s + t + 1 + 2 * i
        r2 *= s + t + 2 + 2 * i
        v2 = s - t + 1 - 2 * k if transformed else 2 * t + 1
        fn, fd = _exact_3f2_int_pair(s + t, u2, 2 * s + 1, v2, k)
        total += mp.mpf(q1 * q2 * fn) / mp.mpf(k * r1 * r2 * fd)
        partials.append(total)
    return partials


@lru_cache(maxsize=None)
def _richardson_weights(kmax: int, j_top: int) -> tuple[tuple[int, ...], tuple]:
    """Nodes and limit weights of one half-power elimination order.

    The limit S of ``S_K = S + sum_{j <= j_top} d_j K**(-j/2)`` fitted
    through the partial sums at the nodes is the first component of the
    solution of ``M x = S_nodes``, i.e. ``w . S_nodes`` with
    ``M^T w = e_0``.  ``M`` depends on the nodes only, never on the lag,
    so the weights are solved once per order.
    """
    import mpmath as mp

    step = max(4, kmax // (2 * (j_top + 1)))
    nodes = tuple(kmax - i * step for i in range(j_top + 1))
    with mp.workdps(_BSERIES_DPS):
        mt = mp.matrix(j_top + 1, j_top + 1)
        for i, kn in enumerate(nodes):
            for j in range(j_top + 1):
                mt[j, i] = mp.power(kn, mp.mpf(-j) / 2)
        e0 = mp.matrix(j_top + 1, 1)
        e0[0] = 1
        weights = mp.lu_solve(mt, e0)
        return nodes, tuple(weights[i] for i in range(j_top + 1))


def _half_power_limit(partials: list, order: int) -> tuple[float, float]:
    """Limit of partial sums whose remainder is a half-power ladder in 1/K.

    Solves for S in ``S_K = S + sum_j d_j K**(-j/2)`` on a spread of
    nodes, at two elimination orders, as a weighted sum of the partial
    sums at the nodes (:func:`_richardson_weights`); the spread between
    the orders is the error estimate.
    """
    import mpmath as mp

    kmax = len(partials)
    estimates = []
    for j_top in (order, order - 2):
        nodes, weights = _richardson_weights(kmax, j_top)
        estimates.append(mp.fsum(w * partials[kn - 1] for w, kn in zip(weights, nodes)))
    err = abs(estimates[0] - estimates[1])
    return float(estimates[0]), float(err) + 1e-14


def _b_series_eval(s: int, t: int, cfg: EvalConfig, transformed: bool) -> SeriesValue:
    import mpmath as mp

    if _BSERIES_KMAX > cfg.max_terms:
        raise MaxTermsExceededError(
            f"the expansion-constant series needs {_BSERIES_KMAX} terms, over the cap"
        )
    with mp.workdps(_BSERIES_DPS):
        partials = _b_series_partials(s, t, _BSERIES_KMAX, transformed)
        value, err = _half_power_limit(partials, order=14)
    return SeriesValue(value, _BSERIES_KMAX, err)


def b_st(lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesValue:
    """Expansion constant B of the lag family, by its defining series."""
    return _b_series_eval(lag.s, lag.t, cfg, transformed=False)


def b_st_transformed(lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesValue:
    """Expansion constant B via the transformed series.

    For s > t with s - t odd a lower parameter of the embedded finite
    sum hits a nonpositive integer, which is flagged as a pole; the
    defining series (and symmetry B(s,t) = B(t,s)) remain available.
    """
    s, t = lag.s, lag.t
    if s > t and (s - t) % 2 == 1:
        raise PoleInTermError(
            f"transformed series has in-range poles for lag ({s}, {t}); "
            f"first at k={(s - t + 1) // 2}"
        )
    return _b_series_eval(s, t, cfg, transformed=True)


def zero_balanced_4f3_near_unit(lag: Lag, theta: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Leading near-unit value of the lag family's zero-balanced 4F3.

    Returns ``(L + B - log(theta)) / Gamma``, dropping the
    O(theta) + O(theta log theta) remainder.
    """
    if not (0.0 < theta < 1.0):
        raise DomainError("theta must lie in (0, 1)")
    b = b_st(lag, cfg)
    return (l_st(lag) + b.value - math.log(theta)) / gamma_st(lag)


# ---------------------------------------------------------------------------
# Symmetric quarter point
# ---------------------------------------------------------------------------


def variogram_symmetric(lag: Lag, cfg: EvalConfig = DEFAULT_CONFIG) -> VariogramResult:
    """Closed form at a = b = 1/4: (log 4 + 2 H_{s+t} - B) / pi.

    B comes from its defining series.
    """
    s, t = lag.s, lag.t
    if s == 0 and t == 0:
        return VariogramResult(0.0, Method.SYMMETRIC_CLOSED, 0.0, {})
    b = b_st(lag, cfg)
    harmonic = math.fsum(1.0 / k for k in range(1, s + t + 1))
    raw = (math.log(4.0) + 2.0 * harmonic - b.value) / math.pi
    est = b.tail_estimate / math.pi + 1e-15
    value = _finalize_value(raw, est)
    return VariogramResult(value, Method.SYMMETRIC_CLOSED, est, {"b_st": b})


def variogram_diagonal(s: int) -> float:
    """Diagonal-lag closed form at the quarter point: (4/pi) sum 1/(2k+1)."""
    if s < 0:
        raise DomainError("s must be nonnegative")
    return 4.0 / math.pi * math.fsum(1.0 / (2 * k + 1) for k in range(s))


@lru_cache(maxsize=None)
def _gauss_legendre_pair() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of both rules of ``_GL_ORDERS`` on [-1, 1], concatenated.

    One array operation then serves both rules; the first
    ``_GL_ORDERS[0]`` columns belong to the lower order.
    """
    pair = tuple(
        np.concatenate(v) for v in zip(*(np.polynomial.legendre.leggauss(n) for n in _GL_ORDERS))
    )
    for arr in pair:
        arr.setflags(write=False)  # shared by every caller through the cache
    return pair


def _panel_edges(knee: float, panels: int) -> np.ndarray:
    """Panel edges on [0, pi], at most ``width = pi / panels`` apart, graded toward 0.

    The edges are 0, ``min(knee, width)``, and then each next edge is
    ``min(2x, x + width, pi)``: panels double until they reach the
    width, then keep it.  When ``knee`` is 0 or at least pi there is no
    scale to resolve, and the edges are ``panels`` equal panels.
    """
    if not 0.0 < knee < math.pi:
        return np.linspace(0.0, math.pi, panels + 1)
    width = math.pi / panels
    first = min(knee, width)
    doublings = 0 if first >= width else math.floor(math.log2(width / first)) + 1
    head = first * np.exp2(np.arange(doublings + 1.0))
    steps = math.ceil((math.pi - head[-1]) / width)
    tail = head[-1] + width * np.arange(1.0, steps)
    edges = np.concatenate(([0.0], head, tail))
    return edges if edges[-1] >= math.pi else np.append(edges, math.pi)


def variogram_integral(c: CoeffPair, lag: Lag) -> VariogramResult:
    """Variogram from the defining integral reduced to one dimension.

    Integrating the defining double integral over ``y`` in closed form
    (Gradshteyn & Ryzhik 3.613.2) leaves
    ``nu = (1/pi) INT_0^pi [2 sin^2(sx/2) - cos(sx) expm1(t log rho)]
    / sqrt(D- D+) dx`` on ``|a|, |b|``, with ``D- = gap + 4|a| sin^2(x/2)``,
    ``D+ = D- + 4|b|`` and ``log rho = -log1p((D- + sqrt(D- D+)) / 2|b|)``.
    The gap ``1 - 2|a| - 2|b|`` is taken correctly rounded.  A negative
    coefficient is the substitution ``x -> pi - x`` (or ``y -> pi - y``):
    where ``(-1)^(s [a<0] + t [b<0])`` is -1 the numerator is 2 minus
    the one above.

    The rule is fixed: 16- and 32-point Gauss-Legendre on panels whose
    edges are graded toward 0 on the scale ``sqrt(gap/|a|)``, where the
    integrand varies near the boundary, and that are at most
    ``pi / (2(s+t+1))`` wide, so each resolves a fixed share of an
    oscillation.  The 32-point value is returned, and the error bar is
    the difference of the two plus a rounding term
    ``16 eps sum|w f| / pi``.  Panels are summed in blocks of a fixed
    size, so the memory of a call does not grow with the lag.

    On the boundary (``|a| + |b| >= 1/2``, where the gap is taken as 0)
    the integral diverges, and :class:`DomainError` is raised, when the
    sign above is -1, when ``b = 0`` and ``t > 0``, or when ``a = 0`` and
    ``s > 0``.  Every other admissible input returns a value; there is
    no series and no term cap.
    """
    s, t = lag.s, lag.t
    if s == 0 and t == 0:
        return VariogramResult(0.0, Method.REDUCED_QUAD, 0.0, {})
    flip = (s % 2 == 1 and c.a < 0.0) != (t % 2 == 1 and c.b < 0.0)
    a, b = abs(c.a), abs(c.b)
    gap = max(0.0, _exact_gap(a, b))
    if gap == 0.0:
        if flip or (b == 0.0 and t > 0) or (a == 0.0 and s > 0):
            raise DomainError(
                f"the variogram diverges on the boundary at a = {c.a}, b = {c.b}, "
                f"lag ({s}, {t})"
            )
        if a == 0.0:
            # D- vanishes identically; the integrand's limit is t / 2|b|.
            value = t / (2.0 * b)
            return VariogramResult(value, Method.REDUCED_QUAD, math.ulp(value), {})
    knee = math.sqrt(gap / a) if a > 0.0 else math.inf
    edges = _panel_edges(knee, 2 * (s + t + 1))
    nodes, weights = _gauss_legendre_pair()
    low = _GL_ORDERS[0]
    q_low = q_high = magnitude = 0.0
    for lo in range(0, len(edges) - 1, _PANEL_BLOCK):
        block = edges[lo : lo + _PANEL_BLOCK + 1]
        half = 0.5 * (block[1:] - block[:-1])[:, None]
        x = 0.5 * (block[1:] + block[:-1])[:, None] + half * nodes
        h = np.sin(0.5 * x)
        d_minus = gap + 4.0 * a * h * h
        d_plus = d_minus + 4.0 * b
        if gap > 0.0:
            root = np.sqrt(d_minus * d_plus)
        else:
            # sqrt(D-) = 2 sqrt(|a|) h, which stays in range where D- underflows.
            root = (2.0 * math.sqrt(a)) * h * np.sqrt(d_plus)
        hs = np.sin(0.5 * s * x)
        numerator = 2.0 * hs * hs
        if t > 0:
            cos_sx = 1.0 - numerator
            if b == 0.0:
                numerator += cos_sx  # rho = 0
            else:
                numerator -= cos_sx * np.expm1(-t * np.log1p((d_minus + root) * (0.5 / b)))
        if flip:
            numerator = 2.0 - numerator
        wf = half * weights * numerator / root
        q_low += float(wf[:, :low].sum())
        q_high += float(wf[:, low:].sum())
        magnitude += float(np.abs(wf[:, low:]).sum())
    q_low, q_high, magnitude = q_low / math.pi, q_high / math.pi, magnitude / math.pi
    est = abs(q_high - q_low) + _GL_ROUNDING_OPS * math.ulp(1.0) * magnitude
    return VariogramResult(_finalize_value(q_high, est), Method.REDUCED_QUAD, est, {})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def variogram(c: CoeffPair, lag: Lag) -> VariogramResult:
    """Evaluate the variogram anywhere in the admissible region.

    Every input goes to the reduced integral (:func:`variogram_integral`),
    except diagonal lags at the quarter point, which have an elementary
    closed form (:func:`variogram_diagonal`).
    """
    if c.regime is Regime.SYMMETRIC_QUARTER and lag.s == lag.t:
        value = variogram_diagonal(lag.s)
        return VariogramResult(value, Method.DIAGONAL_CLOSED, 5e-16 * max(1.0, value), {})
    return variogram_integral(c, lag)
