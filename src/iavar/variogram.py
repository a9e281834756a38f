"""Lag-(s,t) variogram of a first-order intrinsic autoregression.

Five evaluation paths cover the admissible coefficient region:

* interior (|a| + |b| < 1/2): difference of two fourth-kind Appell
  series evaluations;
* boundary (a + b = 1/2): Abel-limit approximation evaluated on a
  schedule of interior offsets and extrapolated to the boundary;
* symmetric quarter point (a = b = 1/4), the paper's construction:
  closed form in terms of an expansion constant B given by a slowly
  convergent series;
* off-diagonal lags at the quarter point, as ``variogram`` evaluates
  them: the defining double integral reduced to one dimension (its
  inner integral in closed form) on a fixed Gauss-Legendre rule;
* diagonal lags at the quarter point: an elementary odd-harmonic sum.

The B series has terms decaying like ``k**-1.5`` (faster for larger
lags), so direct truncation cannot certify tight tolerances.  Terms are
generated in exact integer arithmetic (the embedded terminating 3F2
cancels catastrophically in floating point once k exceeds ~45) and the
tail is removed by eliminating half-integer powers of 1/K from the
partial sums at high working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import mpmath as mp
import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
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
    "variogram_reduced",
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
        """Same as ``CoeffPair(a, b)``."""
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


def i_st(c: CoeffPair, lag: Lag, cfg: EvalConfig | None = None) -> SeriesValue:
    """One Laplace-transform term of the interior decomposition.

    Equals ``C(s+t, s) a^s b^t F4[(s+t+1)/2, (s+t)/2 + 1; s+1, t+1;
    4a^2, 4b^2]``.
    """
    cfg = cfg or DEFAULT_CONFIG
    if c.regime is not Regime.INTERIOR:
        raise OutOfRegionError("interior decomposition requires |a| + |b| < 1/2")
    s, t = lag.s, lag.t
    pref = binomial(s + t, s) * c.a**s * c.b**t
    if pref == 0.0:
        return SeriesValue(0.0, 1, 0.0, True)
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
    return SeriesValue(pref * f4.value, f4.terms_used, abs(pref) * f4.tail_estimate, f4.converged)


def variogram_exact(c: CoeffPair, lag: Lag, cfg: EvalConfig | None = None) -> VariogramResult:
    """Interior variogram as a difference of two series terms."""
    cfg = cfg or DEFAULT_CONFIG
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


def variogram_edge(a: float, lag: Lag, cfg: EvalConfig | None = None) -> VariogramResult:
    """Boundary variogram at (a, 1/2 - a) by Abel-limit extrapolation.

    The value at offset theta is the interior variogram at
    ``(a, 1/2 - a) * sqrt(1 - theta)``; it is evaluated at theta = 8e-3,
    4e-3, 2e-3 and 1e-3 and extrapolated to theta -> 0.  The shared
    ``I_00`` term is computed once per offset across lags.
    The remainder of the approximation is O(theta) + O(theta log theta);
    the four-point fit also removes the next-order ``theta**2 log theta``
    term, and its spread against the three-point fit on the smallest
    offsets is reported as the extrapolation residual.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (0.0 < a < 0.5):
        raise DomainError(f"edge path requires a in (0, 1/2), got {a}")
    if lag.s == 0 and lag.t == 0:
        return VariogramResult(0.0, Method.EDGE_ABEL, 0.0, {})
    b = 0.5 - a
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
        except MaxTermsExceededError as exc:
            raise SlowConvergenceError(
                f"edge path exhausted the term cap at theta={theta}"
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
    return binomial(lag.order, lag.s) * math.pi / 4.0**lag.order


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
    kmax = len(partials)
    estimates = []
    for j_top in (order, order - 2):
        nodes, weights = _richardson_weights(kmax, j_top)
        estimates.append(mp.fsum(w * partials[kn - 1] for w, kn in zip(weights, nodes)))
    err = abs(estimates[0] - estimates[1])
    return float(estimates[0]), float(err) + 1e-14


def _b_series_eval(s: int, t: int, cfg: EvalConfig, transformed: bool) -> SeriesValue:
    if _BSERIES_KMAX > cfg.max_terms:
        raise MaxTermsExceededError(
            f"the expansion-constant series needs {_BSERIES_KMAX} terms, over the cap"
        )
    with mp.workdps(_BSERIES_DPS):
        partials = _b_series_partials(s, t, _BSERIES_KMAX, transformed)
        value, err = _half_power_limit(partials, order=14)
    converged = err <= cfg.rel_tol * max(1.0, abs(value))
    return SeriesValue(value, _BSERIES_KMAX, err, converged)


def b_st(lag: Lag, cfg: EvalConfig | None = None) -> SeriesValue:
    """Expansion constant B of the lag family, by its defining series."""
    cfg = cfg or DEFAULT_CONFIG
    return _b_series_eval(lag.s, lag.t, cfg, transformed=False)


def b_st_transformed(lag: Lag, cfg: EvalConfig | None = None) -> SeriesValue:
    """Expansion constant B via the transformed series.

    For s > t with s - t odd a lower parameter of the embedded finite
    sum hits a nonpositive integer, which is flagged as a pole; the
    defining series (and symmetry B(s,t) = B(t,s)) remain available.
    """
    cfg = cfg or DEFAULT_CONFIG
    s, t = lag.s, lag.t
    if s > t and (s - t) % 2 == 1:
        raise PoleInTermError(
            f"transformed series has in-range poles for lag ({s}, {t}); "
            f"first at k={(s - t + 1) // 2}"
        )
    return _b_series_eval(s, t, cfg, transformed=True)


def zero_balanced_4f3_near_unit(lag: Lag, theta: float, cfg: EvalConfig | None = None) -> float:
    """Leading near-unit value of the lag family's zero-balanced 4F3.

    Returns ``(L + B - log(theta)) / Gamma``, dropping the
    O(theta) + O(theta log theta) remainder.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not (0.0 < theta < 1.0):
        raise DomainError("theta must lie in (0, 1)")
    b = b_st(lag, cfg)
    return (l_st(lag) + b.value - math.log(theta)) / gamma_st(lag)


# ---------------------------------------------------------------------------
# Symmetric quarter point
# ---------------------------------------------------------------------------


def variogram_symmetric(lag: Lag, cfg: EvalConfig | None = None) -> VariogramResult:
    """Closed form at a = b = 1/4: (log 4 + 2 H_{s+t} - B) / pi.

    B comes from its defining series.
    """
    cfg = cfg or DEFAULT_CONFIG
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
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def variogram_reduced(lag: Lag) -> VariogramResult:
    """Quarter-point variogram from the reduced 1-D integral.

    Integrating the defining double integral over ``y`` in closed form
    (Gradshteyn & Ryzhik 3.613.2) leaves, with ``h = sin(x/2)``,
    ``nu = (1/pi) INT_0^pi [2 sin^2(sx/2) - cos(sx) expm1(-2t asinh h)]
    / (h sqrt(1 + h^2)) dx``, whose integrand is analytic on [0, pi]
    (the 0/0 at x = 0 is removable and no node reaches it).  It is
    integrated on ``2(s+t+1)`` equal panels with 16- and 32-point
    Gauss-Legendre rules; the 32-point value is returned, and the error
    bar is the difference of the two plus a rounding term
    ``16 eps sum|w f| / pi``.
    """
    s, t = lag.s, lag.t
    panels = 2 * (s + t + 1)
    half = 0.5 * math.pi / panels
    mid = (2.0 * np.arange(panels)[:, None] + 1.0) * half
    sums = []
    for order in _GL_ORDERS:
        nodes, weights = _gauss_legendre(order)
        x = mid + half * nodes
        h = np.sin(0.5 * x)
        numerator = 2.0 * np.sin(0.5 * s * x) ** 2 - np.cos(s * x) * np.expm1(
            -2.0 * t * np.arcsinh(h)
        )
        wf = half * weights * numerator / (h * np.sqrt(1.0 + h * h))
        sums.append((float(wf.sum()) / math.pi, float(np.abs(wf).sum()) / math.pi))
    (q_low, _), (q_high, magnitude) = sums
    est = abs(q_high - q_low) + _GL_ROUNDING_OPS * math.ulp(1.0) * magnitude
    return VariogramResult(_finalize_value(q_high, est), Method.REDUCED_QUAD, est, {})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def variogram(c: CoeffPair, lag: Lag, cfg: EvalConfig | None = None) -> VariogramResult:
    """Evaluate the variogram with the method matching the regime."""
    cfg = cfg or DEFAULT_CONFIG
    if c.regime is Regime.SYMMETRIC_QUARTER:
        if lag.s == lag.t:
            value = variogram_diagonal(lag.s)
            return VariogramResult(value, Method.DIAGONAL_CLOSED, 5e-16 * max(1.0, value), {})
        return variogram_reduced(lag)
    if c.regime is Regime.EDGE:
        if c.a <= 0.0 or c.b <= 0.0:
            raise DomainError("boundary evaluation requires positive coefficients")
        return variogram_edge(c.a, lag, cfg)
    return variogram_exact(c, lag, cfg)
