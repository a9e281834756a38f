"""Independent numerical ground truth for the variogram.

Two routes that share no numerical kernel with the series evaluation
(or with each other):

* adaptive quadrature of the defining double integral over [0, pi]^2
  reduced to one dimension: the integral over y has a closed form
  (Gradshteyn & Ryzhik 3.613.2),
  ``(1/pi) int_0^pi cos(ty) / (A - 2b cos y) dy = rho**t / sqrt(D- D+)``
  with ``A = 1 - 2a cos x``, ``D- = A - 2b``, ``D+ = A + 2b`` and
  ``rho = 2b / (A + sqrt(D- D+))``, which leaves one integral over x;
* the Laplace-transform representation as a semi-infinite integral of
  a product of exponentially scaled modified Bessel functions, summed
  on composite Gauss-Legendre panels.

The reduced integrand is evaluated through cancellation-free forms:
``D- = gap + 4a sin^2(x/2)`` in half-angle sines, ``1 - cos(sx) rho**t``
as ``2 sin^2(sx/2) - cos(sx) expm1(t log rho)``, and ``log rho`` through
``log1p``, so every piece stays accurate near the origin, where the
boundary case has a removable 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, OutOfRegionError, ToleranceNotReachedError
from .variogram import EPS_EDGE, CoeffPair, Lag

__all__ = [
    "QuadratureSettings",
    "quadrature_variogram",
    "bessel_laplace_i_st",
    "bessel_laplace_variogram",
]

# Subinterval limit of each adaptive quadrature call.
_QUAD_LIMIT = 200
# Gauss-Legendre order of each panel of the Laplace-transform route.
_PANEL_ORDER = 24


@dataclass(frozen=True)
class QuadratureSettings:
    """Absolute and relative error tolerances of the oracle integrators."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise DomainError("tolerances must be positive")


def _quadrature_variogram_impl(
    c: CoeffPair, lag: Lag, q: QuadratureSettings
) -> tuple[float, float]:
    a, b = c.a, c.b
    if a < 0.0 or b < 0.0:
        raise DomainError("quadrature oracle requires a, b >= 0")
    s, t = lag.s, lag.t
    if s == 0 and t == 0:
        return 0.0, 0.0
    gap = max(0.0, 1.0 - 2.0 * a - 2.0 * b)

    def f(x: float) -> float:
        h = math.sin(0.5 * x)
        d_minus = gap + 4.0 * a * h * h
        root = math.sqrt(d_minus * (d_minus + 4.0 * b))
        if t == 0:
            decay = 0.0
        elif b == 0.0:
            decay = -1.0  # rho = 0
        else:
            decay = math.expm1(-t * math.log1p((d_minus + root) / (2.0 * b)))
        hs = math.sin(0.5 * s * x)
        return (2.0 * hs * hs - math.cos(s * x) * decay) / root

    # Near the edge the integrand varies on the scale where 4a sin^2(x/2)
    # reaches the gap.
    knee = math.sqrt(gap / a) if a > 0.0 else 0.0
    val, err = quad(
        f,
        0.0,
        math.pi,
        epsabs=math.pi * q.abs_tol / 3.0,
        epsrel=q.rel_tol / 3.0,
        limit=_QUAD_LIMIT,
        points=[knee] if 0.0 < knee < math.pi else None,
    )
    value = val / math.pi
    err /= math.pi
    if err > max(q.abs_tol, q.rel_tol * abs(value)):
        raise ToleranceNotReachedError(
            f"quadrature error estimate {err:.3e} exceeds tolerance"
        )
    return value, err


def quadrature_variogram(c: CoeffPair, lag: Lag, q: QuadratureSettings | None = None) -> float:
    """Variogram by adaptive quadrature of the defining integral, reduced to 1-D."""
    q = q or QuadratureSettings()
    return _quadrature_variogram_impl(c, lag, q)[0]


# ---------------------------------------------------------------------------
# Modified Bessel functions (scaled)
# ---------------------------------------------------------------------------

_SERIES_SWITCH = 650.0


def _ive_series_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) by the all-positive power series, vectorized in x."""
    out = np.zeros_like(x)
    if n == 0:
        out[x == 0.0] = 1.0
    pos = x > 0.0
    if not np.any(pos):
        return out
    xp = x[pos]
    half = 0.5 * xp
    logt0 = n * np.log(half) - math.lgamma(n + 1.0)
    term = np.exp(logt0)
    total = term.copy()
    q = half * half
    m = 1.0
    while True:
        term = term * q / (m * (n + m))
        total += term
        if np.all(term <= 1e-18 * total):
            break
        m += 1.0
    out[pos] = total * np.exp(-xp)
    return out


def _ive_asymptotic_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) by the large-argument expansion, vectorized in x."""
    mu = 4.0 * n * n
    inv8x = 1.0 / (8.0 * x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    j = 1.0
    while np.any(active) and j < 40.0:
        step = -(mu - (2.0 * j - 1.0) ** 2) * inv8x / j
        new_term = term * step
        # asymptotic series: stop wherever terms no longer shrink
        grow = np.abs(new_term) >= np.abs(term)
        active &= ~grow
        term = np.where(active, new_term, 0.0)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
        j += 1.0
    return total / np.sqrt(2.0 * math.pi * x)


def _ive_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) for integer order n >= 0 and x >= 0.

    Power series up to x = 650 (all terms positive, so no cancellation),
    scaled large-argument expansion above.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x <= _SERIES_SWITCH
    if np.any(small):
        out[small] = _ive_series_vec(n, x[small])
    if np.any(~small):
        out[~small] = _ive_asymptotic_vec(n, x[~small])
    return out


# ---------------------------------------------------------------------------
# Laplace-transform route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PANEL_ORDER)


def _panel_nodes(lo: float, hi: float, n_panels: int):
    nodes, weights = _panel_rule()
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    xs = (mid + half * nodes[None, :]).ravel()
    ws = (half * weights[None, :]).ravel()
    return xs, ws


def _refined_panel_integral(fn, lo, hi, n_panels, tol):
    """Composite Gauss-Legendre value with doubling-based error estimate."""
    coarse = None
    for _ in range(4):
        xs, ws = _panel_nodes(lo, hi, n_panels)
        val = float(ws @ fn(xs))
        if coarse is not None:
            err = abs(val - coarse)
            if err <= tol:
                return val, err
        coarse = val
        n_panels *= 2
    return val, abs(val - coarse)


def _laplace_tail_cut(a: float, b: float, gap: float, tol: float) -> float:
    """Truncation point from the integrand bound exp(-gap x)/(4 pi sqrt(ab) x)."""
    scale = 4.0 * math.pi * math.sqrt(max(a * b, 1e-4))
    x = 30.0
    for _ in range(60):
        x = min(1e5, (math.log(1.0 / (tol * scale * max(x, 1.0)))) / gap)
        if x <= 0.0:
            return 30.0
    return min(1e5, max(30.0, x * 1.1))


def bessel_laplace_i_st(c: CoeffPair, lag: Lag, q: QuadratureSettings | None = None) -> float:
    """Laplace-transform term as a truncated semi-infinite integral.

    Integrates ``exp(-x) I_s(2ax) I_t(2bx)`` through scaled Bessel
    factors so nothing overflows; requires |a| + |b| strictly inside the
    boundary so the exponential tail bound yields a finite cut.
    """
    q = q or QuadratureSettings()
    a, b = abs(c.a), abs(c.b)
    sign = (-1.0 if c.a < 0.0 else 1.0) ** lag.s * (-1.0 if c.b < 0.0 else 1.0) ** lag.t
    gap = 1.0 - 2.0 * a - 2.0 * b
    if abs(a + b - 0.5) <= EPS_EDGE:
        raise OutOfRegionError(
            "single-term Laplace integral diverges on the boundary; "
            "use the difference form"
        )
    s, t = lag.s, lag.t
    tol = q.abs_tol / 10.0
    cut = _laplace_tail_cut(a, b, gap, tol)
    if cut >= 1e5:
        raise ToleranceNotReachedError("tail bound cannot certify the truncation point")

    def fn(xs: np.ndarray) -> np.ndarray:
        return (
            np.exp(-gap * xs) * _ive_vec(s, 2.0 * a * xs) * _ive_vec(t, 2.0 * b * xs)
        )

    n_panels = max(8, int(cut / 4.0))
    val, err = _refined_panel_integral(fn, 0.0, cut, n_panels, tol)
    total_err = err + tol
    if total_err > max(q.abs_tol, q.rel_tol * abs(val)):
        raise ToleranceNotReachedError(
            f"Laplace integral error estimate {total_err:.3e} exceeds tolerance"
        )
    return sign * val


def bessel_laplace_variogram(c: CoeffPair, lag: Lag, q: QuadratureSettings | None = None) -> float:
    """Variogram via the combined-difference Laplace integrand.

    ``exp(-x)[I_0(2ax) I_0(2bx) - I_s(2ax) I_t(2bx)]`` decays only
    algebraically on the boundary, so the far tail is integrated in the
    substituted variable u = 1/x where it is smooth and bounded.
    """
    q = q or QuadratureSettings()
    a, b = c.a, c.b
    if a < 0.0 or b < 0.0:
        raise DomainError("difference form implemented for a, b >= 0")
    s, t = lag.s, lag.t
    if s == 0 and t == 0:
        return 0.0
    gap = max(0.0, 1.0 - 2.0 * a - 2.0 * b)
    tol = q.abs_tol / 20.0

    def diff(xs: np.ndarray) -> np.ndarray:
        return np.exp(-gap * xs) * (
            _ive_vec(0, 2.0 * a * xs) * _ive_vec(0, 2.0 * b * xs)
            - _ive_vec(s, 2.0 * a * xs) * _ive_vec(t, 2.0 * b * xs)
        )

    x_head = 64.0
    val_head, err_head = _refined_panel_integral(diff, 0.0, x_head, 32, tol)

    if gap > 0.05:
        # Exponential decay: extend the head until the bound is negligible.
        cut = _laplace_tail_cut(a, b, gap, tol)
        val_tail, err_tail = 0.0, 0.0
        if cut > x_head:
            val_tail, err_tail = _refined_panel_integral(
                diff, x_head, cut, max(8, int((cut - x_head) / 4.0)), tol
            )
    else:

        def tail(us: np.ndarray) -> np.ndarray:
            xs = 1.0 / us
            return diff(xs) * xs * xs

        # u = 0 maps to the x -> inf limit; Gauss-Legendre nodes are
        # interior, so the panel rule never evaluates the endpoint.
        val_tail, err_tail = _refined_panel_integral(tail, 0.0, 1.0 / x_head, 48, tol)

    val = val_head + val_tail
    err = err_head + err_tail + 2.0 * tol
    if err > max(q.abs_tol, q.rel_tol * abs(val)):
        raise ToleranceNotReachedError(
            f"difference-form error estimate {err:.3e} exceeds tolerance"
        )
    return val
