"""Numerical ground truth for the variogram.

Two routes that share no numerical kernel with the paper's series
methods or with each other:

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

Both routes take the gap ``1 - 2a - 2b`` correctly rounded (``math.fsum``):
near the boundary the rounded difference moves the value by more
than the tolerance.

The quadrature route integrates the same reduced integrand as
:func:`iavar.variogram.variogram_integral`, the route ``variogram()``
takes, on an adaptive rule instead of its fixed one.  It shares no code
with it, but the reduction is common to both, so only the
Laplace-transform route checks ``variogram()`` independently.

The scaled Bessel kernel ``exp(-x) I_n(x)`` has two branches per order,
split at ``min(max(30, n^2), 650)``: the power series below, and above
it Hankel's large-argument expansion for orders up to 25 or Debye's
uniform large-order expansion from order 26 on.  Each branch is one
Horner polynomial, so a call costs a fixed number of array operations
set by the array's extreme argument; every order is accepted, and the
relative error is below 1e-14 for orders up to 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, OutOfRegionError, ToleranceNotReachedError
from .variogram import EPS_EDGE, CoeffPair, Lag, _exact_gap

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
# Relative accuracy of the scaled Bessel kernel (see ``_ive_vec``): a
# floor under the Laplace-transform route's error estimates, which a
# zero panel-doubling difference would otherwise leave at ``tol``.
_KERNEL_REL_ERROR = 1e-14


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
    gap = max(0.0, _exact_gap(a, b))

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

# Relative size of the first term a fixed-length Horner sum leaves out.
_HORNER_TAIL = 2.0**-57


def _series_length(n: int, x_max: float) -> int:
    """Terms of the power series that ``x_max``, the largest argument, needs."""
    q = 0.25 * x_max * x_max
    m, term, total = 0, 1.0, 1.0
    while True:
        m += 1
        term *= q / (m * (m + n))
        total += term
        if term <= _HORNER_TAIL * total:
            return m


def _ive_series_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) by the power series, for x below about 700.

    ``I_n(x) = (x/2)^n / n! * sum_m q^m n! / (m! (m+n)!)`` with
    ``q = x^2/4``, summed as the nested Horner form
    ``1 + q/(1(1+n)) (1 + q/(2(2+n)) (1 + ...))``: every term is
    positive, and no coefficient underflows.  ``q`` is applied as two
    exact-input products by ``x/2``, because a rounded ``q`` would carry
    the same relative error into every one of the hundreds of steps.
    """
    half = 0.5 * x
    acc = np.ones_like(x)
    for m in range(_series_length(n, float(x.max())), 0, -1):
        acc *= half
        acc *= half
        acc /= m * (m + n)
        acc += 1.0
    # (x/2)^n / n! as a product, so that no partial power overflows.
    pre = np.exp(-x)
    for k in range(1, n + 1):
        pre *= half / k
    return acc * pre


def _hankel_length(n: int, x_min: float) -> int:
    """Terms of the large-argument expansion that ``x_min`` needs.

    For ``x_min >= max(30, n^2)`` the terms fall from the first on, and
    the sum stays above 1/2.
    """
    mu = 4.0 * n * n
    y = 1.0 / (8.0 * x_min)
    j, term = 0, 1.0
    while term > 0.5 * _HORNER_TAIL:
        j += 1
        term *= abs(mu - (2 * j - 1) ** 2) * y / j
    return j


def _ive_hankel_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) by Hankel's large-argument expansion, for x >= max(30, n^2).

    ``sqrt(2 pi x) e^{-x} I_n(x) ~ sum_j (-1)^j prod_{i<=j} (4n^2 - (2i-1)^2) / (j! (8x)^j)``,
    a polynomial in ``1/(8x)`` in nested Horner form.
    """
    mu = 4.0 * n * n
    y = 1.0 / (8.0 * x)
    acc = np.ones_like(x)
    for j in range(_hankel_length(n, float(x.min())), 0, -1):
        acc *= y
        acc *= -(mu - (2 * j - 1) ** 2) / j
        acc += 1.0
    return acc / np.sqrt(2.0 * math.pi * x)


@lru_cache(maxsize=None)
def _debye_u(k: int) -> tuple[np.ndarray, float]:
    """Debye's polynomial ``U_k(p)`` (ascending coefficients) and the sum of |coefficients|.

    ``U_0 = 1`` and ``U_{k+1} = p^2 (1 - p^2) U_k'/2 + (1/8) int_0^p (1 - 5t^2) U_k dt``
    (DLMF 10.41.9), in exact rationals.
    """
    u = [Fraction(1)]
    for _ in range(k):
        nxt = [Fraction(0)] * (len(u) + 3)
        for j, c in enumerate(u):
            if j:
                nxt[j + 1] += j * c / 2
                nxt[j + 3] -= j * c / 2
            nxt[j + 1] += c / (8 * (j + 1))
            nxt[j + 3] -= 5 * c / (8 * (j + 3))
        u = nxt
    coeffs = np.array([float(c) for c in u])
    coeffs.setflags(write=False)  # shared by every caller through the cache
    return coeffs, float(np.abs(coeffs).sum())


def _ive_debye_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) by Debye's uniform large-order expansion, for n >= 26 and x >= 650.

    With ``r = sqrt(n^2 + x^2)`` and ``p = n / r`` (DLMF 10.41.3),
    ``e^{-x} I_n(x) ~ e^E / sqrt(2 pi r) sum_k U_k(p) / n^k`` and
    ``E = r - x + n log(x / (n + r))``, formed without cancellation.  The
    sum is collapsed into one polynomial in ``p`` for this order; its
    length is set by the largest ``p``, where ``|U_k(p)| / n^k`` is
    bounded by the coefficient magnitudes.
    """
    r = np.hypot(n, x)
    p = n / r
    above = n * n / (r + x)  # r - x
    expo = above - n * np.log1p((n + above) / x)
    p_max = float(p.max())
    poly = np.zeros(1)
    k = 0
    while True:
        coeffs, size = _debye_u(k)
        scale = float(n) ** -k
        # U_k has no power of p below p^k.
        if k and size * p_max**k * scale <= _HORNER_TAIL:
            break
        poly = np.pad(poly, (0, len(coeffs) - len(poly))) + coeffs * scale
        k += 1
    acc = np.full_like(x, poly[-1])
    for c in poly[-2::-1]:
        acc *= p
        acc += c
    return np.exp(expo) * acc / np.sqrt(2.0 * math.pi * r)


def _ive_vec(n: int, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_n(x) for integer order n >= 0 and x >= 0.

    Two branches per order, split at ``min(max(30, n^2), 650)``:

    * below it, the power series (:func:`_ive_series_vec`);
    * above it, Hankel's large-argument expansion for ``n <= 25``, which
      is at full double accuracy from ``x = max(30, n^2)`` on, and Debye's
      uniform expansion for ``n >= 26``, where ``n^2`` passes 650 and the
      series, whose sum grows like ``e^x``, would overflow first.

    Each branch is one Horner polynomial whose length is set by the
    array's extreme argument, so the cost does not depend on per-node
    convergence.  Against 40-digit mpmath the relative error is below
    1e-14 for every order up to 200; above that, the rounding of Debye's
    exponent adds up to ``|log value|`` ulps, which is felt only where
    the value is below about 1e-40.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    switch = min(max(30.0, float(n * n)), 650.0)
    low = x < switch
    if np.any(low):
        out[low] = _ive_series_vec(n, x[low])
    high = ~low
    if np.any(high):
        large = _ive_hankel_vec if n * n <= switch else _ive_debye_vec
        out[high] = large(n, x[high])
    return out


# ---------------------------------------------------------------------------
# Laplace-transform route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_PANEL_ORDER)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = _panel_rule()
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    xs = (mid + half * nodes[None, :]).ravel()
    ws = (half * weights[None, :]).ravel()
    return xs, ws


def _refined_panel_integral(fn, edges: np.ndarray, tol: float) -> tuple[float, float]:
    """Composite Gauss-Legendre value with doubling-based error estimate.

    Each refinement halves every panel of ``edges``.
    """
    coarse = None
    for _ in range(4):
        xs, ws = _panel_nodes(edges)
        val = float(ws @ fn(xs))
        if coarse is not None:
            err = abs(val - coarse)
            if err <= tol:
                return val, err
        coarse = val
        halved = np.empty(2 * len(edges) - 1)
        halved[0::2] = edges
        halved[1::2] = 0.5 * (edges[:-1] + edges[1:])
        edges = halved
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
    gap = _exact_gap(a, b)
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

    edges = np.linspace(0.0, cut, max(8, int(cut / 4.0)) + 1)
    val, err = _refined_panel_integral(fn, edges, tol)
    total_err = err + tol + _KERNEL_REL_ERROR * abs(val)
    if total_err > max(q.abs_tol, q.rel_tol * abs(val)):
        raise ToleranceNotReachedError(
            f"Laplace integral error estimate {total_err:.3e} exceeds tolerance"
        )
    return sign * val


def _graded_tail_edges(u_max: float, n_panels: int, gap: float) -> np.ndarray:
    """Equal panels on ``[0, u_max]``, the first one halved down to ``gap / 64``.

    In ``u = 1/x`` the factor ``exp(-gap/u)`` switches on at ``u ~ gap``;
    below ``gap/64`` it is under ``e^-64``.  Equal panels put that whole
    feature inside the first panel once the gap is smaller than it.  The
    halving stops at an ulp of the first panel: the tail integrand is
    bounded as ``u -> 0``, so a feature that narrow weighs nothing.
    """
    edges = np.linspace(0.0, u_max, n_panels + 1)
    halvings = 0
    if gap > 0.0:
        halvings = math.ceil(math.log2(64.0 * edges[1] / max(gap, edges[1] * 2.0**-52)))
    graded = edges[1] * np.exp2(-np.arange(halvings, 0, -1.0))
    return np.concatenate(([0.0], graded, edges[1:]))


def bessel_laplace_variogram(c: CoeffPair, lag: Lag, q: QuadratureSettings | None = None) -> float:
    """Variogram via the combined-difference Laplace integrand.

    ``exp(-x)[I_0(2ax) I_0(2bx) - I_s(2ax) I_t(2bx)]`` decays only
    algebraically on the boundary, so the far tail is integrated in the
    substituted variable u = 1/x where it is smooth and bounded; near the
    boundary its panels are graded toward u = 0 on the scale of the gap.
    """
    q = q or QuadratureSettings()
    a, b = c.a, c.b
    if a < 0.0 or b < 0.0:
        raise DomainError("difference form implemented for a, b >= 0")
    s, t = lag.s, lag.t
    if s == 0 and t == 0:
        return 0.0
    gap = max(0.0, _exact_gap(a, b))
    tol = q.abs_tol / 20.0

    def diff(xs: np.ndarray) -> np.ndarray:
        ya, yb = 2.0 * a * xs, 2.0 * b * xs
        i0a, i0b = _ive_vec(0, ya), _ive_vec(0, yb)
        isa = i0a if s == 0 else _ive_vec(s, ya)
        itb = i0b if t == 0 else _ive_vec(t, yb)
        return np.exp(-gap * xs) * (i0a * i0b - isa * itb)

    x_head = 64.0
    val_head, err_head = _refined_panel_integral(diff, np.linspace(0.0, x_head, 33), tol)

    if gap > 0.05:
        # Exponential decay: extend the head until the bound is negligible.
        cut = _laplace_tail_cut(a, b, gap, tol)
        val_tail, err_tail = 0.0, 0.0
        if cut > x_head:
            edges = np.linspace(x_head, cut, max(8, int((cut - x_head) / 4.0)) + 1)
            val_tail, err_tail = _refined_panel_integral(diff, edges, tol)
    else:

        def tail(us: np.ndarray) -> np.ndarray:
            xs = 1.0 / us
            return diff(xs) * xs * xs

        # u = 0 maps to the x -> inf limit; Gauss-Legendre nodes are
        # interior, so the panel rule never evaluates the endpoint.
        edges = _graded_tail_edges(1.0 / x_head, 48, gap)
        val_tail, err_tail = _refined_panel_integral(tail, edges, tol)

    val = val_head + val_tail
    err = err_head + err_tail + 2.0 * tol + _KERNEL_REL_ERROR * abs(val)
    if err > max(q.abs_tol, q.rel_tol * abs(val)):
        raise ToleranceNotReachedError(
            f"difference-form error estimate {err:.3e} exceeds tolerance"
        )
    return val
