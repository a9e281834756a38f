"""Hypergeometric and gamma-family kernels.

Everything here is a pure function of its arguments.  One engine sums
the single-variable series ``p+1Fp`` (the Gauss series of an Appell
function with a zero argument, the zero-balanced 4F3 and the F4
equal-argument reduction) in blocks of cumulative term ratios.

The two-variable series (fourth- and second-kind Appell functions) are
cases of one double series whose upper parameters rise with ``n = j + k``,
with ``j`` or with ``k`` (Srivastava & Karlsson, 1985); one term class,
``_DoubleTerms``, holds its log-gamma anchor and its term ratios for
both.  It is summed along anti-diagonals ``j + k = n``: the shared rising
factorials along a diagonal give a single-index stopping rule, and
successive terms are built from closed-form term ratios so magnitudes
stay O(1) even when thousands of diagonals are needed.

Diagonals are computed in blocks of consecutive ``n``, one 2-D NumPy
array per side of the peak.  Each diagonal is anchored at its
(analytically estimated) peak through log-gamma; the terms on either
side are cumulative products of the term ratios over a window of
columns that the block shares.  A window whose outermost term is not yet
below a relative cutoff is doubled and recomputed, so no diagonal is cut
inside its support.  A window array holds at most ``_BLOCK_ELEMENTS``
entries unless one diagonal's window alone is wider, which bounds memory,
and the work is proportional to the effective support of the terms
rather than the diagonal length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
    ConvergenceError,
    DomainError,
    MaxTermsExceededError,
    OutOfRegionError,
)

__all__ = [
    "EULER_GAMMA",
    "SeriesValue",
    "F4Params",
    "ZeroBalanced4F3",
    "digamma",
    "binomial",
    "appell_f4",
    "appell_f2",
    "hyp4f3_series",
    "f4_equal_args_reduction",
]

EULER_GAMMA = 0.57721566490153286061

# Ratio clamp for the geometric tail model: tail ~ last_term / (1 - r).
# A series' limiting ratio, if larger, still wins over it.
_RATIO_CLAMP = 0.999
# Entries of one window array (rows x columns) of the double-series engine.
_BLOCK_ELEMENTS = 8192
# Fewest rows of a block, and narrowest window.
_MIN_ROWS = 4
_OVERFLOW = "double series: the sum exceeds the float range"


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated series evaluation."""

    value: float
    terms_used: int
    tail_estimate: float


@dataclass(frozen=True)
class F4Params:
    """Parameters of the fourth-kind Appell double series."""

    alpha: float
    beta: float
    gamma1: float
    gamma2: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.gamma1 > 0.0 and self.gamma2 > 0.0):
            raise DomainError("gamma1 and gamma2 must be positive")
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError("x and y must be nonnegative")


@dataclass(frozen=True)
class ZeroBalanced4F3:
    """Parameter set of a zero-balanced 4F3 series (unit-argument family)."""

    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float
    b3: float

    def __post_init__(self) -> None:
        balance = (self.a1 + self.a2 + self.a3 + self.a4) - (self.b1 + self.b2 + self.b3)
        if abs(balance) > 1e-12:
            raise DomainError(f"parameters are not zero-balanced (defect {balance:.3e})")

    @property
    def uppers(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def lowers(self) -> tuple[float, float, float]:
        return (self.b1, self.b2, self.b3)


def digamma(x: float) -> float:
    """Digamma function for positive real arguments.

    Upward recurrence lifts the argument above 10, then the asymptotic
    expansion with Bernoulli-number coefficients through ``x**-12``.
    """
    if x <= 0.0:
        raise DomainError("digamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0)))
            )
        )
    )
    return acc + math.log(x) - 0.5 * inv - tail


def binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float; exact integer arithmetic underneath.

    Raises ``OverflowError`` past the float range (from n = 1030 at k = n/2).
    """
    if k < 0 or n < 0:
        raise DomainError("binomial arguments must be nonnegative")
    if k > n:
        raise DomainError(f"binomial requires k <= n, got ({n}, {k})")
    return float(math.comb(n, k))


# ---------------------------------------------------------------------------
# Double-series engine
# ---------------------------------------------------------------------------

_lg = math.lgamma


def _window(ratio, ns: np.ndarray, jstar: np.ndarray, width: int, step: int) -> np.ndarray:
    """Terms at ``j = jstar + step * i`` (i = 1..width) over the term at ``jstar``.

    One row per diagonal in ``ns``.  ``ratio(n, js)`` steps the term at
    ``js`` to ``js + step``; it is evaluated only at indices whose target
    lies in ``0 <= j <= n`` (the rest are clipped to a valid index, then
    zeroed), so no division by a vanishing factor happens.
    """
    n = ns[:, None]
    js = jstar[:, None] + step * np.arange(width, dtype=np.float64)
    if step > 0:
        inside = js < n
        js = np.minimum(js, n - 1.0)
    else:
        inside = js > 0.0
        js = np.maximum(js, 1.0)
    return np.multiply.accumulate(np.where(inside, ratio(n, js), 0.0), axis=1)


@dataclass
class _DoubleTerms:
    """Terms ``prod(a)_n prod(b)_j prod(c)_k x^j y^k / ((g1)_j (g2)_k j! k!)``, k = n - j.

    The upper parameters ``a``, ``b`` and ``c`` (tuples ``un``, ``uj`` and
    ``uk``) rise with ``n``, ``j`` and ``k``: F4 is ``un = (alpha, beta)``,
    F2 is ``un = (alpha,)``, ``uj = (beta1,)``, ``uk = (beta2,)``.
    ``log_terms`` anchors diagonals; ``right`` and ``left`` are the
    ratios that step ``j`` up or down by one along diagonal ``n``.
    ``rho`` is the limit of the ratio of successive diagonal sums, the
    reciprocal of the radius of convergence along the ray (x, y).
    """

    un: tuple[float, ...]
    uj: tuple[float, ...]
    uk: tuple[float, ...]
    g1: float
    g2: float
    x: float
    y: float
    rho: float

    def __post_init__(self) -> None:
        self.lnx, self.lny = math.log(self.x), math.log(self.y)
        self.lg0 = _lg(self.g1) + _lg(self.g2)
        for a in self.un + self.uj + self.uk:
            self.lg0 -= _lg(a)

    def log_terms(self, ns: list[float], js: list[float]) -> list[float]:
        """Logs of the terms at ``(n, j)`` for each pair of ``ns`` and ``js``."""
        out = [self.lg0] * len(ns)
        for a in self.un:
            out = [o + _lg(a + n) for o, n in zip(out, ns)]
        for a in self.uj:
            out = [o + _lg(a + j) for o, j in zip(out, js)]
        for a in self.uk:
            out = [o + _lg(a + (n - j)) for o, n, j in zip(out, ns, js)]
        g1, g2, lnx, lny = self.g1, self.g2, self.lnx, self.lny
        return [
            o + j * lnx + (n - j) * lny
            - _lg(g1 + j) - _lg(g2 + (n - j)) - _lg(j + 1.0) - _lg(n - j + 1.0)
            for o, n, j in zip(out, ns, js)
        ]

    def right(self, n, js):
        g1, g2 = self.g1, self.g2
        out = self.x * (n - js) * (g2 + n - js - 1.0) / (self.y * (js + 1.0) * (g1 + js))
        for a in self.uj:
            out = out * (a + js)
        for a in self.uk:
            out = out / (a + n - js - 1.0)
        return out

    def left(self, n, js):
        g1, g2 = self.g1, self.g2
        out = self.y * js * (g1 + js - 1.0) / (self.x * (n - js + 1.0) * (g2 + n - js))
        for a in self.uj:
            out = out / (a + js - 1.0)
        for a in self.uk:
            out = out * (a + n - js)
        return out


def _pfq_series(
    uppers: tuple[float, ...],
    lowers: tuple[float, ...],
    z: float,
    rel_tol: float,
    max_terms: int,
) -> SeriesValue:
    """Single-variable series ``p+1Fp(uppers; lowers; z)`` for |z| < 1.

    Terms come in blocks of cumulative products of the term ratio; the
    tail is geometric on the last ratio, never below ``|z|``, the limit
    of that ratio.  The reported ``tail_estimate`` adds a rounding term
    ``eps * sum_k k |t_k|``, since term k is a product of k rounded
    ratios; the stopping test uses the truncation tail alone, so with a
    ``rel_tol`` below the rounding level the estimate exceeds it.
    """
    if abs(z) >= 1.0:
        raise OutOfRegionError(
            f"{len(uppers)}F{len(lowers)} series requires |z| < 1, got z={z}"
        )
    for b in lowers:
        if b <= 0.0 and b == int(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")
    if z == 0.0 or 0.0 in uppers:
        return SeriesValue(1.0, 1, 0.0)
    total = 1.0
    term = 1.0
    rounding = 0.0
    n = 0
    nterms = 1
    block = 256
    while True:
        ns = np.arange(n, n + block, dtype=np.float64)
        num = math.prod([a + ns for a in uppers]) * z
        ratios = num / math.prod([b + ns for b in lowers] + [ns + 1.0])
        vals = term * np.multiply.accumulate(ratios)
        total += float(vals.sum())
        rounding += float(np.abs(vals) @ (ns + 1.0))
        term = float(vals[-1])
        n += block
        nterms += block
        r = max(min(abs(float(ratios[-1])), _RATIO_CLAMP), abs(z))
        tail = abs(term) / (1.0 - r)
        if term == 0.0 or tail <= rel_tol * max(1.0, abs(total)):
            return SeriesValue(total, nterms, tail + math.ulp(1.0) * rounding)
        if nterms > max_terms:
            raise MaxTermsExceededError(
                f"{len(uppers)}F{len(lowers)} series: {nterms} terms at z={z}, "
                f"tail estimate {tail:.3e}"
            )
        block = min(block * 2, 16384)


def _double_series(terms: _DoubleTerms, rel_tol: float, max_terms: int) -> SeriesValue:
    """Anti-diagonal summation of a double series with positive terms.

    ``terms`` (a :class:`_DoubleTerms`, for F4 or F2) needs x, y > 0 and
    positive parameters, so that every term is positive and each diagonal
    is unimodal in ``j``.

    Diagonals are summed in blocks of consecutive rows ``n``.  Each row is
    anchored at ``jstar = round(px * n)`` through ``terms.log_terms``; the
    terms right and left of the anchor come from cumulative products of
    the ``terms.right`` / ``terms.left`` ratios over a window of columns
    shared by the block.  If some row's outermost window term is still at
    or above ``cutoff`` times the row's largest term, that side's window
    is doubled and recomputed, so a row is never cut inside its support.
    A block has as many rows as fit ``_BLOCK_ELEMENTS`` entries per window
    array (at least one), and no more than the geometric decay of the
    diagonal sums predicts to the stopping diagonal, so that few rows are
    computed past it.

    The stopping rule and the term cap are applied row by row, as for one
    diagonal at a time: stop once two consecutive diagonals are below
    ``rel_tol`` times the partial sum and the geometric tail estimate is
    within tolerance.  The tail's ratio is the ratio of the last two
    diagonal sums, but never below ``terms.rho``, the limit of that ratio:
    a ratio still rising towards ``rho`` would make the tail fall short.
    ``terms_used`` counts, per diagonal, the anchor and the terms at or
    above ``cutoff`` times the diagonal's largest term.  A sum past the
    float range raises :class:`ConvergenceError`.
    """
    px = math.sqrt(terms.x) / (math.sqrt(terms.x) + math.sqrt(terms.y))
    cutoff = max(1e-18, rel_tol * 1e-4)
    # Diagonal 0 is the single term 1.
    total = 1.0
    nterms = 1
    d_prev = 1.0
    n = 1
    rows = rwidth = lwidth = _MIN_ROWS
    while True:
        while True:
            rows = max(1, min(rows, _BLOCK_ELEMENTS // max(rwidth, lwidth)))
            ns = np.arange(n, n + rows, dtype=np.float64)
            jstar = np.round(px * ns)
            right = _window(terms.right, ns, jstar, rwidth, 1)
            left = _window(terms.left, ns, jstar, lwidth, -1)
            # Windows hold terms over the anchor, so the row maximum is >= 1.
            cut = cutoff * np.maximum(1.0, np.maximum(right.max(axis=1), left.max(axis=1)))
            short_r = bool((right[:, -1] >= cut).any())
            short_l = bool((left[:, -1] >= cut).any())
            if not (short_r or short_l):
                break
            if short_r:
                rwidth *= 2
            if short_l:
                lwidth *= 2
        try:
            anchor = np.array([math.exp(v) for v in terms.log_terms(ns.tolist(), jstar.tolist())])
        except OverflowError as exc:
            raise ConvergenceError(_OVERFLOW) from exc
        cut = cut[:, None]
        kept_r = (right >= cut).sum(axis=1)
        kept_l = (left >= cut).sum(axis=1)
        diags = anchor * (1.0 + right.sum(axis=1) + left.sum(axis=1))
        for diag, kept in zip(diags.tolist(), (1 + kept_r + kept_l).tolist()):
            total += diag
            nterms += kept
            if diag == 0.0:
                return SeriesValue(total, nterms, 0.0)
            if diag < rel_tol * total and d_prev < rel_tol * total:
                r = diag / d_prev if d_prev > 0.0 else 0.0
                r = max(min(r, _RATIO_CLAMP), terms.rho)
                tail = diag / (1.0 - r)
                if tail <= rel_tol * max(1.0, total):
                    if total == math.inf:
                        raise ConvergenceError(_OVERFLOW)
                    return SeriesValue(total, nterms, tail)
            if nterms > max_terms:
                raise MaxTermsExceededError(
                    f"double series: {nterms} terms over {n + 1} diagonals, "
                    f"last contribution {diag:.3e}, partial sum {total:.6e}"
                )
            d_prev = diag
            n += 1
        # Next block: at most as many rows as are done, and no more than the
        # geometric decay of the diagonal sums predicts to the stopping
        # diagonal; windows sized to this block's support, grown like the
        # sqrt(n) width of a diagonal's peak, plus a margin.
        r = diags[-1] / diags[-2] if rows > 1 else 1.0
        grow = n
        if 0.0 < r < 1.0:
            target = rel_tol * max(1.0, total) * (1.0 - max(min(r, _RATIO_CLAMP), terms.rho))
            grow = min(grow, math.ceil(math.log(target / d_prev) / math.log(r)) + 1)
        support_r, support_l = int(kept_r.max()), int(kept_l.max())
        rows = max(_MIN_ROWS, min(grow, _BLOCK_ELEMENTS // max(1, support_r, support_l)))
        scale = 1.1 * math.sqrt((n + rows) / n)
        rwidth = int(scale * support_r) + _MIN_ROWS
        lwidth = int(scale * support_l) + _MIN_ROWS


def appell_f4(p: F4Params, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesValue:
    """Fourth-kind Appell double series inside sqrt(x) + sqrt(y) < 1."""
    root = math.sqrt(p.x) + math.sqrt(p.y)
    if root >= 1.0:
        raise OutOfRegionError(
            f"F4 series requires sqrt(x) + sqrt(y) < 1, got x={p.x}, y={p.y}"
        )
    if min(p.alpha, p.beta) <= 0.0:
        raise DomainError("F4 evaluation implemented for positive alpha, beta")
    if p.x == 0.0 or p.y == 0.0:
        # One zero argument leaves a Gauss series in the other (both: 1).
        c = p.gamma1 if p.y == 0.0 else p.gamma2
        return _pfq_series((p.alpha, p.beta), (c,), p.x + p.y, cfg.rel_tol, cfg.max_terms)
    terms = _DoubleTerms((p.alpha, p.beta), (), (), p.gamma1, p.gamma2, p.x, p.y, root**2)
    return _double_series(terms, cfg.rel_tol, cfg.max_terms)


def appell_f2(
    alpha: float,
    beta1: float,
    beta2: float,
    gamma1: float,
    gamma2: float,
    x: float,
    y: float,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> SeriesValue:
    """Second-kind Appell double series inside |x| + |y| < 1."""
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise DomainError("gamma1 and gamma2 must be positive")
    if x + y >= 1.0:
        raise OutOfRegionError(f"F2 series requires |x| + |y| < 1, got x={x}, y={y}")
    if min(alpha, beta1, beta2) <= 0.0:
        raise DomainError("F2 evaluation implemented for positive parameters")
    if x < 0.0 or y < 0.0:
        raise DomainError("x and y must be nonnegative")
    if x == 0.0 or y == 0.0:
        # One zero argument leaves a Gauss series in the other (both: 1).
        b, c = (beta1, gamma1) if y == 0.0 else (beta2, gamma2)
        return _pfq_series((alpha, b), (c,), x + y, cfg.rel_tol, cfg.max_terms)
    terms = _DoubleTerms((alpha,), (beta1,), (beta2,), gamma1, gamma2, x, y, x + y)
    return _double_series(terms, cfg.rel_tol, cfg.max_terms)


def hyp4f3_series(p: ZeroBalanced4F3, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> SeriesValue:
    """Zero-balanced 4F3 series for |z| < 1.

    Terms decay like ``z**n / n`` so the cost grows as 1/(1-z) when z
    approaches the unit argument.
    """
    return _pfq_series(p.uppers, p.lowers, z, cfg.rel_tol, cfg.max_terms)


def f4_equal_args_reduction(
    alpha: float,
    beta: float,
    gamma1: float,
    gamma2: float,
    x: float,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> SeriesValue:
    """Equal-argument reduction of the F4 series to a single 4F3 at 4x.

    Outside |4x| < 1 no convergent series exists, and
    :class:`OutOfRegionError` is raised.
    """
    uppers = (alpha, beta, 0.5 * (gamma1 + gamma2), 0.5 * (gamma1 + gamma2 - 1.0))
    lowers = (gamma1, gamma2, gamma1 + gamma2 - 1.0)
    return _pfq_series(uppers, lowers, 4.0 * x, cfg.rel_tol, cfg.max_terms)
