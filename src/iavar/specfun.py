"""Hypergeometric and gamma-family kernels.

Everything here is a pure function of its arguments.  The two-variable
series (fourth- and second-kind Appell functions) are summed along
anti-diagonals ``j + k = n``: the shared rising factorials along a
diagonal give a single-index stopping rule, and successive terms are
built from closed-form term ratios so magnitudes stay O(1) even when
thousands of diagonals are needed.  Each diagonal is anchored at its
(analytically estimated) peak through log-gamma, then swept outward
until terms fall below a relative cutoff, which keeps the work per
diagonal proportional to the effective support of the terms rather
than the diagonal length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
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
_RATIO_CLAMP = 0.999


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated series evaluation.

    ``converged`` is set only when ``tail_estimate`` is at or below the
    requested relative tolerance times ``max(1, |value|)``.
    """

    value: float
    terms_used: int
    tail_estimate: float
    converged: bool


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
    """Binomial coefficient as a float; exact integer arithmetic underneath."""
    if k < 0 or n < 0:
        raise DomainError("binomial arguments must be nonnegative")
    if k > n:
        raise DomainError(f"binomial requires k <= n, got ({n}, {k})")
    return float(math.comb(n, k))


# ---------------------------------------------------------------------------
# Double-series engine
# ---------------------------------------------------------------------------

_lg = math.lgamma


def _sweep(
    ratio,
    n: int,
    v_start: float,
    j_start: int,
    j_last: int,
    step: int,
    cutoff_rel: float,
    width_hint: int = 32,
):
    """Sum unimodal positive terms of diagonal ``n`` from an anchor outward.

    ``ratio(n, js)`` returns the multiplicative step from index ``j`` to
    ``j + step`` for each j in the float array ``js``.  The sweep stops
    once past the running maximum and below ``cutoff_rel`` times it.
    Returns (sum incl. anchor, terms counted incl. anchor, running max).
    """
    total = v_start
    vmax = v_start
    count = 1
    if v_start == 0.0 or j_start == j_last:
        return total, count, vmax
    carry = v_start
    j = j_start
    width = max(8, min(width_hint, 4096))
    while j != j_last:
        m = min(width, abs(j_last - j))
        js = np.arange(j, j + step * m, step, dtype=np.float64)
        vals = carry * np.cumprod(ratio(n, js))
        peak = int(np.argmax(vals))
        cm = max(vmax, float(vals[peak]))
        cut = cm * cutoff_rel
        below = np.nonzero(vals[peak:] < cut)[0]
        if below.size:
            stop = peak + int(below[0]) + 1
            total += float(vals[:stop].sum())
            count += stop
            vmax = cm
            break
        total += float(vals.sum())
        count += m
        vmax = cm
        carry = float(vals[-1])
        j += step * m
        if carry == 0.0:
            break
        width = min(width * 2, 4096)
    return total, count, vmax


@dataclass
class _F4Terms:
    """Terms ``(alpha)_n (beta)_n x^j y^k / ((g1)_j (g2)_k j! k!)``, k = n - j.

    ``log_term`` anchors a diagonal; ``right`` and ``left`` are the
    ratios that step ``j`` up or down by one along diagonal ``n``.
    """

    alpha: float
    beta: float
    g1: float
    g2: float
    x: float
    y: float

    def __post_init__(self) -> None:
        self.lnx, self.lny = math.log(self.x), math.log(self.y)

    def log_term(self, n: float, j: float) -> float:
        alpha, beta, g1, g2 = self.alpha, self.beta, self.g1, self.g2
        return (
            _lg(alpha + n)
            - _lg(alpha)
            + _lg(beta + n)
            - _lg(beta)
            + j * self.lnx
            + (n - j) * self.lny
            - (_lg(g1 + j) - _lg(g1))
            - (_lg(g2 + n - j) - _lg(g2))
            - _lg(j + 1.0)
            - _lg(n - j + 1.0)
        )

    def right(self, n, js):
        g1, g2 = self.g1, self.g2
        return self.x * (n - js) * (g2 + n - js - 1.0) / (self.y * (js + 1.0) * (g1 + js))

    def left(self, n, js):
        g1, g2 = self.g1, self.g2
        return self.y * js * (g1 + js - 1.0) / (self.x * (n - js + 1.0) * (g2 + n - js))


@dataclass
class _F2Terms:
    """Terms ``(alpha)_n (b1)_j (b2)_k x^j y^k / ((g1)_j (g2)_k j! k!)``, k = n - j.

    Same interface as :class:`_F4Terms`.
    """

    alpha: float
    b1: float
    b2: float
    g1: float
    g2: float
    x: float
    y: float

    def __post_init__(self) -> None:
        self.lnx, self.lny = math.log(self.x), math.log(self.y)

    def log_term(self, n: float, j: float) -> float:
        alpha, b1, b2, g1, g2 = self.alpha, self.b1, self.b2, self.g1, self.g2
        return (
            _lg(alpha + n)
            - _lg(alpha)
            + (_lg(b1 + j) - _lg(b1))
            + (_lg(b2 + n - j) - _lg(b2))
            + j * self.lnx
            + (n - j) * self.lny
            - (_lg(g1 + j) - _lg(g1))
            - (_lg(g2 + n - j) - _lg(g2))
            - _lg(j + 1.0)
            - _lg(n - j + 1.0)
        )

    def right(self, n, js):
        b1, b2, g1, g2 = self.b1, self.b2, self.g1, self.g2
        return (
            self.x
            * (b1 + js)
            * (n - js)
            * (g2 + n - js - 1.0)
            / (self.y * (b2 + n - js - 1.0) * (g1 + js) * (js + 1.0))
        )

    def left(self, n, js):
        b1, b2, g1, g2 = self.b1, self.b2, self.g1, self.g2
        return (
            self.y
            * (b2 + n - js)
            * js
            * (g1 + js - 1.0)
            / (self.x * (b1 + js - 1.0) * (g2 + n - js) * (n - js + 1.0))
        )


def _gauss_2f1_series(
    a: float, b: float, c: float, z: float, rel_tol: float, max_terms: int
) -> SeriesValue:
    """Single-variable Gauss series by vectorized term-ratio blocks."""
    total = 1.0
    term = 1.0
    n = 0
    nterms = 1
    if z == 0.0 or a == 0.0 or b == 0.0:
        return SeriesValue(total, nterms, 0.0, True)
    block = 256
    while True:
        ns = np.arange(n, n + block, dtype=np.float64)
        ratios = (a + ns) * (b + ns) * z / ((c + ns) * (ns + 1.0))
        vals = term * np.cumprod(ratios)
        total += float(vals.sum())
        term = float(vals[-1])
        n += block
        nterms += block
        r = min(abs(float(ratios[-1])), _RATIO_CLAMP)
        tail = abs(term) / (1.0 - r)
        if abs(term) == 0.0 or tail <= rel_tol * max(1.0, abs(total)):
            return SeriesValue(total, nterms, tail, True)
        if nterms > max_terms:
            raise MaxTermsExceededError(
                f"Gauss series: {nterms} terms, tail estimate {tail:.3e}"
            )
        block = min(block * 2, 8192)


def _double_series(terms: _F4Terms | _F2Terms, rel_tol: float, max_terms: int) -> SeriesValue:
    """Anti-diagonal summation of a double series with positive terms.

    ``terms`` needs x, y > 0 and positive parameters, so that every term
    is positive and each diagonal is unimodal in ``j``.
    """
    px = math.sqrt(terms.x) / (math.sqrt(terms.x) + math.sqrt(terms.y))
    cutoff = max(1e-18, rel_tol * 1e-4)
    total = 0.0
    nterms = 0
    d_prev = math.inf
    tail = math.inf
    n = 0
    rwidth = 32
    lwidth = 32
    while True:
        jstar = min(n, max(0, int(round(px * n))))
        anchor = math.exp(terms.log_term(float(n), float(jstar)))
        if n == 0:
            diag = anchor
            nterms += 1
        elif n <= 4:
            vals = [math.exp(terms.log_term(float(n), float(j))) for j in range(n + 1)]
            diag = math.fsum(vals)
            nterms += n + 1
        else:
            rsum, rcount, _ = _sweep(terms.right, n, anchor, jstar, n, 1, cutoff, rwidth)
            if jstar > 0:
                lstart = anchor * terms.left(n, float(jstar))
                lsum, lcount, _ = _sweep(terms.left, n, lstart, jstar - 1, 0, -1, cutoff, lwidth)
            else:
                lsum, lcount = 0.0, 0
            diag = rsum + lsum
            nterms += rcount + lcount
            rwidth = rcount + 8
            lwidth = lcount + 8
        total += diag
        if n >= 1:
            if diag == 0.0:
                tail = 0.0
                break
            if diag < rel_tol * total and d_prev < rel_tol * total:
                r = diag / d_prev if d_prev > 0.0 else 0.0
                r = min(max(r, 0.0), _RATIO_CLAMP)
                tail = diag / (1.0 - r)
                if tail <= rel_tol * max(1.0, total):
                    break
        if nterms > max_terms:
            raise MaxTermsExceededError(
                f"double series: {nterms} terms over {n + 1} diagonals, "
                f"last contribution {diag:.3e}, partial sum {total:.6e}"
            )
        d_prev = diag
        n += 1
    return SeriesValue(total, nterms, tail, True)


def appell_f4(p: F4Params, cfg: EvalConfig | None = None) -> SeriesValue:
    """Fourth-kind Appell double series inside sqrt(x) + sqrt(y) < 1."""
    cfg = cfg or DEFAULT_CONFIG
    if math.sqrt(p.x) + math.sqrt(p.y) >= 1.0:
        raise OutOfRegionError(
            f"F4 series requires sqrt(x) + sqrt(y) < 1, got x={p.x}, y={p.y}"
        )
    if min(p.alpha, p.beta) <= 0.0:
        raise DomainError("F4 evaluation implemented for positive alpha, beta")
    if p.x == 0.0 or p.y == 0.0:
        # One zero argument leaves a Gauss series in the other (both: 1).
        c = p.gamma1 if p.y == 0.0 else p.gamma2
        return _gauss_2f1_series(p.alpha, p.beta, c, p.x + p.y, cfg.rel_tol, cfg.max_terms)
    terms = _F4Terms(p.alpha, p.beta, p.gamma1, p.gamma2, p.x, p.y)
    return _double_series(terms, cfg.rel_tol, cfg.max_terms)


def appell_f2(
    alpha: float,
    beta1: float,
    beta2: float,
    gamma1: float,
    gamma2: float,
    x: float,
    y: float,
    cfg: EvalConfig | None = None,
) -> SeriesValue:
    """Second-kind Appell double series inside |x| + |y| < 1."""
    cfg = cfg or DEFAULT_CONFIG
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
        return _gauss_2f1_series(alpha, b, c, x + y, cfg.rel_tol, cfg.max_terms)
    terms = _F2Terms(alpha, beta1, beta2, gamma1, gamma2, x, y)
    return _double_series(terms, cfg.rel_tol, cfg.max_terms)


def _hyp4f3_raw(
    uppers: tuple[float, float, float, float],
    lowers: tuple[float, float, float],
    z: float,
    rel_tol: float,
    max_terms: int,
) -> SeriesValue:
    if abs(z) >= 1.0:
        raise OutOfRegionError(f"4F3 series requires |z| < 1, got z={z}")
    for b in lowers:
        if b <= 0.0 and b == int(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")
    a1, a2, a3, a4 = uppers
    b1, b2, b3 = lowers
    total = 1.0
    term = 1.0
    n = 0
    nterms = 1
    if z == 0.0 or any(a == 0.0 for a in uppers):
        return SeriesValue(1.0, 1, 0.0, True)
    block = 512
    while True:
        ns = np.arange(n, n + block, dtype=np.float64)
        ratios = (
            (a1 + ns)
            * (a2 + ns)
            * (a3 + ns)
            * (a4 + ns)
            * z
            / ((b1 + ns) * (b2 + ns) * (b3 + ns) * (ns + 1.0))
        )
        vals = term * np.cumprod(ratios)
        total += float(vals.sum())
        term = float(vals[-1])
        n += block
        nterms += block
        r = min(abs(float(ratios[-1])), _RATIO_CLAMP)
        tail = abs(term) / (1.0 - r)
        if term == 0.0 or tail <= rel_tol * max(1.0, abs(total)):
            return SeriesValue(total, nterms, tail, True)
        if nterms > max_terms:
            raise MaxTermsExceededError(
                f"4F3 series: {nterms} terms at z={z}, tail estimate {tail:.3e}"
            )
        block = min(block * 2, 16384)


def hyp4f3_series(p: ZeroBalanced4F3, z: float, cfg: EvalConfig | None = None) -> SeriesValue:
    """Zero-balanced 4F3 series for |z| < 1.

    Terms decay like ``z**n / n`` so the cost grows as 1/(1-z) when z
    approaches the unit argument.
    """
    cfg = cfg or DEFAULT_CONFIG
    return _hyp4f3_raw(p.uppers, p.lowers, z, cfg.rel_tol, cfg.max_terms)


def f4_equal_args_reduction(
    alpha: float,
    beta: float,
    gamma1: float,
    gamma2: float,
    x: float,
    cfg: EvalConfig | None = None,
) -> SeriesValue:
    """Equal-argument reduction of the F4 series to a single 4F3 at 4x.

    Outside |4x| < 1 no convergent series exists and the result is
    flagged not converged instead of raising.
    """
    cfg = cfg or DEFAULT_CONFIG
    if abs(4.0 * x) >= 1.0:
        return SeriesValue(math.nan, 0, math.inf, False)
    uppers = (alpha, beta, 0.5 * (gamma1 + gamma2), 0.5 * (gamma1 + gamma2 - 1.0))
    lowers = (gamma1, gamma2, gamma1 + gamma2 - 1.0)
    return _hyp4f3_raw(uppers, lowers, 4.0 * x, cfg.rel_tol, cfg.max_terms)
