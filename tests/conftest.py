"""Shared independent oracles for the test suite.

These deliberately share no code with the package: plain double loops
over the series definitions at high working precision, and exact
rational arithmetic for terminating sums.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest


def naive_f4(alpha, beta, g1, g2, x, y, n_max=300, dps=30):
    """Brute-force double sum of the fourth-kind Appell series."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n in range(n_max):
            diag = mp.mpf(0)
            for j in range(n + 1):
                k = n - j
                term = (mp.rf(alpha, n) * mp.rf(beta, n)) / (mp.rf(g1, j) * mp.rf(g2, k))
                term *= mp.mpf(x) ** j * mp.mpf(y) ** k / (mp.factorial(j) * mp.factorial(k))
                diag += term
            total += diag
        return float(total)


def naive_f4_diag_partials(alpha, beta, g1, g2, x, y, n_max=80, dps=30):
    """Anti-diagonal partial sums of the F4 series (for monotonicity checks)."""
    with mp.workdps(dps):
        partials = []
        total = mp.mpf(0)
        for n in range(n_max):
            diag = mp.mpf(0)
            for j in range(n + 1):
                k = n - j
                term = (mp.rf(alpha, n) * mp.rf(beta, n)) / (mp.rf(g1, j) * mp.rf(g2, k))
                term *= mp.mpf(x) ** j * mp.mpf(y) ** k / (mp.factorial(j) * mp.factorial(k))
                diag += term
            total += diag
            partials.append(float(total))
        return partials


def naive_f2(alpha, b1, b2, g1, g2, x, y, n_max=300, dps=30):
    """Brute-force double sum of the second-kind Appell series."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for j in range(n_max):
            for k in range(n_max - j):
                term = (
                    mp.rf(alpha, j + k)
                    * mp.rf(b1, j)
                    * mp.rf(b2, k)
                    / (mp.rf(g1, j) * mp.rf(g2, k))
                )
                term *= mp.mpf(x) ** j * mp.mpf(y) ** k / (mp.factorial(j) * mp.factorial(k))
                total += term
        return float(total)


def full_triangle_sum(lead, j_factor, k_factor, rho):
    """Every term of a positive double series, summed diagonal by diagonal.

    The terms satisfy ``c(0, 0) = 1``, ``c(j, k) = c(j-1, k) lead(n)
    j_factor(j)`` and ``c(j, k) = c(j, k-1) lead(n) k_factor(k)`` with
    ``n = j + k``.  Diagonal n is built from diagonal n - 1 in full, with no
    cutoff: stepping in k left of its largest term and in j right of it,
    so that no term descends from one that underflowed at a diagonal's
    end.  Each diagonal is summed pairwise by NumPy (``math.fsum`` is slow
    on terms that span hundreds of decades) and the diagonal sums with
    ``math.fsum``; summation stops once the geometric bound on the rest,
    with ratio ``max(rho, last ratio)``, is below 1e-17 times the sum.
    """
    n_max = 20_000
    idx = np.arange(1, n_max + 1, dtype=np.float64)
    jf, kf = j_factor(idx), k_factor(idx)  # jf[j - 1], kf[k - 1]
    diag = np.ones(1)
    sums = [1.0]
    total = 1.0
    for n in range(1, n_max):
        m = int(np.argmax(diag))
        new = np.empty(n + 1)
        # j = 0..m step in k (k = n..n-m); j = m+1..n step in j.
        new[: m + 1] = diag[: m + 1] * kf[n - m - 1 : n][::-1]
        new[m + 1 :] = diag[m:] * jf[m:n]
        diag = new * lead(n)
        d = float(diag.sum())
        r = max(rho, d / sums[-1])
        sums.append(d)
        total += d
        if r < 1.0 and d * r / (1.0 - r) <= 1e-17 * total:
            return math.fsum(sums)
    raise RuntimeError("full_triangle_sum: n_max diagonals were not enough")


def full_triangle_f4(alpha, beta, g1, g2, x, y):
    """Fourth-kind Appell series by :func:`full_triangle_sum`."""
    return full_triangle_sum(
        lambda n: (alpha + n - 1) * (beta + n - 1),
        lambda j: x / ((g1 + j - 1) * j),
        lambda k: y / ((g2 + k - 1) * k),
        (math.sqrt(x) + math.sqrt(y)) ** 2,
    )


def full_triangle_f2(alpha, b1, b2, g1, g2, x, y):
    """Second-kind Appell series by :func:`full_triangle_sum`."""
    return full_triangle_sum(
        lambda n: alpha + n - 1,
        lambda j: (b1 + j - 1) * x / ((g1 + j - 1) * j),
        lambda k: (b2 + k - 1) * y / ((g2 + k - 1) * k),
        x + y,
    )


def exact_3f2_terminating(a1, a2, k, b1, b2):
    """Terminating 3F2 at unit argument in exact rational arithmetic.

    Parameters must be given as Fractions (or ints).
    """
    a1, a2, b1, b2 = map(Fraction, (a1, a2, b1, b2))
    term = Fraction(1)
    total = Fraction(1)
    for m in range(k):
        term *= (a1 + m) * (a2 + m) * (m - k)
        term /= (b1 + m) * (b2 + m) * (m + 1)
        total += term
        if term == 0:
            break
    return total


def gauss_2f1_direct(a, b, c, z, tol=1e-18, n_max=100_000):
    """Gauss series by direct summation, independent of the package."""
    term = 1.0
    total = 1.0
    for n in range(n_max):
        term *= (a + n) * (b + n) * z / ((c + n) * (n + 1.0))
        total += term
        if abs(term) < tol * max(1.0, abs(total)):
            break
    return total


def reduced_integral(a, b, s, t, dps=30):
    """The variogram by mpmath: the defining integral, its y integral in closed form.

    ``(1/pi) int_0^pi (1 - sigma cos(sx) rho**t) / sqrt(D- D+) dx`` on
    ``|a|, |b|``, with ``D- = gap + 4|a| sin^2(x/2)``, ``D+ = D- + 4|b|``,
    ``rho = 2|b| / (D- + 2|b| + sqrt(D- D+))`` and
    ``sigma = (-1)^(s [a<0] + t [b<0])`` (the substitutions
    ``x -> pi - x`` and ``y -> pi - y``).  The gap ``1 - 2|a| - 2|b|`` of
    the float inputs is exact, clamped at 0.  Breakpoints split
    ``[0, pi]`` into ``s + t + 1`` oscillation panels and grade toward 0
    by factors of 4 from ``sqrt(gap / |a|) / 64``, the scale on which the
    integrand varies near the boundary.  Raises if mpmath's own error
    estimate exceeds ``10**-(dps - 5)`` of the value.
    """
    sigma = (-1) ** ((s if a < 0 else 0) + (t if b < 0 else 0))
    a, b = abs(a), abs(b)
    gap = max(Fraction(0), 1 - 2 * Fraction(a) - 2 * Fraction(b))
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        gap = mp.mpf(gap.numerator) / gap.denominator

        def f(x):
            d_minus = gap + 4 * a * mp.sin(x / 2) ** 2
            root = mp.sqrt(d_minus * (d_minus + 4 * b))
            rho = 2 * b / (d_minus + 2 * b + root)
            return (1 - sigma * mp.cos(s * x) * rho**t) / root

        points = {mp.pi * k / (s + t + 1) for k in range(s + t + 2)}
        if a > 0:
            knee = mp.sqrt(gap / a) / 64
            while 0 < knee < mp.pi:
                points.add(knee)
                knee *= 4
        value, err = mp.quad(f, sorted(points), error=True)
        if not err <= mp.mpf(10) ** (5 - dps) * abs(value):
            raise RuntimeError(f"reduced_integral: error estimate {err} at {a}, {b}, {s}, {t}")
        return float(value / mp.pi)


def i00_closed_form(a, b, dps=40):
    """``I_00 = 1 / (sqrt(d) AGM(1, sqrt(gap (2 - gap) / d)))`` as an mpf.

    ``d = 1 - 4(|a| - |b|)^2`` and the gap ``1 - 2|a| - 2|b|`` of the float
    inputs is exact; ``1 - m = gap (2 - gap) / d`` for the modulus
    ``m = 16|ab| / d`` of ``I_00 = 2 K(m) / (pi sqrt(d))``, so nothing
    cancels near the boundary, where the value is infinite.
    """
    a, b = abs(Fraction(a)), abs(Fraction(b))
    gap = 1 - 2 * a - 2 * b
    if gap <= 0:
        return mp.inf
    d = 1 - 4 * (a - b) ** 2
    ratio = gap * (2 - gap) / d
    with mp.workdps(dps):
        d = mp.mpf(d.numerator) / d.denominator
        ratio = mp.mpf(ratio.numerator) / ratio.denominator
        return 1 / (mp.sqrt(d) * mp.agm(1, mp.sqrt(ratio)))


@lru_cache(maxsize=None)
def potential_kernel(nmax):
    """Exact quarter-point variogram ``{(s, t): value}`` for ``s, t <= nmax``.

    At ``a = b = 1/4`` the variogram is the potential kernel of simple
    random walk on Z^2 (Spitzer, *Principles of Random Walk* section 15;
    McCrea & Whipple 1940): harmonic away from the origin, with
    ``nu(0,0) = 0``, ``nu(1,0) = 1`` and ``nu(n,n) = (4/pi) sum_{k<=n}
    1/(2k-1)``.  Each value is kept as an exact pair ``(p, q)`` of
    Fractions meaning ``p + q/pi``.  Column ``s = n + 1`` follows from
    harmonicity at ``(n, t)``, with the reflections ``nu(n, -1) =
    nu(n, 1)`` and ``nu(n, n+1) = nu(n+1, n)``.  The pairs are rounded to
    doubles at 100 digits, far above their cancellation (about
    ``0.77 nmax`` digits) for ``nmax`` up to about 100.
    """
    pq = {(0, 0): (Fraction(0), Fraction(0)), (1, 0): (Fraction(1), Fraction(0))}

    def at(s, t):
        return pq[(max(s, t), min(s, t))]

    def combine(*terms):
        return tuple(sum(c * v[i] for c, v in terms) for i in (0, 1))

    diag_q = Fraction(0)
    for n in range(1, nmax + 1):
        diag_q += Fraction(4, 2 * n - 1)
        pq[(n, n)] = (Fraction(0), diag_q)
        if n == nmax:
            break
        for t in range(n):
            pq[(n + 1, t)] = combine(
                (4, at(n, t)), (-1, at(n - 1, t)), (-1, at(n, t + 1)), (-1, at(n, abs(t - 1)))
            )
        pq[(n + 1, n)] = combine((2, at(n, n)), (-1, at(n, n - 1)))
    out = {}
    with mp.workdps(100):
        for (s, t), (p, q) in pq.items():
            value = mp.mpf(p.numerator) / p.denominator + mp.mpf(q.numerator) / q.denominator / mp.pi
            out[(s, t)] = out[(t, s)] = float(value)
    return out


@pytest.fixture(scope="session")
def rng():
    import numpy as np

    return np.random.default_rng(20260811)
