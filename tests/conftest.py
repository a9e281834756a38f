"""Shared independent oracles for the test suite.

These deliberately share no code with the package: plain double loops
over the series definitions at high working precision, and exact
rational arithmetic for terminating sums.
"""

import math
from fractions import Fraction

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


@pytest.fixture(scope="session")
def rng():
    import numpy as np

    return np.random.default_rng(20260811)
