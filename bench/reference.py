"""Untimed reference values that every benchmarked result is checked against.

* At the quarter point ``a = b = 1/4`` the variogram is the potential
  kernel of simple random walk on Z^2.  It is harmonic off the origin,
  with ``nu(1,0) = 1`` and the odd-harmonic diagonal
  ``nu(n,n) = (4/pi) (1 + 1/3 + ... + 1/(2n-1))``, so every lag follows
  exactly from a column recurrence in ``p + q/pi`` pairs of Fractions.
* Elsewhere the reference is the Bessel-Laplace oracle at tightened
  tolerances: its difference form for ``a, b >= 0``, and
  ``I_00 - I_st`` from single Laplace terms when a coefficient is
  negative, where the difference form is not implemented.

Each reference carries its own stated uncertainty, which the check adds
to the evaluated result's ``est_error``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

REF_TOL = 1e-12


def potential_kernel_table(nmax: int) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """Exact quarter-point values ``nu(s, t) = p + q/pi`` for ``0 <= s, t <= nmax``.

    Column ``n + 1`` comes from column ``n`` through harmonicity at
    ``(n, k)``: ``nu(n+1,k) = 4 nu(n,k) - nu(n-1,k) - nu(n,k+1) - nu(n,k-1)``
    with ``nu(n,-1) = nu(n,1)``, and ``nu(n+1,n) = 2 nu(n,n) - nu(n,n-1)``
    at the diagonal.  The table is filled for ``s >= t`` and mirrored.
    """
    zero = (Fraction(0), Fraction(0))
    nu: dict[tuple[int, int], tuple[Fraction, Fraction]] = {(0, 0): zero}

    def lin(*terms):
        return (
            sum((c * v[0] for c, v in terms), Fraction(0)),
            sum((c * v[1] for c, v in terms), Fraction(0)),
        )

    odd = Fraction(0)
    for n in range(nmax):
        odd += Fraction(1, 2 * n + 1)
        if n == 0:
            nu[(1, 0)] = (Fraction(1), Fraction(0))
        else:
            for k in range(n):
                below = nu[(n, abs(k - 1))]
                nu[(n + 1, k)] = lin(
                    (4, nu[(n, k)]), (-1, nu[(n - 1, k)]), (-1, nu[(n, k + 1)]), (-1, below)
                )
            nu[(n + 1, n)] = lin((2, nu[(n, n)]), (-1, nu[(n, n - 1)]))
        nu[(n + 1, n + 1)] = (Fraction(0), 4 * odd)
    for (s, t), v in list(nu.items()):
        nu[(t, s)] = v
    return nu


def kernel_value(pq: tuple[Fraction, Fraction]) -> float:
    """``p + q/pi`` to double precision, at enough digits to survive cancellation."""
    p, q = pq
    digits = 30 + max(len(str(abs(p.numerator))), len(str(abs(q.numerator))))
    with mp.workdps(digits):
        return float(mp.mpf(p.numerator) / p.denominator
                     + mp.mpf(q.numerator) / q.denominator / mp.pi)


def quarter_point_references(nmax: int) -> dict[tuple[int, int], tuple[float, float]]:
    """``(value, uncertainty)`` for every lag up to ``nmax`` at ``a = b = 1/4``."""
    out = {}
    for lag, pq in potential_kernel_table(nmax).items():
        value = kernel_value(pq)
        out[lag] = (value, math.ulp(value))
    return out


def _uncertainty(value: float) -> float:
    return max(REF_TOL, REF_TOL * abs(value))


@lru_cache(maxsize=64)
def _laplace_term(a: float, b: float, s: int, t: int) -> float:
    """``I_st`` at ``REF_TOL``; cached so a table computes ``I_00`` once."""
    from iavar import CoeffPair, Lag, QuadratureSettings, bessel_laplace_i_st

    q = QuadratureSettings(abs_tol=REF_TOL, rel_tol=REF_TOL)
    return bessel_laplace_i_st(CoeffPair.from_ab(a, b), Lag(s, t), q)


def bessel_reference(a: float, b: float, s: int, t: int) -> tuple[float, float]:
    """``(value, uncertainty)`` from the Bessel-Laplace oracle at ``REF_TOL``."""
    from iavar import CoeffPair, Lag, QuadratureSettings, bessel_laplace_variogram

    if a < 0.0 or b < 0.0:
        base, term = _laplace_term(a, b, 0, 0), _laplace_term(a, b, s, t)
        return base - term, _uncertainty(base) + _uncertainty(term)
    q = QuadratureSettings(abs_tol=REF_TOL, rel_tol=REF_TOL)
    value = bessel_laplace_variogram(CoeffPair.from_ab(a, b), Lag(s, t), q)
    return value, _uncertainty(value)
