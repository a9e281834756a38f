"""Exception hierarchy shared across the package.

Callers that map failures onto process exit codes can rely on two
branches: :class:`DomainError` (bad inputs, exit 1) and
:class:`ConvergenceError` (tolerance not certified, exit 2).
"""

__all__ = [
    "IavarError",
    "DomainError",
    "OutOfRegionError",
    "PoleInTermError",
    "ConvergenceError",
    "MaxTermsExceededError",
    "ToleranceNotReachedError",
    "SlowConvergenceError",
    "NumericalConsistencyError",
]


class IavarError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IavarError, ValueError):
    """Arguments violate a documented precondition."""


class OutOfRegionError(DomainError):
    """Evaluation requested outside a series' convergence region."""


class PoleInTermError(DomainError):
    """A denominator Pochhammer vanishes inside a finite hypergeometric sum."""


class ConvergenceError(IavarError):
    """Requested tolerance could not be certified."""


class MaxTermsExceededError(ConvergenceError):
    """Series term cap reached before the stopping rule was satisfied."""


class ToleranceNotReachedError(ConvergenceError):
    """Numerical integration failed to reach the requested tolerance."""


class SlowConvergenceError(ConvergenceError):
    """Edge-path evaluation exhausted its series budget."""


class NumericalConsistencyError(IavarError):
    """Cross-checked evaluations disagree beyond their combined error budgets."""
