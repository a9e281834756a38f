"""Evaluation configuration shared by the series and variogram routines."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = ["EvalConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and budgets for series evaluation.

    Attributes
    ----------
    rel_tol:
        Target relative tolerance for truncated series: a series stops
        once its tail estimate is below ``rel_tol * max(1, |value|)``.
    max_terms:
        Cap on the number of summed terms of any single series evaluation.

    The boundary path's offset schedule and the number of exact
    expansion-constant terms are fixed by the methods themselves; see
    :func:`iavar.variogram.variogram_edge` and :func:`iavar.variogram.b_st`.
    """

    rel_tol: float = 1e-10
    max_terms: int = 10_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")


DEFAULT_CONFIG = EvalConfig()
