"""Exact lag-(s,t) variograms of first-order intrinsic autoregressions.

The model lives on the 2-D square lattice with conditional-mean weights
(a, b) on the horizontal/vertical neighbours.  By default the variogram
of the lag difference is evaluated from its defining integral reduced to
one dimension, on a fixed graded Gauss-Legendre rule, everywhere in the
coefficient region.  The paper's constructions are kept as named
methods: Appell hypergeometric series in the interior of the region, an
Abel-limit extrapolation on its boundary, and closed forms at the
symmetric quarter point.  Quadrature and Laplace-transform oracles
provide ground truth.
"""

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import (
    ConvergenceError,
    DomainError,
    IavarError,
    MaxTermsExceededError,
    NumericalConsistencyError,
    OutOfRegionError,
    PoleInTermError,
    SlowConvergenceError,
    ToleranceNotReachedError,
)
from .oracle import (
    QuadratureSettings,
    bessel_laplace_i_st,
    bessel_laplace_variogram,
    quadrature_variogram,
)
from .specfun import (
    EULER_GAMMA,
    F4Params,
    SeriesValue,
    ZeroBalanced4F3,
    appell_f2,
    appell_f4,
    binomial,
    digamma,
    f4_equal_args_reduction,
    hyp4f3_series,
)
from .variogram import (
    CoeffPair,
    Lag,
    Method,
    Regime,
    VariogramResult,
    b_ss_closed,
    b_st,
    b_st_transformed,
    gamma_st,
    i_st,
    l_st,
    variogram,
    variogram_diagonal,
    variogram_edge,
    variogram_exact,
    variogram_integral,
    variogram_reduced,
    variogram_symmetric,
    zero_balanced_4f3_near_unit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "EvalConfig",
    "QuadratureSettings",
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
    "Lag",
    "CoeffPair",
    "Regime",
    "Method",
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
    "variogram_integral",
    "variogram_reduced",
    "variogram",
    "quadrature_variogram",
    "bessel_laplace_i_st",
    "bessel_laplace_variogram",
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
