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

# The modules under aliases: the function ``variogram`` shadows its module.
from . import config as _config
from . import errors as _errors
from . import oracle as _oracle
from . import specfun as _specfun
from . import variogram as _variogram
from .config import *
from .errors import *
from .oracle import *
from .specfun import *
from .variogram import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *_config.__all__,
    *_errors.__all__,
    *_specfun.__all__,
    *_variogram.__all__,
    *_oracle.__all__,
]
