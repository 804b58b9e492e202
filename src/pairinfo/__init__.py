"""Plug-in information measures for pairs of categorical variables.

A pair (X, Y) over finite alphabets is flattened into a single categorical
variable Z by row-major enumeration of the cells; entropy and mutual
information are then estimated by evaluating the exact formulas at the
empirical distribution of Z.  The package adds the matching asymptotics
(delta-method variances, confidence intervals), a likelihood-ratio
independence test, and a seeded Monte Carlo harness that checks the
convergence and normality claims by simulation.
"""

from . import asymptotics, encoding, inference, measures, montecarlo, pmf
from .asymptotics import *  # noqa: F403
from .encoding import *  # noqa: F403
from .inference import *  # noqa: F403
from .measures import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .pmf import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *encoding.__all__,
    *pmf.__all__,
    *measures.__all__,
    *asymptotics.__all__,
    *inference.__all__,
    *montecarlo.__all__,
    "__version__",
]
