"""Plug-in information measures for pairs of categorical variables.

A pair (X, Y) over finite alphabets is flattened into a single categorical
variable Z by row-major enumeration of the cells; entropy and mutual
information are then estimated by evaluating the exact formulas at the
empirical distribution of Z.  The package adds the matching asymptotics
(delta-method variances, confidence intervals), a likelihood-ratio
independence test, and a seeded Monte Carlo harness that checks the
convergence and normality claims by simulation.
"""

from .asymptotics import (
    EstimateReport,
    VariancePair,
    confidence_interval,
    diagonal_mi_variance,
    entropy_variance,
    estimate_report,
    marginal_variance,
    mi_variance,
    multinomial_covariance,
    normal_quantile,
    rate_constant,
)
from .encoding import PairShape, decode_index, diagonal_index, encode_pair
from .inference import (
    TestReport,
    chi_square_cdf,
    chi_square_quantile,
    independence_test,
    lrt_statistic,
    lrt_threshold,
)
from .measures import (
    entropy,
    joint_entropy,
    kl_divergence,
    mutual_information,
    mutual_information_from_entropies,
)
from .montecarlo import (
    ConvergenceTrace,
    NormalityStudy,
    RngSpec,
    VarianceCheck,
    convergence_trace,
    normality_study,
    rejection_rate,
    sample_z,
    variance_check,
)
from .pmf import (
    EmpiricalPmf,
    JointPmf,
    LabeledAlphabets,
    ZPmf,
    conditional_x_given_y,
    conditional_y_given_x,
    estimate_pmf,
    joint_view,
    marginal_x,
    marginal_y,
    z_view,
)

__version__ = "0.1.0"

__all__ = [
    "PairShape",
    "encode_pair",
    "decode_index",
    "diagonal_index",
    "JointPmf",
    "ZPmf",
    "EmpiricalPmf",
    "LabeledAlphabets",
    "z_view",
    "joint_view",
    "estimate_pmf",
    "marginal_x",
    "marginal_y",
    "conditional_x_given_y",
    "conditional_y_given_x",
    "entropy",
    "joint_entropy",
    "mutual_information",
    "mutual_information_from_entropies",
    "kl_divergence",
    "VariancePair",
    "EstimateReport",
    "entropy_variance",
    "mi_variance",
    "diagonal_mi_variance",
    "marginal_variance",
    "rate_constant",
    "multinomial_covariance",
    "normal_quantile",
    "confidence_interval",
    "estimate_report",
    "TestReport",
    "lrt_statistic",
    "lrt_threshold",
    "chi_square_cdf",
    "chi_square_quantile",
    "independence_test",
    "RngSpec",
    "ConvergenceTrace",
    "NormalityStudy",
    "VarianceCheck",
    "sample_z",
    "convergence_trace",
    "normality_study",
    "rejection_rate",
    "variance_check",
    "__version__",
]
