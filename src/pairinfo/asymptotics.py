"""Large-sample machinery for the plug-in estimators.

The plug-in entropy and mutual information are smooth functions of the
empirical p.m.f., so the delta method gives each one a limiting normal law
``sqrt(n) * (estimate - truth) -> N(0, sigma^2)``.  For a statistic with
per-cell weight ``c_k`` the variance has the quadratic form

    canonical = sum_k p_k c_k^2 - (sum_k p_k c_k)^2.

An alternate closed form is also computed side by side.  It keeps the
``p_k (1 - p_k)`` diagonal but weights each distinct ordered cross pair by
``(p_k p_k')^{3/2}`` with a leading factor of 2:

    alternate = sum_k p_k (1 - p_k) c_k^2
                - 2 * sum_{k != k'} (p_k p_k')^{3/2} c_k c_k'.

The two disagree in general.  Every variance function returns both values
in a :class:`VariancePair` so simulation can adjudicate; the Monte Carlo
harness pins its checks to ``canonical``.

Also here: the summability constant ``sum_k |1 + log p_k|`` that controls
the estimator's convergence rate, normal-based confidence intervals, and
plain estimate reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .measures import _TINY, joint_entropy, mutual_information
from .pmf import PmfLike, ZPmf, z_vector

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class VariancePair:
    """Asymptotic variance computed two ways (both in nats squared)."""

    canonical: float
    alternate: float

    @property
    def discrepancy(self) -> float:
        """Absolute gap between the two forms."""
        return abs(self.canonical - self.alternate)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with plug-in standard error and normal interval."""

    measure: str
    estimate: float
    n: int
    variance: VariancePair
    std_error: float
    ci_lower: float
    ci_upper: float
    alpha: float


def _variance_pair(probs: np.ndarray, weights: np.ndarray) -> VariancePair:
    """Both variance forms for weights ``c`` against probabilities ``p``.

    Applied literally to whatever sub-vector the caller selects; no
    normalization of ``probs`` is assumed.  Cells with ``p_k = 0`` drop
    out of every sum (the 0 * log 0 convention), so callers may pass
    weights that are only finite on the support.
    """
    mask = probs > 0
    p = probs[mask]
    c = weights[mask]
    pc = p * c
    canonical = float((pc * c).sum() - pc.sum() ** 2)
    # (sum p^{3/2} c)^2 counts the diagonal once; remove it before doubling.
    p32c = p**1.5 * c
    cross = p32c.sum() ** 2 - (p**3 * c * c).sum()
    alternate = float((p * (1 - p) * c * c).sum() - 2.0 * cross)
    return VariancePair(canonical=canonical, alternate=alternate)


def _log_weights(probs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(probs)
    mask = probs > 0
    out[mask] = 1.0 + np.log(probs[mask])
    return out


def entropy_variance(p: PmfLike) -> VariancePair:
    """Delta-method variance of the plug-in joint entropy.

    ``canonical`` equals ``sum p (log p)^2 - H^2``; it is 0 exactly when
    the distribution is uniform or degenerate.
    """
    probs = z_vector(p)
    return _variance_pair(probs, _log_weights(probs))


def _pointwise_mi(p: PmfLike) -> tuple[np.ndarray, np.ndarray]:
    """Flattened probabilities and per-cell log(p_ij / (p_i p_j)) weights."""
    probs = z_vector(p)
    table = probs.reshape(p.shape.rows, p.shape.cols)
    # The floor keeps a marginal product that underflows from dividing by 0.
    denom = np.maximum(np.outer(table.sum(axis=1), table.sum(axis=0)), _TINY)
    weights = np.zeros_like(table)
    mask = table > 0
    weights[mask] = np.log(table[mask] / denom[mask])
    return probs, weights.ravel()


def mi_variance(p: PmfLike) -> VariancePair:
    """Delta-method variance of the plug-in mutual information.

    ``canonical`` equals ``sum p B^2 - MI^2`` where ``B`` is the pointwise
    mutual information of each cell; it is 0 when the coordinates are
    independent.
    """
    probs, weights = _pointwise_mi(p)
    return _variance_pair(probs, weights)


def rate_constant(p: PmfLike) -> float:
    """Summability constant ``sum_k |1 + log p_k|`` of the flattened p.m.f.

    Controls the almost-sure convergence rate of the plug-in entropy; it
    is finite only for strictly positive distributions, so zero cells are
    rejected.
    """
    probs = z_vector(p)
    if np.any(probs == 0):
        k = int(np.argmax(probs == 0))
        raise ValueError(
            f"rate constant requires a strictly positive p.m.f.; "
            f"flattened cell k = {k + 1} is zero"
        )
    return float(np.abs(1.0 + np.log(probs)).sum())


def normal_quantile(q: float) -> float:
    """Quantile of the standard normal law, by ``statistics.NormalDist``.

    The standard library evaluates Wichura's AS241 (*Appl. Statist.* 37:477,
    1988), about 1e-16 relative error over the whole open interval, down to
    the smallest subnormal level ``q = 5e-324``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    return _STANDARD_NORMAL.inv_cdf(q)


def confidence_interval(
    estimate: float, variance: float, n: int, alpha: float
) -> tuple[float, float]:
    """Two-sided normal interval ``estimate -+ z_{1-alpha/2} sqrt(variance/n)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(variance / n)
    return estimate - half, estimate + half


def estimate_report(measure: str, emp, alpha: float = 0.05) -> EstimateReport:
    """Estimate a measure from an empirical p.m.f. with plug-in inference.

    ``measure`` is ``"joint_entropy"`` or ``"mutual_information"``.  The
    variance is evaluated at the empirical distribution itself; a tiny
    negative MI from rounding is clamped to 0 here (and only here).
    """
    n = emp.n
    if measure == "joint_entropy":
        value = joint_entropy(emp)
        var = entropy_variance(emp)
    elif measure == "mutual_information":
        value = max(0.0, mutual_information(emp))
        var = mi_variance(emp)
    else:
        raise ValueError(
            f"unknown measure {measure!r}; expected 'joint_entropy' or "
            f"'mutual_information'"
        )
    lo, hi = confidence_interval(value, var.canonical, n, alpha)
    return EstimateReport(
        measure=measure,
        estimate=value,
        n=n,
        variance=var,
        std_error=math.sqrt(var.canonical / n),
        ci_lower=lo,
        ci_upper=hi,
        alpha=alpha,
    )


__all__ = [
    "VariancePair",
    "EstimateReport",
    "entropy_variance",
    "mi_variance",
    "rate_constant",
    "normal_quantile",
    "confidence_interval",
    "estimate_report",
]
