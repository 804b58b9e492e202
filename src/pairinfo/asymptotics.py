"""Large-sample machinery for the plug-in estimators.

The plug-in entropy and mutual information are smooth functions of the
empirical p.m.f., so the delta method gives each one a limiting normal law
``sqrt(n) * (estimate - truth) -> N(0, sigma^2)``.  Each estimator is a
p-weighted sum of a per-cell term ``c_k`` of :mod:`pairinfo.measures`
(floors included), and its variance is the variance of ``c`` under ``p``,

    sigma^2 = sum_k p_k c_k^2 - (sum_k p_k c_k)^2.

It is evaluated per row of a block, in a shifted, centered form (see
:func:`_variance_rows`), so it is never negative and is exactly 0 when
``c`` is constant on the support; the scalar variances are row 0.

Also here: the summability constant ``sum_k |1 + log p_k|`` that controls
the estimator's convergence rate, normal-based confidence intervals (each
row's by :func:`_interval_rows`), and plain estimate reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .encoding import _integer
from .measures import _floored_log, _pointwise_mi, joint_entropy, mutual_information
from .pmf import PmfLike, _as_table, z_vector

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with plug-in standard error and normal interval."""

    measure: str
    estimate: float
    n: int
    std_error: float
    ci_lower: float
    ci_upper: float
    alpha: float
    variance: float  # nats squared; last, as in the reports


def _variance_rows(freqs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``sum p c^2 - (sum p c)^2`` of each row of (m, k) blocks ``p`` and ``c``.

    Only a row's support counts (the 0 * log 0 convention); terms off it
    are zeroed.  With ``d = c - c[j]`` for the row's first support cell
    ``j`` and ``m = sum p d``, the sum ``sum p (d - m)^2`` is never
    negative, and it is exactly 0 when ``c`` is constant on the support,
    where the uncentered form can round to -4e-16.
    """
    support = freqs > 0
    first = terms[np.arange(len(terms)), support.argmax(axis=1)][:, None]
    d = np.where(support, terms - first, 0.0)
    m = (freqs * d).sum(axis=1)
    return (freqs * (d - m[:, None]) ** 2).sum(axis=1)


def entropy_variance(p: PmfLike) -> float:
    """Delta-method variance of the plug-in joint entropy.

    Equals ``sum p (log p)^2 - H^2``; the gradient's constant and sign drop
    out of a variance.  It is 0 exactly when the distribution is uniform
    on its support, a point mass included.
    """
    probs = z_vector(p).reshape(1, -1)
    return float(_variance_rows(probs, _floored_log(probs))[0])


def mi_variance(p: PmfLike) -> float:
    """Delta-method variance of the plug-in mutual information.

    Equals ``sum p B^2 - MI^2`` where ``B = log(p_ij / (p_i p_j))`` is the
    pointwise mutual information of each cell, the measure's own floored
    term; it is 0 when the coordinates are independent.
    """
    table = _as_table(p)[None]
    return float(_variance_rows(table.reshape(1, -1), _pointwise_mi(table).reshape(1, -1))[0])


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


def _level(alpha: float, tails: int) -> float:
    """``1 - alpha/tails``, refusing an alpha outside (0, 1) or one that rounds it to 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha / tails == 1.0:
        rule = f"alpha must exceed 2**-{55 - tails}, below which 1 - alpha{'/2' * (tails - 1)}"
        raise ValueError(f"{rule} rounds to 1, got {alpha}")
    return 1.0 - alpha / tails


def _interval_rows(estimates, std_errors, level: float):
    """``estimate -+ z_level * std_error`` of each row: the normal interval at ``level``."""
    half = normal_quantile(level) * std_errors
    return estimates - half, estimates + half


def confidence_interval(
    estimate: float, variance: float, n: int, alpha: float
) -> tuple[float, float]:
    """Two-sided normal interval ``estimate -+ z_{1-alpha/2} sqrt(variance/n)``."""
    level = _level(alpha, 2)
    if not math.isfinite(estimate):
        raise ValueError(f"estimate must be finite, got {estimate}")
    if not variance >= 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    if not n >= 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    return _interval_rows(estimate, math.sqrt(variance / _integer(n, "sample size")), level)


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
    std_error = math.sqrt(var / n)
    lo, hi = _interval_rows(value, std_error, _level(alpha, 2))
    return EstimateReport(
        measure=measure,
        estimate=value,
        n=n,
        std_error=std_error,
        ci_lower=lo,
        ci_upper=hi,
        alpha=alpha,
        variance=var,
    )


__all__ = [
    "EstimateReport",
    "entropy_variance",
    "mi_variance",
    "rate_constant",
    "normal_quantile",
    "confidence_interval",
    "estimate_report",
]
