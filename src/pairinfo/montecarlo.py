"""Seeded Monte Carlo studies of the estimators and the test.

Four studies, each driven by a true flattened p.m.f. and a seeded RNG:

* :func:`convergence_trace` -- estimates along a grid of growing sample
  sizes, with the sup-norm deviation of the empirical p.m.f. and the
  error/deviation ratio as diagnostics of almost-sure convergence.
* :func:`normality_study` -- replicate statistics
  ``T_i = sqrt(n) (estimate_i - truth) / sigma`` with histogram, QQ data,
  and a Kolmogorov-Smirnov distance against the standard normal law.
* :func:`rejection_rate` -- fraction of replicates where the independence
  test rejects (level under a product p.m.f., power otherwise).
* :func:`variance_check` -- empirical variance of the sqrt(n)-scaled
  estimator next to the two closed-form variances, with no verdict.

Every statistic here depends on a sample only through its cell counts,
and the counts of ``n`` i.i.d. draws of Z follow Multinomial(n, p).  So
the studies never draw raw outcomes: :func:`_empiricals` makes replicate
``i``'s counts with one ``multinomial(n, p)`` call on the substream keyed
by ``(master_seed, i)``, in O(k) memory whatever ``n`` is.
:func:`sample_z` stays public for callers that need raw outcomes.

Determinism contract: studies run in one thread, and every replicate (a
trace size counts as one) comes from :func:`_empiricals`.  Results are
byte-identical for a given seed and configuration, and a larger study
extends a smaller one: its first replicates are the smaller study's, bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .asymptotics import entropy_variance, mi_variance, normal_quantile
from .inference import lrt_statistic, lrt_threshold
from .measures import joint_entropy, mutual_information
from .pmf import EmpiricalPmf, ZPmf, z_vector

# Not called by the studies, but perfbench/tracing.py rebinds them here.
from .inference import independence_test  # noqa: F401
from .pmf import estimate_pmf  # noqa: F401

_MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 increment and finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _substream_key(master_seed: int, stream: int) -> int:
    """SplitMix64 output number ``stream + 1`` for the given seed.

    SplitMix64 advances its state by a fixed increment, so the i-th output
    is a pure function of ``seed + i * increment``; that makes substream
    derivation O(1) in the stream index.
    """
    z = (master_seed + (stream + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the substream derivation rule.

    Substream ``i`` feeds the ``(i + 1)``-th SplitMix64 output of the
    master seed into a PCG64 generator.  Identical ``(master_seed, i)``
    yields bit-identical draws on every platform.
    """

    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool):
            raise ValueError(f"master seed must be an integer, got {self.master_seed!r}")
        object.__setattr__(self, "master_seed", self.master_seed & _MASK64)

    def substream(self, stream: int) -> np.random.Generator:
        if stream < 0:
            raise ValueError(f"stream index must be >= 0, got {stream}")
        return np.random.Generator(
            np.random.PCG64(_substream_key(self.master_seed, stream))
        )


def sample_z(p: ZPmf, n: int, rng: RngSpec, stream: int = 0) -> np.ndarray:
    """Draw ``n`` i.i.d. 1-based outcomes of the flattened variable.

    Inverse-CDF lookup on the precomputed cumulative p.m.f.; zero cells
    have zero-width intervals and are never drawn.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    cum = np.cumsum(z_vector(p))
    cum[-1] = 1.0  # uniform draws live in [0, 1), so indices stay in range
    u = rng.substream(stream).random(n)
    return np.searchsorted(cum, u, side="right").astype(np.int64) + 1


_MEASURES: dict[str, Callable] = {
    "entropy": joint_entropy,
    "mi": mutual_information,
}


def _measure_fn(measure: str) -> Callable:
    try:
        return _MEASURES[measure]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure!r}; expected 'entropy' or 'mi'"
        ) from None


def _measure_variance(p: ZPmf, measure: str) -> tuple[float, float]:
    pair = entropy_variance(p) if measure == "entropy" else mi_variance(p)
    return pair.canonical, pair.alternate


def _empiricals(p: ZPmf, sizes: Sequence[int], rng: RngSpec) -> Iterator[EmpiricalPmf]:
    """Empirical p.m.f. of replicate ``i``: ``sizes[i]`` draws from substream ``i``.

    Replicate ``i``'s counts are one ``multinomial(sizes[i], p)`` draw from
    substream ``(master_seed, i)``.  The draw runs over the support of
    ``p`` only, renormalized to sum to 1: numpy's ``multinomial`` rejects
    weights whose sum exceeds 1 by more than 1e-12 (a :class:`ZPmf` may be
    off by 1e-9), and it gives its last cell whatever the others leave, so
    a trailing zero cell could otherwise collect counts lost to rounding.
    """
    probs = z_vector(p)
    support = np.flatnonzero(probs)
    weights = probs[support] / probs[support].sum()
    for i, n in enumerate(sizes):
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
        counts = np.zeros(p.shape.size, dtype=np.int64)
        counts[support] = rng.substream(i).multinomial(int(n), weights)
        yield EmpiricalPmf(counts, p.shape)


@dataclass(frozen=True)
class ConvergenceTrace:
    """Estimates and error diagnostics along growing sample sizes."""

    measure: str
    true_value: float
    sizes: np.ndarray
    estimates: np.ndarray
    abs_errors: np.ndarray
    a_zn: np.ndarray  # sup-norm deviation of the empirical p.m.f.
    ratio: np.ndarray  # abs_error / a_zn, NaN where a_zn = 0


def convergence_trace(
    p: ZPmf, sizes: Sequence[int], measure: str, rng: RngSpec
) -> ConvergenceTrace:
    """Fresh-sample estimates at each size; size index keys the substream."""
    fn = _measure_fn(measure)
    sizes_arr = np.asarray(list(sizes), dtype=np.int64)
    if sizes_arr.size == 0:
        raise ValueError("sizes must be nonempty")
    if sizes_arr[0] < 1:
        raise ValueError(f"sizes must be >= 1, got {int(sizes_arr[0])}")
    if np.any(np.diff(sizes_arr) <= 0):
        raise ValueError("sizes must be strictly increasing")
    truth = fn(p)
    probs = z_vector(p)
    estimates = np.empty(sizes_arr.size)
    a_zn = np.empty(sizes_arr.size)
    for idx, emp in enumerate(_empiricals(p, sizes_arr, rng)):
        estimates[idx] = fn(emp)
        a_zn[idx] = np.abs(emp.freqs - probs).max()
    abs_errors = np.abs(estimates - truth)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(a_zn > 0, abs_errors / a_zn, np.nan)
    return ConvergenceTrace(
        measure=measure,
        true_value=truth,
        sizes=sizes_arr,
        estimates=estimates,
        abs_errors=abs_errors,
        a_zn=a_zn,
        ratio=ratio,
    )


@dataclass(frozen=True)
class NormalityStudy:
    """Standardized replicate estimates against the standard normal law.

    ``t_values[i]`` is ``sqrt(n) (estimate_i - truth) / sigma`` with the
    truth and canonical sigma taken from the TRUE p.m.f., isolating the
    CLT claim from standard-error estimation.
    """

    measure: str
    n: int
    replicates: int
    true_value: float
    sigma: float
    t_values: np.ndarray
    mean: float
    variance: float
    ks_distance: float
    bin_edges: np.ndarray  # 41 edges spanning [-4, 4]
    bin_counts: np.ndarray  # 40 counts, outliers clamped into edge bins
    qq_theoretical: np.ndarray  # normal quantiles at (i - 0.5) / replicates
    qq_sample: np.ndarray  # order statistics of t_values


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ks_distance(sorted_values: np.ndarray) -> float:
    """Sup distance between the empirical c.d.f. and the standard normal."""
    r = sorted_values.size
    phi = np.array([_norm_cdf(float(t)) for t in sorted_values])
    upper = np.abs(np.arange(1, r + 1) / r - phi)
    lower = np.abs(np.arange(0, r) / r - phi)
    return float(np.maximum(upper, lower).max())


def normality_study(
    p: ZPmf,
    n: int,
    replicates: int,
    measure: str,
    rng: RngSpec,
) -> NormalityStudy:
    """Distribution of the standardized estimator over seeded replicates."""
    fn = _measure_fn(measure)
    if n < 1000:
        raise ValueError(f"normality study needs n >= 1000, got {n}")
    if replicates < 100:
        raise ValueError(
            f"normality study needs at least 100 replicates, got {replicates}"
        )
    truth = fn(p)
    canonical, _ = _measure_variance(p, measure)
    if canonical <= 0:
        raise ValueError(
            f"degenerate CLT: canonical variance of {measure} is "
            f"{canonical} for this p.m.f."
        )
    sigma = math.sqrt(canonical)
    estimates = np.array([fn(emp) for emp in _empiricals(p, [n] * replicates, rng)])
    t_values = math.sqrt(n) / sigma * (estimates - truth)
    sorted_t = np.sort(t_values)
    edges = np.linspace(-4.0, 4.0, 41)
    counts, _ = np.histogram(np.clip(t_values, -4.0, 4.0), bins=edges)
    qq_theoretical = np.array(
        [normal_quantile((i - 0.5) / replicates) for i in range(1, replicates + 1)]
    )
    return NormalityStudy(
        measure=measure,
        n=n,
        replicates=replicates,
        true_value=truth,
        sigma=sigma,
        t_values=t_values,
        mean=float(t_values.mean()),
        variance=float(t_values.var(ddof=1)),
        ks_distance=_ks_distance(sorted_t),
        bin_edges=edges,
        bin_counts=counts,
        qq_theoretical=qq_theoretical,
        qq_sample=sorted_t,
    )


def rejection_rate(
    p: ZPmf,
    n: int,
    replicates: int,
    alpha: float,
    rng: RngSpec,
) -> float:
    """Fraction of replicates where the independence test rejects.

    The level, the table shape and the threshold are checked and computed
    once, before any replicate is drawn; each replicate then rejects
    exactly when :func:`~pairinfo.inference.independence_test` would.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    _, threshold = lrt_threshold(p.shape, alpha)
    rejections = sum(
        lrt_statistic(emp) > threshold
        for emp in _empiricals(p, [n] * replicates, rng)
    )
    return rejections / replicates


class VarianceCheck(NamedTuple):
    """Empirical variance of sqrt(n)-scaled estimates beside both formulas."""

    empirical: float
    canonical: float
    alternate: float


def variance_check(
    p: ZPmf,
    n: int,
    replicates: int,
    measure: str,
    rng: RngSpec,
) -> VarianceCheck:
    """Monte Carlo variance next to the two closed forms; no verdict."""
    fn = _measure_fn(measure)
    if replicates < 2:
        raise ValueError(f"variance check needs >= 2 replicates, got {replicates}")
    estimates = np.array([fn(emp) for emp in _empiricals(p, [n] * replicates, rng)])
    canonical, alternate = _measure_variance(p, measure)
    return VarianceCheck(
        empirical=float(n * estimates.var(ddof=1)),
        canonical=canonical,
        alternate=alternate,
    )


__all__ = [
    "RngSpec",
    "ConvergenceTrace",
    "NormalityStudy",
    "VarianceCheck",
    "sample_z",
    "convergence_trace",
    "normality_study",
    "rejection_rate",
    "variance_check",
]
