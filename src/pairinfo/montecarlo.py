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

Determinism contract: every replicate (a trace size counts as one) comes
from :func:`_empiricals`, and replicate ``i`` draws only from substream
``(master_seed, i)``.  On a wide support the draws run on one worker
thread per available CPU, but each still uses its own substream and the
replicates come back in index order, so results are byte-identical for a
given seed and configuration whatever the number of threads, and a larger
study extends a smaller one: its first replicates are the smaller
study's, bit for bit.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from statistics import NormalDist
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


def _integer(value, name: str) -> int:
    """``value`` as an int: Python and numpy ints pass, bools and the rest raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the substream derivation rule.

    Substream ``i`` feeds the ``(i + 1)``-th SplitMix64 output of the
    master seed into a PCG64 generator.  Identical ``(master_seed, i)``
    yields bit-identical draws on every platform.
    """

    master_seed: int = 0

    def __post_init__(self):
        seed = _integer(self.master_seed, "master seed")
        object.__setattr__(self, "master_seed", seed & _MASK64)

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


# Supports of at least this many cells draw on a thread pool; on smaller
# ones handing a draw to a worker costs more than it saves.  Pooled over
# serial time of normality and power studies (Dirichlet tables, n = 20000,
# R = 400, 2 threads on a 2-vCPU host, medians of 9): 1.46 at k = 64,
# 1.3-1.4 at 256, 1.08 at 1024, 0.85-0.90 at 1600, 0.82 at 2025, 0.71-0.85
# at 4096 and 0.73 at 10^4.
_POOL_MIN_CELLS = 2048


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _empiricals(p: ZPmf, sizes: Sequence[int], rng: RngSpec) -> Iterator[EmpiricalPmf]:
    """Empirical p.m.f. of replicate ``i``: ``sizes[i]`` draws from substream ``i``.

    Replicate ``i``'s counts are one ``multinomial(sizes[i], p)`` draw from
    substream ``(master_seed, i)``.  The draw runs over the support of
    ``p`` only, renormalized to sum to 1: numpy's ``multinomial`` rejects
    weights whose sum exceeds 1 by more than 1e-12 (a :class:`ZPmf` may be
    off by 1e-9), and it gives its last cell whatever the others leave, so
    a trailing zero cell could otherwise collect counts lost to rounding.

    With more than one CPU and a support of at least ``_POOL_MIN_CELLS``
    cells, the draws run on one worker thread per CPU (``multinomial``
    releases the GIL), at most two per thread in flight.  Everything else,
    substream set-up included, stays on the caller's thread, and the
    replicates are yielded in index order, so the results do not depend on
    the number of threads.  Every size is checked before the first draw.
    """
    sizes = [_integer(n, "sample size") for n in sizes]
    for n in sizes:
        if n < 1:
            raise ValueError(f"sample size must be at least 1, got {n}")
    probs = z_vector(p)
    support = np.flatnonzero(probs)
    weights = probs[support] / probs[support].sum()

    def empirical(drawn: np.ndarray) -> EmpiricalPmf:
        counts = np.zeros(p.shape.size, dtype=np.int64)
        counts[support] = drawn
        return EmpiricalPmf(counts, p.shape)

    threads = _cpus()
    if threads < 2 or support.size < _POOL_MIN_CELLS:
        for i, n in enumerate(sizes):
            yield empirical(rng.substream(i).multinomial(n, weights))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for i, n in enumerate(sizes):
            pending.append(pool.submit(rng.substream(i).multinomial, n, weights))
            if len(pending) == 2 * threads:
                yield empirical(pending.popleft().result())
        while pending:
            yield empirical(pending.popleft().result())


def _replicates(
    p: ZPmf, sizes: Sequence[int], rng: RngSpec, statistic: Callable
) -> np.ndarray:
    """``statistic`` of each replicate of :func:`_empiricals`, in index order.

    The replicate stream is closed even when ``statistic`` raises, so a
    study that fails midway leaves no draw thread behind.
    """
    with closing(_empiricals(p, sizes, rng)) as empiricals:
        return np.array([statistic(emp) for emp in empiricals])


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
    sizes = [_integer(n, "sample size") for n in sizes]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if sizes[0] < 1:
        raise ValueError(f"sizes must be >= 1, got {sizes[0]}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    truth = fn(p)
    probs = z_vector(p)
    estimates, a_zn = _replicates(
        p, sizes, rng, lambda emp: (fn(emp), np.abs(emp.freqs - probs).max())
    ).T
    abs_errors = np.abs(estimates - truth)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(a_zn > 0, abs_errors / a_zn, np.nan)
    return ConvergenceTrace(
        measure=measure,
        true_value=truth,
        sizes=np.array(sizes, dtype=np.int64),
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


def _ks_distance(sorted_values: np.ndarray) -> float:
    """Sup distance between the empirical c.d.f. and the standard normal."""
    r = sorted_values.size
    cdf = NormalDist().cdf
    phi = np.array([cdf(float(t)) for t in sorted_values])
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
    n = _integer(n, "sample size")
    replicates = _integer(replicates, "replicates")
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
    estimates = _replicates(p, [n] * replicates, rng, fn)
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
    replicates = _integer(replicates, "replicates")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    _, threshold = lrt_threshold(p.shape, alpha)
    rejects = _replicates(
        p, [n] * replicates, rng, lambda emp: lrt_statistic(emp) > threshold
    )
    return int(rejects.sum()) / replicates


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
    replicates = _integer(replicates, "replicates")
    if replicates < 2:
        raise ValueError(f"variance check needs >= 2 replicates, got {replicates}")
    estimates = _replicates(p, [n] * replicates, rng, fn)
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
