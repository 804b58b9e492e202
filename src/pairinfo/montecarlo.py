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
  estimator next to the delta-method variance.

Every statistic here depends on a sample only through its cell counts,
and the counts of ``n`` i.i.d. draws of Z follow Multinomial(n, p).  So
the studies never draw raw outcomes: :func:`_count_blocks` makes replicate
``i``'s counts with one ``multinomial(n, p)`` call on the substream keyed
by ``(master_seed, i)``, in O(k) memory whatever ``n`` is.  The counts
come in blocks of consecutive replicates, one row each, and the studies
run each measure's batch kernel of :mod:`pairinfo.measures` on a whole
block at once.  :func:`sample_z` stays public for callers that need raw
outcomes.

Determinism contract: every replicate (a trace size counts as one) is a
row of a block of :func:`_count_blocks`, and replicate ``i`` draws only
from substream ``(master_seed, i)``: PCG64 seeded through numpy's
``SeedSequence`` with the ``(i + 1)``-th SplitMix64 output of the master
seed.  The seed words are derived 256 streams at a time in one vectorized
pass, bit for bit as ``np.random.PCG64(key)`` derives them one key at a
time.  On a wide support the draws run on one worker thread per available
CPU, but each still uses its own substream and the replicates come back in
index order.  A row's statistic does not depend on the other rows of its
block, so results are byte-identical for a given seed and configuration
whatever the block size and the number of threads, and a larger study
extends a smaller one: its first replicates are the smaller study's, bit
for bit.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .asymptotics import entropy_variance, mi_variance, normal_quantile
from .inference import lrt_threshold
from .measures import (
    entropy_rows,
    joint_entropy,
    mutual_information,
    mutual_information_rows,
)
from .pmf import ZPmf, _integer, z_vector

# Not called by the studies, but perfbench/tracing.py rebinds them here.
from .inference import independence_test  # noqa: F401
from .pmf import estimate_pmf  # noqa: F401

_MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 increment and finalizer multipliers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _substream_key(master_seed: int, stream):
    """SplitMix64 output number ``stream + 1`` for the given seed.

    SplitMix64 advances its state by a fixed increment, so the i-th output
    is a pure function of ``seed + i * increment``; that makes substream
    derivation O(1) in the stream index.  ``stream`` may also be a uint64
    array, whose arithmetic wraps modulo 2**64 just as the masks do, to get
    the keys of many streams at once.
    """
    z = (master_seed + (stream + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# numpy's SeedSequence hash and mix constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, steps: int) -> list[tuple]:
    """The (xor, multiply) uint32 pair of each step of a SeedSequence hash.

    The running hash constant does not depend on the data, so its sequence
    is computed once for every key.
    """
    pairs, const = [], init
    for _ in range(steps):
        following = const * mult & _MASK32
        pairs.append((np.uint32(const), np.uint32(following)))
        const = following
    return pairs


# 4 pool words + 4 * 3 cross mixes; 4 uint64 words = 8 uint32 outputs.
_POOL_STEPS = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_STEPS = _hash_constants(_INIT_B, _MULT_B, 8)
_SHIFT = np.uint32(16)
# Streams whose seed words one vectorized pass derives.
_BLOCK = 256


@functools.lru_cache(maxsize=1)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of streams ``block * 256`` to ``block * 256 + 255``.

    Row ``j`` is ``SeedSequence(key).generate_state(4, np.uint64)`` for
    the key of stream ``block * 256 + j``, bit for bit: numpy's algorithm
    (hash the key's 32-bit words into a pool of four, mix every pool word
    into every other, hash the pool out into eight 32-bit words) run on
    all 256 keys at once.  A key below 2**32 has one 32-bit word, and
    SeedSequence hashes a zero word for each missing one, so every key is
    taken as two words.  uint32 arrays wrap on overflow, as the C code does.
    """
    streams = np.uint64(block * _BLOCK) + np.arange(_BLOCK, dtype=np.uint64)
    keys = _substream_key(master_seed, streams)
    steps = iter(_POOL_STEPS)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _SHIFT)

    low = (keys & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, (keys >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    # SeedSequence pairs its 32-bit words little-endian on every platform.
    words = np.empty((_BLOCK, 4), dtype="<u8")
    state = words.view("<u4")
    for j, (xor, mult) in enumerate(_STATE_STEPS):
        value = (pool[j % 4] ^ xor) * mult
        state[:, j] = value ^ (value >> _SHIFT)
    words = words.astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@functools.cache
def _precomputed_seeds() -> type:
    """The seed sequence class that hands PCG64 words derived in advance.

    Defined on first use, so that importing pairinfo does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _PrecomputedSeeds(ISeedSequence):
        __qualname__ = "_PrecomputedSeeds"  # found by the module __getattr__

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"precomputed seeds hold 4 uint64 words, not {n_words} "
                    f"of {np.dtype(dtype)}"
                )
            return self.words

    return _PrecomputedSeeds


def __getattr__(name: str):
    # Unpickling a substream's generator looks its seed class up here.
    if name == "_PrecomputedSeeds":
        return _precomputed_seeds()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the substream derivation rule.

    Substream ``i`` (``0 <= i < 2**64``) is PCG64 seeded through numpy's
    ``SeedSequence`` with the ``(i + 1)``-th SplitMix64 output of the
    master seed.  Its seed words are derived 256 streams at a time by
    :func:`_seed_block`, bit for bit as ``np.random.PCG64(key)`` would.
    Identical ``(master_seed, i)`` yields bit-identical draws on every
    platform.
    """

    master_seed: int = 0

    def __post_init__(self):
        seed = _integer(self.master_seed, "master seed")
        object.__setattr__(self, "master_seed", seed & _MASK64)

    def substream(self, stream: int) -> np.random.Generator:
        stream = _integer(stream, "stream index")
        if not 0 <= stream <= _MASK64:
            raise ValueError(f"stream index must be in [0, 2**64), got {stream}")
        block, row = divmod(stream, _BLOCK)
        seeds = _precomputed_seeds()(_seed_block(self.master_seed, block)[row])
        return np.random.Generator(np.random.PCG64(seeds))


def sample_z(p: ZPmf, n: int, rng: RngSpec, stream: int = 0) -> np.ndarray:
    """Draw ``n`` i.i.d. 1-based outcomes of the flattened variable.

    Inverse-CDF lookup on the precomputed cumulative p.m.f.; zero cells
    have zero-width intervals and are never drawn.
    """
    n = _integer(n, "sample size")
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


def _measure_variance(p: ZPmf, measure: str) -> float:
    return entropy_variance(p) if measure == "entropy" else mi_variance(p)


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


# Cells of one count block: a block holds max(1, _BLOCK_CELLS // k) rows,
# so it and each kernel temporary take 128 KiB unless one row is larger.
# A call costs about 19 us on any block, so small tables want many rows,
# but wide rows want few (2-vCPU Xeon, per row): on a 2x2 table MI takes
# 19 us in one-row blocks and 0.25 us in blocks of 1024 to 16384 rows; on
# a 100x100 table entropy takes 54 us in one-row blocks and 104 us in
# blocks of 4 to 64 rows, and MI 210 us and 220-290 us.
_BLOCK_CELLS = 1 << 14


def _draws(sizes: np.ndarray, weights: np.ndarray, rng: RngSpec) -> Iterator[np.ndarray]:
    """Counts over the support of replicate ``i``: one multinomial draw from substream ``i``.

    With more than one CPU and a support of at least ``_POOL_MIN_CELLS``
    cells, the draws run on one worker thread per CPU (``multinomial``
    releases the GIL), at most two per thread in flight.  Everything else,
    substream set-up included, stays on the caller's thread, and the draws
    are yielded in index order, so they do not depend on the number of
    threads.
    """
    threads = _cpus()
    if threads < 2 or weights.size < _POOL_MIN_CELLS:
        for i, n in enumerate(sizes):
            yield rng.substream(i).multinomial(n, weights)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for i, n in enumerate(sizes):
            pending.append(pool.submit(rng.substream(i).multinomial, n, weights))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _count_blocks(
    p: ZPmf, sizes: Sequence[int], rng: RngSpec
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Count blocks of the replicates: replicate ``i`` draws ``sizes[i]`` outcomes.

    Yields ``(counts, block_sizes)``: an int64 ``(m, k)`` block whose row
    ``j`` holds the counts of the next replicate in index order, and the
    int64 sample size of each row.  ``m`` is at most
    ``max(1, _BLOCK_CELLS // k)``; the last block may be shorter.

    Replicate ``i``'s counts are one ``multinomial(sizes[i], p)`` draw from
    substream ``(master_seed, i)`` (see :func:`_draws`).  The draw runs over
    the support of ``p`` only, renormalized to sum to 1: numpy's
    ``multinomial`` rejects weights whose sum exceeds 1 by more than 1e-12
    (a :class:`ZPmf` may be off by 1e-9), and it gives its last cell
    whatever the others leave, so a trailing zero cell could otherwise
    collect counts lost to rounding.  Every size is checked before the
    first draw, and closing the generator stops the draws and their
    threads.
    """
    sizes = np.array([_integer(n, "sample size") for n in sizes], dtype=np.int64)
    bad = sizes[sizes < 1]
    if bad.size:
        raise ValueError(f"sample size must be at least 1, got {bad[0]}")
    probs = z_vector(p)
    support = np.flatnonzero(probs)
    weights = probs[support] / probs[support].sum()
    rows = max(1, _BLOCK_CELLS // probs.size)
    with closing(_draws(sizes, weights, rng)) as draws:
        for start in range(0, sizes.size, rows):
            block_sizes = sizes[start : start + rows]
            counts = np.zeros((block_sizes.size, probs.size), dtype=np.int64)
            counts[:, support] = [next(draws) for _ in block_sizes]
            yield counts, block_sizes


def _measure_rows(measure: str, freqs: np.ndarray, p: ZPmf) -> np.ndarray:
    """``measure`` of each row of a block of frequencies on ``p``'s shape."""
    if measure == "entropy":
        return entropy_rows(freqs)
    return mutual_information_rows(freqs, p.shape)


def _estimates(p: ZPmf, sizes: Sequence[int], rng: RngSpec, measure: str) -> np.ndarray:
    """Plug-in ``measure`` of each replicate of :func:`_count_blocks`, in index order.

    The blocks are closed even when a kernel raises, so a study that fails
    midway leaves no draw thread behind.
    """
    with closing(_count_blocks(p, sizes, rng)) as blocks:
        return np.concatenate(
            [_measure_rows(measure, counts / n[:, None], p) for counts, n in blocks]
        )


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
    estimates, a_zn = [], []
    with closing(_count_blocks(p, sizes, rng)) as blocks:
        for counts, n in blocks:
            freqs = counts / n[:, None]
            estimates.append(_measure_rows(measure, freqs, p))
            a_zn.append(np.abs(freqs - probs).max(axis=1))
    estimates, a_zn = np.concatenate(estimates), np.concatenate(a_zn)
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
    truth and delta-method sigma taken from the TRUE p.m.f., isolating the
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
    sigma_sq = _measure_variance(p, measure)
    if sigma_sq <= 0:
        raise ValueError(
            f"degenerate CLT: asymptotic variance of {measure} is "
            f"{sigma_sq} for this p.m.f."
        )
    sigma = math.sqrt(sigma_sq)
    estimates = _estimates(p, [n] * replicates, rng, measure)
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
    mi = _estimates(p, [n] * replicates, rng, "mi")  # checks n
    statistics = 2.0 * n * mi  # as lrt_statistic computes it
    return int((statistics > threshold).sum()) / replicates


class VarianceCheck(NamedTuple):
    """Empirical variance of sqrt(n)-scaled estimates beside the delta method's."""

    empirical: float
    canonical: float


def variance_check(
    p: ZPmf,
    n: int,
    replicates: int,
    measure: str,
    rng: RngSpec,
) -> VarianceCheck:
    """Monte Carlo variance of the sqrt(n)-scaled estimator next to the
    delta-method variance at the true p.m.f."""
    _measure_fn(measure)  # an unknown measure fails before any draw
    replicates = _integer(replicates, "replicates")
    if replicates < 2:
        raise ValueError(f"variance check needs >= 2 replicates, got {replicates}")
    estimates = _estimates(p, [n] * replicates, rng, measure)
    return VarianceCheck(
        empirical=float(n * estimates.var(ddof=1)),
        canonical=_measure_variance(p, measure),
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
