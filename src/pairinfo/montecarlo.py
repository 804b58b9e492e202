"""Seeded Monte Carlo studies of the estimators and the test.

Four studies, each driven by a seeded RNG and a flattened p.m.f. taken as
the truth: a :class:`ZPmf`, or the frequencies of an :class:`EmpiricalPmf`.

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
the studies never draw raw outcomes: :func:`_replicates` makes replicate
``i``'s counts with one ``multinomial(n, p)`` call on the substream keyed
by ``(master_seed, i)``, in O(k) memory whatever ``n`` is.  It draws
consecutive replicates into the rows of one int64 block, runs the study's
statistic (a batch kernel of :mod:`pairinfo.measures`) on the whole block
and yields the result; :func:`rejection_rate` counts that stream as it
comes, the others join it.  :func:`sample_z` stays public for raw outcomes.

Determinism contract: every replicate (a trace size counts as one) is a
row of a block of :func:`_replicates`, and replicate ``i`` draws only
from substream ``(master_seed, i)``: PCG64 seeded through numpy's
``SeedSequence`` with the ``(i + 1)``-th SplitMix64 output of the master
seed.  The seed words are derived 2048 streams at a time in one vectorized
pass, bit for bit as ``np.random.PCG64(key)`` derives them one key at a
time.  On a wide support each block is drawn and measured on one of a
pool of worker threads, one per available CPU, but each row still uses its
own substream, built on the consuming thread, and the blocks' results are
yielded in index order.  A row's statistic does not depend on the other
rows of its block, so results are byte-identical for a given seed and
configuration whatever the block size and the number of threads, and a
larger study extends a smaller one: its first replicates are the smaller
study's, bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .asymptotics import entropy_variance, mi_variance, normal_quantile
from .encoding import _integer
from .inference import lrt_threshold
from .measures import (
    entropy_rows,
    joint_entropy,
    mutual_information,
    mutual_information_rows,
)
from .pmf import _INT64_MAX, PmfLike, ZPmf, _as_table, z_vector

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
_SHIFT = np.uint32(16)
# Streams whose seed words one vectorized pass derives: 170-230 us for 2048
# (about 90 ns a stream) against 95-105 us for 256 (about 390 ns), on a Xeon.
_BLOCK = 2048


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash step on a uint32 array, with its running hash
    constant: ``const`` at the first call, times ``mult`` at each next."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return step


@functools.lru_cache(maxsize=1)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of the ``_BLOCK`` streams from ``block * _BLOCK`` on.

    Row ``j`` is ``SeedSequence(key).generate_state(4, np.uint64)`` for
    the key of stream ``block * _BLOCK + j``, bit for bit: numpy's algorithm
    (hash the key's 32-bit words into a pool of four, mix every pool word
    into every other, hash the pool out into eight 32-bit words) run on
    all ``_BLOCK`` keys at once.  A key below 2**32 has one 32-bit word, and
    SeedSequence hashes a zero word for each missing one, so every key is
    taken as two words.  uint32 arrays wrap on overflow, as the C code does.
    """
    streams = np.uint64(block * _BLOCK) + np.arange(_BLOCK, dtype=np.uint64)
    keys = _substream_key(master_seed, streams)
    hashmix = _hasher(_INIT_A, _MULT_A)
    low = (keys & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, (keys >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    # SeedSequence pairs its 32-bit words little-endian on every platform.
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[j % 4]) for j in range(8)], axis=1).astype("<u4", copy=False)
    words = state.view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


def _generator(words: np.ndarray) -> np.random.Generator:
    """PCG64 on the 4 uint64 seed ``words``.  The first call loads
    ``numpy.random`` and rebinds this name to :func:`pairinfo._seeds.generator`."""
    global _generator
    from ._seeds import generator as _generator

    return _generator(words)


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the substream derivation rule.

    Substream ``i`` (``0 <= i < 2**64``) is PCG64 seeded through numpy's
    ``SeedSequence`` with the ``(i + 1)``-th SplitMix64 output of the
    master seed.  Its seed words are derived 2048 streams at a time by
    :func:`_seed_block`, bit for bit as ``np.random.PCG64(key)`` would.
    Identical ``(master_seed, i)`` yields bit-identical draws on every
    platform.
    """

    master_seed: int = 0

    def __post_init__(self):
        seed = _integer(self.master_seed, "master seed")
        object.__setattr__(self, "master_seed", seed & _MASK64)

    def substream(self, stream: int) -> np.random.Generator:
        if type(stream) is not int or not 0 <= stream <= _MASK64:
            stream = _integer(stream, "stream index", 0, _MASK64)
        block, row = divmod(stream, _BLOCK)
        return _generator(_seed_block(self.master_seed, block)[row])


def sample_z(p: ZPmf, n: int, rng: RngSpec, stream: int = 0) -> np.ndarray:
    """Draw ``n`` i.i.d. 1-based outcomes of the flattened variable.

    Inverse-CDF lookup on the precomputed cumulative p.m.f.; zero cells
    have zero-width intervals and are never drawn.
    """
    n = _integer(n, "sample size", 1)
    cum = np.cumsum(z_vector(p))
    cum[-1] = 1.0  # uniform draws live in [0, 1), so indices stay in range
    u = rng.substream(stream).random(n)
    return np.searchsorted(cum, u, side="right").astype(np.int64) + 1


_MEASURES: dict[str, Callable] = {
    "entropy": joint_entropy,
    "mi": mutual_information,
}


def _measure(measure: str, p: PmfLike) -> tuple[Callable, Callable, Callable]:
    """The truth function, delta-method variance and batch kernel (on blocks
    of ``p``'s shape) of ``measure``, read from the module at each call."""
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected 'entropy' or 'mi'")
    if measure == "entropy":
        return _MEASURES[measure], entropy_variance, entropy_rows
    kernel = functools.partial(mutual_information_rows, shape=p.shape)
    return _MEASURES[measure], mi_variance, kernel


# Supports of at least this many cells run their blocks on a thread pool;
# on smaller ones handing a block to a worker costs more than it saves.
# Pooled over serial time of normality and power MI studies, each block
# drawn and measured on the pool (Dirichlet tables, n = 20000, R = 400, 2
# threads on a 2-vCPU host, medians of 9): 1.26-1.30 at k = 64, 0.89-1.06
# at 100-196, 0.75-0.88 at 256, 0.74-0.88 at 400, 0.76 at 576, 0.63 at
# 729, 0.62-0.72 at 1024 and 0.64-0.77 from 1600 to 10^4.
_POOL_MIN_CELLS = 512


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


def _drawn_block(statistic: Callable, weights: np.ndarray, k: int, gens, sizes) -> np.ndarray:
    """``statistic`` of the frequencies of an int64 ``(len(sizes), k)``
    block whose row ``j`` starts with a ``multinomial(sizes[j], weights)``
    draw from the ``j``-th of ``gens``; the cells after it are 0."""
    counts = np.zeros((sizes.size, k), dtype=np.int64)
    for row, gen, n in zip(counts[:, : weights.size], gens, sizes.tolist()):
        row[...] = gen.multinomial(n, weights)
    return statistic(counts / sizes[:, None])


def _replicates(
    p: PmfLike, sizes: Sequence[int], rng: RngSpec, statistic: Callable, replicates=None
) -> Iterator[np.ndarray]:
    """``statistic`` of each block of the replicates' frequencies, in index order.

    Replicate ``i`` is one ``multinomial(sizes[i], ...)`` draw from
    substream ``(master_seed, i)``, and ``statistic`` maps a block of
    ``max(1, _BLOCK_CELLS // k)`` consecutive replicates, a row each, to an
    array with a value per row on its last axis.  The draw weighs the cells
    of ``p`` up to its last positive one by their sum over the positive
    cells: numpy's ``multinomial`` rejects weights whose sum exceeds 1 by
    more than 1e-12 (a :class:`ZPmf` may be off by 1e-9), and it gives its
    last cell whatever the others leave.  A zero weight gets 0 and uses no
    randomness, so the counts are those of a draw over the support alone.

    With more than one CPU and a support of at least ``_POOL_MIN_CELLS``
    cells, each block (its draws, division and statistic) runs on one of a
    pool of threads, one per CPU, at most two blocks per thread in flight;
    the consumer builds the substreams.  Otherwise each substream is built
    as its row is drawn.  Every size is checked before the first draw, and
    no thread outlives the stream, whether it ends, raises or is closed.
    Given ``replicates`` (at most ``sys.maxsize``, the longest shape numpy
    makes), ``sizes`` holds their one size, repeated by a view: nothing
    holds a size, a block or a result per replicate.
    """
    # Checked before int64 holds them, which past its range would overflow.
    sizes = np.array([_integer(n, "sample size", 1, _INT64_MAX) for n in sizes], dtype=np.int64)
    if replicates is not None:
        try:
            sizes = np.broadcast_to(sizes, replicates)
        except ValueError:  # numpy makes no view of 2**60 int64 or more
            raise MemoryError(f"no array holds {replicates} replicates") from None
    probs = z_vector(p)
    support = np.flatnonzero(probs)
    weights = probs[: support[-1] + 1] / probs[support].sum()
    block = functools.partial(_drawn_block, statistic, weights, probs.size)
    rows = max(1, _BLOCK_CELLS // probs.size)
    streams = range(sizes.size)
    blocks = ((streams[i : i + rows], sizes[i : i + rows]) for i in streams[::rows])
    threads = _cpus()
    if threads < 2 or support.size < _POOL_MIN_CELLS:
        yield from (block(map(rng.substream, s), n) for s, n in blocks)
        return
    from concurrent.futures import ThreadPoolExecutor

    pending = deque()
    with ThreadPoolExecutor(threads) as pool:
        for s, n in blocks:
            pending.append(pool.submit(block, [rng.substream(i) for i in s], n))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        yield from (future.result() for future in pending)


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
    p: PmfLike, sizes: Sequence[int], measure: str, rng: RngSpec
) -> ConvergenceTrace:
    """Fresh-sample estimates at each size; size index keys the substream."""
    truth_fn, _, kernel = _measure(measure, p)
    sizes = [_integer(n, "sample size", 1) for n in sizes]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    truth = truth_fn(p)
    probs = z_vector(p)

    def statistic(freqs: np.ndarray) -> np.ndarray:
        return np.stack((kernel(freqs), np.abs(freqs - probs).max(axis=1)))

    estimates, a_zn = np.concatenate([*_replicates(p, sizes, rng, statistic)], axis=-1)
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

    # In report order: the scalars, then the arrays.
    measure: str
    n: int
    replicates: int
    true_value: float
    sigma: float
    mean: float
    variance: float
    ks_distance: float
    t_values: np.ndarray
    bin_edges: np.ndarray  # 41 edges spanning [-4, 4]
    bin_counts: np.ndarray  # 40 counts, outliers clamped into edge bins
    qq_theoretical: np.ndarray  # normal quantiles at (i - 0.5) / replicates
    qq_sample: np.ndarray  # order statistics of t_values


def _ks_distance(sorted_values: np.ndarray) -> float:
    """Sup distance between the empirical c.d.f. and the standard normal."""
    r = sorted_values.size
    root2 = math.sqrt(2.0)  # statistics.NormalDist().cdf, bit for bit, inlined
    phi = np.array([0.5 * (1.0 + math.erf(t / root2)) for t in sorted_values.tolist()])
    upper = np.abs(np.arange(1, r + 1) / r - phi)
    lower = np.abs(np.arange(0, r) / r - phi)
    return float(np.maximum(upper, lower).max())


def normality_study(
    p: PmfLike,
    n: int,
    replicates: int,
    measure: str,
    rng: RngSpec,
) -> NormalityStudy:
    """Distribution of the standardized estimator over seeded replicates.

    Logs a warning on the ``pairinfo`` logger when the plug-in bias at
    ``p`` exceeds the standard error, which shifts the t values.
    """
    truth_fn, variance, kernel = _measure(measure, p)
    n = _integer(n, "sample size", 1000)
    replicates = _integer(replicates, "replicates", 100, sys.maxsize)
    truth = truth_fn(p)
    sigma_sq = variance(p)
    # A variance within rounding of the k weights is 0, as MI's is at
    # independence (5.2e-33 on outer([0.3, 0.7], [0.4, 0.6])).
    if sigma_sq <= (p.shape.size * np.finfo(float).eps) ** 2:
        raise ValueError(
            f"degenerate CLT: asymptotic variance of {measure} is "
            f"{sigma_sq} for this p.m.f."
        )
    sigma = math.sqrt(sigma_sq)
    # The plug-in bias at p over the positive cells, rows and columns is
    # -(k - 1)/2n for H and (kxy - kx - ky + 1)/2n for MI; past the standard
    # error sigma/sqrt(n), the t values centre near their ratio, not 0.
    table = _as_table(p) > 0
    cells, rows, cols = table.sum(), table.any(axis=1).sum(), table.any(axis=0).sum()
    terms = cells - rows - cols + 1 if measure == "mi" else 1 - cells
    ratio = terms / (2 * sigma * math.sqrt(n))
    if abs(ratio) > 1:
        # Imported here, not at the top: `import pairinfo` loads neither cli
        # nor _reader, so logging (3-7 ms) loads only if this warns.  Hoisted,
        # it would move the 10.48 MB memory peak of `import pairinfo.cli` by 0.01 MB.
        import logging

        logging.getLogger("pairinfo").warning(
            "warning: plug-in %s bias at the true p.m.f. is %.3g standard errors "
            "at n = %d; the t values centre near it, not 0", measure, ratio, n,
        )
    estimates = np.concatenate([*_replicates(p, [n], rng, kernel, replicates)])
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
        mean=float(t_values.mean()),
        variance=float(t_values.var(ddof=1)),
        ks_distance=_ks_distance(sorted_t),
        t_values=t_values,
        bin_edges=edges,
        bin_counts=counts,
        qq_theoretical=qq_theoretical,
        qq_sample=sorted_t,
    )


def rejection_rate(
    p: PmfLike,
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
    replicates = _integer(replicates, "replicates", 1, sys.maxsize)
    _, threshold = lrt_threshold(p.shape, alpha)
    _, _, kernel = _measure("mi", p)

    def rejects(freqs: np.ndarray) -> np.ndarray:
        return 2.0 * n * kernel(freqs) > threshold  # 2n MI, as lrt_statistic computes it

    return sum(map(np.count_nonzero, _replicates(p, [n], rng, rejects, replicates))) / replicates


class VarianceCheck(NamedTuple):
    """Empirical variance of sqrt(n)-scaled estimates beside the delta method's."""

    empirical: float
    canonical: float


def variance_check(
    p: PmfLike,
    n: int,
    replicates: int,
    measure: str,
    rng: RngSpec,
) -> VarianceCheck:
    """Monte Carlo variance of the sqrt(n)-scaled estimator next to the
    delta-method variance at the true p.m.f."""
    _, variance, kernel = _measure(measure, p)  # an unknown measure fails here
    replicates = _integer(replicates, "replicates", 2, sys.maxsize)
    estimates = np.concatenate([*_replicates(p, [n], rng, kernel, replicates)])
    return VarianceCheck(
        empirical=float(n * estimates.var(ddof=1)),
        canonical=variance(p),
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
