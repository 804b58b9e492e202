"""Exact coverage and level on one small table, with no Monte Carlo error.

At n = 50 the 2x2 multinomial has C(53, 3) = 23,426 outcomes, few enough
to sum over: each count vector is weighed by its multinomial probability,
from a table of log-factorials, and a coverage or a level is the weighted
sum of the outcomes where the event holds (Brown, Cai & DasGupta, 2001,
*Statist. Sci.* 16:101).  No seed enters the pins.
"""

import itertools
import math

import numpy as np
import pytest

from pairinfo import (
    PairShape,
    RngSpec,
    ZPmf,
    joint_entropy,
    lrt_threshold,
    mutual_information,
    rejection_rate,
)
from pairinfo.asymptotics import _interval_rows, _level, _variance_rows
from pairinfo.measures import _floored_log, _pointwise_mi, entropy_rows, mutual_information_rows

# The product of the rows (0.4, 0.6) and the columns (0.3, 0.7): MI is 0,
# so the test's rejection rate is its level.
PRODUCT = ZPmf([0.12, 0.28, 0.18, 0.42], PairShape(2, 2))
N, ALPHA = 50, 0.05


def _count_vectors(n: int, k: int) -> np.ndarray:
    """Every vector of ``k`` nonnegative counts summing to ``n``, by stars
    and bars: the ``k - 1`` bars sit at distinct places among ``n + k - 1``."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)))
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + k - 1))
    return np.diff(edges, axis=1) - 1


def _weights(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The multinomial probability of each row of ``counts``."""
    n = int(counts[0].sum())
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    log_p = np.where(counts > 0, counts * np.log(probs), 0.0)
    return np.exp(log_factorial[n] - log_factorial[counts].sum(axis=1) + log_p.sum(axis=1))


@pytest.fixture(scope="module")
def exact_rates():
    """Every outcome's report is one row of a block: the estimate (MI
    clamped at 0, as ``estimate_report`` clamps it), its delta-method
    variance and its interval, and the test's ``2 n MI``, as
    ``rejection_rate`` computes it."""
    counts = _count_vectors(N, PRODUCT.shape.size)
    weights = _weights(counts, PRODUCT.probs)
    freqs = counts / N
    mi = mutual_information_rows(freqs, PRODUCT.shape)
    terms = _pointwise_mi(freqs.reshape(-1, 2, 2)).reshape(freqs.shape)
    rows = {"joint_entropy": (joint_entropy(PRODUCT), entropy_rows(freqs), _floored_log(freqs)),
            "mutual_information": (mutual_information(PRODUCT), np.maximum(0.0, mi), terms)}
    rates = {}
    for measure, (truth, estimates, cell_terms) in rows.items():
        std_errors = np.sqrt(_variance_rows(freqs, cell_terms) / N)
        lo, hi = _interval_rows(estimates, std_errors, _level(ALPHA, 2))
        rates[measure] = float(weights[(lo <= truth) & (truth <= hi)].sum())
    _, threshold = lrt_threshold(PRODUCT.shape, ALPHA)
    rejects = 2.0 * N * mi > threshold
    return len(counts), float(weights.sum()), rates, float(weights[rejects].sum())


def test_every_outcome_is_weighed_once(exact_rates):
    outcomes, mass, _, _ = exact_rates
    assert outcomes == math.comb(N + 3, 3) == 23_426
    assert abs(mass - 1.0) <= 1e-12


def test_exact_coverage_of_the_delta_intervals(exact_rates):
    """Nominal 95%: H's interval covers a little less, MI's far more, since
    at independence MI's delta-method variance is 0 and the plug-in is
    biased up."""
    _, _, rates, _ = exact_rates
    assert rates["joint_entropy"] == pytest.approx(0.941269078014, abs=1e-9)
    assert rates["mutual_information"] == pytest.approx(0.989875193153, abs=1e-9)


def test_exact_level_of_the_likelihood_ratio_test(exact_rates):
    _, _, _, level = exact_rates
    assert level == pytest.approx(0.055867348177, abs=1e-9)


def test_seeded_rejection_rate_is_within_its_error_of_the_exact_level(exact_rates):
    """The Monte Carlo rate, 2000 replicates of seed 0, is a draw around
    the exact level: within 4 of its binomial standard errors."""
    _, _, _, level = exact_rates
    replicates = 2000
    rate = rejection_rate(PRODUCT, N, replicates, ALPHA, RngSpec(0))
    assert abs(rate - level) <= 4 * math.sqrt(level * (1 - level) / replicates)
