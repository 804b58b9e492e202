"""Likelihood-ratio independence test for a pair of categorical variables.

The statistic is ``gamma_sq = 2 n MI(p_hat)``, twice the sample size times
the plug-in mutual information of the empirical table.  Under independence
it is asymptotically chi-square with ``(r - 1)(s - 1)`` degrees of freedom,
so the test rejects at level alpha when the statistic exceeds the
``1 - alpha`` chi-square quantile; equivalently, when the plug-in MI
exceeds ``quantile / (2 n)``.

The chi-square c.d.f. and quantile are implemented here via the
regularized lower incomplete gamma function (series expansion for small
arguments, Lentz continued fraction otherwise) so results are bit-stable
across platforms.  Targets: |cdf error| <= 1e-10, quantiles within 1e-10
relative, solved on the smaller tail so levels near 0 or 1 keep their digits.
The test's p-value comes from the upper tail ``Q = 1 - P`` itself, so a
small p-value keeps its relative accuracy instead of cancelling to 0.
Near ``x = a`` both expansions need O(sqrt(a)) terms, so their iteration
cap grows with sqrt(a), and either raises ``ArithmeticError`` rather than
return an unconverged value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import _level, normal_quantile
from .encoding import PairShape, _integer
from .measures import mutual_information
from .pmf import EmpiricalPmf

_MAX_ITER = 500
_EPS = 1e-16
# Above this shape the incomplete gamma prefactor goes through Stirling's series.
_STIRLING_A = 1e4


@dataclass(frozen=True)
class TestReport:
    """Outcome of the likelihood-ratio independence test."""

    gamma_sq: float
    df: int
    threshold: float
    mi_threshold: float
    p_value: float
    reject: bool
    alpha: float
    n: int


def lrt_statistic(emp: EmpiricalPmf) -> float:
    """Likelihood-ratio statistic ``2 n MI`` of an empirical table.

    Computed literally as twice the sample size times the plug-in mutual
    information, so the identity with :func:`~pairinfo.measures.mutual_information`
    is exact by construction.  May be a hair below 0 (never below -1e-9)
    from floating-point cancellation when the table is nearly a product.
    """
    return 2.0 * emp.n * mutual_information(emp)


def _max_iter(a: float) -> int:
    # Near x = a both expansions need about 8 sqrt(a) terms.
    return _MAX_ITER + int(10.0 * math.sqrt(a))


def _log_prefactor(a: float, x: float) -> float:
    """``log(x^a e^-x / Gamma(a))``, the factor common to both expansions."""
    if a <= _STIRLING_A:
        return -x + a * math.log(x) - math.lgamma(a)
    # At large a the three terms cancel down from ~a log a, losing digits;
    # Stirling's series for lgamma lets the cancellation happen exactly.
    # Below x = a / 2 nothing cancels, and there t rounds to -1, where log1p
    # fails, once x / a < 1e-16; log x - log a holds down to x = 5e-324.
    t = (x - a) / a
    log_ratio = math.log1p(t) if x >= 0.5 * a else math.log(x) - math.log(a)
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * a * a)) / (a * a)) / a
    return a * (log_ratio - t) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _no_convergence(kind: str, a: float, x: float) -> ArithmeticError:
    return ArithmeticError(
        f"incomplete gamma {kind} did not converge at a = {a}, x = {x}"
    )


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_max_iter(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise _no_convergence("series", a, x)
    return total * math.exp(_log_prefactor(a, x))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz's algorithm on the continued fraction for the upper tail Q(a, x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _max_iter(a)):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        factor = d * c
        h *= factor
        if abs(factor - 1.0) < _EPS:
            break
    else:
        raise _no_convergence("continued fraction", a, x)
    return math.exp(_log_prefactor(a, x)) * h


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """The regularized tails ``(P(a, x), Q(a, x))``, a > 0 and x >= 0: below
    x = a + 1 the series sums P and Q = 1 - P, from there the fraction sums Q."""
    if x == 0.0:
        return 0.0, 1.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
        return p, 1.0 - p
    q = _gamma_q_contfrac(a, x)
    return 1.0 - q, q


def chi_square_cdf(x: float, df: int) -> float:
    """Chi-square c.d.f. with ``df`` degrees of freedom at ``x >= 0``."""
    df = _integer(df, "degrees of freedom", 1)
    if not x >= 0:
        raise ValueError(f"chi-square c.d.f. argument must be >= 0, got {x}")
    if x == math.inf:
        return 1.0
    return min(1.0, max(0.0, _gamma_tails(df / 2.0, x / 2.0)[0]))


def chi_square_quantile(p: float, df: int) -> float:
    """Inverse chi-square c.d.f.: the x with ``chi_square_cdf(x, df) = p``.

    Solves on the smaller tail, ``P = p`` below the median and ``Q = 1 - p``
    above it, to a relative tolerance on that tail, so levels near 0 or 1
    keep their digits.  Wilson-Hilferty starting point, then Newton
    iterations on the log of the tail, safeguarded by a shrinking
    bisection bracket.
    """
    df = _integer(df, "degrees of freedom", 1)
    z = normal_quantile(p)  # also refuses a p outside (0, 1)
    a = df / 2.0
    upper = bool(p > 0.5)
    log_target = math.log(1.0 - p if upper else p)

    def excess(x: float) -> tuple[float, float]:
        """Log of the tail over its target, signed to rise with x, and the tail."""
        tail = _gamma_tails(a, x / 2.0)[upper]
        f = math.log(tail) - log_target if tail > 0.0 else -math.inf
        return (-f if upper else f), tail

    # Wilson-Hilferty cube approximation; fall back to the small-x power
    # law when the cube would go nonpositive (tiny p at small df).
    t = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    if t > 0:
        x = df * t**3
    else:
        x = 2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    # Quantiles below 1e-300 (p < 1e-150 at df = 1) come out as 1e-300.
    lo, hi = 1e-300, max(2.0 * x, 1.0)
    while excess(hi)[0] < 0:
        hi *= 2.0
        if hi > 1e9:
            break
    x = min(max(x, lo), hi)
    for _ in range(200):
        f, tail = excess(x)
        if f >= 0:
            hi = x
        else:
            lo = x
        if abs(f) < 1e-14:
            break
        # The slope of f: the density x^(a-1) e^(-x/2) / (2^a Gamma(a)) over
        # the tail, in logs because x * tail can underflow.
        slope = (
            math.exp(_log_prefactor(a, x / 2.0) - math.log(x) - math.log(tail))
            if tail > 0.0
            else 0.0
        )
        nxt = x - f / slope if slope > 0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-13 * x:
            x = nxt
            break
        x = nxt
    return x


def lrt_threshold(shape: PairShape, alpha: float) -> tuple[int, float]:
    """Degrees of freedom and rejection threshold of the test at level ``alpha``.

    The threshold is the ``1 - alpha`` chi-square quantile with
    ``(rows - 1)(cols - 1)`` degrees of freedom; it depends on the table's
    shape only, so a study of many tables of one shape computes it once.
    """
    level = _level(alpha, 1)
    r, s = shape.rows, shape.cols
    if r < 2 or s < 2:
        raise ValueError(
            f"test undefined for degenerate alphabet: shape {r}x{s} gives "
            f"0 degrees of freedom"
        )
    df = (r - 1) * (s - 1)
    return df, chi_square_quantile(level, df)


def independence_test(emp: EmpiricalPmf, alpha: float = 0.05) -> TestReport:
    """Likelihood-ratio test of independence between the two coordinates.

    Rejects at level ``alpha`` when ``gamma_sq`` exceeds the ``1 - alpha``
    chi-square quantile with ``(rows - 1)(cols - 1)`` degrees of freedom.
    Both alphabets must have at least two symbols, otherwise the degrees
    of freedom vanish and no test exists.

    Degrees of freedom stay fixed at ``(rows - 1)(cols - 1)`` even if some
    empirical rows or columns are all zero; callers with structurally
    absent categories should shrink the table first.
    """
    df, threshold = lrt_threshold(emp.shape, alpha)
    gamma_sq = lrt_statistic(emp)
    p_value = _gamma_tails(df / 2.0, max(gamma_sq, 0.0) / 2.0)[1]
    return TestReport(
        gamma_sq=gamma_sq,
        df=df,
        threshold=threshold,
        mi_threshold=threshold / (2.0 * emp.n),
        p_value=p_value,
        reject=bool(gamma_sq > threshold),
        alpha=alpha,
        n=emp.n,
    )


__all__ = [
    "TestReport",
    "lrt_statistic",
    "lrt_threshold",
    "chi_square_cdf",
    "chi_square_quantile",
    "independence_test",
]
