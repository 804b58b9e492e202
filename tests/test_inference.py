"""Tests for the likelihood-ratio independence test and chi-square machinery.

scipy.stats.chi2 serves as the independent oracle for the distribution
functions; the null-calibration check samples contingency tables with
numpy's multinomial generator directly.
"""

import math

import numpy as np
import pytest
import scipy.stats

from pairinfo import (
    EmpiricalPmf,
    PairShape,
    chi_square_cdf,
    chi_square_quantile,
    independence_test,
    lrt_statistic,
    mutual_information,
)
from pairinfo import inference

CHI2_95_DF1 = 3.841458820694126
CHI2_95_DF2 = 5.991464547107982
GAMMA_DEMO_N10 = 0.08043486460964727
QUANTILE_DFS = [
    1, 2, 3, 4, 5, 7, 10, 15, 25, 50, 80, 100, 150, 361, 500, 1000, 2000,
    5000, 9801, 20000, 100000, 1000000,
]
QUANTILE_LEVELS = [
    1e-100, 1e-50, 1e-20, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1,
    0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9,
    1 - 1e-12,
]


def random_empirical(rng, max_side=6, n_max=500):
    rows, cols = int(rng.integers(2, max_side)), int(rng.integers(2, max_side))
    probs = rng.dirichlet(np.ones(rows * cols))
    n = int(rng.integers(10, n_max))
    counts = rng.multinomial(n, probs)
    if counts.sum() == 0:
        counts[0] = 1
    return EmpiricalPmf(counts, PairShape(rows, cols))


class TestLrtStatistic:
    def test_demo_table_counts(self, demo_emp):
        np.testing.assert_allclose(
            lrt_statistic(demo_emp), GAMMA_DEMO_N10, rtol=1e-12
        )

    def test_uniform_counts_give_zero(self):
        emp = EmpiricalPmf(np.array([1, 1, 1, 1]), PairShape(2, 2))
        assert abs(lrt_statistic(emp)) <= 1e-12

    def test_identity_with_mi(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            emp = random_empirical(rng)
            assert lrt_statistic(emp) == 2.0 * emp.n * mutual_information(emp)

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            assert lrt_statistic(random_empirical(rng)) >= -1e-9


class TestChiSquareCdf:
    def test_at_zero(self):
        for df in (1, 2, 5, 12):
            assert chi_square_cdf(0.0, df) == 0.0

    def test_df2_closed_form(self):
        """With two degrees of freedom the c.d.f. is 1 - exp(-x/2)."""
        for x in (0.1, 0.5, 1.0, 2.0, CHI2_95_DF2, 10.0, 30.0):
            np.testing.assert_allclose(
                chi_square_cdf(x, 2), 1 - math.exp(-x / 2), atol=1e-10
            )

    def test_df1_at_95th(self):
        np.testing.assert_allclose(chi_square_cdf(3.841459, 1), 0.95, atol=1e-6)

    def test_matches_scipy(self):
        for df in range(1, 13):
            for x in np.linspace(0.01, 8 * df, 40):
                np.testing.assert_allclose(
                    chi_square_cdf(float(x), df),
                    scipy.stats.chi2.cdf(x, df),
                    atol=1e-10,
                )

    @pytest.mark.parametrize("df", [20_000, 100_000, 1_000_000])
    def test_matches_scipy_at_large_df(self, df):
        # Near x = df the expansions need ~8 sqrt(df / 2) terms.
        for x in np.linspace(0.97 * df, 1.03 * df, 61):
            np.testing.assert_allclose(
                chi_square_cdf(float(x), df),
                scipy.stats.chi2.cdf(x, df),
                rtol=0,
                atol=1e-10,
            )

    def test_raises_when_expansion_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(inference, "_max_iter", lambda a: 5)
        with pytest.raises(ArithmeticError, match="series did not converge"):
            chi_square_cdf(100.0, 100)
        with pytest.raises(ArithmeticError, match="fraction did not converge"):
            chi_square_cdf(104.0, 100)

    def test_monotone(self):
        xs = np.linspace(0, 40, 200)
        vals = [chi_square_cdf(float(x), 3) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            chi_square_cdf(-1.0, 2)
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_square_cdf(1.0, 0)

    def test_df_takes_numpy_ints_but_not_bools_or_floats(self):
        for df in (np.int64(2), np.int32(2), np.uint8(2)):
            assert chi_square_cdf(3.0, df) == chi_square_cdf(3.0, 2)
            assert chi_square_quantile(0.9, df) == chi_square_quantile(0.9, 2)
        for bad in (True, np.bool_(True), 2.0, "2"):
            with pytest.raises(ValueError, match="degrees of freedom must be an integer"):
                chi_square_cdf(3.0, bad)
            with pytest.raises(ValueError, match="degrees of freedom must be an integer"):
                chi_square_quantile(0.9, bad)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError, match="nan"):
            chi_square_cdf(math.nan, 3)
        for df in (1, 2, 50):
            assert chi_square_cdf(math.inf, df) == 1.0


class TestChiSquareQuantile:
    def test_frozen_values(self):
        np.testing.assert_allclose(chi_square_quantile(0.95, 1), CHI2_95_DF1, atol=1e-5)
        np.testing.assert_allclose(chi_square_quantile(0.95, 2), CHI2_95_DF2, atol=1e-8)
        np.testing.assert_allclose(
            chi_square_quantile(0.95, 2), -2 * math.log(0.05), atol=1e-8
        )

    def test_roundtrip(self):
        """cdf(quantile(p)) returns p to 1e-8 across levels and dfs."""
        for df in range(1, 13):
            for p in np.arange(0.01, 1.0, 0.01):
                x = chi_square_quantile(float(p), df)
                assert abs(chi_square_cdf(x, df) - p) <= 1e-8

    def test_matches_scipy(self):
        for df in (1, 2, 3, 6, 12):
            for p in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999):
                np.testing.assert_allclose(
                    chi_square_quantile(p, df),
                    scipy.stats.chi2.ppf(p, df),
                    rtol=1e-7,
                )

    @pytest.mark.parametrize("df", QUANTILE_DFS)
    def test_matches_scipy_in_both_tails(self, df):
        """Relative accuracy holds at levels near 0 and near 1 too."""
        for p in QUANTILE_LEVELS:
            np.testing.assert_allclose(
                chi_square_quantile(p, df), scipy.stats.chi2.ppf(p, df), rtol=1e-10
            )

    def test_quantile_below_the_float_floor(self):
        """A quantile below 1e-300 (p < 1e-150 at df = 1) is floored there."""
        for p in (1e-200, 5e-324):
            assert chi_square_quantile(p, 1) == 1e-300

    def test_monotone_in_p(self):
        qs = [chi_square_quantile(p, 4) for p in np.linspace(0.01, 0.99, 50)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                chi_square_quantile(bad, 3)


class TestIndependenceTest:
    def test_demo_table_small_sample_fails_to_reject(self, demo_emp):
        rep = independence_test(demo_emp, alpha=0.05)
        assert rep.df == 1
        np.testing.assert_allclose(rep.gamma_sq, GAMMA_DEMO_N10, rtol=1e-12)
        np.testing.assert_allclose(rep.threshold, CHI2_95_DF1, atol=1e-8)
        assert not rep.reject
        assert 0.0 <= rep.p_value <= 1.0

    def test_demo_table_large_sample_rejects(self):
        emp = EmpiricalPmf(
            np.array([20000, 40000, 10000, 30000]), PairShape(2, 2)
        )
        rep = independence_test(emp, alpha=0.05)
        np.testing.assert_allclose(rep.gamma_sq, 804.3486460964727, rtol=1e-12)
        assert rep.reject
        assert rep.p_value < 1e-10

    def test_uniform_counts_never_reject(self):
        emp = EmpiricalPmf(np.array([5, 5, 5, 5]), PairShape(2, 2))
        rep = independence_test(emp, alpha=0.05)
        assert abs(rep.gamma_sq) <= 1e-12
        assert not rep.reject
        np.testing.assert_allclose(rep.p_value, 1.0, atol=1e-12)

    def test_degenerate_alphabet(self):
        emp = EmpiricalPmf(np.array([3, 7]), PairShape(1, 2))
        with pytest.raises(ValueError, match="degenerate alphabet"):
            independence_test(emp)

    def test_alpha_validation(self, demo_emp):
        with pytest.raises(ValueError, match="alpha"):
            independence_test(demo_emp, alpha=0.0)

    def test_decision_equivalence(self):
        """reject <=> gamma > threshold <=> plug-in MI > mi_threshold."""
        rng = np.random.default_rng(77)
        for _ in range(100):
            emp = random_empirical(rng)
            rep = independence_test(emp, alpha=0.1)
            mi = mutual_information(emp)
            assert rep.reject == (rep.gamma_sq > rep.threshold)
            assert rep.reject == (mi > rep.mi_threshold)
            np.testing.assert_allclose(
                rep.mi_threshold, rep.threshold / (2 * emp.n), rtol=1e-14
            )
            np.testing.assert_allclose(rep.gamma_sq, 2 * emp.n * mi, rtol=1e-9)

    @pytest.mark.parametrize("df", [1, 4, 100, 9801])
    def test_upper_tail_matches_scipy(self, df):
        # Out into the far tail, where 1 - cdf cancels to 0, short of underflow.
        sd = math.sqrt(2.0 * df)
        for x in df + sd * np.array([-0.5, 0, 1, 2, 5, 10, 20, 40, 100, 300]):
            expected = scipy.stats.chi2.sf(x, df)
            if x <= 0 or expected < 1e-300:
                continue
            got = inference._gamma_q(df / 2.0, x / 2.0)
            assert got == pytest.approx(expected, rel=1e-9, abs=0), (df, x)

    def test_small_p_value_keeps_its_digits(self):
        emp = EmpiricalPmf(np.array([400, 100, 100, 400]), PairShape(2, 2))
        rep = independence_test(emp)
        expected = scipy.stats.chi2.sf(rep.gamma_sq, 1)
        assert 0 < expected < 1e-50
        assert rep.p_value == pytest.approx(expected, rel=1e-9, abs=0)

    def test_df_from_shape(self):
        rng = np.random.default_rng(606)
        for rows, cols in ((2, 2), (3, 4), (5, 2), (4, 4)):
            counts = rng.multinomial(300, np.full(rows * cols, 1.0 / (rows * cols)))
            rep = independence_test(EmpiricalPmf(counts, PairShape(rows, cols)))
            assert rep.df == (rows - 1) * (cols - 1)


class TestNullCalibration:
    def test_level_and_statistic_mean_under_independence(self):
        """Under a 2x2 product p.m.f. the statistic behaves like chi2_1."""
        probs = np.array([0.18, 0.42, 0.12, 0.28])
        n, replicates = 5000, 2000
        rng = np.random.default_rng(2718)
        counts = rng.multinomial(n, probs, size=replicates)
        freqs = counts / n
        t = freqs.reshape(-1, 2, 2)
        denom = t.sum(axis=2)[:, :, None] * t.sum(axis=1)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(t > 0, t * np.log(t / denom), 0.0)
        gamma = 2 * n * terms.sum(axis=(1, 2))

        assert 0.85 <= gamma.mean() <= 1.15
        rate = (gamma > chi_square_quantile(0.95, 1)).mean()
        assert 0.035 <= rate <= 0.065
