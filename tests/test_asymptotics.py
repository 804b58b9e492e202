"""Tests for the delta-method variances, rate constant, and intervals.

Fixed expected values were frozen from a 40-digit mpmath evaluation of the
closed forms.  Monte Carlo cross-checks sample with numpy's own multinomial
generator, independent of the package's sampling path, and compare the
empirical variance of the sqrt(n)-scaled estimator against the canonical
formula.
"""

import math

import numpy as np
import pytest
import scipy.stats

from pairinfo import (
    JointPmf,
    PairShape,
    ZPmf,
    confidence_interval,
    diagonal_mi_variance,
    entropy_variance,
    estimate_pmf,
    estimate_report,
    marginal_variance,
    mi_variance,
    multinomial_covariance,
    mutual_information,
    normal_quantile,
    rate_constant,
    z_view,
)
from conftest import DEMO_TABLE

H_DEMO = 1.2798542258336675
MI_DEMO = 0.0040217432304824318
VH_CANONICAL = 0.18092168665391796
VH_ALTERNATE = 0.21168486402361457
VMI_CANONICAL = 0.0079083051831783534
VMI_ALTERNATE = 0.0071305296188603009
VDIAG_CANONICAL = 0.001903442605922918
VDIAG_ALTERNATE = 0.0023484020452954434
VX1_ALTERNATE = 0.30949033200812192
A_DEMO = 2.199705077879927
A_UNIFORM_2X2 = 1.5451774444795625
Z_975 = 1.9599639845400542
Z_84 = 0.99445788320975317


def random_strict_zpmf(rng, rows, cols, concentration=2.0):
    probs = rng.dirichlet(np.full(rows * cols, concentration))
    return ZPmf(probs, PairShape(rows, cols), renormalize=True)


def batch_entropies(freqs):
    """Row-wise plug-in entropies of a (replicates, cells) frequency array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(freqs > 0, freqs * np.log(freqs), 0.0)
    return -terms.sum(axis=1)


def batch_mis(freqs, rows, cols):
    """Row-wise plug-in mutual informations of a frequency array."""
    t = freqs.reshape(-1, rows, cols)
    px = t.sum(axis=2)
    py = t.sum(axis=1)
    denom = px[:, :, None] * py[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * np.log(t / denom), 0.0)
    return terms.sum(axis=(1, 2))


class TestEntropyVariance:
    def test_demo_table_frozen_values(self, demo_z):
        pair = entropy_variance(demo_z)
        np.testing.assert_allclose(pair.canonical, VH_CANONICAL, rtol=1e-13)
        np.testing.assert_allclose(pair.alternate, VH_ALTERNATE, rtol=1e-13)
        np.testing.assert_allclose(
            pair.discrepancy, VH_ALTERNATE - VH_CANONICAL, rtol=1e-12
        )

    def test_canonical_closed_form(self):
        """canonical = sum p (log p)^2 - H^2 on random distributions."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
            z = ZPmf(probs, PairShape(1, probs.size), renormalize=True)
            h = -(probs * np.log(probs)).sum()
            expected = (probs * np.log(probs) ** 2).sum() - h**2
            np.testing.assert_allclose(
                entropy_variance(z).canonical, expected, atol=1e-12
            )

    def test_uniform_is_zero(self):
        for rows, cols in ((2, 2), (3, 3), (2, 5), (4, 4)):
            size = rows * cols
            z = ZPmf(np.full(size, 1.0 / size), PairShape(rows, cols))
            assert abs(entropy_variance(z).canonical) <= 1e-14

    def test_degenerate_is_zero(self):
        z = ZPmf([1.0, 0.0, 0.0, 0.0], PairShape(2, 2))
        assert entropy_variance(z).canonical == 0.0

    def test_zero_cells_contribute_nothing(self):
        """Zero cells drop out of both forms; no error is raised."""
        dense = ZPmf([0.2, 0.4, 0.1, 0.3], PairShape(2, 2))
        padded = ZPmf([0.2, 0.4, 0.0, 0.1, 0.3, 0.0], PairShape(2, 3))
        np.testing.assert_allclose(
            entropy_variance(padded).canonical,
            entropy_variance(dense).canonical,
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            entropy_variance(padded).alternate,
            entropy_variance(dense).alternate,
            rtol=1e-14,
        )


class TestMiVariance:
    def test_demo_table_frozen_values(self, demo_z):
        pair = mi_variance(demo_z)
        np.testing.assert_allclose(pair.canonical, VMI_CANONICAL, rtol=1e-13)
        np.testing.assert_allclose(pair.alternate, VMI_ALTERNATE, rtol=1e-13)

    def test_product_is_zero(self):
        z = z_view(JointPmf(np.outer([0.3, 0.7], [0.4, 0.6])))
        assert abs(mi_variance(z).canonical) <= 1e-12

    def test_canonical_closed_form_and_centering(self):
        """canonical = sum p B^2 - MI^2, with sum p B = MI exactly."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            z = random_strict_zpmf(rng, rows, cols)
            table = z.probs.reshape(rows, cols)
            b = np.log(table / np.outer(table.sum(axis=1), table.sum(axis=0)))
            mi = mutual_information(z)
            np.testing.assert_allclose((table * b).sum(), mi, atol=1e-12)
            np.testing.assert_allclose(
                mi_variance(z).canonical,
                (table * b * b).sum() - mi**2,
                atol=1e-12,
            )


class TestDiagonalMiVariance:
    def test_demo_table_frozen_values(self, demo_z):
        pair = diagonal_mi_variance(demo_z)
        np.testing.assert_allclose(pair.canonical, VDIAG_CANONICAL, rtol=1e-12)
        np.testing.assert_allclose(pair.alternate, VDIAG_ALTERNATE, rtol=1e-12)

    def test_single_cell_is_zero(self):
        z = ZPmf([1.0], PairShape(1, 1))
        assert diagonal_mi_variance(z).canonical == 0.0

    def test_square_product_is_zero(self):
        z = z_view(JointPmf(np.outer([0.3, 0.7], [0.4, 0.6])))
        assert abs(diagonal_mi_variance(z).canonical) <= 1e-12

    def test_brute_force_enumeration(self):
        """Same quadratic forms, restricted to cells (i, i)."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = int(rng.integers(2, 5))
            z = random_strict_zpmf(rng, s, s)
            table = z.probs.reshape(s, s)
            px, py = table.sum(axis=1), table.sum(axis=0)
            pd = np.array([table[i, i] for i in range(s)])
            bd = np.array([math.log(table[i, i] / (px[i] * py[i])) for i in range(s)])
            expected = (pd * bd * bd).sum() - ((pd * bd).sum()) ** 2
            np.testing.assert_allclose(
                diagonal_mi_variance(z).canonical, expected, atol=1e-13
            )

    def test_requires_square(self):
        z = ZPmf([0.2, 0.4, 0.1, 0.1, 0.1, 0.1], PairShape(2, 3))
        with pytest.raises(ValueError, match="square"):
            diagonal_mi_variance(z)


class TestMarginalVariance:
    def test_demo_table_row_one(self, demo_z):
        pair = marginal_variance(demo_z, "x", 1)
        np.testing.assert_allclose(pair.canonical, 0.24, rtol=1e-14)
        np.testing.assert_allclose(pair.alternate, VX1_ALTERNATE, rtol=1e-13)

    def test_canonical_is_binomial_variance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            z = random_strict_zpmf(rng, rows, cols)
            table = z.probs.reshape(rows, cols)
            i = int(rng.integers(1, rows + 1))
            j = int(rng.integers(1, cols + 1))
            m_x = table[i - 1, :].sum()
            m_y = table[:, j - 1].sum()
            np.testing.assert_allclose(
                marginal_variance(z, "x", i).canonical, m_x * (1 - m_x), atol=1e-13
            )
            np.testing.assert_allclose(
                marginal_variance(z, "y", j).canonical, m_y * (1 - m_y), atol=1e-13
            )

    def test_degenerate_marginal_is_zero(self):
        z = ZPmf([0.5, 0.5], PairShape(1, 2))
        pair = marginal_variance(z, "x", 1)
        assert abs(pair.canonical) <= 1e-15
        assert abs(pair.alternate) <= 1e-15

    def test_validation(self, demo_z):
        with pytest.raises(ValueError, match="i = 3"):
            marginal_variance(demo_z, "x", 3)
        with pytest.raises(ValueError, match="j = 0"):
            marginal_variance(demo_z, "y", 0)
        with pytest.raises(ValueError, match="axis"):
            marginal_variance(demo_z, "z", 1)


class TestMultinomialCovariance:
    def test_single_cell(self):
        cov = multinomial_covariance(ZPmf([1.0], PairShape(1, 1)))
        np.testing.assert_allclose(cov, [[0.0]], atol=1e-15)

    def test_two_cells(self):
        cov = multinomial_covariance(ZPmf([0.5, 0.5], PairShape(1, 2)))
        np.testing.assert_allclose(cov, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_demo_table_structure(self, demo_z):
        cov = multinomial_covariance(demo_z)
        np.testing.assert_allclose(cov.diagonal(), [0.8, 0.6, 0.9, 0.7])
        probs = demo_z.probs
        for k in range(4):
            for kp in range(4):
                if k != kp:
                    np.testing.assert_allclose(
                        cov[k, kp], -math.sqrt(probs[k] * probs[kp])
                    )
        np.testing.assert_allclose(cov, cov.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            z = random_strict_zpmf(rng, rows, cols)
            eigs = np.linalg.eigvalsh(multinomial_covariance(z))
            assert eigs.min() >= -1e-10

    def test_rejects_zero_cells(self):
        z = ZPmf([0.5, 0.5, 0.0, 0.0], PairShape(2, 2))
        with pytest.raises(ValueError, match="strictly positive"):
            multinomial_covariance(z)


class TestRateConstant:
    def test_single_cell(self):
        assert rate_constant(ZPmf([1.0], PairShape(1, 1))) == 1.0

    def test_demo_table(self, demo_z):
        np.testing.assert_allclose(rate_constant(demo_z), A_DEMO, rtol=1e-14)

    def test_uniform_2x2(self):
        z = ZPmf([0.25] * 4, PairShape(2, 2))
        np.testing.assert_allclose(rate_constant(z), A_UNIFORM_2X2, rtol=1e-14)
        np.testing.assert_allclose(rate_constant(z), 4 * abs(1 - math.log(4)))

    def test_rejects_zero_cells(self):
        z = ZPmf([0.5, 0.5, 0.0, 0.0], PairShape(2, 2))
        with pytest.raises(ValueError, match="strictly positive.*k = 3"):
            rate_constant(z)


class TestNormalQuantile:
    def test_frozen_values(self):
        np.testing.assert_allclose(normal_quantile(0.975), Z_975, atol=1e-12)
        np.testing.assert_allclose(normal_quantile(0.84), Z_84, atol=1e-12)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_matches_scipy_within_contract(self):
        grid = np.concatenate(
            [np.linspace(1e-6, 0.02, 40), np.linspace(0.021, 0.979, 200),
             np.linspace(0.98, 1 - 1e-6, 40), [5e-324, 1e-300, 1 - 2**-53]]
        )
        for q in grid:
            assert abs(normal_quantile(float(q)) - scipy.stats.norm.ppf(q)) <= 1e-13

    def test_symmetry(self):
        for q in (0.61, 0.84, 0.975, 0.999):
            np.testing.assert_allclose(
                normal_quantile(q), -normal_quantile(1 - q), atol=1e-12
            )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                normal_quantile(bad)


class TestConfidenceInterval:
    def test_zero_variance_degenerates(self):
        assert confidence_interval(1.5, 0.0, 100, 0.05) == (1.5, 1.5)

    def test_demo_table_mi_half_width(self):
        lo, hi = confidence_interval(MI_DEMO, VMI_CANONICAL, 30000, 0.05)
        half = Z_975 * math.sqrt(VMI_CANONICAL / 30000)
        np.testing.assert_allclose(hi - MI_DEMO, half, rtol=1e-12)
        np.testing.assert_allclose(half, 0.0010063039418694791, rtol=1e-12)
        np.testing.assert_allclose(MI_DEMO - lo, hi - MI_DEMO, rtol=1e-12)

    def test_alpha_032_is_about_one_sigma(self):
        lo, hi = confidence_interval(0.0, 4.0, 400, 0.32)
        np.testing.assert_allclose(hi, Z_84 * 0.1, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            confidence_interval(0.0, 1.0, 10, 1.2)
        with pytest.raises(ValueError, match="variance"):
            confidence_interval(0.0, -1.0, 10, 0.05)
        with pytest.raises(ValueError, match="sample size"):
            confidence_interval(0.0, 1.0, 0, 0.05)


class TestEstimateReport:
    def test_fields_and_interval_invariant(self, demo_emp):
        rep = estimate_report("joint_entropy", demo_emp, alpha=0.05)
        assert rep.measure == "joint_entropy"
        assert rep.n == 10
        np.testing.assert_allclose(rep.estimate, H_DEMO, rtol=1e-13)
        np.testing.assert_allclose(
            rep.std_error, math.sqrt(rep.variance.canonical / 10), rtol=1e-13
        )
        assert rep.ci_lower <= rep.estimate <= rep.ci_upper
        np.testing.assert_allclose(
            rep.ci_upper - rep.ci_lower, 2 * Z_975 * rep.std_error, rtol=1e-12
        )

    def test_mi_clamped_at_zero(self):
        # Exact product counts: raw plug-in MI is 0 up to rounding and the
        # report never goes negative.
        emp = estimate_pmf([1] * 6 + [2] * 14 + [3] * 9 + [4] * 21, PairShape(2, 2))
        rep = estimate_report("mutual_information", emp)
        assert rep.estimate >= 0.0
        assert rep.ci_lower <= rep.estimate <= rep.ci_upper

    def test_unknown_measure(self, demo_emp):
        with pytest.raises(ValueError, match="unknown measure"):
            estimate_report("entropy_rate", demo_emp)


class TestVarianceAgainstSimulation:
    """Empirical Var(sqrt(n) estimate) vs the canonical formula.

    Samples come from numpy's multinomial generator, not the package's
    sampler, so this is an independent check of the variance formulas.
    """

    N = 20000
    REPLICATES = 5000

    def _empirical_variances(self, z, seed):
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(self.N, z.probs, size=self.REPLICATES)
        freqs = counts / self.N
        var_h = self.N * batch_entropies(freqs).var(ddof=1)
        var_mi = self.N * batch_mis(freqs, z.shape.rows, z.shape.cols).var(ddof=1)
        return var_h, var_mi

    def test_demo_table_both_measures(self, demo_z):
        var_h, var_mi = self._empirical_variances(demo_z, seed=2024)
        assert abs(var_h / VH_CANONICAL - 1) <= 0.10
        assert abs(var_mi / VMI_CANONICAL - 1) <= 0.10

    def test_random_strict_pmfs(self):
        rng = np.random.default_rng(99)
        for trial in range(5):
            rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            z = random_strict_zpmf(rng, rows, cols)
            var_h, var_mi = self._empirical_variances(z, seed=1000 + trial)
            assert abs(var_h / entropy_variance(z).canonical - 1) <= 0.10
            assert abs(var_mi / mi_variance(z).canonical - 1) <= 0.10


class TestCoverage:
    def test_ci_covers_truth_at_nominal_rate(self, demo_z):
        """Intervals built from the true canonical variance cover ~95%."""
        n, replicates, alpha = 20000, 5000, 0.05
        rng = np.random.default_rng(555)
        freqs = rng.multinomial(n, demo_z.probs, size=replicates) / n
        z_alpha = normal_quantile(1 - alpha / 2)

        half_h = z_alpha * math.sqrt(VH_CANONICAL / n)
        cover_h = (np.abs(batch_entropies(freqs) - H_DEMO) <= half_h).mean()
        assert abs(cover_h - 0.95) <= 0.02

        half_mi = z_alpha * math.sqrt(VMI_CANONICAL / n)
        cover_mi = (np.abs(batch_mis(freqs, 2, 2) - MI_DEMO) <= half_mi).mean()
        assert abs(cover_mi - 0.95) <= 0.02
