"""Tests for the delta-method variances, rate constant, and intervals.

Fixed expected values were frozen from a 40-digit mpmath evaluation of the
closed forms.  Monte Carlo cross-checks sample with numpy's own multinomial
generator, independent of the package's sampling path, and compare the
empirical variance of the sqrt(n)-scaled estimator against the delta-method
formula.
"""

import math
import re

import numpy as np
import pytest
import scipy.stats

from pairinfo import (
    EmpiricalPmf,
    JointPmf,
    PairShape,
    RngSpec,
    ZPmf,
    confidence_interval,
    entropy_variance,
    estimate_pmf,
    estimate_report,
    joint_entropy,
    mi_variance,
    mutual_information,
    normal_quantile,
    rate_constant,
    z_view,
)
from pairinfo.asymptotics import _interval_rows, _level, _variance_rows
from pairinfo.measures import _floored_log, _pointwise_mi, entropy_rows, mutual_information_rows
from conftest import DEMO_TABLE
import test_measures

H_DEMO = 1.2798542258336675
MI_DEMO = 0.0040217432304824318
VH_DEMO = 0.18092168665391796
VMI_DEMO = 0.0079083051831783534
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
        variance = entropy_variance(demo_z)
        assert type(variance) is float
        np.testing.assert_allclose(variance, VH_DEMO, rtol=1e-13)

    def test_canonical_closed_form(self):
        """variance = sum p (log p)^2 - H^2 on random distributions."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
            z = ZPmf(probs, PairShape(1, probs.size), renormalize=True)
            h = -(probs * np.log(probs)).sum()
            expected = (probs * np.log(probs) ** 2).sum() - h**2
            np.testing.assert_allclose(entropy_variance(z), expected, atol=1e-12)

    def test_uniform_is_zero(self):
        """Exactly 0, never a rounding residue such as -4.4e-16, on every
        uniform table up to 10x10, true or empirical; so is the MI variance."""
        for rows in range(1, 11):
            for cols in range(1, 11):
                shape, size = PairShape(rows, cols), rows * cols
                for p in (ZPmf(np.full(size, 1.0 / size), shape),
                          EmpiricalPmf(np.full(size, 3), shape)):
                    assert entropy_variance(p) == 0.0, (p, entropy_variance(p))
                    assert mi_variance(p) == 0.0, (p, mi_variance(p))

    def test_degenerate_is_zero(self):
        z = ZPmf([1.0, 0.0, 0.0, 0.0], PairShape(2, 2))
        assert entropy_variance(z) == 0.0

    def test_uniform_on_a_support_after_an_empty_cell_is_zero(self):
        """The terms are shifted by the first support cell's, not by the
        floored term of an empty cell ahead of it."""
        for size in range(2, 101):
            emp = EmpiricalPmf(np.r_[0, np.full(size - 1, 3)], PairShape(1, size))
            assert entropy_variance(emp) == 0.0, size

    def test_zero_cells_contribute_nothing(self):
        """Zero cells drop out; no error is raised."""
        dense = ZPmf([0.2, 0.4, 0.1, 0.3], PairShape(2, 2))
        padded = ZPmf([0.2, 0.4, 0.0, 0.1, 0.3, 0.0], PairShape(2, 3))
        np.testing.assert_allclose(
            entropy_variance(padded), entropy_variance(dense), rtol=1e-14
        )


class TestMiVariance:
    def test_demo_table_frozen_values(self, demo_z):
        variance = mi_variance(demo_z)
        assert type(variance) is float
        np.testing.assert_allclose(variance, VMI_DEMO, rtol=1e-13)

    def test_product_is_zero(self):
        z = z_view(JointPmf(np.outer([0.3, 0.7], [0.4, 0.6])))
        assert 0.0 <= mi_variance(z) <= 1e-12

    def test_canonical_closed_form_and_centering(self):
        """variance = sum p B^2 - MI^2, with sum p B = MI exactly."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            z = random_strict_zpmf(rng, rows, cols)
            table = z.probs.reshape(rows, cols)
            b = np.log(table / np.outer(table.sum(axis=1), table.sum(axis=0)))
            mi = mutual_information(z)
            np.testing.assert_allclose((table * b).sum(), mi, atol=1e-12)
            np.testing.assert_allclose(
                mi_variance(z), (table * b * b).sum() - mi**2, atol=1e-12
            )


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
        lo, hi = confidence_interval(MI_DEMO, VMI_DEMO, 30000, 0.05)
        half = Z_975 * math.sqrt(VMI_DEMO / 30000)
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

    @pytest.mark.parametrize(
        "estimate, variance, n, message",
        [(math.nan, 0.1, 10, "estimate must be finite, got nan"),
         (0.5, math.nan, 10, "variance must be nonnegative, got nan"),
         (0.5, 1.0, math.nan, "sample size must be at least 1, got nan")],
        ids=["estimate", "variance", "n"],
    )
    def test_rejects_nan(self, estimate, variance, n, message):
        """A NaN estimate gave the interval (nan, nan)."""
        with pytest.raises(ValueError, match=message):
            confidence_interval(estimate, variance, n, 0.05)

    def test_alpha_too_small_to_use(self):
        """Below 2**-53, 1 - alpha/2 rounds to 1; just above it the interval
        is finite."""
        with pytest.raises(ValueError, match=r"^alpha must exceed 2\*\*-53, .* got 1e-17$"):
            confidence_interval(0.0, 1.0, 10, 1e-17)
        with pytest.raises(ValueError, match="alpha must exceed"):
            confidence_interval(0.0, 1.0, 10, 2.0**-53)
        lo, hi = confidence_interval(0.0, 1.0, 10, float(np.nextafter(2.0**-53, 1.0)))
        assert math.isfinite(hi) and lo == -hi

    def test_alpha_is_checked_before_variance_and_n(self):
        with pytest.raises(ValueError, match="^alpha must exceed 2"):
            confidence_interval(0.0, -1.0, 0, 1e-17)

    @pytest.mark.parametrize("n", [math.inf, 1e300, 2.5], ids=["inf", "1e300", "2.5"])
    def test_rejects_a_sample_size_that_is_not_an_integer(self, n):
        """An infinite or huge float n gave the zero-width interval (0.5, 0.5)."""
        with pytest.raises(ValueError, match=re.escape(f"sample size must be an integer, got {n!r}")):
            confidence_interval(0.5, 0.1, n, 0.05)

    def test_takes_a_numpy_integer_sample_size(self):
        expected = confidence_interval(0.5, 0.1, 100, 0.05)
        assert confidence_interval(0.5, 0.1, np.int64(100), 0.05) == expected
        assert expected[0] < 0.5 < expected[1]


class TestRowKernels:
    """Each row of a block gets the variance and the interval that the
    scalar functions give its table alone, bit for bit."""

    @staticmethod
    def block():
        rng = np.random.default_rng(21)
        dense = rng.dirichlet(np.ones(9), size=4)
        sparse = rng.dirichlet(np.full(9, 0.5), size=6)
        sparse[rng.random(sparse.shape) < 0.4] = 0.0
        sparse[:, 8] += sparse.sum(axis=1) == 0  # no empty row
        empty_row_and_column = dense[0].reshape(3, 3).copy()
        empty_row_and_column[1, :] = empty_row_and_column[:, 2] = 0.0
        point_mass = np.eye(1, 9, 4)
        floors = [t.ravel() for t in test_measures.TestVarianceFloors.floor_tables()]
        rows = np.vstack([dense, sparse, empty_row_and_column.ravel(), point_mass, *floors])
        return rows / rows.sum(axis=1)[:, None]

    def test_rows_equal_scalar_calls_bit_for_bit(self):
        freqs, shape, n, alpha = self.block(), PairShape(3, 3), 37, 0.05
        mi_terms = _pointwise_mi(freqs.reshape(-1, 3, 3)).reshape(freqs.shape)
        for variance, estimates, terms in [
            (entropy_variance, entropy_rows(freqs), _floored_log(freqs)),
            (mi_variance, mutual_information_rows(freqs, shape), mi_terms),
        ]:
            variances = _variance_rows(freqs, terms)
            lo, hi = _interval_rows(estimates, np.sqrt(variances / n), _level(alpha, 2))
            for i, row in enumerate(freqs):
                assert variances[i] == variance(ZPmf(row, shape))
                assert (lo[i], hi[i]) == confidence_interval(estimates[i], variances[i], n, alpha)
        assert variances[-1] > 0 and variances[-4] == 0.0  # the floors count; a point mass does not


class TestEstimateReport:
    def test_fields_and_interval_invariant(self, demo_emp):
        rep = estimate_report("joint_entropy", demo_emp, alpha=0.05)
        assert rep.measure == "joint_entropy"
        assert rep.n == 10
        np.testing.assert_allclose(rep.estimate, H_DEMO, rtol=1e-13)
        np.testing.assert_allclose(
            rep.std_error, math.sqrt(rep.variance / 10), rtol=1e-13
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
    """Empirical Var(sqrt(n) estimate) vs the delta-method formula.

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
        assert abs(var_h / VH_DEMO - 1) <= 0.10
        assert abs(var_mi / VMI_DEMO - 1) <= 0.10

    def test_random_strict_pmfs(self):
        rng = np.random.default_rng(99)
        for trial in range(5):
            rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            z = random_strict_zpmf(rng, rows, cols)
            var_h, var_mi = self._empirical_variances(z, seed=1000 + trial)
            assert abs(var_h / entropy_variance(z) - 1) <= 0.10
            assert abs(var_mi / mi_variance(z) - 1) <= 0.10


class TestCoverage:
    def test_ci_covers_truth_at_nominal_rate(self, demo_z):
        """Intervals built from the true delta-method variance cover ~95%."""
        n, replicates, alpha = 20000, 5000, 0.05
        rng = np.random.default_rng(555)
        freqs = rng.multinomial(n, demo_z.probs, size=replicates) / n
        z_alpha = normal_quantile(1 - alpha / 2)

        half_h = z_alpha * math.sqrt(VH_DEMO / n)
        cover_h = (np.abs(batch_entropies(freqs) - H_DEMO) <= half_h).mean()
        assert abs(cover_h - 0.95) <= 0.02

        half_mi = z_alpha * math.sqrt(VMI_DEMO / n)
        cover_mi = (np.abs(batch_mis(freqs, 2, 2) - MI_DEMO) <= half_mi).mean()
        assert abs(cover_mi - 0.95) <= 0.02

    def test_report_interval_covers_truth_at_pinned_rate(self):
        """``estimate_report``'s own interval, from the estimated variance,
        on a 2x2 table at n = 200; replicate i draws from substream i of
        seed 9.  The rates were 0.941 (H) and 0.938 (MI) when pinned."""
        z = ZPmf([0.3, 0.1, 0.15, 0.45], PairShape(2, 2))
        truths = {"joint_entropy": joint_entropy(z), "mutual_information": mutual_information(z)}
        covered = dict.fromkeys(truths, 0)
        replicates = 1000
        for i in range(replicates):
            emp = EmpiricalPmf(RngSpec(9).substream(i).multinomial(200, z.probs), z.shape)
            for measure, truth in truths.items():
                report = estimate_report(measure, emp)
                covered[measure] += report.ci_lower <= truth <= report.ci_upper
        for measure, hits in covered.items():
            assert 0.92 <= hits / replicates <= 0.97, (measure, hits)
