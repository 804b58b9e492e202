"""Tests for the plug-in information measures.

Fixed expected values were frozen from a 40-digit mpmath evaluation of the
defining formulas; random-distribution properties are cross-checked against
scipy.stats.entropy and scipy.special.rel_entr as independent oracles.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from pairinfo import (
    EmpiricalPmf,
    JointPmf,
    PairShape,
    ZPmf,
    entropy,
    entropy_variance,
    joint_entropy,
    kl_divergence,
    marginal_x,
    marginal_y,
    mi_variance,
    mutual_information,
    z_view,
)
from pairinfo.measures import entropy_rows, mutual_information_rows

# Frozen oracle values for the working 2x2 table (0.2, 0.4, 0.1, 0.3).
H_DEMO = 1.2798542258336675
MI_DEMO = 0.0040217432304824318


def random_zpmf(rng, rows, cols, zeros=False):
    probs = rng.dirichlet(np.ones(rows * cols))
    if zeros and rows * cols > 2:
        kill = rng.integers(0, rows * cols, size=rng.integers(1, 3))
        probs[kill] = 0.0
        probs = probs / probs.sum()
    return ZPmf(probs, PairShape(rows, cols), renormalize=True)


class TestEntropy:
    def test_uniform_is_log_size(self):
        for k in (2, 3, 7, 16):
            np.testing.assert_allclose(entropy(np.full(k, 1.0 / k)), math.log(k))

    def test_degenerate_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        # A positive zero, which reports print as 0.0, not -0.0.
        assert math.copysign(1.0, entropy([1.0, 0.0, 0.0])) == 1.0

    def test_matches_scipy_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
            np.testing.assert_allclose(
                entropy(probs), scipy.stats.entropy(probs), rtol=1e-12
            )

    @pytest.mark.parametrize(
        "probs, match",
        [
            ([0.5, -0.5, 1.0], "negative"),
            ([0.5, 0.5, math.nan], "non-finite"),
            ([0.5, math.inf], "non-finite"),
            ([], "empty"),
            ([2.0], r"sums to 2\.0, outside 1 \+/- 1e-09"),
            ([0.3, 0.3], r"sums to 0\.6, outside 1 \+/- 1e-09"),
        ],
        ids=["negative", "nan", "inf", "empty", "sum-above-1", "sum-below-1"],
    )
    def test_rejects_bad_entries(self, probs, match):
        with pytest.raises(ValueError, match=match):
            entropy(probs)


class TestJointEntropy:
    def test_demo_table_value(self, demo_z):
        np.testing.assert_allclose(joint_entropy(demo_z), H_DEMO, rtol=1e-14)

    def test_same_for_joint_and_flattened(self):
        """Flattening is a bijection on outcomes, so entropy is unchanged."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = random_zpmf(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            np.testing.assert_allclose(
                joint_entropy(z), entropy(z.probs), rtol=1e-14
            )

    def test_empirical_input(self, demo_emp):
        np.testing.assert_allclose(joint_entropy(demo_emp), H_DEMO, rtol=1e-14)


class TestMutualInformation:
    def test_demo_table_value(self, demo_z):
        np.testing.assert_allclose(mutual_information(demo_z), MI_DEMO, rtol=1e-12)

    def test_zero_for_product(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.4, 0.1, 0.5])
        z = z_view(JointPmf(np.outer(px, py)))
        assert abs(mutual_information(z)) <= 1e-15

    def test_identity_with_entropies(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = random_zpmf(
                rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)), zeros=True
            )
            np.testing.assert_allclose(
                mutual_information(z),
                entropy(marginal_x(z)) + entropy(marginal_y(z)) - joint_entropy(z),
                atol=1e-12,
            )

    def test_nonnegative_up_to_rounding(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = random_zpmf(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
            assert mutual_information(z) >= -1e-12

    def test_underflowing_marginal_product(self):
        """p_3 * p_3 = 1e-400 underflows to 0 while the cell itself is positive."""
        z = ZPmf(np.diag([0.5, 0.5, 1e-200]).ravel(), PairShape(3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mi = mutual_information(z)
            variance = mi_variance(z)
        np.testing.assert_allclose(mi, math.log(2.0), rtol=1e-15)
        assert math.isfinite(variance)

    def test_symmetric_in_the_coordinates(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            table = rng.dirichlet(np.ones(12)).reshape(3, 4)
            mi = mutual_information(z_view(JointPmf(table)))
            mi_t = mutual_information(z_view(JointPmf(table.T.copy())))
            np.testing.assert_allclose(mi, mi_t, atol=1e-13)


def masked_entropy(probs):
    """Reference: the sum over positive cells only."""
    pos = probs[probs > 0]
    return 0.0 - float((pos * np.log(pos)).sum())


def masked_mutual_information(table):
    """Reference: the sum over positive cells only, by boolean gathers."""
    denom = np.outer(table.sum(axis=1), table.sum(axis=0))
    mask = table > 0
    return float((table[mask] * np.log(table[mask] / denom[mask])).sum())


class TestMaskFreeKernels:
    """The floored kernels against the masked formulas they replace."""

    def assert_matches_reference(self, p):
        probs = p.probs if isinstance(p, ZPmf) else p.freqs
        table = probs.reshape(p.shape.rows, p.shape.cols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (joint_entropy(p), mutual_information(p))
            want = (masked_entropy(probs), masked_mutual_information(table))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_random_tables_with_zero_cells_rows_and_columns(self):
        rng = np.random.default_rng(31)
        for i in range(200):
            rows, cols = int(rng.integers(2, 13)), int(rng.integers(2, 13))
            table = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
            table[rng.random((rows, cols)) < 0.3] = 0.0
            if i % 3 == 0:
                table[rng.integers(rows), :] = 0.0
            if i % 4 == 0:
                table[:, rng.integers(cols)] = 0.0
            if i % 10 == 0 or table.sum() == 0:
                table[:] = 0.0
                table[rng.integers(rows), rng.integers(cols)] = 1.0
            p = ZPmf(table.ravel(), PairShape(rows, cols), renormalize=True)
            if i % 2 == 1:
                counts = rng.multinomial(int(rng.integers(1, 5000)), p.probs)
                p = EmpiricalPmf(counts, p.shape)
            self.assert_matches_reference(p)

    def test_wide_empirical_table(self):
        rng = np.random.default_rng(20000)
        counts = rng.multinomial(20000, rng.dirichlet(np.ones(10**4)))
        self.assert_matches_reference(EmpiricalPmf(counts, PairShape(100, 100)))

    def test_subnormal_cells(self):
        table = np.diag([0.25, 0.25, 0.5])
        table[0, 1], table[1, 2], table[2, 0] = 5e-324, 1e-310, 3e-309
        self.assert_matches_reference(ZPmf(table.ravel(), PairShape(3, 3)))


def centered_variance(probs, weights):
    """Reference: the support's ``sum p (d - sum p d)^2`` with ``d = c - c[0]``."""
    support = probs > 0
    p, d = probs[support], weights[support] - weights[support][0]
    return float((p * (d - (p * d).sum()) ** 2).sum())


class TestVarianceFloors:
    """Each variance floors its per-cell weights as the measure's kernel
    floors its terms, pinned bit for bit on the kernels' floor tables.  On
    the last table the whole entropy variance is the floored cell's term."""

    @staticmethod
    def floor_tables():
        subnormal = np.diag([0.25, 0.25, 0.5])
        subnormal[0, 1], subnormal[1, 2], subnormal[2, 0] = 5e-324, 1e-310, 3e-309
        point_mass = np.diag([1.0, 0.0, 0.0])
        point_mass[0, 1] = 5e-324
        return [subnormal, np.diag([0.5, 0.5, 1e-200]), point_mass]

    @pytest.mark.parametrize(
        "which", [0, 1, 2], ids=["subnormal_cells", "underflowing_product", "point_mass"]
    )
    def test_variances_equal_floored_reference(self, which):
        table = self.floor_tables()[which]
        tiny = np.finfo(float).tiny
        probs = table.ravel()
        denom = np.outer(table.sum(axis=1), table.sum(axis=0))
        pmi = np.log(np.maximum(table / np.maximum(denom, tiny), tiny)).ravel()
        z = ZPmf(probs, PairShape(3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (entropy_variance(z), mi_variance(z))
            want = (
                centered_variance(probs, np.log(np.maximum(probs, tiny))),
                centered_variance(probs, pmi),
            )
        assert got == want
        assert all(math.isfinite(v) and v > 0 for v in got)


def unbatched_mutual_information(table):
    """Reference: the floored formula on one 2-D table, as it was before
    the batch kernels."""
    tiny = np.finfo(float).tiny
    denom = np.outer(table.sum(axis=1), table.sum(axis=0))
    ratio = table / np.maximum(denom, tiny)
    return float((table * np.log(np.maximum(ratio, tiny))).sum())


class TestBatchKernels:
    """Each row of a block gets exactly the value its table gets alone."""

    @staticmethod
    def block(rng, rows, cols, m):
        counts = np.array([
            rng.multinomial(int(rng.integers(1, 10**6)), rng.dirichlet(np.ones(rows * cols)))
            for _ in range(m)
        ])
        counts[rng.random(counts.shape) < 0.2] = 0
        counts[:, 0] += counts.sum(axis=1) == 0  # no empty sample
        return counts / counts.sum(axis=1)[:, None]

    @pytest.mark.parametrize(
        "rows, cols, m", [(2, 2, 1), (2, 2, 4096), (1, 5, 3), (7, 3, 50), (10, 10, 163), (100, 100, 2)]
    )
    def test_rows_equal_scalar_calls_bit_for_bit(self, rows, cols, m):
        rng = np.random.default_rng(rows * 1000 + cols + m)
        freqs = self.block(rng, rows, cols, m)
        shape = PairShape(rows, cols)
        h = entropy_rows(freqs)
        mi = mutual_information_rows(freqs, shape)
        assert h.shape == mi.shape == (m,)
        for i, row in enumerate(freqs):
            p = ZPmf(row, shape)
            assert h[i] == joint_entropy(p) == entropy(row)
            assert mi[i] == mutual_information(p)
            assert mi[i] == unbatched_mutual_information(row.reshape(rows, cols))

    def test_point_mass_rows_get_positive_zero(self):
        freqs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        h = entropy_rows(freqs)
        mi = mutual_information_rows(freqs, PairShape(2, 2))
        assert not np.signbit(h).any() and (h == 0.0).all()
        np.testing.assert_array_equal(mi, [0.0, 0.0])


class TestKlDivergence:
    def test_zero_when_equal(self, demo_z):
        assert kl_divergence(demo_z, demo_z) == 0.0

    def test_mi_is_kl_to_product(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            z = random_zpmf(rng, rows, cols, zeros=True)
            table = z.probs.reshape(rows, cols)
            product = z_view(
                JointPmf(np.outer(table.sum(axis=1), table.sum(axis=0)),
                         renormalize=True)
            )
            np.testing.assert_allclose(
                mutual_information(z), kl_divergence(z, product), atol=1e-12
            )

    def test_matches_scipy_rel_entr(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            shape = PairShape(2, 3)
            p = ZPmf(rng.dirichlet(np.ones(6)), shape, renormalize=True)
            q = ZPmf(rng.dirichlet(np.ones(6)), shape, renormalize=True)
            np.testing.assert_allclose(
                kl_divergence(p, q),
                scipy.special.rel_entr(p.probs, q.probs).sum(),
                rtol=1e-10,
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_q(self):
        """p / q overflows for a subnormal q, but the divergence is finite."""
        shape = PairShape(1, 2)
        p, q = ZPmf([0.5, 0.5], shape), ZPmf([1 - 5e-324, 5e-324], shape)
        expected = scipy.special.rel_entr(p.probs, q.probs).sum()
        assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-12)

    def test_support_violation(self):
        shape = PairShape(2, 2)
        p = ZPmf([0.5, 0.5, 0.0, 0.0], shape)
        q = ZPmf([0.5, 0.0, 0.5, 0.0], shape)
        with pytest.raises(ValueError, match="q vanishes.*k = 2"):
            kl_divergence(p, q)

    def test_shape_mismatch(self):
        p = ZPmf([0.5, 0.5], PairShape(1, 2))
        q = ZPmf([0.5, 0.5], PairShape(2, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            kl_divergence(p, q)

    def test_empirical_inputs(self):
        emp = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        truth = ZPmf([0.25, 0.25, 0.25, 0.25], PairShape(2, 2))
        expected = sum(f * math.log(f / 0.25) for f in (0.2, 0.4, 0.1, 0.3))
        np.testing.assert_allclose(kl_divergence(emp, truth), expected, rtol=1e-13)
