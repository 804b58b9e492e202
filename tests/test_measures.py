"""Tests for the plug-in information measures.

Fixed expected values were frozen from a 40-digit mpmath evaluation of the
defining formulas; random-distribution properties are cross-checked against
scipy.stats.entropy and scipy.special.rel_entr as independent oracles.
"""

import math

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
    joint_entropy,
    kl_divergence,
    marginal_x,
    marginal_y,
    mutual_information,
    z_view,
)

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

    def test_symmetric_in_the_coordinates(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            table = rng.dirichlet(np.ones(12)).reshape(3, 4)
            mi = mutual_information(z_view(JointPmf(table)))
            mi_t = mutual_information(z_view(JointPmf(table.T.copy())))
            np.testing.assert_allclose(mi, mi_t, atol=1e-13)


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
