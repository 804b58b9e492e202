"""Tests for seeded sampling and the Monte Carlo studies."""

import tracemalloc

import numpy as np
import pytest

from pairinfo import (
    EmpiricalPmf,
    PairShape,
    RngSpec,
    ZPmf,
    chi_square_quantile,
    convergence_trace,
    estimate_pmf,
    independence_test,
    normality_study,
    rate_constant,
    rejection_rate,
    sample_z,
    variance_check,
)
from pairinfo import montecarlo

# 3 sigma / sqrt(30000) error bounds from the canonical variances of the
# working table, rounded up as stated with the convergence examples.
H_BOUND_30000 = 0.01
MI_BOUND_30000 = 0.002


class TestRngSpec:
    def test_substreams_are_reproducible(self):
        a = RngSpec(123).substream(5).random(8)
        b = RngSpec(123).substream(5).random(8)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ_by_index_and_seed(self):
        base = RngSpec(123).substream(0).random(8)
        assert not np.array_equal(base, RngSpec(123).substream(1).random(8))
        assert not np.array_equal(base, RngSpec(124).substream(0).random(8))

    def test_seed_wraps_to_64_bits(self):
        assert RngSpec(2**64 + 5).master_seed == 5
        assert RngSpec(-1).master_seed == 2**64 - 1

    def test_validation(self):
        with pytest.raises(ValueError, match="integer"):
            RngSpec("abc")
        with pytest.raises(ValueError, match="stream"):
            RngSpec(0).substream(-1)


class TestSampleZ:
    def test_deterministic(self, demo_z):
        rng = RngSpec(42)
        a = sample_z(demo_z, 1000, rng, stream=3)
        b = sample_z(demo_z, 1000, rng, stream=3)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_draws_single_outcome(self):
        z = ZPmf([1.0, 0.0, 0.0, 0.0], PairShape(2, 2))
        draws = sample_z(z, 500, RngSpec(0))
        assert set(draws.tolist()) == {1}

    def test_outcomes_in_range(self, demo_z):
        draws = sample_z(demo_z, 10000, RngSpec(7))
        assert draws.min() >= 1 and draws.max() <= 4

    def test_zero_cells_never_drawn(self):
        z = ZPmf([0.5, 0.0, 0.0, 0.5], PairShape(2, 2))
        draws = sample_z(z, 5000, RngSpec(1))
        assert set(np.unique(draws).tolist()) <= {1, 4}

    def test_sup_norm_convergence_at_large_n(self, demo_z):
        emp = estimate_pmf(sample_z(demo_z, 10**6, RngSpec(42)), demo_z.shape)
        assert np.abs(emp.freqs - demo_z.probs).max() <= 0.002

    def test_rejects_empty_request(self, demo_z):
        with pytest.raises(ValueError, match="at least 1"):
            sample_z(demo_z, 0, RngSpec(0))


class TestCountEngine:
    """Each replicate's counts are one multinomial draw on its own substream."""

    def test_counts_follow_the_multinomial_law(self, demo_z):
        n, replicates, k = 1000, 400, demo_z.shape.size
        empiricals = montecarlo._empiricals(demo_z, [n] * replicates, RngSpec(3))
        counts = np.array([emp.counts for emp in empiricals])
        assert (counts.sum(axis=1) == n).all()

        def pearson(observed, expected):
            return float((((observed - expected) ** 2) / expected).sum())

        # Pooled counts against n R p: chi-square(k - 1).  Summed
        # per-replicate statistics: chi-square(R (k - 1)), where too small a
        # value means replicates vary less than multinomial counts do.
        # Loose bounds: a correct engine falls outside with probability 1e-6.
        pooled = pearson(counts.sum(axis=0), n * replicates * demo_z.probs)
        spread = pearson(counts, n * demo_z.probs)
        df = replicates * (k - 1)
        assert pooled <= chi_square_quantile(1 - 1e-6, k - 1)
        assert chi_square_quantile(1e-6, df) <= spread <= chi_square_quantile(1 - 1e-6, df)

    def test_memory_does_not_grow_with_sample_size(self, demo_z):
        tracemalloc.start()
        try:
            convergence_trace(demo_z, [10**7], "mi", RngSpec(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_accepts_any_valid_pmf_and_never_counts_zero_cells(self, monkeypatch):
        # Sums to 1 + 5e-10, inside ZPmf's 1e-9 tolerance but beyond the
        # 1e-12 that numpy's multinomial allows; the last cell is zero.
        z = ZPmf([0.3, 0.2 + 5e-10, 0.5, 0.0], PairShape(2, 2))
        seen = []

        def recording(counts, shape):
            seen.append(counts.copy())
            return EmpiricalPmf(counts, shape)

        monkeypatch.setattr(montecarlo, "EmpiricalPmf", recording)
        convergence_trace(z, [10, 1000, 10**6], "mi", RngSpec(1))
        normality_study(z, 5000, 100, "entropy", RngSpec(1))
        rejection_rate(z, 5000, 100, 0.05, RngSpec(1))
        variance_check(z, 5000, 100, "mi", RngSpec(1))
        assert len(seen) == 3 + 3 * 100
        assert all(c[3] == 0 for c in seen)


class TestConvergenceTrace:
    def test_fields_align(self, demo_z):
        trace = convergence_trace(demo_z, [100, 200, 400], "entropy", RngSpec(5))
        assert (
            trace.sizes.size
            == trace.estimates.size
            == trace.abs_errors.size
            == trace.a_zn.size
            == trace.ratio.size
        )
        np.testing.assert_array_equal(trace.sizes, [100, 200, 400])
        np.testing.assert_allclose(
            trace.abs_errors, np.abs(trace.estimates - trace.true_value)
        )

    def test_final_errors_within_clt_bounds(self, demo_z):
        sizes = range(100, 30001, 100)
        tr_h = convergence_trace(demo_z, sizes, "entropy", RngSpec(42))
        tr_mi = convergence_trace(demo_z, sizes, "mi", RngSpec(42))
        assert tr_h.abs_errors[-1] <= H_BOUND_30000
        assert tr_mi.abs_errors[-1] <= MI_BOUND_30000

    def test_ratio_diagnostic_bounded_by_rate_constant(self, demo_z):
        trace = convergence_trace(
            demo_z, range(100, 30001, 100), "entropy", RngSpec(0)
        )
        assert trace.ratio[-1] <= rate_constant(demo_z) * 1.25

    def test_degenerate_pmf_estimates_exactly(self):
        z = ZPmf([1.0, 0.0, 0.0, 0.0], PairShape(2, 2))
        trace = convergence_trace(z, [10, 20], "entropy", RngSpec(3))
        np.testing.assert_array_equal(trace.estimates, [0.0, 0.0])
        np.testing.assert_array_equal(trace.abs_errors, [0.0, 0.0])
        assert np.isnan(trace.ratio).all()  # a_zn = 0 leaves no ratio

    def test_validation(self, demo_z):
        with pytest.raises(ValueError, match="increasing"):
            convergence_trace(demo_z, [100, 100], "mi", RngSpec(0))
        with pytest.raises(ValueError, match=">= 1"):
            convergence_trace(demo_z, [0, 10], "mi", RngSpec(0))
        with pytest.raises(ValueError, match="nonempty"):
            convergence_trace(demo_z, [], "mi", RngSpec(0))
        with pytest.raises(ValueError, match="unknown measure"):
            convergence_trace(demo_z, [10], "kl", RngSpec(0))


class TestNormalityStudy:
    def test_structure(self, demo_z):
        study = normality_study(demo_z, 2000, 200, "entropy", RngSpec(11))
        assert study.t_values.size == 200
        assert study.bin_edges.size == 41
        assert study.bin_edges[0] == -4.0 and study.bin_edges[-1] == 4.0
        assert study.bin_counts.sum() == 200  # outliers clamp into edge bins
        assert np.all(np.diff(study.qq_theoretical) > 0)
        assert np.all(np.diff(study.qq_sample) >= 0)
        np.testing.assert_array_equal(study.qq_sample, np.sort(study.t_values))

    def test_standardized_moments_near_normal(self, demo_z):
        study = normality_study(demo_z, 5000, 500, "mi", RngSpec(42))
        assert abs(study.mean) <= 0.2
        assert abs(study.variance - 1) <= 0.25
        assert study.ks_distance <= 0.08

    def test_preconditions(self, demo_z):
        with pytest.raises(ValueError, match="n >= 1000"):
            normality_study(demo_z, 500, 200, "mi", RngSpec(0))
        with pytest.raises(ValueError, match="100 replicates"):
            normality_study(demo_z, 2000, 50, "mi", RngSpec(0))

    def test_uniform_entropy_is_degenerate(self):
        z = ZPmf([0.25] * 4, PairShape(2, 2))
        with pytest.raises(ValueError, match="degenerate CLT"):
            normality_study(z, 2000, 200, "entropy", RngSpec(0))


class TestRejectionRate:
    def test_power_approaches_one(self, demo_z):
        rate = rejection_rate(demo_z, 30000, 100, 0.05, RngSpec(42))
        assert rate >= 0.99

    def test_degenerate_alphabet_propagates(self):
        z = ZPmf([0.4, 0.6], PairShape(1, 2))
        with pytest.raises(ValueError, match="degenerate alphabet"):
            rejection_rate(z, 1000, 10, 0.05, RngSpec(0))

    def test_validation(self, demo_z):
        with pytest.raises(ValueError, match="replicates"):
            rejection_rate(demo_z, 1000, 0, 0.05, RngSpec(0))

    @pytest.mark.parametrize(
        "probs, shape, alpha, message",
        [
            ([0.1, 0.2, 0.3, 0.4], PairShape(2, 2), 0.0, "alpha"),
            ([0.1, 0.2, 0.3, 0.4], PairShape(2, 2), 1.5, "alpha"),
            ([0.1, 0.2, 0.3, 0.4], PairShape(2, 2), float("nan"), "alpha"),
            ([0.4, 0.6], PairShape(1, 2), 0.05, "degenerate alphabet"),
            ([0.4, 0.6], PairShape(2, 1), 0.05, "degenerate alphabet"),
        ],
    )
    def test_fails_before_drawing(self, monkeypatch, probs, shape, alpha, message):
        calls = []
        substream = RngSpec.substream

        def counting(self, stream):
            calls.append(stream)
            return substream(self, stream)

        monkeypatch.setattr(RngSpec, "substream", counting)
        with pytest.raises(ValueError, match=message):
            rejection_rate(ZPmf(probs, shape), 1000, 10, alpha, RngSpec(0))
        assert calls == []

    def test_matches_per_replicate_independence_tests(self):
        # Near a product table at a high level both outcomes occur often.
        z = ZPmf([0.24, 0.26, 0.26, 0.24], PairShape(2, 2))
        n, replicates, alpha = 500, 200, 0.3
        reference = sum(
            independence_test(emp, alpha).reject
            for emp in montecarlo._empiricals(z, [n] * replicates, RngSpec(8))
        )
        rate = rejection_rate(z, n, replicates, alpha, RngSpec(8))
        assert 0 < reference < replicates
        assert rate == reference / replicates


class TestVarianceCheck:
    def test_reports_three_numbers(self, demo_z):
        check = variance_check(demo_z, 5000, 400, "entropy", RngSpec(42))
        assert check.canonical == pytest.approx(0.18092168665391796, rel=1e-12)
        assert check.alternate == pytest.approx(0.21168486402361457, rel=1e-12)
        assert abs(check.empirical / check.canonical - 1) <= 0.25

    def test_validation(self, demo_z):
        with pytest.raises(ValueError, match="replicates"):
            variance_check(demo_z, 5000, 1, "entropy", RngSpec(0))


class TestReplicateKeying:
    """Replicate i draws only from substream (seed, i), so a larger study
    extends a smaller one, whatever the drawing method."""

    def test_normality_study_extends_smaller_study(self, demo_z):
        large = normality_study(demo_z, 2000, 300, "mi", RngSpec(9))
        small = normality_study(demo_z, 2000, 200, "mi", RngSpec(9))
        np.testing.assert_array_equal(large.t_values[:200], small.t_values)

    def test_convergence_trace_extends_shorter_grid(self, demo_z):
        long = convergence_trace(demo_z, range(100, 1001, 100), "entropy", RngSpec(4))
        short = convergence_trace(demo_z, range(100, 501, 100), "entropy", RngSpec(4))
        for column in ("sizes", "estimates", "abs_errors", "a_zn", "ratio"):
            np.testing.assert_array_equal(
                getattr(long, column)[:5], getattr(short, column)
            )
