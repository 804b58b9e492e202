"""Tests for seeded sampling and the Monte Carlo studies."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from pairinfo import (
    EmpiricalPmf,
    JointPmf,
    PairShape,
    RngSpec,
    ZPmf,
    chi_square_quantile,
    convergence_trace,
    entropy_variance,
    estimate_pmf,
    independence_test,
    joint_entropy,
    mi_variance,
    mutual_information,
    normal_quantile,
    normality_study,
    rate_constant,
    rejection_rate,
    sample_z,
    variance_check,
    z_view,
)
from pairinfo import montecarlo
from pairinfo.inference import lrt_statistic, lrt_threshold

# 3 sigma / sqrt(30000) error bounds from the delta-method variances of the
# working table, rounded up as stated with the convergence examples.
H_BOUND_30000 = 0.01
MI_BOUND_30000 = 0.002


def _wide_counts(seed: int) -> np.ndarray:
    """The benchmark's mc_wide table at ``seed``: 10^6 draws from a flat
    Dirichlet 100x100 p.m.f., drawn as ``perfbench/inputs.py`` draws it."""
    rng = np.random.default_rng([seed, 2])
    return rng.multinomial(10**6, rng.dirichlet(np.ones(10**4)))


def _joined(*args):
    """The stream of ``montecarlo._replicates(*args)`` joined along its last axis."""
    return np.concatenate([*montecarlo._replicates(*args)], axis=-1)


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
        assert RngSpec(np.int64(-1)).master_seed == 2**64 - 1

    def test_validation(self):
        with pytest.raises(ValueError, match="integer"):
            RngSpec("abc")
        with pytest.raises(ValueError, match="integer"):
            RngSpec(True)
        with pytest.raises(ValueError, match="stream"):
            RngSpec(0).substream(-1)

    def test_numpy_stream_index_is_that_stream(self):
        expected = RngSpec(0).substream(3).random(4)
        np.testing.assert_array_equal(RngSpec(0).substream(np.int64(3)).random(4), expected)
        np.testing.assert_array_equal(RngSpec(0).substream(np.uint64(3)).random(4), expected)

    @pytest.mark.parametrize("stream", [2.5, "3", True], ids=["float", "str", "bool"])
    def test_rejects_non_integer_stream_index(self, stream):
        with pytest.raises(ValueError, match="stream index must be an integer"):
            RngSpec(0).substream(stream)

    def test_rejects_stream_index_beyond_64_bits(self, demo_z):
        RngSpec(0).substream(2**64 - 1)
        message = f"^stream index must be at most {2**64 - 1}, got {2**64}$"
        with pytest.raises(ValueError, match=message):
            RngSpec(0).substream(2**64)
        with pytest.raises(ValueError, match="stream index"):
            sample_z(demo_z, 10, RngSpec(0), stream=2**64)


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

    @pytest.mark.parametrize("n", ["5", 2.5, True])
    def test_rejects_non_integer_size(self, demo_z, n):
        with pytest.raises(ValueError, match="sample size must be an integer"):
            sample_z(demo_z, n, RngSpec(0))


class TestCountEngine:
    """Each replicate's counts are one multinomial draw on its own substream."""

    def test_counts_follow_the_multinomial_law(self, demo_z):
        n, replicates, k = 1000, 400, demo_z.shape.size
        freqs = _joined(demo_z, [n] * replicates, RngSpec(3), np.transpose).T
        counts = np.rint(freqs * n).astype(np.int64)
        assert counts.shape == (replicates, k)
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

    @pytest.mark.parametrize("k", [2, 3, 40, 300, 3000])
    @pytest.mark.parametrize("n", [1, 7, 1000, 10**6])
    def test_zero_weights_use_no_randomness(self, k, n):
        """numpy's multinomial gives a zero weight 0 without drawing: with
        zero cells before and inside the support, the counts on the
        support, and the generator's state after the draw, are those of a
        draw over the support alone."""
        rng = np.random.default_rng([k, n])
        probs = rng.dirichlet(np.ones(k))
        probs[rng.random(k) < 0.3] = 0.0
        probs[0], probs[-1] = 0.0, max(probs[-1], 0.1)
        support = np.flatnonzero(probs)
        total = probs[support].sum()
        full, bare = RngSpec(n).substream(k), RngSpec(n).substream(k)
        counts = full.multinomial(n, probs / total)
        np.testing.assert_array_equal(counts[support], bare.multinomial(n, probs[support] / total))
        assert counts.sum() == n
        assert full.bit_generator.state == bare.bit_generator.state

    def test_replicates_hold_no_size_each(self):
        """A study of many replicates of one size keeps no list or array of
        that size per replicate: 200,000 replicates peaked at 4.89 MB when
        a list of sizes and its int64 copy held 3.2 MB."""
        emp = EmpiricalPmf([2, 4, 1, 3], PairShape(2, 2))
        rejection_rate(emp, 1000, 100, 0.05, RngSpec(0))  # warm-up: imports, caches
        tracemalloc.start()
        try:
            rejection_rate(emp, 1000, 200_000, 0.05, RngSpec(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_tables_hold_no_block_each(self, monkeypatch, threads):
        """On a wide table a block is one replicate, so anything kept per
        block grows with R.  A list of the blocks peaked at 22.6 MB for
        50,000 replicates of stubbed draws; a list of their results at 8.2
        MB, and 32.2 MB for 200,000 on 1 or 2 threads.  Counted as they
        come, 200,000 peak at 0.16 MB on 1 thread and 0.43 MB on 2."""
        z = ZPmf(np.full(10**4, 1e-4), PairShape(100, 100))
        monkeypatch.setattr(montecarlo, "_cpus", lambda: threads)
        monkeypatch.setattr(montecarlo, "_drawn_block", lambda *args: np.zeros(args[-1].size))
        rejection_rate(z, 10, 100, 0.05, RngSpec(0))  # warm-up: imports, caches
        tracemalloc.start()
        try:
            assert rejection_rate(z, 10, 200_000, 0.05, RngSpec(0)) == 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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
        drawn_block = montecarlo._drawn_block

        def recording(statistic, *args):
            def seeing(freqs):
                seen.extend(freqs.copy())
                return statistic(freqs)

            return drawn_block(seeing, *args)

        monkeypatch.setattr(montecarlo, "_drawn_block", recording)
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
        with pytest.raises(ValueError, match="^sample size must be at least 1, got 0$"):
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
        with pytest.raises(ValueError, match="^sample size must be at least 1000, got 500$"):
            normality_study(demo_z, 500, 200, "mi", RngSpec(0))
        with pytest.raises(ValueError, match="^replicates must be at least 100, got 50$"):
            normality_study(demo_z, 2000, 50, "mi", RngSpec(0))

    # Uniform shapes whose entropy variance once rounded to a small
    # positive number, so the study ran on a sigma of about 1e-9.
    @pytest.mark.parametrize(
        "rows, cols",
        [(2, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 9), (3, 4), (4, 5), (6, 6), (10, 9)],
    )
    def test_uniform_entropy_is_degenerate(self, rows, cols):
        size = rows * cols
        z = ZPmf(np.full(size, 1.0 / size), PairShape(rows, cols))
        with pytest.raises(ValueError, match="degenerate CLT"):
            normality_study(z, 2000, 200, "entropy", RngSpec(0))

    # Product tables, where the MI's variance is a rounding residue:
    # 5.2e-33 on the 2x2 and 8.9e-32 on the 100x100 one.
    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0.3, 0.7], [0.4, 0.6]),
            (
                np.random.default_rng(5).dirichlet(np.ones(100)),
                np.random.default_rng(6).dirichlet(np.ones(100)),
            ),
        ],
        ids=["2x2", "100x100"],
    )
    def test_product_mi_is_degenerate(self, rows, cols):
        table = np.outer(rows, cols)
        z = ZPmf(table.ravel(), PairShape(*table.shape))
        assert 0 < mi_variance(z) < 1e-30
        with pytest.raises(ValueError, match="degenerate CLT"):
            normality_study(z, 2000, 200, "mi", RngSpec(1))

    # The benchmark's studies at seed 1 keep their values, as (sigma, mean,
    # variance, KS distance): the t3 table's entropy (mc_small) and the
    # 100x100 Dirichlet table's MI (mc_wide).
    @pytest.mark.parametrize(
        "counts, side, replicates, measure, expected",
        [
            (
                np.array([2, 4, 1, 3]), 2, 2000, "entropy",
                (0.4253488999091427, -0.03564213397122163,
                 1.0304558697329218, 0.01984170667872026),
            ),
            (
                _wide_counts(1), 100, 200, "mi",
                (0.7851368014825563, 44.47388194440649, 1.0147038312097687, 1.0),
            ),
        ],
        ids=["t3_entropy", "wide_mi"],
    )
    def test_benchmark_studies_keep_values(self, counts, side, replicates, measure, expected):
        z = EmpiricalPmf(counts, PairShape(side, side)).as_zpmf()
        study = normality_study(z, 20000, replicates, measure, RngSpec(1))
        got = (study.sigma, study.mean, study.variance, study.ks_distance)
        assert got == pytest.approx(expected, rel=1e-12)


def _reference_ks(sorted_values):
    """The KS distance with the c.d.f. from ``statistics.NormalDist``."""
    r = sorted_values.size
    phi = np.array([NormalDist().cdf(float(t)) for t in sorted_values])
    upper = np.abs(np.arange(1, r + 1) / r - phi)
    lower = np.abs(np.arange(0, r) / r - phi)
    return float(np.maximum(upper, lower).max())


class TestKsDistance:
    """The inlined normal c.d.f. gives NormalDist's KS distance bit for bit."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 8.5, -8.5, 40.0, -40.0]

    def test_single_values(self):
        # One value t alone gives max(phi(t), 1 - phi(t)), which is phi(t)
        # itself for t > 0; seeded values show a last-bit change of phi.
        seeded = np.random.default_rng(17).standard_normal(500)
        for value in [*self.SPECIAL, *seeded.tolist(), *np.abs(seeded).tolist()]:
            values = np.array([value])
            assert _bits(montecarlo._ks_distance(values)) == _bits(_reference_ks(values)), value

    def test_special_values_together(self):
        values = np.sort(np.array(self.SPECIAL))
        assert _bits(montecarlo._ks_distance(values)) == _bits(_reference_ks(values))

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_seeded_normals(self, scale):
        values = np.sort(scale * np.random.default_rng(17).standard_normal(2000))
        assert _bits(montecarlo._ks_distance(values)) == _bits(_reference_ks(values))


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
            for emp in _per_replicate(z, [n] * replicates, 8)
        )
        rate = rejection_rate(z, n, replicates, alpha, RngSpec(8))
        assert 0 < reference < replicates
        assert rate == reference / replicates


class TestVarianceCheck:
    def test_reports_two_numbers(self, demo_z):
        check = variance_check(demo_z, 5000, 400, "entropy", RngSpec(42))
        assert len(check) == 2
        assert check.canonical == pytest.approx(0.18092168665391796, rel=1e-12)
        assert abs(check.empirical / check.canonical - 1) <= 0.25

    def test_validation(self, demo_z):
        with pytest.raises(ValueError, match="replicates"):
            variance_check(demo_z, 5000, 1, "entropy", RngSpec(0))

    # Dirichlet(1) tables drawn from default_rng(seed).  Empirical over
    # delta-method variance, minus 1: 3x3 H -3.2%, MI -0.0%; 10x10 H -0.3%,
    # MI +1.0%.  (A 20x20 table from seed 3 reads +8.4% for H at R = 1000,
    # too close to the bound to pin.)
    @pytest.mark.parametrize("seed, side", [(1, 3), (2, 10)], ids=["3x3", "10x10"])
    @pytest.mark.parametrize("measure", ["entropy", "mi"])
    def test_delta_method_matches_simulation_beyond_2x2(self, seed, side, measure):
        probs = np.random.default_rng(seed).dirichlet(np.ones(side * side))
        z = ZPmf(probs, PairShape(side, side), renormalize=True)
        check = variance_check(z, 20000, 1000, measure, RngSpec(7))
        assert abs(check.empirical / check.canonical - 1) <= 0.10


UNKNOWN_MEASURE_RUNS = {
    "trace": lambda z: convergence_trace(z, [100, 1000], "kl", RngSpec(0)),
    "normality": lambda z: normality_study(z, 2000, 200, "kl", RngSpec(0)),
    "variance": lambda z: variance_check(z, 1000, 10, "kl", RngSpec(0)),
}


@pytest.mark.parametrize("run", UNKNOWN_MEASURE_RUNS.values(), ids=UNKNOWN_MEASURE_RUNS)
def test_unknown_measure_fails_before_drawing(demo_z, monkeypatch, run):
    def failing(self, stream):
        raise AssertionError(f"substream {stream} built")

    monkeypatch.setattr(RngSpec, "substream", failing)
    with pytest.raises(ValueError, match="^unknown measure 'kl'; expected 'entropy' or 'mi'$"):
        run(demo_z)


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



def _run_trace(z, value):
    return convergence_trace(z, [value, 10**4], "mi", RngSpec(0))


def _run_normality_n(z, value):
    return normality_study(z, value, 100, "mi", RngSpec(0))


def _run_normality_replicates(z, value):
    return normality_study(z, 2000, value, "mi", RngSpec(0))


def _run_power_n(z, value):
    return rejection_rate(z, value, 10, 0.05, RngSpec(0))


def _run_power_replicates(z, value):
    return rejection_rate(z, 1000, value, 0.05, RngSpec(0))


def _run_variance_n(z, value):
    return variance_check(z, value, 10, "mi", RngSpec(0))


def _run_variance_replicates(z, value):
    return variance_check(z, 1000, value, "mi", RngSpec(0))


def _run_replicate_sizes(z, value):
    # One odd size among plain ints leaves the one-pass check of plain ints.
    return _joined(z, [1000] * 5 + [value], RngSpec(0), np.transpose)


def _values(result):
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


class TestIntegerCounts:
    """Sizes and replicate counts must be integers: a float is never
    truncated or carried into a result, and a bool is not a count."""

    STUDIES = {
        "trace size": (_run_trace, 100, "sample size"),
        "normality n": (_run_normality_n, 20000, "sample size"),
        "normality replicates": (_run_normality_replicates, 150, "replicates"),
        "power n": (_run_power_n, 1000, "sample size"),
        "power replicates": (_run_power_replicates, 20, "replicates"),
        "variance n": (_run_variance_n, 1000, "sample size"),
        "variance replicates": (_run_variance_replicates, 10, "replicates"),
        "replicate sizes": (_run_replicate_sizes, 1000, "sample size"),
    }

    @pytest.mark.parametrize("study", list(STUDIES))
    @pytest.mark.parametrize(
        "kind", ["fraction", "integral float", "bool", "numpy bool", "string", "None"]
    )
    def test_rejects_non_integers_before_drawing(self, demo_z, monkeypatch, study, kind):
        run, good, name = self.STUDIES[study]
        bad = {
            "fraction": good + 0.9,
            "integral float": float(good),
            "bool": True,
            "numpy bool": np.True_,
            "string": str(good),
            "None": None,
        }[kind]
        message = f"{name} must be an integer"
        calls = []
        substream = RngSpec.substream

        def counting(self, stream):
            calls.append(stream)
            return substream(self, stream)

        monkeypatch.setattr(RngSpec, "substream", counting)
        with pytest.raises(ValueError, match=message):
            run(demo_z, bad)
        assert calls == []

    # A trace's grid must rise, so there the size past int64 comes last;
    # only the studies that check n >= 1 last meet one far below it.
    SIZE_RUNS = {
        "trace size": lambda z, value: convergence_trace(z, [100, value], "mi", RngSpec(0)),
        "normality n": _run_normality_n,
        "power n": _run_power_n,
        "variance n": _run_variance_n,
        "replicate sizes": _run_replicate_sizes,
    }

    @pytest.mark.parametrize(
        "study, size",
        [(study, size) for study in SIZE_RUNS for size in (2**63, 10**20)]
        + [(study, -(10**20)) for study in ("power n", "variance n", "replicate sizes")],
    )
    def test_rejects_sizes_beyond_int64_before_drawing(self, demo_z, monkeypatch, study, size):
        """A size int64 cannot hold is a ValueError, not numpy's OverflowError."""
        bound = "at least 1" if size < 1 else "at most 9223372036854775807"
        calls = []
        monkeypatch.setattr(RngSpec, "substream", lambda self, stream: calls.append(stream))
        with pytest.raises(ValueError, match=f"^sample size must be {bound}, got {size}$"):
            self.SIZE_RUNS[study](demo_z, size)
        assert calls == []

    @pytest.mark.parametrize(
        "study", ["normality replicates", "power replicates", "variance replicates"]
    )
    def test_rejects_replicates_beyond_sys_maxsize_before_drawing(
        self, demo_z, monkeypatch, study
    ):
        """No list holds a size per replicate past sys.maxsize, so the count
        is a ValueError there, not the OverflowError of building one."""
        calls = []
        monkeypatch.setattr(RngSpec, "substream", lambda self, stream: calls.append(stream))
        bad = sys.maxsize + 1
        message = f"^replicates must be at most {sys.maxsize}, got {bad}$"
        with pytest.raises(ValueError, match=message):
            self.STUDIES[study][0](demo_z, bad)
        assert calls == []

    @pytest.mark.parametrize("study", list(STUDIES))
    def test_numpy_ints_match_python_ints(self, demo_z, study):
        run, good, _ = self.STUDIES[study]
        expected = _values(run(demo_z, good))
        got = _values(run(demo_z, np.int64(good)))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


def _in_thread(run, timeout=300):
    """``run()`` in a thread of its own, which must end within ``timeout`` s."""
    box = {}

    def target():
        try:
            box["value"] = run()
        except BaseException as exc:  # re-raised in the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "study did not finish; a draw thread is stuck"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _bits(value):
    if isinstance(value, str):
        return value
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


@pytest.fixture
def wide():
    table = np.random.default_rng(40).dirichlet(np.ones(50 * 50)).reshape(50, 50)
    z = z_view(JointPmf(table))
    assert np.count_nonzero(z.probs) >= montecarlo._POOL_MIN_CELLS
    return z


@pytest.fixture
def wide_with_zeros():
    """A 60x60 table with 900 zero cells, inside it and at its end, and
    still a support wide enough for the pool."""
    rng = np.random.default_rng(42)
    probs = rng.dirichlet(np.ones(3600))
    probs[rng.choice(3590, 890, replace=False)] = 0.0
    probs[-10:] = 0.0
    z = ZPmf(probs / probs.sum(), PairShape(60, 60))
    assert np.count_nonzero(z.probs) >= montecarlo._POOL_MIN_CELLS
    return z


class TestDrawThreads:
    """On a wide support each block is drawn and measured on a thread
    pool: every result is the serial one, bit for bit, substreams are
    built on the caller's thread, and no thread outlives its study."""

    @staticmethod
    def _studies(z):
        return {
            "trace": lambda: convergence_trace(z, range(500, 10001, 500), "mi", RngSpec(3)),
            "normality": lambda: normality_study(z, 2000, 100, "mi", RngSpec(3)),
            "power": lambda: rejection_rate(z, 2000, 40, 0.05, RngSpec(3)),
            "variance": lambda: variance_check(z, 2000, 40, "entropy", RngSpec(3)),
        }

    @staticmethod
    def _force_threads(monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: threads)

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_cpus_without_affinity_falls_back_to_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert montecarlo._cpus() == expected

    @pytest.mark.parametrize("table", ["wide", "wide_with_zeros"])
    def test_results_do_not_depend_on_thread_count(self, request, monkeypatch, table):
        z = request.getfixturevalue(table)
        results = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            for threads in (1, 2, 5):  # 5 is more threads than most hosts have CPUs
                self._force_threads(monkeypatch, threads)
                results[threads] = {
                    name: _in_thread(run) for name, run in self._studies(z).items()
                }
        finally:
            sys.setswitchinterval(switch)
        for threads in (2, 5):
            for name, serial in results[1].items():
                pooled = results[threads][name]
                assert [_bits(v) for v in _values(pooled)] == [
                    _bits(v) for v in _values(serial)
                ], (threads, name)

    @pytest.mark.parametrize("measure", ["entropy", "mi"])
    def test_blocks_leave_the_callers_thread_only_on_a_wide_support(
        self, wide, demo_z, monkeypatch, measure
    ):
        drawn_on, measured_on, keyed_on = set(), set(), set()
        started = []
        substream = RngSpec.substream
        start = threading.Thread.start
        kernels = {
            name: getattr(montecarlo, name)
            for name in ("entropy_rows", "mutual_information_rows")
        }

        class Recording:
            def __init__(self, gen):
                self.gen = gen

            def multinomial(self, n, weights):
                drawn_on.add(threading.get_ident())
                return self.gen.multinomial(n, weights)

        def counting_start(thread):
            started.append(thread)
            return start(thread)

        def recording(self, stream):
            keyed_on.add(threading.get_ident())
            return Recording(substream(self, stream))

        def measuring(kernel):
            def measured(*args, **kwargs):
                measured_on.add(threading.get_ident())
                return kernel(*args, **kwargs)

            return measured

        monkeypatch.setattr(RngSpec, "substream", recording)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for name, kernel in kernels.items():
            monkeypatch.setattr(montecarlo, name, measuring(kernel))
        caller = threading.get_ident()
        for threads, z, pooled in [(2, demo_z, False), (1, wide, False), (2, wide, True)]:
            self._force_threads(monkeypatch, threads)
            drawn_on.clear()
            measured_on.clear()
            started.clear()
            variance_check(z, 2000, 20, measure, RngSpec(0))
            assert keyed_on == {caller}  # the tracer's spans stay on one thread
            if pooled:
                assert drawn_on and caller not in drawn_on
                assert measured_on and caller not in measured_on
                assert 1 <= len(started) <= threads
            else:
                assert drawn_on == measured_on == {caller}
                assert started == []

    def test_draw_error_reraises_in_the_caller(self, wide, monkeypatch):
        substream = RngSpec.substream

        class Failing:
            def multinomial(self, n, weights):
                raise RuntimeError("draw failed")

        def failing_from_3(self, stream):
            return Failing() if stream >= 3 else substream(self, stream)

        monkeypatch.setattr(RngSpec, "substream", failing_from_3)
        self._force_threads(monkeypatch, 2)
        baseline = threading.active_count()
        for run in self._studies(wide).values():
            with pytest.raises(RuntimeError, match="draw failed"):
                _in_thread(run)
            assert threading.active_count() == baseline

    def test_kernel_error_reraises_in_the_caller_and_leaves_no_thread(
        self, wide, monkeypatch
    ):
        self._force_threads(monkeypatch, 2)
        baseline = threading.active_count()
        kernel = montecarlo.mutual_information_rows
        calls, failed_on = [], []

        def failing_midway(freqs, shape):
            calls.append(freqs.shape[0])
            if len(calls) == 10:  # of 17 blocks of at most 6 rows
                failed_on.append(threading.get_ident())
                raise ValueError("measure failed")
            return kernel(freqs, shape)

        monkeypatch.setattr(montecarlo, "mutual_information_rows", failing_midway)
        try:
            normality_study(wide, 2000, 100, "mi", RngSpec(0))
        except ValueError as exc:
            # Checked while the traceback still holds the study's frames.
            assert str(exc) == "measure failed"
            assert threading.active_count() == baseline
        else:
            pytest.fail("the study did not raise")
        assert failed_on and threading.get_ident() not in failed_on

    def test_sizes_are_checked_before_any_draw(self, wide, monkeypatch):
        calls = []
        substream = RngSpec.substream

        def counting(self, stream):
            calls.append(stream)
            return substream(self, stream)

        monkeypatch.setattr(RngSpec, "substream", counting)
        self._force_threads(monkeypatch, 2)
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            _joined(wide, [1000] * 20 + [0], RngSpec(0), np.transpose)
        assert calls == []

    def test_closing_a_stream_joins_the_pool_and_draws_no_more(self, wide, monkeypatch):
        """Closed after its first block, a pooled stream ends as no return
        could: the blocks in flight are drawn, no others, and ``close``
        joins every thread of the pool."""
        threads = 2
        self._force_threads(monkeypatch, threads)
        drawn_block, drawn = montecarlo._drawn_block, []

        def counting(statistic, weights, k, gens, sizes):
            drawn.append(sizes.size)
            return drawn_block(statistic, weights, k, gens, sizes)

        monkeypatch.setattr(montecarlo, "_drawn_block", counting)
        baseline = threading.active_count()
        rows = montecarlo._BLOCK_CELLS // wide.shape.size
        stream = montecarlo._replicates(wide, [1000], RngSpec(0), np.transpose, 12 * rows)
        assert next(stream).shape == (wide.shape.size, rows)
        stream.close()
        assert threading.active_count() == baseline
        assert 1 <= len(drawn) <= 2 * threads + 1 and set(drawn) == {rows}


def _old_substream(self, stream):
    """Substream ``stream`` as numpy seeds it from the key, one stream at a time."""
    return np.random.Generator(
        np.random.PCG64(montecarlo._substream_key(self.master_seed, stream))
    )


class TestSeedBlocks:
    """Substream seeds derived a block at a time are numpy's, bit for bit."""

    def test_block_rows_match_seed_sequence(self, monkeypatch):
        rng = np.random.default_rng(11)
        block = montecarlo._BLOCK
        size = math.ceil(10**4 / block) * block  # whole blocks, at least 10^4 keys
        special = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        keys = np.concatenate([
            np.array(special, dtype=np.uint64),
            np.arange(1000, dtype=np.uint64),  # one 32-bit word
            rng.integers(0, 2**32, 1000, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size - 2008, dtype=np.uint64, endpoint=True),
        ])
        monkeypatch.setattr(montecarlo, "_substream_key", lambda seed, streams: keys[streams])
        got = np.concatenate(
            [montecarlo._seed_block.__wrapped__(0, b) for b in range(keys.size // block)]
        )
        expected = np.array(
            [np.random.SeedSequence(int(k)).generate_state(4, np.uint64) for k in keys]
        )
        assert keys.size >= 10**4
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", [0, 123, 2**63, 2**64 - 1])
    def test_substream_state_matches_seeding_from_the_key(self, seed):
        rng = RngSpec(seed)
        block = montecarlo._BLOCK
        edges = [block - 1, block, block + 1, 2 * block]
        montecarlo._seed_block.cache_clear()
        for stream in [*range(1101), *edges, 2**32, 2**64 - 1]:
            assert rng.substream(stream).bit_generator.state == (
                _old_substream(rng, stream).bit_generator.state
            ), stream

    def test_block_is_read_only(self):
        block = montecarlo._seed_block(0, 0)
        assert block.shape == (montecarlo._BLOCK, 4) and not block.flags.writeable

    @pytest.mark.parametrize(
        "n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]
    )
    def test_precomputed_seeds_serve_only_pcg64(self, n_words, dtype):
        seeds = RngSpec(0).substream(0).bit_generator.seed_seq
        with pytest.raises(ValueError, match="4 uint64 words"):
            seeds.generate_state(n_words, dtype)

    def test_generator_survives_pickling_in_a_fresh_interpreter(self):
        gen = RngSpec(9).substream(300)
        expected = pickle.loads(pickle.dumps(gen)).random(3)
        assert gen.random(3).tolist() == expected.tolist()
        code = "import pickle, sys; print(pickle.loads(sys.stdin.buffer.read()).random(3).tolist())"
        out = _fresh_python(code, input=pickle.dumps(RngSpec(9).substream(300)))
        assert out == repr(expected.tolist())

    def test_studies_match_seeding_from_the_key(self, demo_z, wide, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)

        def studies(z, normality_replicates):
            return {
                "trace": convergence_trace(z, range(500, 10001, 500), "mi", RngSpec(3)),
                "normality": normality_study(z, 2000, normality_replicates, "mi", RngSpec(3)),
                "power": rejection_rate(z, 2000, 300, 0.05, RngSpec(3)),
                "variance": variance_check(z, 2000, 300, "entropy", RngSpec(3)),
            }

        for z, replicates in [(demo_z, 600), (wide, 300)]:
            fast = studies(z, replicates)
            with monkeypatch.context() as old:
                old.setattr(RngSpec, "substream", _old_substream)
                slow = studies(z, replicates)
            for name, result in fast.items():
                assert [_bits(v) for v in _values(result)] == [
                    _bits(v) for v in _values(slow[name])
                ], (z.shape, name)


def _per_replicate(p, sizes, seed):
    """Each replicate as the studies saw it before count blocks: an
    EmpiricalPmf of one multinomial draw over the support from substream i."""
    support = np.flatnonzero(p.probs)
    weights = p.probs[support] / p.probs[support].sum()
    for i, n in enumerate(sizes):
        counts = np.zeros(p.shape.size, dtype=np.int64)
        counts[support] = RngSpec(seed).substream(i).multinomial(n, weights)
        yield EmpiricalPmf(counts, p.shape)


_SCALAR = {"entropy": joint_entropy, "mi": mutual_information}
_VARIANCE = {"entropy": entropy_variance, "mi": mi_variance}


def _reference_trace(p, sizes, measure, seed):
    fn = _SCALAR[measure]
    truth = fn(p)
    estimates, a_zn = np.array([
        (fn(emp), np.abs(emp.freqs - p.probs).max())
        for emp in _per_replicate(p, sizes, seed)
    ]).T
    abs_errors = np.abs(estimates - truth)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(a_zn > 0, abs_errors / a_zn, np.nan)
    return montecarlo.ConvergenceTrace(
        measure, truth, np.array(sizes, dtype=np.int64), estimates, abs_errors, a_zn, ratio
    )


def _reference_normality(p, n, replicates, measure, seed):
    fn = _SCALAR[measure]
    truth = fn(p)
    sigma = math.sqrt(_VARIANCE[measure](p))
    estimates = np.array([fn(emp) for emp in _per_replicate(p, [n] * replicates, seed)])
    t_values = math.sqrt(n) / sigma * (estimates - truth)
    sorted_t = np.sort(t_values)
    edges = np.linspace(-4.0, 4.0, 41)
    counts, _ = np.histogram(np.clip(t_values, -4.0, 4.0), bins=edges)
    qq = np.array([normal_quantile((i - 0.5) / replicates) for i in range(1, replicates + 1)])
    return montecarlo.NormalityStudy(
        measure, n, replicates, truth, sigma, float(t_values.mean()),
        float(t_values.var(ddof=1)), montecarlo._ks_distance(sorted_t), t_values, edges, counts,
        qq, sorted_t,
    )


def _reference_rejection_rate(p, n, replicates, alpha, seed):
    _, threshold = lrt_threshold(p.shape, alpha)
    emps = _per_replicate(p, [n] * replicates, seed)
    return int(sum(lrt_statistic(emp) > threshold for emp in emps)) / replicates


def _reference_variance(p, n, replicates, measure, seed):
    fn = _SCALAR[measure]
    estimates = np.array([fn(emp) for emp in _per_replicate(p, [n] * replicates, seed)])
    return montecarlo.VarianceCheck(
        float(n * estimates.var(ddof=1)), _VARIANCE[measure](p)
    )


@pytest.fixture
def sparse_10x10():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(100))
    probs[rng.choice(100, 20, replace=False)] = 0.0
    return ZPmf(probs / probs.sum(), PairShape(10, 10))


def _assert_same_fields(got, expected):
    assert type(got) is type(expected)
    for a, b in zip(_values(got), _values(expected), strict=True):
        if isinstance(a, str):
            assert a == b
        else:
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b, equal_nan=True), (a, b)


class TestCountBlocks:
    """Studies run batch kernels on blocks of counts: every field equals
    what the per-replicate path (one EmpiricalPmf and one scalar measure
    call per replicate, same substreams) gives, whatever the block size."""

    # table fixture, seed, trace sizes, normality replicates, other
    # replicates, and a power-study n at which both levels' rates lie
    # strictly inside (0, 1), so that a statistic off by one ulp can show.
    CASES = {
        "2x2": ("demo_z", 3, range(1, 5001), 2000, 500, 200),  # trace: 2 blocks of <= 4096
        "10x10 with zero cells": ("sparse_10x10", 4, range(100, 40001, 100), 1000, 300, 40),
        "pooled 50x50": ("wide", 5, range(500, 10001, 500), 100, 60, 900),  # blocks of <= 6
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("measure", ["entropy", "mi"])
    def test_studies_match_the_per_replicate_path(self, request, monkeypatch, case, measure):
        fixture, seed, sizes, normality_replicates, replicates, _ = self.CASES[case]
        z = request.getfixturevalue(fixture)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        rows = max(1, montecarlo._BLOCK_CELLS // z.shape.size)
        assert len(sizes) > rows  # the trace spans more than one block
        _assert_same_fields(
            convergence_trace(z, sizes, measure, RngSpec(seed)),
            _reference_trace(z, list(sizes), measure, seed),
        )
        _assert_same_fields(
            normality_study(z, 2000, normality_replicates, measure, RngSpec(seed)),
            _reference_normality(z, 2000, normality_replicates, measure, seed),
        )
        _assert_same_fields(
            variance_check(z, 2000, replicates, measure, RngSpec(seed)),
            _reference_variance(z, 2000, replicates, measure, seed),
        )

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejection_rate_matches_the_per_replicate_path(self, request, monkeypatch, case):
        fixture, seed, _, _, replicates, n = self.CASES[case]
        z = request.getfixturevalue(fixture)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        for alpha in (0.05, 0.3):
            expected = _reference_rejection_rate(z, n, replicates, alpha, seed)
            assert 0 < expected < 1
            assert rejection_rate(z, n, replicates, alpha, RngSpec(seed)) == expected

    @pytest.mark.parametrize("cells", [1, 7, 2**20])
    def test_results_do_not_depend_on_the_block_size(self, sparse_10x10, monkeypatch, cells):
        z = sparse_10x10

        def studies():
            return [
                convergence_trace(z, range(100, 30001, 100), "mi", RngSpec(4)),
                normality_study(z, 2000, 300, "entropy", RngSpec(4)),
                rejection_rate(z, 40, 300, 0.3, RngSpec(4)),  # 0.40
                variance_check(z, 2000, 300, "mi", RngSpec(4)),
            ]

        expected = studies()
        monkeypatch.setattr(montecarlo, "_BLOCK_CELLS", cells)
        for got, want in zip(studies(), expected, strict=True):
            if isinstance(want, float):
                assert got == want
            else:
                _assert_same_fields(got, want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_are_capped_by_cells(self, demo_z, wide_with_zeros, monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: threads)
        drawn_block = montecarlo._drawn_block
        blocks = []

        def recording(statistic, weights, k, gens, sizes):
            blocks.append(sizes.copy())
            return drawn_block(statistic, weights, k, gens, sizes)

        monkeypatch.setattr(montecarlo, "_drawn_block", recording)
        for z, replicates, rows in [(demo_z, 5000, 4096), (wide_with_zeros, 20, 4)]:
            blocks.clear()
            sizes = list(range(1000, 1000 + replicates))
            freqs = _joined(z, sizes, RngSpec(0), np.transpose).T
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= rows
            assert all(b.dtype == np.int64 for b in blocks)
            np.testing.assert_array_equal(np.concatenate(blocks), sizes)
            # Rows come back in index order, each the frequencies of its draw.
            expected = [emp.freqs for emp in _per_replicate(z, sizes, 0)]
            assert freqs.shape == (replicates, z.shape.size)
            np.testing.assert_array_equal(freqs, expected)

    def test_pooled_study_memory_stays_small(self, monkeypatch):
        # mc_wide's table size: k = 10^4 gives one-row blocks.
        table = np.random.default_rng(41).dirichlet(np.ones(10**4)).reshape(100, 100)
        z = z_view(JointPmf(table))
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        normality_study(z, 20000, 100, "mi", RngSpec(0))  # warm-up: imports, caches
        tracemalloc.start()
        try:
            normality_study(z, 20000, 100, "mi", RngSpec(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestIngestedTable:
    """Every study takes the ingested EmpiricalPmf itself as the truth and
    gives, bit for bit, what it gives on that table's ``as_zpmf()``."""

    @staticmethod
    def _table(name):
        if name == "t3":
            return EmpiricalPmf([2, 4, 1, 3], PairShape(2, 2))
        rng = np.random.default_rng(30)
        counts = rng.multinomial(20000, rng.dirichlet(np.ones(900)))
        emp = EmpiricalPmf(counts, PairShape(30, 30))
        assert np.count_nonzero(emp.counts) >= montecarlo._POOL_MIN_CELLS
        return emp

    @pytest.mark.parametrize("table", ["t3", "wide_30x30"])
    def test_studies_match_the_zpmf_copy(self, monkeypatch, table):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)  # the pool runs on 30x30
        emp = self._table(table)
        expected = TestDrawThreads._studies(emp.as_zpmf())
        for name, run in TestDrawThreads._studies(emp).items():
            assert [_bits(v) for v in _values(run())] == [
                _bits(v) for v in _values(expected[name]())
            ], name


def _fresh_python(code, input=None):
    """Stdout of ``code`` run by a fresh interpreter that imports pairinfo from here."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run(
        [sys.executable, "-c", code], input=input, capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().strip()


def test_importing_the_cli_leaves_heavy_modules_unloaded():
    """Set-up time stays lean: numpy.random, the substreams' generator
    module, the draw pool's module and scipy load only when a command needs
    them."""
    heavy = ("numpy.random", "pairinfo._seeds", "concurrent.futures", "scipy")
    code = f"import sys, pairinfo, pairinfo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _fresh_python(code) == "[]"


def test_first_substream_loads_the_generator_modules():
    heavy = ("numpy.random", "pairinfo._seeds")
    code = (
        "import sys; from pairinfo import RngSpec; RngSpec(0).substream(0); "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    assert _fresh_python(code) == repr(list(heavy))
