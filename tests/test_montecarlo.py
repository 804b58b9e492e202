"""Tests for seeded sampling and the Monte Carlo studies."""

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc

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
    estimate_pmf,
    independence_test,
    normality_study,
    rate_constant,
    rejection_rate,
    sample_z,
    variance_check,
    z_view,
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
        with pytest.raises(ValueError, match=r"stream index must be in \[0, 2\*\*64\)"):
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


class TestDrawThreads:
    """On a wide support the draws run on a thread pool: every result is
    the serial one, bit for bit, and no thread outlives its study."""

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

    def test_results_do_not_depend_on_thread_count(self, wide, monkeypatch):
        results = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            for threads in (1, 2, 5):  # 5 is more threads than most hosts have CPUs
                self._force_threads(monkeypatch, threads)
                results[threads] = {
                    name: _in_thread(run) for name, run in self._studies(wide).items()
                }
        finally:
            sys.setswitchinterval(switch)
        for threads in (2, 5):
            for name, serial in results[1].items():
                pooled = results[threads][name]
                assert [_bits(v) for v in _values(pooled)] == [
                    _bits(v) for v in _values(serial)
                ], (threads, name)

    def test_draws_leave_the_callers_thread_only_on_a_wide_support(
        self, wide, demo_z, monkeypatch
    ):
        drawn_on, keyed_on = set(), set()
        started = []
        substream = RngSpec.substream
        start = threading.Thread.start

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

        monkeypatch.setattr(RngSpec, "substream", recording)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        caller = threading.get_ident()
        for threads, z, pooled in [(2, demo_z, False), (1, wide, False), (2, wide, True)]:
            self._force_threads(monkeypatch, threads)
            drawn_on.clear()
            started.clear()
            variance_check(z, 2000, 20, "mi", RngSpec(0))
            assert keyed_on == {caller}  # the tracer's spans stay on one thread
            if pooled:
                assert drawn_on and caller not in drawn_on
                assert 1 <= len(started) <= threads
            else:
                assert drawn_on == {caller}
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

    def test_abandoned_study_leaves_no_thread(self, wide, monkeypatch):
        self._force_threads(monkeypatch, 2)
        baseline = threading.active_count()
        mi = montecarlo._MEASURES["mi"]
        calls = []

        def failing_midway(p):
            calls.append(p)
            if len(calls) == 20:
                raise ValueError("measure failed")
            return mi(p)

        monkeypatch.setitem(montecarlo._MEASURES, "mi", failing_midway)
        try:
            normality_study(wide, 2000, 100, "mi", RngSpec(0))
        except ValueError as exc:
            # Checked while the traceback still holds the study's frames.
            assert str(exc) == "measure failed"
            assert threading.active_count() == baseline
        else:
            pytest.fail("the study did not raise")

        empiricals = montecarlo._empiricals(wide, [2000] * 100, RngSpec(0))
        next(empiricals)
        assert threading.active_count() > baseline
        empiricals.close()
        assert threading.active_count() == baseline

    def test_sizes_are_checked_before_any_draw(self, wide, monkeypatch):
        calls = []
        substream = RngSpec.substream

        def counting(self, stream):
            calls.append(stream)
            return substream(self, stream)

        monkeypatch.setattr(RngSpec, "substream", counting)
        self._force_threads(monkeypatch, 2)
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            next(montecarlo._empiricals(wide, [1000] * 20 + [0], RngSpec(0)))
        assert calls == []


def _old_substream(self, stream):
    """Substream ``stream`` as numpy seeds it from the key, one stream at a time."""
    return np.random.Generator(
        np.random.PCG64(montecarlo._substream_key(self.master_seed, stream))
    )


class TestSeedBlocks:
    """Substream seeds derived 256 at a time are numpy's, bit for bit."""

    def test_block_rows_match_seed_sequence(self, monkeypatch):
        rng = np.random.default_rng(11)
        special = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        keys = np.concatenate([
            np.array(special, dtype=np.uint64),
            np.arange(1000, dtype=np.uint64),  # one 32-bit word
            rng.integers(0, 2**32, 1000, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, 40 * 256 - 2008, dtype=np.uint64, endpoint=True),
        ])
        monkeypatch.setattr(montecarlo, "_substream_key", lambda seed, streams: keys[streams])
        got = np.concatenate(
            [montecarlo._seed_block.__wrapped__(0, b) for b in range(keys.size // 256)]
        )
        expected = np.array(
            [np.random.SeedSequence(int(k)).generate_state(4, np.uint64) for k in keys]
        )
        assert keys.size >= 10**4
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", [0, 123, 2**63, 2**64 - 1])
    def test_substream_state_matches_seeding_from_the_key(self, seed):
        rng = RngSpec(seed)
        for stream in [*range(1101), 2**32, 2**64 - 1]:  # crosses block edges
            assert rng.substream(stream).bit_generator.state == (
                _old_substream(rng, stream).bit_generator.state
            ), stream

    def test_block_is_read_only(self):
        block = montecarlo._seed_block(0, 0)
        assert block.shape == (256, 4) and not block.flags.writeable

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
    """Set-up time stays lean: numpy.random, the draw pool's module and
    scipy load only when a command needs them."""
    heavy = ("numpy.random", "concurrent.futures", "scipy")
    code = f"import sys, pairinfo, pairinfo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _fresh_python(code) == "[]"
