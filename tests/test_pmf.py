"""Tests for the probability containers and empirical estimation."""

import math
import re
import warnings

import numpy as np
import pytest

from pairinfo import (
    EmpiricalPmf,
    JointPmf,
    LabeledAlphabets,
    PairShape,
    ZPmf,
    estimate_pmf,
    joint_entropy,
    marginal_x,
    marginal_y,
    z_view,
)
from pairinfo.measures import entropy
from pairinfo.pmf import z_vector
from conftest import DEMO_TABLE


class TestJointPmf:
    def test_accepts_valid_table(self):
        p = JointPmf(DEMO_TABLE)
        assert p.shape == PairShape(2, 2)
        np.testing.assert_array_equal(p.probs, DEMO_TABLE)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError, match="negative"):
            JointPmf([[0.5, 0.6], [-0.1, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            JointPmf([[0.5, np.nan], [0.25, 0.25]])

    def test_normalization_tolerance(self):
        """Sums within 1e-9 of 1 pass; anything further is rejected."""
        JointPmf([[0.5, 0.5 + 5e-10], [0.0, 0.0]])
        with pytest.raises(ValueError, match="sums to"):
            JointPmf([[0.5, 0.51], [0.0, 0.0]])

    def test_renormalize(self):
        p = JointPmf([[2.0, 4.0], [1.0, 3.0]], renormalize=True)
        np.testing.assert_allclose(p.probs, DEMO_TABLE)
        with pytest.raises(ValueError, match="cannot renormalize"):
            JointPmf([[0.0, 0.0], [0.0, 0.0]], renormalize=True)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            JointPmf([0.5, 0.5])

    def test_repr_names_the_shape(self):
        assert repr(JointPmf(np.full((2, 3), 1 / 6))) == "JointPmf(shape=2x3)"

    def test_probs_are_read_only(self):
        p = JointPmf(DEMO_TABLE)
        with pytest.raises(ValueError):
            p.probs[0, 0] = 0.9

    def test_z_vector_needs_the_flattened_view(self):
        with pytest.raises(TypeError, match="expected ZPmf or EmpiricalPmf, got JointPmf"):
            z_vector(JointPmf(DEMO_TABLE))


@pytest.mark.parametrize(
    "build",
    [lambda v: z_view(JointPmf([v], renormalize=True)),
     lambda v: ZPmf(v, PairShape(1, 2), renormalize=True)],
    ids=["JointPmf", "ZPmf"],
)
def test_renormalize_when_the_sum_overflows(build):
    """Finite entries whose sum overflows are scaled down before they are
    divided by it, so they do not all become 0."""
    z = build([1e308, 1e308])
    np.testing.assert_array_equal(z.probs, [0.5, 0.5])
    assert joint_entropy(z) == math.log(2)


class TestZPmf:
    def test_length_must_match_shape(self):
        with pytest.raises(ValueError, match="entries"):
            ZPmf([0.5, 0.5], PairShape(2, 2))

    def test_rejects_a_table(self):
        with pytest.raises(ValueError, match="must be 1-D, got 2-D"):
            ZPmf(DEMO_TABLE, PairShape(2, 2))

    def test_flatten_roundtrip(self):
        joint = JointPmf(DEMO_TABLE)
        z = z_view(joint)
        np.testing.assert_array_equal(z.probs, [0.2, 0.4, 0.1, 0.3])
        back = z.probs.reshape(z.shape.rows, z.shape.cols)
        np.testing.assert_array_equal(back, joint.probs)
        assert z.shape == joint.shape

    def test_repr_names_the_shape(self):
        assert repr(ZPmf(np.full(6, 1 / 6), PairShape(3, 2))) == "ZPmf(shape=3x2)"


class TestEmpiricalPmf:
    def test_counts_exact_freqs_lazy(self):
        emp = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        assert emp.n == 10
        assert emp.counts.dtype == np.int64
        np.testing.assert_array_equal(emp.freqs, [0.2, 0.4, 0.1, 0.3])

    def test_freqs_are_set_at_construction_and_read_only(self):
        emp = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        assert vars(emp)["freqs"] is emp.freqs
        with pytest.raises(ValueError):
            emp.freqs[0] = 0.5

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n = 0"):
            EmpiricalPmf(np.zeros(4, dtype=int), PairShape(2, 2))

    def test_length_must_match_shape(self):
        with pytest.raises(ValueError, match="length-4 vector for shape 2x2"):
            EmpiricalPmf(np.array([2, 4, 1]), PairShape(2, 2))

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError, match=r"^counts\[0\] must be at least 0, got -1$"):
            EmpiricalPmf(np.array([-1, 2, 1, 3]), PairShape(2, 2))
        with pytest.raises(ValueError, match="integer"):
            EmpiricalPmf(np.array([1.5, 2.0, 1.0, 3.0]), PairShape(2, 2))

    def test_rejects_nonfinite_without_warning(self):
        for bad in (np.inf, np.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                message = rf"^counts\[1\] must be an integer, got {bad}$"
                with pytest.raises(ValueError, match=message):
                    EmpiricalPmf(np.array([1.0, bad, 1.0, 1.0]), PairShape(2, 2))

    def test_rejects_total_beyond_int64(self):
        # Four counts of 2**62 + 1 sum to 2**64 + 4, which int64 wraps to 4.
        for counts in ([2**62 + 1] * 4, [2**62] * 4):
            with pytest.raises(ValueError, match="int64"):
                EmpiricalPmf(np.array(counts), PairShape(2, 2))
        # numpy reads this one as float64, and 2.0**63 is one past the top count.
        message = r"^counts\[0\] must be at most 9223372036854775807, got 9223372036854775808$"
        with pytest.raises(ValueError, match=message):
            EmpiricalPmf(np.array([2**63, 1, 1, 1]), PairShape(2, 2))
        # The largest representable total is still accepted exactly.
        top = [2**61, 2**61, 2**61, 2**61 - 1]
        assert EmpiricalPmf(np.array(top), PairShape(2, 2)).n == 2**63 - 1

    @pytest.mark.parametrize(
        "counts",
        [np.array([True, False, True, True]), [True, False, True, True]],
        ids=["array", "list"],
    )
    def test_rejects_boolean_counts(self, counts):
        with pytest.raises(ValueError, match=r"^counts\[0\] must be an integer, got True$"):
            EmpiricalPmf(counts, PairShape(2, 2))

    def test_rejects_booleans_among_python_ints(self):
        with pytest.raises(ValueError, match=r"^counts\[0\] must be an integer, got True$"):
            EmpiricalPmf([True, 2**70], PairShape(1, 2))

    def test_rejects_python_ints_beyond_int64(self):
        # numpy keeps ints beyond the uint64 range as an object array.
        for counts, bound in (([2**70, 1], f"at most {2**63 - 1}"), ([-(2**70), 1], "at least 0")):
            message = rf"^counts\[0\] must be {bound}, got {counts[0]}$"
            with pytest.raises(ValueError, match=message):
                EmpiricalPmf(counts, PairShape(1, 2))
        with pytest.raises(ValueError, match=r"^counts\[0\] must be an integer, got 1.5$"):
            EmpiricalPmf([1.5, 2**70], PairShape(1, 2))
        emp = EmpiricalPmf(np.array([2, np.int32(3)], dtype=object), PairShape(1, 2))
        assert emp.counts.dtype == np.int64 and emp.n == 5

    def test_equality_by_counts_and_shape(self):
        a = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        b = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        c = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(1, 4))
        assert a == b
        assert a != c
        assert hash(a) == hash(b) and len({a, b}) == 1
        # Another type is left to its own __eq__, so a table equals no number.
        assert a.__eq__(3) is NotImplemented
        assert a != 3 and not a == 3
        assert a != a.as_zpmf()

    def test_repr_names_shape_and_size(self):
        emp = EmpiricalPmf(np.array([2, 4, 1, 3, 0, 0]), PairShape(2, 3))
        assert repr(emp) == "EmpiricalPmf(shape=2x3, n=10)"

    def test_as_zpmf(self):
        emp = EmpiricalPmf(np.array([2, 4, 1, 3]), PairShape(2, 2))
        z = emp.as_zpmf()
        assert isinstance(z, ZPmf)
        np.testing.assert_array_equal(z.probs, emp.freqs)


class TestEstimatePmf:
    def test_counts_outcomes(self):
        sample = [1, 2, 2, 4, 2, 3, 4, 4, 2, 4]
        emp = estimate_pmf(sample, PairShape(2, 2))
        np.testing.assert_array_equal(emp.counts, [1, 4, 1, 4])
        assert emp.n == 10

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="n = 0"):
            estimate_pmf([], PairShape(2, 2))

    def test_rejects_a_table_and_fractional_outcomes(self):
        with pytest.raises(ValueError, match="must be 1-D, got 2-D"):
            estimate_pmf(np.array([[1, 2], [3, 4]]), PairShape(2, 2))
        with pytest.raises(ValueError, match=r"^sample\[1\] must be an integer, got 2.5$"):
            estimate_pmf(np.array([1.0, 2.5]), PairShape(2, 2))

    def test_rejects_boolean_sample(self):
        with pytest.raises(ValueError, match=r"^sample\[0\] must be an integer, got True$"):
            estimate_pmf(np.array([True, True]), PairShape(2, 2))
        with pytest.raises(ValueError, match=r"^sample\[0\] must be an integer, got True$"):
            estimate_pmf([True, 2**70], PairShape(2, 2))

    def test_out_of_range_names_position(self):
        with pytest.raises(ValueError, match=r"^sample\[2\] must be at most 4, got 5$"):
            estimate_pmf([1, 2, 5, 1], PairShape(2, 2))
        with pytest.raises(ValueError, match=r"^sample\[0\] must be at least 1, got 0$"):
            estimate_pmf([0, 1], PairShape(2, 2))

    def test_rejects_python_ints_beyond_int64(self):
        message = r"^sample\[0\] must be at most 4, got 1180591620717411303424$"
        with pytest.raises(ValueError, match=message):
            estimate_pmf([2**70, 1], PairShape(2, 2))
        with pytest.raises(ValueError, match=r"^sample\[0\] must be an integer, got 1.5$"):
            estimate_pmf(np.array([1.5, 2], dtype=object), PairShape(2, 2))
        emp = estimate_pmf(np.array([1, 4, 4], dtype=object), PairShape(2, 2))
        np.testing.assert_array_equal(emp.counts, [1, 0, 0, 2])

    def test_float_beyond_int64_names_its_value(self):
        # The range check runs before the int64 cast, which would wrap these.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value, message in (
                (2.0**63, r"^sample\[0\] must be at most 2, got 9223372036854775808$"),
                (np.inf, r"^sample\[0\] must be an integer, got inf$"),
            ):
                with pytest.raises(ValueError, match=message):
                    estimate_pmf([value, 1], PairShape(1, 2))
            emp = estimate_pmf(np.array([1.0, 2.0, 2.0]), PairShape(1, 2))
        np.testing.assert_array_equal(emp.counts, [1, 2])

    def test_matches_bincount_on_random_samples(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            shape = PairShape(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            sample = rng.integers(1, shape.size + 1, size=200)
            emp = estimate_pmf(sample, shape)
            assert emp.counts.sum() == 200
            np.testing.assert_array_equal(
                emp.counts, np.bincount(sample - 1, minlength=shape.size)
            )


TOP = f"must be at most {2**63 - 1}"

# Inputs on a 2x2 shape, each with the index of its first bad entry and the
# rest of the message after ``counts[i]`` and after ``sample[i]``.  ``...``
# for the sample repeats the counts' text, and None marks a fine count
# (counts run from 0 to int64 max, outcomes from 1 to 4).
INTEGER_ARRAYS = {
    "bool array": (np.array([True, False, True, True]), 0, "must be an integer, got True", ...),
    "bool list": ([True, False, True, True], 0, "must be an integer, got True", ...),
    "str array": (np.array(["1", "2", "1", "1"]), 0, "must be an integer, got '1'", ...),
    "complex array": (np.array([1, 2j, 1, 1]), 0, "must be an integer, got (1+0j)", ...),
    "datetime64 array": (
        np.array(["2020-01-01"] * 4, dtype="datetime64[ns]"), 0,
        "must be an integer, got '2020-01-01T00:00:00.000000000'", ...,
    ),
    "nan": (np.array([1, np.nan, 1, 1]), 1, "must be an integer, got nan", ...),
    "inf": (np.array([1, np.inf, 1, 1]), 1, "must be an integer, got inf", ...),
    "-inf": (np.array([1, -np.inf, 1, 1]), 1, "must be an integer, got -inf", ...),
    "1.5": (np.array([1, 1.5, 1, 1]), 1, "must be an integer, got 1.5", ...),
    # float(2**63 - 1) rounds up to 2.0**63, so a float bound would let it pass.
    "float 2**63": (np.array([1, 2.0**63, 1, 1]), 1, f"{TOP}, got {2**63}",
                    f"must be at most 4, got {2**63}"),
    "uint64 2**63": (np.array([1, 2**63, 1, 1], dtype=np.uint64), 1, f"{TOP}, got {2**63}",
                     f"must be at most 4, got {2**63}"),
    "object 2**70": ([1, 2**70, 1, 1], 1, f"{TOP}, got {2**70}",
                     f"must be at most 4, got {2**70}"),
    "object -2**70": ([1, -(2**70), 1, 1], 1, f"must be at least 0, got {-(2**70)}",
                      f"must be at least 1, got {-(2**70)}"),
    "-1": (np.array([1, -1, 1, 1]), 1, "must be at least 0, got -1", "must be at least 1, got -1"),
    "0": (np.array([1, 0, 1, 1]), 1, None, "must be at least 1, got 0"),
    "k+1": (np.array([1, 5, 1, 1]), 1, None, "must be at most 4, got 5"),
}


def _bad_array_cases():
    """(id, build, input, full message or None) for every consumer of an
    integer or probability array."""
    for key, (values, i, counts, sample) in INTEGER_ARRAYS.items():
        sample = counts if sample is ... else sample
        counts = None if counts is None else f"counts[{i}] {counts}"
        yield f"EmpiricalPmf-{key}", EmpiricalPmf, values, counts
        yield f"estimate_pmf-{key}", estimate_pmf, values, f"sample[{i}] {sample}"
    for key, probs in {"complex array": np.array([0.5 + 0.3j, 0.5]),
                       "complex list": [0.5 + 0j, 0.5]}.items():
        yield f"ZPmf-{key}", ZPmf, probs, "flattened p.m.f. contains complex entries"
        yield (f"JointPmf-{key}", lambda v, shape: JointPmf([v]), probs,
               "joint table contains complex entries")
        yield (f"entropy-{key}", lambda v, shape: entropy(v), probs,
               "probability vector contains complex entries")


BAD_ARRAY_CASES = list(_bad_array_cases())


@pytest.mark.parametrize("build, values, message", [case[1:] for case in BAD_ARRAY_CASES],
                         ids=[case[0] for case in BAD_ARRAY_CASES])
def test_bad_array_entries_raise_a_value_error_and_no_warning(build, values, message):
    """Counts and samples refuse their first bad entry, whatever the dtype,
    in ``encoding._integer``'s texts; a probability vector refuses complex
    entries rather than dropping their imaginary parts.  Never a TypeError
    or a warning."""
    shape = PairShape(2, 2) if build in (EmpiricalPmf, estimate_pmf) else PairShape(1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            build(values, shape)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(values, shape)


class TestMarginals:
    def test_demo_table_marginals(self, demo_z):
        np.testing.assert_allclose(marginal_x(demo_z), [0.6, 0.4])
        np.testing.assert_allclose(marginal_y(demo_z), [0.3, 0.7])

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(rows * cols))
            z = ZPmf(probs, PairShape(rows, cols))
            np.testing.assert_allclose(marginal_x(z).sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(marginal_y(z).sum(), 1.0, atol=1e-12)

    def test_empirical_input(self, demo_emp):
        np.testing.assert_allclose(marginal_x(demo_emp), [0.6, 0.4])


class TestLabeledAlphabets:
    def test_shape(self):
        alpha = LabeledAlphabets(("a", "b"), ("p", "q", "r"))
        assert alpha.shape == PairShape(2, 3)

    def test_repr_lists_the_labels(self):
        alpha = LabeledAlphabets(("a", "b"), ("p", "q", "r"))
        assert repr(alpha) == "LabeledAlphabets(x=['a', 'b'], y=['p', 'q', 'r'])"

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="distinct"):
            LabeledAlphabets(("a", "a"), ("p",))
        with pytest.raises(ValueError, match="y labels are not pairwise distinct"):
            LabeledAlphabets(("a",), ("p", "q", "p"))
        with pytest.raises(ValueError, match="nonempty"):
            LabeledAlphabets((), ("p",))

    # An int label would fail in the CSV writer, and 1 beside "1" would be
    # distinct here but written twice as 1.
    @pytest.mark.parametrize(
        "x_labels, y_labels, bad",
        [((1, 2), ("a",), "1"), (("1", 1), ("a",), "1"), (("a",), ("p", None), "None")],
    )
    def test_rejects_labels_that_are_not_strings(self, x_labels, y_labels, bad):
        with pytest.raises(ValueError, match=f"^labels must be strings, got {bad}$"):
            LabeledAlphabets(x_labels, y_labels)
