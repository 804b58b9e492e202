"""Probability mass functions for a pair of categorical variables.

Three containers cover the whole pipeline:

* :class:`JointPmf` -- the rows x cols probability table.
* :class:`ZPmf` -- the same distribution flattened to a length rows*cols
  vector in the row-major order of :mod:`pairinfo.encoding`.
* :class:`EmpiricalPmf` -- integer outcome counts from an i.i.d. sample,
  with their relative frequencies beside them.

All containers are immutable after construction and safe to share across
threads.  Table entries may be zero; downstream information measures treat
``0 * log 0`` as 0, so zero cells are harmless there.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .encoding import PairShape, _integers

NORMALIZATION_TOL = 1e-9

_INT64_MAX = int(np.iinfo(np.int64).max)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate_probs(values, *, renormalize: bool, what: str) -> np.ndarray:
    if np.iscomplexobj(values):  # a float cast would drop the imaginary part
        raise ValueError(f"{what} contains complex entries")
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if renormalize:
        if total <= 0:
            raise ValueError(f"{what} sums to {total}; cannot renormalize")
        if total == np.inf:  # finite entries whose sum overflows
            arr = arr / arr.max()
            total = float(arr.sum())
        arr = arr / total
    elif abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(
            f"{what} sums to {total!r}, outside 1 +/- {NORMALIZATION_TOL}"
        )
    return _frozen(arr)


class JointPmf:
    """Joint probability table of a pair of categorical variables.

    Parameters
    ----------
    table : 2-D array-like
        Cell probabilities, one row per row-alphabet symbol.
    renormalize : bool
        Divide by the table sum instead of insisting it is within
        ``1e-9`` of 1.  Useful for hand-typed tables.
    """

    def __init__(self, table, *, renormalize: bool = False):
        arr = np.asarray(table)
        if arr.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got {arr.ndim}-D")
        self.shape = PairShape(arr.shape[0], arr.shape[1])
        self.probs = _validate_probs(arr, renormalize=renormalize, what="joint table")

    def __repr__(self) -> str:
        return f"JointPmf(shape={self.shape.rows}x{self.shape.cols})"


class ZPmf:
    """Flattened view of a joint distribution as a single categorical variable.

    ``probs[k - 1]`` is the probability of the 1-based flattened outcome
    ``k = cols * (i - 1) + j``.
    """

    def __init__(self, probs, shape: PairShape, *, renormalize: bool = False):
        arr = np.asarray(probs)
        if arr.ndim != 1:
            raise ValueError(f"flattened p.m.f. must be 1-D, got {arr.ndim}-D")
        if arr.shape[0] != shape.size:
            raise ValueError(
                f"flattened p.m.f. has {arr.shape[0]} entries, shape needs {shape.size}"
            )
        self.shape = shape
        self.probs = _validate_probs(
            arr, renormalize=renormalize, what="flattened p.m.f."
        )

    def __repr__(self) -> str:
        return f"ZPmf(shape={self.shape.rows}x{self.shape.cols})"


class EmpiricalPmf:
    """Outcome counts of an i.i.d. sample of the flattened variable.

    Counts are kept as exact integers; ``freqs`` is ``counts / n``, the
    relative frequencies, computed once at construction.
    """

    def __init__(self, counts, shape: PairShape):
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.shape[0] != shape.size:
            raise ValueError(
                f"counts must be a length-{shape.size} vector for shape "
                f"{shape.rows}x{shape.cols}"
            )
        self.counts = _frozen(_integers(arr, "counts", 0, _INT64_MAX))
        # The int64 sum wraps silently.  It can only wrap when some count
        # exceeds INT64_MAX / k, and then the exact sum decides.
        if self.counts.max() > _INT64_MAX // arr.size and sum(self.counts.tolist()) > _INT64_MAX:
            raise ValueError("total count exceeds the int64 range")
        self.shape = shape
        self.n = int(self.counts.sum())
        if self.n < 1:
            raise ValueError("empty sample: n = 0")
        self.freqs = _frozen(self.counts / self.n)

    def as_zpmf(self) -> ZPmf:
        """Relative frequencies as a :class:`ZPmf` (the plug-in distribution)."""
        return ZPmf(self.freqs, self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalPmf):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self):
        return hash((self.shape, self.counts.tobytes()))

    def __repr__(self) -> str:
        return f"EmpiricalPmf(shape={self.shape.rows}x{self.shape.cols}, n={self.n})"


class LabeledAlphabets:
    """Category names for the two variables, in fixed order."""

    def __init__(self, x_labels: Sequence[str], y_labels: Sequence[str]):
        x = tuple(x_labels)
        y = tuple(y_labels)
        for label in x + y:
            if not isinstance(label, str):
                raise ValueError(f"labels must be strings, got {label!r}")
        if len(set(x)) != len(x):
            raise ValueError("x labels are not pairwise distinct")
        if len(set(y)) != len(y):
            raise ValueError("y labels are not pairwise distinct")
        if not x or not y:
            raise ValueError("alphabets must be nonempty")
        self.x_labels = x
        self.y_labels = y

    @property
    def shape(self) -> PairShape:
        return PairShape(len(self.x_labels), len(self.y_labels))

    def __repr__(self) -> str:
        return f"LabeledAlphabets(x={list(self.x_labels)}, y={list(self.y_labels)})"


PmfLike = Union[ZPmf, EmpiricalPmf]


def z_vector(p: PmfLike) -> np.ndarray:
    """Flattened probability vector of a true or empirical distribution."""
    if isinstance(p, ZPmf):
        return p.probs
    if isinstance(p, EmpiricalPmf):
        return p.freqs
    raise TypeError(f"expected ZPmf or EmpiricalPmf, got {type(p).__name__}")


def z_view(joint: JointPmf) -> ZPmf:
    """Flatten a joint table row-major into the single-variable view."""
    return ZPmf(joint.probs.ravel(), joint.shape)


def estimate_pmf(sample, shape: PairShape) -> EmpiricalPmf:
    """Empirical distribution of a sample of 1-based flattened outcomes.

    ``freqs[k - 1]`` is the relative frequency of outcome ``k``; this is the
    plug-in estimator every downstream measure is evaluated at.
    """
    arr = np.asarray(sample)
    if arr.ndim != 1:
        raise ValueError(f"sample must be 1-D, got {arr.ndim}-D")
    counts = np.bincount(_integers(arr, "sample", 1, shape.size) - 1, minlength=shape.size)
    return EmpiricalPmf(counts, shape)


def _as_table(p: PmfLike) -> np.ndarray:
    return z_vector(p).reshape(p.shape.rows, p.shape.cols)


def marginal_x(p: PmfLike) -> np.ndarray:
    """Row-variable marginal (length ``rows``); sums to 1."""
    return _as_table(p).sum(axis=1)


def marginal_y(p: PmfLike) -> np.ndarray:
    """Column-variable marginal (length ``cols``); sums to 1."""
    return _as_table(p).sum(axis=0)


__all__ = [
    "JointPmf",
    "ZPmf",
    "EmpiricalPmf",
    "LabeledAlphabets",
    "z_view",
    "estimate_pmf",
    "marginal_x",
    "marginal_y",
]
