"""Plug-in information measures on finite discrete distributions.

Everything is in nats (natural logarithm).  Each function accepts either
a true flattened distribution or an empirical one; the empirical case
evaluates the same formula at the relative frequencies, which is exactly
the plug-in estimator.

Entropy and mutual information run over every cell, with no mask: each
log argument is floored at the smallest normal double, ``tiny``.  A zero
cell then adds ``0 * log(tiny) = -0.0``, which implements the usual
convention 0 * log 0 = 0 and leaves the sum unchanged.  A positive cell
whose log argument is at least ``tiny`` adds exactly the unfloored term.
Only a cell below ``sqrt(tiny) = 1.5e-154`` can meet the floor (it is
subnormal, or its marginal product underflows), and its term is then
below ``1e-150`` either way.

H and MI are each the p-weighted sum of one floored per-cell term, written
once here: :func:`_floored_log` (H is minus its sum) and
:func:`_pointwise_mi`.  The delta-method variances in
:mod:`pairinfo.asymptotics` are row kernels over the same terms.

Each measure has one formula, written as a kernel over a block of
distributions with a leading batch axis (:func:`entropy_rows`,
:func:`mutual_information_rows`); the Monte Carlo studies run it on many
replicates at once and the scalar functions run it on one row.  A row's
value does not depend on the block it sits in: each sum adds the row's
terms in the order the same sum over that row alone takes, so a study's
estimates equal the scalar function's values bit for bit.
"""

from __future__ import annotations

import numpy as np

from .encoding import PairShape
from .pmf import PmfLike, _validate_probs, z_vector

# Floor of every log argument; see the module docstring.
_TINY = np.finfo(float).tiny


def _floored_log(x: np.ndarray) -> np.ndarray:
    """``log(max(x, tiny))`` of each cell: H's per-cell term, up to sign."""
    return np.log(np.maximum(x, _TINY))


def _pointwise_mi(tables: np.ndarray) -> np.ndarray:
    """``log(p_ij / (p_i p_j))`` of each cell of an (m, rows, cols) block.

    The marginal product and the ratio are floored at ``tiny``; see
    :func:`mutual_information`.
    """
    denom = tables.sum(axis=2)[:, :, None] * tables.sum(axis=1)[:, None, :]
    return _floored_log(tables / np.maximum(denom, _TINY))


def entropy_rows(freqs: np.ndarray) -> np.ndarray:
    """-sum p log p of each row of an (m, k) block of probability vectors."""
    # 0.0 - s is -s, except that a point mass gets 0.0, not -0.0.
    return 0.0 - (freqs * _floored_log(freqs)).sum(axis=1)


def mutual_information_rows(freqs: np.ndarray, shape: PairShape) -> np.ndarray:
    """Mutual information of each row of an (m, rows * cols) block.

    Row ``i`` is the flattened table ``i``; the sums run on its
    ``(rows, cols)`` view.
    """
    tables = freqs.reshape(-1, shape.rows, shape.cols)
    return (tables * _pointwise_mi(tables)).sum(axis=(1, 2))


def entropy(probs) -> float:
    """Shannon entropy -sum p log p in nats of a bare probability vector.

    Raises ValueError on an empty vector, a negative or non-finite entry,
    or a sum outside 1 +/- ``pmf.NORMALIZATION_TOL``, each of which would
    otherwise give a wrong number without complaint.
    """
    if np.size(probs) == 0:
        raise ValueError("probability vector is empty")
    probs = _validate_probs(probs, renormalize=False, what="probability vector")
    return float(entropy_rows(probs.reshape(1, -1))[0])


def joint_entropy(p: PmfLike) -> float:
    """Entropy of the pair, computed on the flattened distribution.

    Flattening is a bijection on outcomes, so this equals the entropy of
    the original pair variable.
    """
    return float(entropy_rows(z_vector(p).reshape(1, -1))[0])


def mutual_information(p: PmfLike) -> float:
    """Shannon mutual information between the two coordinates, in nats.

    Computed directly as sum_{ij} p_ij log(p_ij / (p_i p_j)).  The
    marginal product and the ratio are floored at ``tiny``, so a zero cell
    adds -0.0, and neither an all-zero row or column nor a marginal
    product that underflows divides by zero.  The value is >= 0 up to
    floating-point rounding; tiny negative results near independence are
    returned as computed, not clamped, so callers can see the raw
    estimate.
    """
    return float(mutual_information_rows(z_vector(p).reshape(1, -1), p.shape)[0])


def kl_divergence(p: PmfLike, q: PmfLike) -> float:
    """Relative entropy D(p || q) in nats between flattened distributions.

    Requires q_k > 0 wherever p_k > 0; otherwise the divergence is
    infinite and a ValueError is raised rather than returning inf.
    """
    if p.shape != q.shape:
        raise ValueError(
            f"shape mismatch: {p.shape.rows}x{p.shape.cols} vs "
            f"{q.shape.rows}x{q.shape.cols}"
        )
    pv = z_vector(p)
    qv = z_vector(q)
    mask = pv > 0
    if np.any(qv[mask] == 0):
        k = int(np.argmax(mask & (qv == 0)))
        raise ValueError(
            f"q vanishes where p does not (flattened outcome k = {k + 1})"
        )
    # A difference of logs: the ratio overflows for a subnormal q.
    return float((pv[mask] * (np.log(pv[mask]) - np.log(qv[mask]))).sum())


__all__ = [
    "entropy",
    "joint_entropy",
    "mutual_information",
    "kl_divergence",
]
