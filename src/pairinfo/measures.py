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
"""

from __future__ import annotations

import numpy as np

from .pmf import PmfLike, _validate_probs, z_vector

# Floor of every log argument; see the module docstring.
_TINY = np.finfo(float).tiny


def _entropy(probs: np.ndarray) -> float:
    """-sum p log p of an already validated probability vector."""
    # 0.0 - s is -s, except that a point mass gets 0.0, not -0.0.
    return 0.0 - float((probs * np.log(np.maximum(probs, _TINY))).sum())


def entropy(probs) -> float:
    """Shannon entropy -sum p log p in nats of a bare probability vector.

    Raises ValueError on an empty vector, a negative or non-finite entry,
    or a sum outside 1 +/- ``pmf.NORMALIZATION_TOL``, each of which would
    otherwise give a wrong number without complaint.
    """
    if np.size(probs) == 0:
        raise ValueError("probability vector is empty")
    return _entropy(
        _validate_probs(probs, strict=False, renormalize=False, what="probability vector")
    )


def joint_entropy(p: PmfLike) -> float:
    """Entropy of the pair, computed on the flattened distribution.

    Flattening is a bijection on outcomes, so this equals the entropy of
    the original pair variable.
    """
    return _entropy(z_vector(p))


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
    table = z_vector(p).reshape(p.shape.rows, p.shape.cols)
    denom = np.outer(table.sum(axis=1), table.sum(axis=0))
    ratio = table / np.maximum(denom, _TINY)
    return float((table * np.log(np.maximum(ratio, _TINY))).sum())


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
    return float((pv[mask] * np.log(pv[mask] / qv[mask])).sum())
