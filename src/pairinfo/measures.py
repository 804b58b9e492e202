"""Plug-in information measures on finite discrete distributions.

Everything is in nats (natural logarithm).  Sums skip zero-probability
cells, which implements the usual convention 0 * log 0 = 0.  Each function
accepts either a true flattened distribution or an empirical one; the
empirical case evaluates the same formula at the relative frequencies,
which is exactly the plug-in estimator.
"""

from __future__ import annotations

import numpy as np

from .pmf import PmfLike, z_vector


def entropy(probs) -> float:
    """Shannon entropy -sum p log p in nats of a bare probability vector."""
    arr = np.asarray(probs, dtype=float)
    pos = arr[arr > 0]
    # 0.0 - s is -s, except that a point mass gets 0.0, not -0.0.
    return 0.0 - float((pos * np.log(pos)).sum())


def joint_entropy(p: PmfLike) -> float:
    """Entropy of the pair, computed on the flattened distribution.

    Flattening is a bijection on outcomes, so this equals the entropy of
    the original pair variable.
    """
    return entropy(z_vector(p))


def mutual_information(p: PmfLike) -> float:
    """Shannon mutual information between the two coordinates, in nats.

    Computed directly as sum_{ij} p_ij log(p_ij / (p_i p_j)) over cells
    with p_ij > 0.  The value is >= 0 up to floating-point rounding; tiny
    negative results near independence are returned as computed, not
    clamped, so callers can see the raw estimate.
    """
    table = z_vector(p).reshape(p.shape.rows, p.shape.cols)
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    denom = np.outer(px, py)
    mask = table > 0
    # p_ij > 0 forces both marginals > 0, so the ratio is always defined.
    return float(
        (table[mask] * np.log(table[mask] / denom[mask])).sum()
    )


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
