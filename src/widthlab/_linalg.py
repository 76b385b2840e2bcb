"""The rank cutoff and the PSD margin that every verdict rests on.

numpy's linear algebra is looked up as ``np.linalg.<fn>`` at call time, so
wrappers installed on ``numpy.linalg`` see every call.
"""

import numpy as np

# Singular values below RANK_RCOND * s_1 count as zero for rank decisions.
RANK_RCOND = 1e-12


def rank_from_values(values: np.ndarray, rcond: float = RANK_RCOND) -> int:
    """Number of nonincreasing singular values above ``rcond * s_1``."""
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values > max(rcond * values[0], 0.0)))


def rank(m: np.ndarray, rcond: float = RANK_RCOND) -> int:
    """Numerical rank of ``m`` under :func:`rank_from_values`."""
    return rank_from_values(np.linalg.svd(m, compute_uv=False), rcond)


def psd_margin(g1: np.ndarray, g2: np.ndarray, top1: float, top2: float) -> float:
    """Smallest eigenvalue of ``g1 - g2`` over ``1 + max(top1², top2²)``, where
    ``top1`` and ``top2`` are the spectral norms of the factors of the Gram
    matrices ``g1`` and ``g2``; ``g1 ≽ g2`` reads ``margin >= -tol``."""
    diff = g1 - g2
    lam_min = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
    return lam_min / (1.0 + max(float(top1) ** 2, float(top2) ** 2))
