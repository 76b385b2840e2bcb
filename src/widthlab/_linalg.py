"""The rank cutoff, the Gram-matrix norm and the PSD margin that every
verdict rests on.

numpy's linear algebra is looked up as ``np.linalg.<fn>`` at call time, so
wrappers installed on ``numpy.linalg`` see every call.
"""

import numpy as np

from .errors import check_no_overflow

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


def gram_top(g: np.ndarray) -> float:
    """Largest eigenvalue of the Gram matrix ``g = F F^T``, floored at zero:
    the squared spectral norm of the factor ``F``, accurate to a few ulps
    (Golub & Van Loan, Matrix Computations, 8.1)."""
    check_no_overflow(g, "Gram matrix entries")
    return max(float(np.linalg.eigvalsh(g)[-1]), 0.0)


def psd_margin(g1: np.ndarray, g2: np.ndarray, n1: float, n2: float) -> float:
    """Smallest eigenvalue of ``g1 - g2`` over ``1 + max(n1, n2)``, where
    ``n1`` and ``n2`` are the squared spectral norms of the factors of the
    Gram matrices ``g1`` and ``g2`` (their largest eigenvalues, as
    :func:`gram_top` gives them, or squared cached s-numbers); ``g1 ≽ g2``
    reads ``margin >= -tol``."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        diff = g1 - g2
        sym = 0.5 * (diff + diff.T)
    scale = 1.0 + max(n1, n2)
    check_no_overflow(sym, "Gram matrix entries")
    check_no_overflow(scale, "squared norms")
    return float(np.linalg.eigvalsh(sym)[0]) / scale
