"""The SVD, the rank cutoff and the kernel basis it decides, the
Gram-matrix norm, the PSD margin, the Gram-Schmidt step and the
power-of-two rescale that every verdict rests on.

numpy's linear algebra is looked up as ``np.linalg.<fn>`` at call time, so
wrappers installed on ``numpy.linalg`` see every call.
"""

import numpy as np

from .errors import check_no_overflow

# Singular values below RANK_RCOND * s_1 count as zero for rank decisions.
RANK_RCOND = 1e-12
INDEPENDENCE_TOL = 1e-10  # v depends on an orthonormal set if its part off it is <= this * ||v||


def monomial_svd(a: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """Exact SVD of a *monomial* matrix, one with at most one nonzero per
    row and per column, shaped as :func:`svd` returns it; ``None`` for any
    other matrix.

    The singular values are the sorted ``|entries|``, their signs go into
    ``u``, and unused coordinates fill the remaining columns of ``u`` and
    rows of ``vh``.  A matrix with more nonzeros than ``min(m, n)`` is
    turned away after one count; otherwise one pass finds the nonzeros and
    a repeated row or column turns it away.  Singular values that are not
    finite are refused, as in :func:`svd`.
    """
    m, n = a.shape
    nz = a != 0
    if np.count_nonzero(nz) > min(m, n):
        return None
    rows, cols = np.divmod(np.flatnonzero(nz), n)
    free_cols = np.ones(n, dtype=bool)
    free_cols[cols] = False
    # flat indices ascend, so a repeated row sits next to itself
    if (rows[1:] == rows[:-1]).any() or n - np.count_nonzero(free_cols) < cols.size:
        return None
    vals = a[rows, cols]
    order = np.argsort(-np.abs(vals), kind="stable")
    vals, rows, cols = vals[order], rows[order], cols[order]
    p = vals.size
    sv = np.zeros(min(m, n))
    sv[:p] = np.abs(vals)
    check_no_overflow(sv, "singular values")
    if not compute_uv:
        return sv
    ku, kv = (m, n) if full_matrices else (sv.size, sv.size)
    free_rows = np.ones(m, dtype=bool)
    free_rows[rows] = False
    u = np.zeros((m, ku))
    u[rows, np.arange(p)] = np.sign(vals)
    u[np.flatnonzero(free_rows)[: ku - p], np.arange(p, ku)] = 1.0
    vh = np.zeros((kv, n))
    vh[np.arange(p), cols] = 1.0
    vh[np.arange(p, kv), np.flatnonzero(free_cols)[: kv - p]] = 1.0
    return u, sv, vh


def svd(a: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """SVD of a finite matrix, as ``np.linalg.svd`` with the same arguments
    (but thin factors by default); the one SVD entry point of the package.

    A monomial matrix is decomposed exactly by :func:`monomial_svd`.
    gesdd can lose the relative accuracy of such a graded diagonal (Demmel
    & Kahan 1990), and the dichotomy tower's generators and its
    axis-aligned constraint blocks are all monomial.  Every other matrix
    goes to gesdd.  Singular values that overflow are refused.
    """
    exact = monomial_svd(a, full_matrices, compute_uv)
    if exact is not None:
        return exact
    out = np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    check_no_overflow(out[1] if compute_uv else out, "singular values")
    return out


def pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2**-e, e)`` for the binary exponent ``e`` of ``max|a|``, so the
    largest scaled entry lies in [1/2, 1).  ``np.ldexp`` only shifts
    exponents: the scaling is exact unless small entries underflow, and
    ``e`` may be any exponent a double has, subnormal ones included."""
    e = int(np.frexp(np.max(np.abs(a)))[1])
    return np.ldexp(a, -e), e


def rank_from_values(values: np.ndarray, rcond: float = RANK_RCOND) -> int:
    """Number of nonincreasing singular values above ``rcond * s_1``."""
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values > max(rcond * values[0], 0.0)))


def rank(m: np.ndarray, rcond: float = RANK_RCOND) -> int:
    """Numerical rank of ``m`` under :func:`rank_from_values`."""
    return rank_from_values(svd(m, compute_uv=False), rcond)


def nullspace_basis(m: np.ndarray, rcond: float = RANK_RCOND) -> np.ndarray:
    """Orthonormal basis of ker(m) as columns: the right singular vectors
    beyond :func:`rank`.

    The kernel of a monomial ``m``, such as an axis-aligned constraint
    block, comes out as exact coordinate vectors (see :func:`svd`), which
    the diagonal-model experiments rely on.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    # only a wide matrix needs full factors; a tall matrix's full u can be huge
    _, sv, vh = svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[rank_from_values(sv, rcond):].T


def extend_orthonormal(basis: list, v: np.ndarray) -> bool:
    """Append to the orthonormal vectors ``basis`` the unit part of ``v``
    orthogonal to them (one modified Gram-Schmidt step); return False, and
    append nothing, when ``v`` depends on them under ``INDEPENDENCE_TOL``."""
    w = np.array(v, dtype=float)
    for q in basis:
        w -= (q @ w) * q
    nrm = np.linalg.norm(w)
    if nrm <= INDEPENDENCE_TOL * np.linalg.norm(v):
        return False
    basis.append(w / nrm)
    return True


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
    reads ``margin >= -PSD_TOL``."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        diff = g1 - g2
        sym = 0.5 * diff + 0.5 * diff.T  # halves first: diff + diff.T can overflow
    scale = 1.0 + max(n1, n2)
    check_no_overflow(sym, "Gram matrix entries")
    check_no_overflow(scale, "squared norms")
    return float(np.linalg.eigvalsh(sym)[0]) / scale
