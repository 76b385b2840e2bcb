"""The SVD, the one rank rule that decides every "is this direction there",
the one range-inclusion rule built on it with Douglas' quotient ``M^+ N``
behind that rule, the section of an ellipsoid by a subspace, the
Gram-matrix norm, the PSD margin and the power-of-two rescale that every
verdict rests on.  Kernels, complements and projections are read
off the singular vectors beyond or within the rank that rule decides.

numpy's linear algebra is looked up as ``np.linalg.<fn>`` at call time, so
wrappers installed on ``numpy.linalg`` see every call.
"""

import numpy as np

from .errors import check_no_overflow

# Singular values below RANK_RCOND * s_1 count as zero for rank decisions.
RANK_RCOND = 1e-12


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


def rank_from_values(values: np.ndarray, rcond: float = RANK_RCOND, top: float | None = None) -> int:
    """Number of nonincreasing singular values above ``rcond * top``.  The
    reference scale ``top`` is ``s_1 = values[0]`` unless given: values
    derived from a matrix ``A``, as in :func:`section_svd`, are cut at
    ``s_1(A)``, the scale of their round-off."""
    if values.size == 0:
        return 0
    top = values[0] if top is None else top
    return int(np.count_nonzero(values > max(rcond * top, 0.0)))


def rank(m: np.ndarray, rcond: float = RANK_RCOND) -> int:
    """Numerical rank of ``m`` under :func:`rank_from_values`."""
    return rank_from_values(svd(m, compute_uv=False), rcond)


def range_contains(m: np.ndarray, n: np.ndarray, m_values: np.ndarray, m_basis: np.ndarray) -> bool:
    """Does ``range(n) ⊆ range(m)``?  The one range-inclusion rule, the
    range half of Douglas' lemma, from ``m``'s singular values
    ``m_values`` and their left singular vectors ``m_basis``.

    A full row rank answers at once.  Otherwise ``m`` stands for
    ``Q diag(s) W^T`` cut to the ``r`` values the rank rule counts, and
    ``rank([m n]) == r`` is read off the ``(r + rows) x (r + cols(n))``
    block ``[[diag(s), Q^T n], [0, n - Q Q^T n]]``, which has the singular
    values of ``[m n]``.  Each operand is scaled by its own power of two,
    exactly, so no scale changes the answer; both ranks count at the
    block's largest value, and by interlacing its rank is never below ``r``.
    """
    r = rank_from_values(m_values)
    if r == m.shape[0]:
        return True
    n_hat = pow2_scaled(n)[0]
    values, basis = np.ldexp(m_values[:r], -pow2_scaled(m)[1]), m_basis[:, :r]
    c = basis.T @ n_hat
    block = np.zeros((r + n.shape[0], r + n.shape[1]))
    block[np.arange(r), np.arange(r)] = values
    block[:r, r:], block[r:, r:] = c, n_hat - basis @ c
    s = svd(block, compute_uv=False)
    return rank_from_values(s) == rank_from_values(values, top=s[0])


def range_quotient(m: np.ndarray, n: np.ndarray, m_values: np.ndarray, m_basis: np.ndarray):
    """Douglas' lemma in one routine: ``None`` unless :func:`range_contains`
    finds ``range(n) ⊆ range(m)``, else ``diag(1/s_r) Q_r^T n`` over the
    ``r`` values the rank rule counts.  That is ``W_r^T m^+ n``, so its
    singular values are the nonzero ones of ``m^+ n`` and its 2-norm is
    ``||m^+ n||``; entries that overflow are ``inf``."""
    if not range_contains(m, n, m_values, m_basis):
        return None
    r = rank_from_values(m_values)
    with np.errstate(over="ignore"):  # the caller reports or compares it
        return (m_basis[:, :r].T @ n) / m_values[:r, None]


def section_svd(a: np.ndarray, y: np.ndarray, s1: float, rcond: float, compute_uv: bool = True):
    """The section ``A(B) ∩ Y⊥`` of the ellipsoid of ``a``, whose largest
    singular value is ``s1``: its left singular vectors, values and rank
    as ``(u, s, rank)``, or ``(s, rank)`` unless ``compute_uv``.

    The section is ``A`` on ``ker(Y^T A)``: its nonzero singular pairs are
    those of ``A - (A R) R^T``, where ``R`` is the row-space basis of
    ``Y^T A`` from one thin SVD of that block.  No kernel basis and no
    ``A Z`` is formed.  The ``rank(Y^T A)`` extra values, zero up to
    round-off, are cut off: the first ``min(rows, cols - rank(Y^T A))`` are
    kept, as many as ``A`` has on the kernel.  Both ranks count the values
    above ``rcond * s1``: the round-off of ``Y^T A`` and of the section is
    of order ``eps * s1``, which a cutoff relative to their own top values
    would count as rank when ``Y`` misses or cuts ``A``'s top directions.
    """
    _, s_row, vh = svd(y.T @ a)
    r = vh[: rank_from_values(s_row, rcond, s1)].T
    section = (a @ r) @ r.T
    np.subtract(a, section, out=section)
    keep = min(a.shape[0], a.shape[1] - r.shape[1])
    if not compute_uv:
        s = svd(section, compute_uv=False)[:keep]
        return s, rank_from_values(s, rcond, s1)
    u, s, _ = svd(section)
    return u[:, :keep], s[:keep], rank_from_values(s[:keep], rcond, s1)


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
