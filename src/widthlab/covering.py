"""Covering oracles and constructors for ellipsoids.

The basic decision ``T K1 ⊇ K2`` for ellipsoids ``K_i = A_i(B)`` reduces to
a positive-semidefinite test: the image ``M(B)`` contains ``N(B)`` exactly
when ``N N^T ≼ M M^T`` (a contraction factors one generator through the
other).  Schmidt covers, interpolation-constrained covers and the
dimension-tower dichotomy experiment pair singular values instead;
operator-range equivalence reads its two-sided scaling constants off one
SVD of the second generator in the first one's singular basis (Douglas'
range-inclusion lemma).  Covering closures and weak fullness read only the
width sequences, in :mod:`seqlab`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RCOND, extend_orthonormal, gram_top, nullspace_basis, pow2_scaled, psd_margin, rank
from ._linalg import rank_from_values, svd
from .errors import PSD_TOL, InputError, NotCoverableError, WidthlabError
from .errors import as_operator, as_square, as_subspace, check_integer, check_no_overflow
from .seqlab import SequenceModel, is_lacunary, sample
from .spectra import Ellipsoid, ellipsoid

__all__ = [
    "PSD_TOL",
    "MARGIN_BAND",
    "CoverCertificate",
    "DichotomyReport",
    "RangeEquivalence",
    "covers",
    "schmidt_cover",
    "prescribed_cover",
    "wot_density_experiment",
    "find_separating_projection",
    "range_equiv",
]

# |scaled margin| below this is decided by round-off, not mathematics;
# oracle-agreement statistics exclude such instances.
MARGIN_BAND = 1e-6


@dataclass(frozen=True, eq=False)
class CoverCertificate:
    """Outcome of a covering test.

    ``psd_margin`` is the smallest eigenvalue of ``(T A1)(T A1)^T - A2 A2^T``
    divided by ``1 + max(lambda_max)`` of the two quadratic forms, so the
    test reads ``holds ⇔ psd_margin >= -PSD_TOL``.  The first
    ``lambda_max`` is the top eigenvalue of the Gram matrix
    ``(T A1)(T A1)^T`` the test builds anyway, the second the squared
    cached ``s_1(A2)``.  ``norm`` is the covering operator's norm when the
    test succeeds: the square root of the top eigenvalue of the smaller of
    ``T T^T`` and ``T^T T``, formed from ``T`` scaled by a power of two.
    """

    holds: bool
    psd_margin: float
    norm: float | None = None


@dataclass(frozen=True)
class DichotomyReport:
    """Per-dimension covering fractions of the constrained-cover experiment."""

    dims: tuple
    rho: tuple
    constraint_residuals: tuple
    model_lacunary: bool


@dataclass(frozen=True)
class RangeEquivalence:
    """Two generators span the same operator range iff their ellipsoids are
    equivalent up to two-sided scaling: ``c K1 ⊆ K2 ⊆ C K1``."""

    same_range: bool
    c: float | None = None
    C: float | None = None


# ----------------------------------------------------------------------
# Covering certificates and constructions
# ----------------------------------------------------------------------

def covers(t, e1: Ellipsoid, e2: Ellipsoid) -> CoverCertificate:
    """Does ``T K1 ⊇ K2``?  Deterministic PSD certificate with margin."""
    t = as_operator(t, "covering operator")
    if t.shape != (e2.ambient_dim, e1.ambient_dim):
        raise InputError(
            f"covering operator must map dimension {e1.ambient_dim} to "
            f"{e2.ambient_dim}, got shape {t.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # gram_top and psd_margin report it
        ta = t @ e1.generator
        g1 = ta @ ta.T
    top2 = e2.spectrum.s(1)
    margin = psd_margin(g1, e2.gram, gram_top(g1), top2 * top2)
    if margin < -PSD_TOL:
        return CoverCertificate(False, margin)
    # a power of two scales T exactly, so T T^T cannot overflow where T can
    st, e = pow2_scaled(t)
    tt = st @ st.T if t.shape[0] <= t.shape[1] else st.T @ st
    with np.errstate(over="ignore"):  # reported just below
        norm = float(np.ldexp(math.sqrt(gram_top(tt)), e))
    check_no_overflow(norm, "singular values of the covering operator")
    return CoverCertificate(True, margin, norm=norm)


def _schmidt_pairing(s_src, s_tgt, shape, bases) -> tuple[np.ndarray, float]:
    """The minimal-norm cover ``C W`` from the nonzero s-numbers ``s_src``
    and ``s_tgt`` of a source and a target, as the pair ``(W, C)``:
    ``C = max_n s_tgt[n]/s_src[n]`` and the partial isometry
    ``W = U_tgt U_src^T`` over the leading ``len(s_tgt)`` span-basis
    columns, which ``bases()`` returns as ``(U_src, U_tgt)`` once a nonzero
    cover needs them; ``shape`` is the shape of ``W``, zero for a zero
    target."""
    r1, r2 = s_src.size, s_tgt.size
    if r2 > r1:
        raise NotCoverableError(f"not coverable: target rank {r2} exceeds source rank {r1}")
    if r2 == 0:
        return np.zeros(shape), 0.0
    u_src, u_tgt = bases()
    return u_tgt[:, :r2] @ u_src[:, :r2].T, float(np.max(s_tgt / s_src[:r2]))


def schmidt_cover(e1: Ellipsoid, e2: Ellipsoid) -> tuple[np.ndarray, float]:
    """Minimal-norm operator with ``D K1 ⊇ K2`` between ellipsoids.

    Matches the source and target singular bases pair by pair and scales by
    ``C = max_n s_n(A2)/s_n(A1)``; no covering operator of smaller norm
    exists, since any cover must satisfy ``d_n(K2) <= ||D|| d_n(K1)``.
    """
    w, c = _schmidt_pairing(
        e1.spectrum.values[: e1.rank], e2.spectrum.values[: e2.rank],
        (e2.ambient_dim, e1.ambient_dim), lambda: (e1.span_basis, e2.span_basis),
    )
    return c * w, c


def prescribed_cover(e: Ellipsoid, y, n) -> tuple[np.ndarray, float]:
    """Cover a shrunken truncation while interpolating prescribed values.

    ``y`` holds ``m`` orthonormal columns of the ambient space and ``n`` the
    prescribed images of those columns.  On the orthogonal complement, ``D``
    acts as the norm-one Schmidt cover ``D0`` from the section ``K ∩ Y⊥``
    onto ``rho * truncate(E, rank - m)``; exact self-covering is impossible
    at a fixed dimension, so the achieved fraction ``rho = 1/C`` of the
    truncated target is the reported yield.

    ``D y = n`` holds exactly when the ``y_j`` are coordinate vectors.  In
    general ``D y - n = (D0 y - n)(I - y^T y)``, so
    ``||D y - n||_2 <= (||y||_2 + ||n||_2) ||y^T y - I||_2`` plus round-off:
    the residual follows the orthonormality defect of ``y``, which the
    subspace check lets reach ``ORTHO_TOL`` in each entry of ``y^T y - I``.

    The section's s-numbers and span basis come from one factored SVD of
    ``A Z`` (``Z`` an orthonormal basis of ``ker(Y^T A)``), and the
    truncation is ``e``'s own leading ``rank - m`` singular pairs, as
    :func:`~widthlab.spectra.truncate_ellipsoid` would give them.
    """
    amb = e.ambient_dim
    y = as_subspace(y, amb, "constraint subspace")
    m = y.shape[1]
    if m >= e.rank:
        raise InputError(f"constraint dimension {m} must stay below the rank {e.rank}")
    n = np.zeros((amb, 0)) if n is None else np.asarray(n, dtype=float)
    if n.shape != (amb, m):
        raise InputError(f"prescribed images: expected shape ({amb}, {m}), got {n.shape}")
    if m:
        n = as_operator(n, "prescribed images")

    kernel = nullspace_basis(y.T @ e.generator, rcond=e.rcond)
    u_sec, s_sec, _ = svd(e.generator @ kernel)
    d0, c = _schmidt_pairing(
        s_sec[: rank_from_values(s_sec, e.rcond)], e.spectrum.values[: e.rank - m],
        (amb, amb), lambda: (u_sec, e.span_basis),
    )
    rho = 1.0 / c
    if m:
        # D = N Y^T + D0 (I - Y Y^T), applied as a rank-m update
        d = d0 - (d0 @ y) @ y.T + n @ y.T
    else:
        d = d0
    return d, rho


def wot_density_experiment(model: SequenceModel, m: int, dims, seed: int) -> DichotomyReport:
    """Constrained-cover yield ``rho(d)`` across a tower of dimensions.

    For each dimension ``d`` the experiment builds the diagonal ellipsoid of
    the first ``d`` model terms, draws ``m`` of its principal axes among the
    first ``d - m`` (the axes the truncated target keeps, so each constraint
    genuinely competes with the covering task) together with random
    prescribed values, and records the yield of :func:`prescribed_cover`.
    Axis-aligned constraints keep every quantity exact in floating point.
    Deterministic given ``seed``; dimensions use independent substreams, so
    concurrent evaluation would produce the identical report.

    Non-lacunary models keep ``rho(d)`` bounded below (geometric ratio ``q``
    yields exactly ``q^m``); lacunary models collapse to zero — the
    dimension-tower shadow of the everything-vs-algebra dichotomy.
    """
    check_integer(m, 0, "constraint count must be nonnegative, got {}")
    check_integer(seed, 0, "seed must be a nonnegative integer, got {}")
    dims = list(dims)
    if not dims:
        raise InputError("need at least one dimension")
    for d in dims:
        check_integer(d, m + 1, f"dimension {{}} must exceed the constraint count {m}")
    dims = [int(d) for d in dims]
    rhos, residuals = [], []
    for d in dims:
        try:
            terms = sample(model, d)
        except InputError as exc:
            raise InputError(f"dimension {d} refused: {exc}") from None
        e = ellipsoid(np.diag(terms), rcond=0.0)
        rng = np.random.default_rng([seed, d])
        if m:
            # constrained axes live among those the truncated target keeps;
            # when d < 2m that pool is too small and we settle for any m
            # proper axes (the yield is then only bounded, not closed-form)
            pool = d - m if d - m >= m else d - 1
            removed = np.sort(rng.choice(pool, size=m, replace=False))
            y = np.zeros((d, m))
            y[removed, np.arange(m)] = 1.0
            n = rng.normal(size=(d, m))
        else:
            y = np.zeros((d, 0))
            n = np.zeros((d, 0))
        dmat, rho = prescribed_cover(e, y, n)
        rhos.append(float(rho))
        residuals.append(float(np.max(np.abs(dmat @ y - n))) if m else 0.0)
    return DichotomyReport(
        dims=tuple(dims),
        rho=tuple(rhos),
        constraint_residuals=tuple(residuals),
        model_lacunary=is_lacunary(model).lacunary,
    )


# ----------------------------------------------------------------------
# Separating projections and operator ranges
# ----------------------------------------------------------------------

def find_separating_projection(t_list) -> np.ndarray:
    """Orthogonal projection ``P`` keeping ``{P T_i}`` linearly independent.

    Makes ``U -> (trace(U P T_i))_i`` surjective.  ``P`` grows greedily from
    the top singular directions of the inputs, one rank at a time; the rank
    found is minimal only in the best-effort sense.
    """
    mats = as_square([(f"t_list[{i}]", t) for i, t in enumerate(t_list)])
    d = mats[0].shape[0]
    stacked = np.stack([t.reshape(-1) for t in mats])
    combos = nullspace_basis(stacked.T)
    if combos.shape[1]:
        coeffs = combos[:, 0]
        terms = " + ".join(f"({c:.6g})*T{i + 1}" for i, c in enumerate(coeffs) if abs(c) > RANK_RCOND)
        raise InputError(f"operators are linearly dependent: {terms} = 0")

    factors = [(u, rank_from_values(sv)) for u, sv, _ in map(svd, mats)]
    pool = [u[:, level] for level in range(d) for u, r in factors if level < r]

    q_cols: list[np.ndarray] = []
    for cand in pool:
        if not extend_orthonormal(q_cols, cand):
            continue
        q = np.column_stack(q_cols)
        p = q @ q.T
        proj = np.stack([(p @ t).reshape(-1) for t in mats])
        if rank(proj) == len(mats):
            return p
    raise WidthlabError("internal: projection onto the joint range failed the rank test")


RANGE_TOL = 1e-9


def range_equiv(a1, a2) -> RangeEquivalence:
    """Compare column spaces; on success return the extreme two-sided
    scaling constants ``c K1 ⊆ K2 ⊆ C K1`` (generalized eigenvalues on the
    common range).

    At full rank both ranges are the whole space; below it the ranges agree
    when ``||P1 - P2||`` of the two range projectors stays within
    ``RANGE_TOL``.  Between ranges of one dimension that norm is
    ``||(I - P1) P2||``, the sine of the largest principal angle (Golub &
    Van Loan, Matrix Computations, 2.5.3): the top singular value of the
    ``d x r`` matrix ``q2 - q1 (q1^T q2)``."""
    a1 = as_operator(a1, "first generator")
    a2 = as_operator(a2, "second generator")
    if a1.shape[0] != a2.shape[0]:
        raise InputError(
            f"generators must share the ambient dimension, got {a1.shape[0]} and {a2.shape[0]}"
        )
    # U1 and s1 from one factored SVD of a1; a2 gives its basis only when read
    u1, s1, _ = svd(a1)
    r, e2 = rank_from_values(s1), ellipsoid(a2)
    if r != e2.rank:
        return RangeEquivalence(False)
    if r == 0:
        return RangeEquivalence(True, 1.0, 1.0)
    q1 = u1[:, :r]
    if r < a1.shape[0]:
        q2 = e2.span_basis
        if svd(q2 - q1 @ (q1.T @ q2), compute_uv=False)[0] > RANGE_TOL:
            return RangeEquivalence(False)
    # with q = span_basis, (q^T a1)(q^T a1)^T = diag(s1^2), so the generalized
    # eigenvalues of the two forms are the squared singular values of
    # diag(1/s1) q^T a2 (Golub & Van Loan, Matrix Computations, 8.7)
    with np.errstate(over="ignore"):  # reported just below
        quotient = (q1.T @ a2) / s1[:r, None]
    check_no_overflow(quotient, "scaling constants")
    sv = svd(quotient, compute_uv=False)
    if sv[-1] == 0:  # the quotient of two rank-r generators has rank r
        raise InputError("scaling constants underflow double precision; rescale the input")
    return RangeEquivalence(True, float(sv[-1]), float(sv[0]))
