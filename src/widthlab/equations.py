"""The bilinear equation ``X A Y = B``: solvability, constructions, density kernels.

Solvability in the finite model is a rank comparison; the constructive
solver is a fixed SVD-balanced recipe so tests are deterministic.  The
density-flavoured operations are the two constructive kernels behind
strong-operator approximation: exact factorizations ``X Y = B`` through a
doubled internal space, and invertible operators matching finitely many
vector constraints on both ``V`` and ``V^{-1}``.  Every decision and basis
comes from :mod:`_linalg`'s SVD, rank rule and range-inclusion rule; the
module needs no other package module but :mod:`errors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._linalg import RANK_RCOND, pow2_scaled, range_contains, rank, rank_from_values, svd
from .errors import InfeasibleError, InputError, UnsolvableError, WidthlabError
from .errors import as_columns, as_operator, as_square, check_no_overflow, check_positive, frozen

__all__ = [
    "SolvabilityVerdict",
    "SolutionPair",
    "MatchCertificate",
    "xay_solvable",
    "solve_xay",
    "first_component_member",
    "factor_pair",
    "match_invertible",
    "approx_factorization",
]

_RESIDUAL_TOL = 1e-9


def _relative_residual(b: np.ndarray, *factors: np.ndarray) -> float:
    """``||F_1 ... F_k - B||_F / ||B||_F`` for the factors ``F_i``, with
    ``||B||_F`` floored at the smallest normal double (below it ``B`` keeps
    only an absolute precision); for ``B = 0`` the absolute ``||F_1 ... F_k||_F``.

    Both norms are taken of exact power-of-two scalings, so neither
    overflows nor underflows; a large ``B`` also scales ``F_1`` before the
    product.  A product that overflows anyway is refused.
    """
    sb, e = pow2_scaled(b)
    shrink = max(e, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        product = reduce(np.matmul, factors[1:], np.ldexp(factors[0], -shrink))
        check_no_overflow(product, "factor products")
    sd, ed = pow2_scaled(product - np.ldexp(b, -shrink))
    floor = np.ldexp(np.finfo(float).tiny, -e) if b.any() else 1.0
    return float(np.ldexp(np.linalg.norm(sd) / max(np.linalg.norm(sb), floor), ed + shrink - e))


@dataclass(frozen=True)
class SolvabilityVerdict:
    """Solvable iff rank(B) <= rank(A)."""

    solvable: bool
    rank_A: int
    rank_B: int


@dataclass(frozen=True, eq=False)
class SolutionPair:
    """A solution (X, Y) with its relative Frobenius residual."""

    X: np.ndarray
    Y: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "X", frozen(self.X))
        object.__setattr__(self, "Y", frozen(self.Y))


@dataclass(frozen=True, eq=False)
class MatchCertificate:
    """An invertible operator matching vector constraints on both sides.

    ``operator`` is V itself; ``condition`` its 2-norm condition number;
    the residual tuples report ``||V x_i - x_i'||`` and ``||V^-1 y_j - y_j'||``.
    """

    operator: np.ndarray
    condition: float
    x_residuals: tuple
    y_residuals: tuple

    def __post_init__(self):
        object.__setattr__(self, "operator", frozen(self.operator))


def xay_solvable(a, b) -> SolvabilityVerdict:
    """Decide solvability of ``X A Y = B`` (square operators on one space)."""
    a, b = as_square([("A", a), ("B", b)])
    ra, rb = rank(a), rank(b)
    return SolvabilityVerdict(rb <= ra, ra, rb)


def solve_xay(a, b) -> SolutionPair:
    """One canonical solution of ``X A Y = B``.

    With ``A = U_A S_A V_A^T`` and ``B = U_B S_B V_B^T`` and ``r = rank(B)``,
    take ``Y = V_A[:,:r] S_A^{-1/2} V_B[:,:r]^T`` and
    ``X = U_B[:,:r] S_B S_A^{-1/2} U_A[:,:r]^T``: the ``S_A`` factors cancel
    and the square-root split balances the two factor norms.  The solution
    is not unique; this particular one is fixed for determinism.
    """
    a, b = as_square([("A", a), ("B", b)])
    ua, sa, vta = svd(a)
    ub, sb, vtb = svd(b)
    ra, r = rank_from_values(sa), rank_from_values(sb)
    if r > ra:
        raise UnsolvableError(f"rank(B)={r} exceeds rank(A)={ra}",
                              SolvabilityVerdict(False, ra, r))
    if r == 0:
        d = a.shape[0]
        return SolutionPair(np.zeros((d, d)), np.zeros((d, d)), 0.0)
    root = np.sqrt(sa[:r])
    y = vta[:r].T @ ((1.0 / root)[:, None] * vtb[:r])
    x = ub[:, :r] @ ((sb[:r] / root)[:, None] * ua[:, :r].T)
    residual = _relative_residual(b, x, a, y)
    if not residual <= _RESIDUAL_TOL:
        raise WidthlabError(f"internal: solver residual {residual:g} above {_RESIDUAL_TOL:g}")
    return SolutionPair(x, y, residual)


def first_component_member(x, a, b) -> bool:
    """Is ``X`` the first component of some solution: ``col(B) ⊆ col(X A)``?
    One thin SVD of ``X A`` gives the factors the inclusion rule reads."""
    x = as_operator(x, "X")
    a = as_operator(a, "A")
    b = as_operator(b, "B")
    if x.shape[1] != a.shape[0] or x.shape[0] != b.shape[0]:
        raise InputError("shape mismatch between X, A and B")
    xa = pow2_scaled(x @ a)[0]
    u, s, _ = svd(xa)
    return range_contains(xa, b, s, u)


def factor_pair(b) -> SolutionPair:
    """An exact factorization ``X Y = B`` with dense image and trivial kernel.

    Works in a doubled internal space split into two copies of the original:
    with the coordinate isometries ``U1, U2`` onto the summands,
    ``Y = U1`` and ``X = B U1^T + U2^T = [B | I]``.  Then ``X Y = B``
    exactly, ``X`` has full row rank and ``Y`` has no kernel, which is what
    the invertible-twist family ``(X V^{-1}, V Y)`` needs.
    """
    (b,) = as_square([("B", b)])
    d = b.shape[0]
    eye = np.eye(d)
    y = np.vstack([eye, np.zeros((d, d))])
    x = np.hstack([b, eye])
    return SolutionPair(x, y, _relative_residual(b, x, y))


def _matching_maps(dom: np.ndarray, img: np.ndarray):
    """``(V, V^-1)`` with ``V dom = img`` up to round-off, or ``None`` when
    ``dom`` and ``img`` do not share their column relations.

    They share them when their ranks agree under the rank rule and ``img``
    vanishes on ``ker(dom)``: the row space of ``img`` lies in that of
    ``dom`` under :func:`~widthlab._linalg.range_contains`, which reuses
    ``dom``'s singular values and right singular vectors and tests nothing
    when ``dom`` has full column rank.
    Then ``V`` is ``img dom^+`` on ``range(dom)`` plus an isometry from
    ``range(dom)⊥`` onto ``range(img)⊥``, and ``V^-1`` is built the same
    way from ``img``, from one full SVD of each stack.
    """
    f_dom, f_img = svd(dom, full_matrices=True), svd(img, full_matrices=True)
    r = rank_from_values(f_dom[1])
    if rank_from_values(f_img[1]) != r or not range_contains(dom.T, img.T, f_dom[1], f_dom[2].T):
        return None

    def onto(b, f_a, u_b):  # b a^+ on range(a), then range(a)⊥ -> range(b)⊥
        u, s, wh = f_a
        return (b @ (wh[:r].T / s[:r])) @ u[:, :r].T + u_b[:, r:] @ u[:, r:].T

    return onto(img, f_dom, f_img[0]), onto(dom, f_img, f_dom[0])


def _lifted(targets: np.ndarray, fixed: np.ndarray, step: float) -> np.ndarray:
    """``targets + step * C U W^T``, where ``C`` is an orthonormal basis of
    ``range(fixed)⊥`` and ``U S W^T`` the thin SVD of ``C^T targets``: each
    target moves by exactly ``step``, and the parts of the moved targets off
    ``range(fixed)``, ``C U (S + step) W^T``, have no singular value below
    ``step``."""
    c = svd(fixed, full_matrices=True)[0][:, fixed.shape[1]:]
    u, _, wh = svd(c.T @ targets)
    return targets + step * (c @ (u @ wh))


def _matched(xs, xs_target, ys, ys_target, eps: float):
    """:func:`match_invertible` without the condition number: ``V``, the
    ``V^-1`` the matching kernel builds from ``img``'s SVD, and the ``x``
    and ``y`` residuals of the two, all checked against ``eps``."""
    check_positive(eps, "eps")
    x = as_columns(xs, None, "xs")
    if x.shape[1] == 0:
        raise InputError("xs must be nonempty")
    d = x.shape[0]
    xt = as_columns(xs_target, d, "xs_target")
    yv = as_columns(ys, d, "ys")
    yt = as_columns(ys_target, d, "ys_target")
    n, m = x.shape[1], yv.shape[1]
    if xt.shape[1] != n or yt.shape[1] != m or m == 0:
        raise InputError("xs/xs_target and ys/ys_target must pair up and be nonempty")
    if rank(x) != n:
        raise InputError("xs must be linearly independent")
    if rank(yv) != m:
        raise InputError("ys must be linearly independent")
    if d < n + m:
        raise InputError(f"ambient dimension {d} below |xs| + |ys| = {n + m}")

    maps = _matching_maps(np.hstack([x, yt]), np.hstack([xt, yv]))
    if maps is None:
        step = 0.25 * eps
        maps = _matching_maps(np.hstack([x, _lifted(yt, x, step)]), np.hstack([_lifted(xt, yv, step), yv]))
        if maps is None:
            raise InfeasibleError(
                f"constraint systems stay dependent after moving each target by eps/4 = {step:g}: "
                f"the move lies below the rank cutoff {RANK_RCOND:g} * s_1")
    v, v_inv = maps
    rx = tuple(float(np.linalg.norm(v @ x[:, i] - xt[:, i])) for i in range(n))
    ry = tuple(float(np.linalg.norm(v_inv @ yv[:, j] - yt[:, j])) for j in range(m))
    worst = max(rx + ry)
    if worst >= eps:
        raise InfeasibleError(f"constraint residual {worst:g} not below eps={eps:g}", worst)
    return v, v_inv, rx, ry


def match_invertible(xs, xs_target, ys, ys_target, eps: float) -> MatchCertificate:
    """Invertible ``V`` with ``||V x_i - x_i'|| < eps`` and
    ``||V^{-1} y_j - y_j'|| < eps``.

    ``V`` must map ``dom = [x, y']`` onto ``img = [x', y]``, which a
    consistent system (the two stacks share their column relations under
    the rank rule) allows exactly: ``V`` is ``img dom^+`` on ``range(dom)``
    and an isometry between the orthogonal complements.  An inconsistent
    system moves each side's targets once by ``eps/4`` off that side's fixed
    vectors (``y'`` off ``span(x)``, ``x'`` off ``span(y)``), which makes
    both stacks of full rank; a move the rank cutoff cannot see is refused.
    """
    v, _, rx, ry = _matched(xs, xs_target, ys, ys_target, eps)
    sv = svd(v, compute_uv=False)
    return MatchCertificate(v, float(sv[0] / sv[-1]), rx, ry)


def approx_factorization(b, x0, y0, test_vectors, eps: float) -> SolutionPair:
    """A factorization of ``B`` close to prescribed targets on test vectors.

    Starting from :func:`factor_pair`, an invertible twist ``V`` of the
    internal space is matched so that ``(X V^{-1}, V Y)`` stays an exact
    factorization while ``||(V Y - U1 Y0) v|| < eps`` and
    ``||(X V^{-1} U1 - X0) v|| < eps`` for every test vector ``v`` (``U1``,
    ``U2`` embed the original space as the two internal summands).  ``V`` is
    matched on the principal directions ``p_j = s_j u_j`` of the test
    vectors, ``v_i = sum_j W[j, i] p_j``, and ``V^{-1}`` aimed at ``U2 X0``
    (``X U2 = I``), so the bound loses ``max_i sum_j |W[j, i]|`` and ``||X||``.
    """
    b, x0, y0 = as_square([("B", b), ("X target", x0), ("Y target", y0)])
    d = b.shape[0]
    vmat = as_columns(test_vectors, d, "test_vectors")
    if vmat.shape[1] == 0:
        raise InputError("need at least one test vector")
    if not vmat.any(axis=0).all():
        raise InputError(f"test vector {int(np.argmin(vmat.any(axis=0)))} is zero")
    check_positive(eps, "eps")

    pair = factor_pair(b)
    x, u1 = np.asarray(pair.X), np.asarray(pair.Y)  # factor_pair's Y is U1
    u2 = np.vstack([np.zeros((d, d)), np.eye(d)])  # X = [B | I], so X U2 = I
    norm_x = math.hypot(1.0, float(svd(b, compute_uv=False)[0]))

    u, sv, wh = svd(vmat)
    r = rank_from_values(sv)
    principal = u[:, :r] * sv[:r]  # v_i = sum_j wh[j, i] principal[:, j]
    gamma = float(np.abs(wh[:r]).sum(axis=0).max())
    cols = (u1 @ principal).T  # rows, as match_invertible takes vectors
    xs_t = (u1 @ (y0 @ principal)).T
    ys_t = (u2 @ (x0 @ principal)).T

    delta = eps / (2.0 * gamma * (1.0 + norm_x))
    try:
        v, v_inv, _, _ = _matched(cols, xs_t, cols, ys_t, delta)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"no invertible twist meets eps={eps:g} at dimension {d}: its constraints "
            f"need residuals below {delta:g}", exc.achieved) from exc
    # V^-1, built from img's SVD, leaves I - V^-1 V at about eps * cond(img);
    # one Newton-Schulz step squares that, as the product X V^-1 V Y = B needs
    v_inv = v_inv + (np.eye(2 * d) - v_inv @ v) @ v_inv
    xn, yn = x @ v_inv, v @ u1

    y_res = np.linalg.norm(yn @ vmat - u1 @ (y0 @ vmat), axis=0)
    x_res = np.linalg.norm(xn @ (u1 @ vmat) - x0 @ vmat, axis=0)
    worst = float(max(y_res.max(), x_res.max()))
    if worst >= eps:
        raise InfeasibleError(
            f"achieved residual {worst:g} not below eps={eps:g} at dimension {d}", worst
        )
    residual = _relative_residual(b, xn, yn)
    if not residual <= _RESIDUAL_TOL:
        raise InfeasibleError(f"product drifted to relative residual {residual:g}", residual)
    return SolutionPair(xn, yn, residual)
