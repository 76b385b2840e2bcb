"""A non-convex compact whose covering semigroup is trivial, with a finite
certification search.

The compact consists of the origin and two points per coordinate axis,
``alpha_k e_k`` and ``alpha_k beta_k e_k``, with rapidly decaying ``alpha``
and pairwise distinct ``beta_k`` in (1/2, 1).  Any linear ``D`` with
``D K ⊇ K`` induces a preimage selector on the finite point set, which must
be a bijection fixing the origin; the two points on one axis are collinear
with ratio ``beta_k``, so their images under ``D`` stay collinear with the
same ratio.  Distinctness of the betas then forces every axis pair onto
itself: the oriented source/target graph has out-degree at least 2 but
in-degree at most 1 at every non-fixed axis, which no finite graph admits.

The search below enumerates all candidate bijections with that pruning,
solves each survivor for a linear ``D`` by least squares, and applies the
norm cap; at truncation scale only the identity survives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "MAX_TRUNCATION",
    "RigidCompactSpec",
    "EdgeGraphStats",
    "CoverSearchReport",
    "build_rigid_compact",
    "rigid_cover_search",
]

# Point-map space grows super-exponentially; refuse beyond this size.
MAX_TRUNCATION = 7

_LSTSQ_TOL = 1e-10
_RATIO_TOL = 1e-12


@dataclass(frozen=True)
class RigidCompactSpec:
    """Truncation size with the axis lengths and the per-axis point ratios."""

    n: int
    alphas: tuple
    betas: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.n < 1:
            raise InputError(f"truncation size must be positive, got {self.n}")
        if len(self.alphas) != self.n or len(self.betas) != self.n:
            raise InputError(
                f"need exactly n={self.n} alphas and betas, "
                f"got {len(self.alphas)} and {len(self.betas)}"
            )
        if any(not np.isfinite(a) or a <= 0 for a in self.alphas):
            raise InputError("alphas must be positive and finite")
        ratios = [self.alphas[k + 1] / self.alphas[k] for k in range(self.n - 1)]
        if any(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:])):
            raise InputError("consecutive alpha ratios must decrease strictly")
        if any(not 0.5 < b < 1.0 for b in self.betas):
            raise InputError("betas must lie in the open interval (1/2, 1)")
        if any(_close(b1, b2) for b1, b2 in itertools.combinations(self.betas, 2)):
            raise InputError(f"betas must be pairwise distinct (relative gap above {_RATIO_TOL:g})")


@dataclass(frozen=True)
class EdgeGraphStats:
    """Degree certificate of the oriented preimage graph: every non-fixed
    target axis needs sources from at least ``out_degree_min`` distinct axes,
    and one source axis feeds at most ``in_degree_max`` target axes.  None
    when the truncation admits no non-identity candidates at all (n = 1)."""

    out_degree_min: int | None
    in_degree_max: int | None


@dataclass(frozen=True)
class CoverSearchReport:
    identity_only: bool
    admissible_maps: int
    max_norm_bound: float
    edge_graph_stats: EdgeGraphStats


def build_rigid_compact(spec: RigidCompactSpec) -> np.ndarray:
    """The 2n+1 points: origin, then alpha_k e_k, then alpha_k beta_k e_k."""
    pts = np.zeros((2 * spec.n + 1, spec.n))
    for k in range(spec.n):
        pts[1 + k, k] = spec.alphas[k]
        pts[1 + spec.n + k, k] = spec.alphas[k] * spec.betas[k]
    return pts


def _point_table(spec: RigidCompactSpec):
    """Nonzero points as (axis, scalar); index k is alpha_k e_k, n+k its mate."""
    axes, scalars = [], []
    for k in range(spec.n):
        axes.append(k)
        scalars.append(spec.alphas[k])
    for k in range(spec.n):
        axes.append(k)
        scalars.append(spec.alphas[k] * spec.betas[k])
    return axes, scalars


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _RATIO_TOL * max(abs(x), abs(y))


def _edge_graph_stats(spec: RigidCompactSpec) -> EdgeGraphStats:
    """Exhaustive local analysis of the oriented preimage graph.

    Out-degree: for a target axis whose pair is not fixed, enumerate every
    pairwise-consistent choice of sources for its two points and count the
    distinct source axes used.  In-degree: for a source axis, count target
    axes that could absorb both of its (collinear, ratio beta_m) points.
    """
    n = spec.n
    if n < 2:
        return EdgeGraphStats(None, None)
    axes, scalars = _point_table(spec)
    npts = 2 * n

    out_min = None
    for i in range(n):
        targets = (spec.alphas[i], spec.alphas[i] * spec.betas[i])
        for s1, s2 in itertools.permutations(range(npts), 2):
            if (s1, s2) == (i, n + i):
                continue  # the fixed (identity) option
            m1, m2 = axes[s1], axes[s2]
            if m1 == m2:
                # both sources on one axis: D-collinearity forces the image
                # ratio to equal beta_{m1}, i.e. beta_i == beta_{m1}
                k1 = targets[0] / scalars[s1]
                k2 = targets[1] / scalars[s2]
                if not _close(k1, k2):
                    continue
            used = len({m1, m2})
            out_min = used if out_min is None else min(out_min, used)

    in_max = 0
    for m in range(n):
        feeds = 0
        for j in range(n):
            # images of (p_m, q_m) must be two axis-j points with ratio beta_m
            t_candidates = (spec.alphas[j], spec.alphas[j] * spec.betas[j])
            ok = any(
                _close(t2 / t1, spec.betas[m])
                for t1, t2 in itertools.permutations(t_candidates, 2)
            )
            if ok:
                feeds += 1
        in_max = max(in_max, feeds)
    return EdgeGraphStats(out_min, in_max)


def _norm_threshold(spec: RigidCompactSpec) -> float:
    """Conservative norm level past which the ratio argument certifies
    rigidity: max consecutive alpha ratio inverse times the smallest beta
    gap.  Reported, not asserted tight."""
    if spec.n < 2:
        return 1.0
    alpha_part = max(spec.alphas[k] / spec.alphas[k + 1] for k in range(spec.n - 1))
    gap = min(abs(b1 - b2) for b1, b2 in itertools.combinations(spec.betas, 2))
    return alpha_part * gap


def rigid_cover_search(spec: RigidCompactSpec, norm_bound: float) -> CoverSearchReport:
    """Exhaustively certify that only the identity covers the compact.

    Enumerates every preimage bijection of the nonzero points with three
    prunings applied as soon as they can fire: source axes stay consistent
    with a single linear pin ``D e_m = c e_j``; two points of one source
    axis feed one target axis only; and the forced image of a used source's
    axis mate must itself be a point of the compact.  Survivors are solved
    for ``D`` by least squares on all point constraints (residual acceptance
    1e-10) and kept when ``||D|| <= norm_bound``.
    """
    if not np.isfinite(norm_bound) or norm_bound < 1.0:
        raise InputError(f"norm bound must be at least 1, got {norm_bound}")
    if spec.n > MAX_TRUNCATION:
        raise InputError(
            f"combinatorial budget exceeded: truncation {spec.n} above the hard cap "
            f"n <= {MAX_TRUNCATION}"
        )
    n = spec.n
    axes, scalars = _point_table(spec)
    npts = 2 * n
    # target order axis-major so the within-axis constraint binds immediately
    target_order = [t for k in range(n) for t in (k, n + k)]

    def point_index(axis: int, value: float) -> int | None:
        for cand in (axis, n + axis):
            if _close(scalars[cand], value):
                return cand
        return None

    survivors = []

    def extend(pos: int, src, used, pins):
        if pos == npts:
            survivors.append(tuple(src))
            return
        t = target_order[pos]
        t_axis, t_val = axes[t], scalars[t]
        for s in range(npts):
            if used[s]:
                continue
            m, c = axes[s], scalars[s]
            coeff = t_val / c
            prior = pins.get(m)
            if prior is not None:
                pj, pc = prior
                if pj != t_axis or not _close(pc, coeff):
                    continue
                new_pin = None
            else:
                # the axis mate of s is also pinned now; its image must be a
                # compact point or the bijection cannot complete
                mate = s + n if s < n else s - n
                forced = coeff * scalars[mate]
                if point_index(t_axis, forced) is None:
                    continue
                new_pin = (m, (t_axis, coeff))
            if new_pin is not None:
                pins[m] = new_pin[1]
            used[s] = True
            src[t] = s
            extend(pos + 1, src, used, pins)
            used[s] = False
            src[t] = -1
            if new_pin is not None:
                del pins[m]

    extend(0, [-1] * npts, [False] * npts, {})

    # least-squares solve and norm test for every surviving assignment
    sources = np.zeros((n, npts))
    targets_mat = np.zeros((n, npts))
    scale = max(spec.alphas)
    identity_assignment = tuple(range(npts))
    admissible = []
    for assignment in survivors:
        for t in range(npts):
            s = assignment[t]
            sources[:, t] = 0.0
            targets_mat[:, t] = 0.0
            sources[axes[s], t] = scalars[s]
            targets_mat[axes[t], t] = scalars[t]
        d = np.linalg.lstsq(sources.T, targets_mat.T, rcond=None)[0].T
        residual = float(np.max(np.abs(d @ sources - targets_mat)))
        if residual > _LSTSQ_TOL * scale:
            continue
        if float(np.linalg.norm(d, 2)) > norm_bound * (1.0 + 1e-9):
            continue
        admissible.append(assignment)

    identity_only = admissible == [identity_assignment]
    return CoverSearchReport(
        identity_only=identity_only,
        admissible_maps=len(admissible),
        max_norm_bound=_norm_threshold(spec),
        edge_graph_stats=_edge_graph_stats(spec),
    )
