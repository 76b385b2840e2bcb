"""A non-convex compact whose covering semigroup is trivial, certified by
the validator of its spec.

The compact consists of the origin and two points per coordinate axis,
``alpha_k e_k`` and ``alpha_k beta_k e_k``, with rapidly decaying ``alpha``
and pairwise distinct ``beta_k`` in (1/2, 1).  Any linear ``D`` with
``D K ⊇ K`` induces a preimage selector on the finite point set, which must
be a bijection fixing the origin; the two points on one axis are collinear
with ratio ``beta_k``, so their images under ``D`` stay collinear with the
same ratio.  Distinctness of the betas then forces every axis pair onto
itself: the oriented source/target graph has out-degree at least 2 but
in-degree at most 1 at every non-fixed axis, which no finite graph admits.

On axes, a linear ``D`` pins each source axis, ``D e_m = c e_j``, taking
both its points onto axis ``j`` straight (which needs ``beta_m = beta_j``)
or swapped (``beta_m beta_j = 1``), with ratios compared to the relative
tolerance ``_RATIO_TOL``.  The validator refuses every spec in which such a
match holds but the identity's, so :func:`rigid_cover_search` reports the
closed form of a lone identity.  Two checks decide it: no two adjacent
sorted betas are close (a close pair anywhere leaves a close adjacent one),
and the largest beta squared, which bounds every product and lies below 1,
is not close to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, check_integer

__all__ = [
    "RigidCompactSpec",
    "EdgeGraphStats",
    "CoverSearchReport",
    "build_rigid_compact",
    "rigid_cover_search",
]

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
        check_integer(self.n, 1, "truncation size must be positive, got {}")
        if len(self.alphas) != self.n or len(self.betas) != self.n:
            raise InputError(
                f"need exactly n={self.n} alphas and betas, "
                f"got {len(self.alphas)} and {len(self.betas)}"
            )
        if any(not math.isfinite(a) or a <= 0 for a in self.alphas):
            raise InputError("alphas must be positive and finite")
        ratios = [self.alphas[k + 1] / self.alphas[k] for k in range(self.n - 1)]
        if any(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:])):
            raise InputError("consecutive alpha ratios must decrease strictly")
        if any(not 0.5 < b < 1.0 for b in self.betas):
            raise InputError("betas must lie in the open interval (1/2, 1)")
        ordered = sorted(self.betas)
        for b1, b2 in zip(ordered, ordered[1:]):
            if _close(b1, b2):
                raise InputError(f"betas must be pairwise distinct (relative gap above "
                                 f"{_RATIO_TOL:g}): {b1!r} and {b2!r} are not")
        top = ordered[-1]
        if _close(top * top, 1.0):
            raise InputError(f"betas must stay clear of 1 (no product of two within "
                             f"relative {_RATIO_TOL:g} of 1): {top!r} * {top!r} is not")


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
    import numpy as np

    pts = np.zeros((2 * spec.n + 1, spec.n))
    for k in range(spec.n):
        pts[1 + k, k] = spec.alphas[k]
        pts[1 + spec.n + k, k] = spec.alphas[k] * spec.betas[k]
    return pts


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _RATIO_TOL * max(abs(x), abs(y))


def _norm_threshold(spec: RigidCompactSpec) -> float:
    """Conservative norm level past which the ratio argument certifies
    rigidity: max consecutive alpha ratio inverse times the smallest beta
    gap.  Reported, not asserted tight."""
    if spec.n < 2:
        return 1.0
    alpha_part = max(spec.alphas[k] / spec.alphas[k + 1] for k in range(spec.n - 1))
    betas = sorted(spec.betas)
    gap = min(b2 - b1 for b1, b2 in zip(betas, betas[1:]))
    return alpha_part * gap


def rigid_cover_search(spec: RigidCompactSpec, norm_bound: float) -> CoverSearchReport:
    """Certify that only the identity covers the compact.

    The spec validator has refused every ratio match but the identity's, so
    an accepted spec has one cover, the identity, of norm 1 and hence within
    every ``norm_bound``; each of its target axes takes both points from one
    source axis, which feeds no other.  The report is this closed form.
    """
    if not math.isfinite(norm_bound) or norm_bound < 1.0:
        raise InputError(f"norm bound must be at least 1, got {norm_bound}")
    return CoverSearchReport(
        identity_only=True,
        admissible_maps=1,
        max_norm_bound=_norm_threshold(spec),
        edge_graph_stats=EdgeGraphStats(2, 1) if spec.n > 1 else EdgeGraphStats(None, None),
    )
