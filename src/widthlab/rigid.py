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

The search works on axes, not points.  A linear ``D`` pins each source axis,
``D e_m = c e_j``, so both points of axis ``m`` land on axis ``j``, either
straight (``alpha_m -> alpha_j``, which needs ``beta_m = beta_j``) or
swapped (``alpha_m beta_m -> alpha_j``, which needs ``beta_m beta_j = 1``).
This ratio-match relation, with ratios compared to the relative tolerance
``_RATIO_TOL``, is computed once; the covers are the axis bijections drawn
from it, each an exact monomial ``D`` of norm ``max c``, and the degree
certificates count its entries.  The validator refuses every spec whose
relation holds more than the identity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "RigidCompactSpec",
    "EdgeGraphStats",
    "CoverSearchReport",
    "build_rigid_compact",
    "rigid_cover_search",
]

_RATIO_TOL = 1e-12
# A cover's norm may exceed the bound by this relative round-off.
_NORM_SLACK = 1e-9


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
        if any(not math.isfinite(a) or a <= 0 for a in self.alphas):
            raise InputError("alphas must be positive and finite")
        ratios = [self.alphas[k + 1] / self.alphas[k] for k in range(self.n - 1)]
        if any(r2 >= r1 for r1, r2 in zip(ratios, ratios[1:])):
            raise InputError("consecutive alpha ratios must decrease strictly")
        if any(not 0.5 < b < 1.0 for b in self.betas):
            raise InputError("betas must lie in the open interval (1/2, 1)")
        for j, row in enumerate(_relation(self)):
            for m, swapped, _ in row:
                bm, bj = self.betas[m], self.betas[j]
                if swapped:
                    raise InputError(f"betas must stay clear of 1 (no product of two within "
                                     f"relative {_RATIO_TOL:g} of 1): {bm!r} * {bj!r} is not")
                if m != j:
                    raise InputError(f"betas must be pairwise distinct (relative gap above "
                                     f"{_RATIO_TOL:g}): {bm!r} and {bj!r} are not")


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


def _relation(spec: RigidCompactSpec) -> list[list[tuple[int, bool, float]]]:
    """For each target axis ``j``, every ``(m, swapped, c)`` with
    ``D e_m = c e_j`` mapping both points of source axis ``m`` onto the two
    of axis ``j``: straight or swapped.  ``(j, False, 1.0)`` is the identity
    and always present.  Only the axes that bisection finds in the sorted
    betas near ``beta_j`` and ``1 / beta_j`` are compared."""
    a, b = spec.alphas, spec.betas
    order = sorted(range(spec.n), key=b.__getitem__)
    keys = [b[m] for m in order]

    def near(x: float) -> list[int]:  # a superset of the betas within _RATIO_TOL of x
        return order[bisect_left(keys, x * (1 - 4 * _RATIO_TOL)):bisect_right(keys, x * (1 + 4 * _RATIO_TOL))]

    return [[(m, swapped, a[j] / (a[m] * b[m] if swapped else a[m]))
             for m in sorted({*near(b[j]), *near(1.0 / b[j])}) for swapped in (False, True)
             if (_close(b[m] * b[j], 1.0) if swapped else _close(b[m], b[j]))]
            for j in range(spec.n)]


def _edge_graph_stats(relation: list) -> EdgeGraphStats:
    """Out-degree: a non-fixed target axis takes its two points from one
    source axis only through a relation entry other than the identity, and
    from two axes otherwise.  In-degree: the number of target axes that a
    source axis has an entry for."""
    if len(relation) < 2:
        return EdgeGraphStats(None, None)
    out_min = 1 if any(len(row) > 1 for row in relation) else 2
    feeds = Counter(m for row in relation for m in {entry[0] for entry in row})
    return EdgeGraphStats(out_min, max(feeds.values()))


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
    """Exhaustively certify that only the identity covers the compact.

    Counts the covers ``D`` with ``||D|| <= norm_bound`` (to a relative
    ``1e-9``): a depth-first search over target axes picks, for each, an
    unused source axis from the ratio-match relation, and a full pick is the
    monomial ``D e_m = c e_j``, whose norm is its largest ``c``.
    """
    if not math.isfinite(norm_bound) or norm_bound < 1.0:
        raise InputError(f"norm bound must be at least 1, got {norm_bound}")
    relation = _relation(spec)
    cap = norm_bound * (1.0 + _NORM_SLACK)
    choices = [[m for m, _, c in row if c <= cap] for row in relation]

    admissible, stack = 0, [(0, 0)]  # (next target axis, bitmask of used source axes)
    while stack:
        j, used = stack.pop()
        if j == spec.n:
            admissible += 1
        else:
            stack.extend((j + 1, used | 1 << m) for m in choices[j] if not used >> m & 1)
    return CoverSearchReport(
        identity_only=admissible == 1,
        admissible_maps=admissible,
        max_norm_bound=_norm_threshold(spec),
        edge_graph_stats=_edge_graph_stats(relation),
    )
