"""Expanding operators, their covering duals, and a rigid compact.

T expands the seminorm ||A x|| when ||A T x|| >= ||A x|| everywhere, which
transposes into T^T covering the ellipsoid of A^T.  At the other extreme, a
carefully built non-convex compact admits no covering operator but the
identity, certified here by the validator of its spec.
"""

import numpy as np

from widthlab import (
    Geometric,
    RigidCompactSpec,
    SuperGeometric,
    build_rigid_compact,
    classify_WE,
    expanding_dual_check,
    is_expanding,
    rigid_cover_search,
)

rng = np.random.default_rng(6)

a = np.diag([1.0, 0.5, 0.1])
print("2I expands:    ", is_expanding(2 * np.eye(3), a))
print("I/2 expands:   ", is_expanding(0.5 * np.eye(3), np.eye(3)))

# The covering dual: both sides evaluate one matrix inequality.
for _ in range(3):
    t = rng.normal(size=(4, 4))
    m = rng.normal(size=(4, 4))
    print("dual agreement:", expanding_dual_check(t, m))

# Closures: non-lacunary s-numbers let expanding operators approximate
# everything; lacunary ones only the maps preserving ker A.
print("\nclassify (non-lacunary):", classify_WE(Geometric(0.5), kernel_trivial=False).tag)
v = classify_WE(SuperGeometric(2.0), kernel_trivial=False)
print("classify (lacunary):    ", v.tag, "-", v.note)
print("classify (trivial ker): ", classify_WE(SuperGeometric(2.0), kernel_trivial=True).tag)

# The rigid compact: origin plus alpha_k e_k and alpha_k beta_k e_k with
# rapidly decaying alphas and distinct betas.  Any non-identity cover would
# need two source axes per moved target axis but can offer only one.  The
# spec validator refuses betas that would let one axis match another, so an
# accepted spec is rigid, and the report states the closed form.
spec = RigidCompactSpec(
    n=5,
    alphas=tuple(10.0 ** (-(k * (k - 1)) / 2) for k in range(1, 6)),
    betas=(0.6, 0.65, 0.7, 0.75, 0.8),
)
points = build_rigid_compact(spec)
print("\nrigid compact:", points.shape[0], "points in dimension", points.shape[1])
report = rigid_cover_search(spec, norm_bound=10.0)
print("identity only:", report.identity_only,
      " admissible maps:", report.admissible_maps)
print("edge graph: every moved axis needs >=",
      report.edge_graph_stats.out_degree_min,
      "source axes but supplies <=", report.edge_graph_stats.in_degree_max)
print("certified norm threshold:", report.max_norm_bound)
