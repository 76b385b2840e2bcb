"""The bilinear equation X A Y = B and its density-flavoured constructions.

Solvability is a pure rank comparison under the package's one rank rule;
the verdict carries the two ranks and nothing else.  Beyond one solution,
the set of solutions is huge: every operator factors exactly through a
doubled space, and an invertible twist can steer any factorization toward
arbitrary targets on finitely many vectors while keeping the product exact.
"""

import numpy as np

from widthlab import (
    approx_factorization,
    factor_pair,
    first_component_member,
    match_invertible,
    solve_xay,
    xay_solvable,
)

rng = np.random.default_rng(5)

# Solvability: rank(B) <= rank(A), nothing asymptotic about it.
a = np.diag([1.0, 2.0, 0.0])
b = np.diag([3.0, 0.0, 0.0])
print("verdict:", xay_solvable(a, b))

pair = solve_xay(a, b)
print("X A Y == B residual:", pair.residual)
print("X is a valid first component:", first_component_member(np.asarray(pair.X), a, b))

# An unsolvable instance: rank(B) = 3 > rank(A) = 2.
print("rank barrier:", xay_solvable(a, np.eye(3)).solvable)

# Exact factorization X Y = B through a doubled internal space: X = [B | I]
# has dense image, Y embeds injectively, and X Y = B with zero residual.
b2 = rng.normal(size=(3, 3))
fp = factor_pair(b2)
print("\nfactor pair residual:", fp.residual,
      " X shape:", np.asarray(fp.X).shape, " Y shape:", np.asarray(fp.Y).shape)

# An invertible V matching constraints on both V and V^-1.
e = np.eye(8)
cert = match_invertible([e[:, 0]], [e[:, 1]], [e[:, 2]], [e[:, 3]], eps=1e-6)
print("\nmatch: residuals", cert.x_residuals, cert.y_residuals,
      " condition", round(cert.condition, 3))

# Constraints that repeat each other (V e0 = e1 is also V^-1 e1 = e0) leave
# the stacked systems dependent, so the targets are nudged: each moves by
# eps/4 along a kernel direction orthogonal to what is already fixed.
nudged = match_invertible([e[:, 0]], [e[:, 1]], [e[:, 1]], [e[:, 0]], eps=1e-3)
print("nudged match: residuals", [round(r / 1e-3, 6) for r in nudged.x_residuals + nudged.y_residuals],
      "x eps")

# Twisting the factorization toward X0 = Y0 = I on a test vector while the
# product stays exactly B: the strong-operator density mechanism, finitely.
b3 = np.diag([1.0, 2.0])
out = approx_factorization(b3, np.eye(2), np.eye(2), [np.array([1.0, 0.0])], eps=1e-2)
x, y = np.asarray(out.X), np.asarray(out.Y)
u1 = np.vstack([np.eye(2), np.zeros((2, 2))])
v = np.array([1.0, 0.0])
print("\napprox factorization:")
print("  product drift:", np.linalg.norm(x @ y - b3))
print("  |(Y' - Y0) v|:", np.linalg.norm(y @ v - u1 @ v))
print("  |(X' - X0) v|:", np.linalg.norm(x @ (u1 @ v) - v))
