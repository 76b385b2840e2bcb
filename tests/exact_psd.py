"""An exact oracle for the ellipsoid inclusions the covering verdicts decide.

Every double is a dyadic rational, so ``fractions.Fraction`` holds the very
floats a caller passed, without rounding.  For the unit ball ``B``,
``N(B) ⊆ M(B)`` holds exactly when ``N N^T ≼ M M^T`` (R. G. Douglas, "On
majorization, factorization, and range inclusion of operators on Hilbert
space", Proc. AMS 17, 1966), and :func:`contains` decides that inequality
in rationals: it forms ``G = M M^T - N N^T`` and runs an ``LDL^T``
elimination with largest-diagonal pivoting on it.  A negative pivot means
no.  A zero largest pivot leaves a block with no positive diagonal, which
is positive semidefinite only if it is all zeros.

The cost is ``d^3`` rational operations on numbers that grow with the
elimination, so the oracle is meant for ``d`` up to about 16.
"""

from fractions import Fraction

import numpy as np


def rational(a) -> list:
    """A float matrix as rows of Fractions, entry for entry."""
    return [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]


def product(a: list, b: list) -> list:
    """The exact product of two rational matrices."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def scaled(f, a: list) -> list:
    """The rational matrix ``a`` times the rational ``f``."""
    return [[f * x for x in row] for row in a]


def gram(a: list) -> list:
    """``A A^T`` of a rational matrix, zero-column matrices included."""
    return [[sum((x * y for x, y in zip(r, s)), Fraction(0)) for s in a] for r in a]


def is_psd(g: list) -> bool:
    """Is the symmetric rational matrix ``g`` positive semidefinite?"""
    g = [row[:] for row in g]
    active = list(range(len(g)))
    while active:
        p = max(active, key=lambda i: g[i][i])
        pivot = g[p][p]
        if pivot <= 0:
            return pivot == 0 and all(g[i][j] == 0 for i in active for j in active)
        active.remove(p)
        for i in active:
            f = g[i][p] / pivot
            if f:
                for j in active:
                    g[i][j] -= f * g[p][j]
    return True


def contains(m: list, n: list) -> bool:
    """``N(B) ⊆ M(B)``, that is ``N N^T ≼ M M^T``, for rational ``M`` and
    ``N`` with as many rows."""
    gm, gn = gram(m), gram(n)
    return is_psd([[x - y for x, y in zip(rm, rn)] for rm, rn in zip(gm, gn)])
