"""Operators expanding a matrix seminorm: ``||A T x|| >= ||A x||`` for all x.

Membership is a PSD test on ``T^T A^T A T - A^T A``, and transposition turns
it into the covering test for the ellipsoid of ``A^T`` — an exactly
checkable identity in the finite real model, used here as a cross-module
consistency oracle.

:func:`classify_WE` reads only the s-number model, so the dense modules and
numpy load with the first certificate, not with this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import covering, spectra
from .errors import PSD_TOL, as_square, check_tolerance
from .seqlab import ALGEBRA_AK, EVERYTHING, ClassificationVerdict, SequenceModel, is_lacunary

__all__ = ["ExpandVerdict", "is_expanding", "expanding_dual_check", "classify_WE"]


@dataclass(frozen=True)
class ExpandVerdict:
    """``margin`` is the smallest eigenvalue of ``T^T A^T A T - A^T A``
    scaled by ``1 + lambda_max`` of the two forms, each read off the Gram
    matrix itself; expanding iff it clears ``-tol``."""

    expanding: bool
    margin: float


def is_expanding(t, a, tol: float = PSD_TOL) -> ExpandVerdict:
    """Does ``T`` expand the seminorm ``x -> ||A x||``?"""
    import numpy as np

    from ._linalg import gram_top, psd_margin

    t, a = as_square([("T", t), ("A", a)])
    check_tolerance(tol)
    with np.errstate(over="ignore", invalid="ignore"):  # gram_top reports it
        at = a @ t
        g1, g2 = at.T @ at, a.T @ a
    margin = psd_margin(g1, g2, gram_top(g1), gram_top(g2))
    return ExpandVerdict(margin >= -tol, margin)


def expanding_dual_check(t, a) -> bool:
    """Cross-check: ``T`` expands for ``A`` iff ``T^T`` covers ``A^T(B)``.

    Both sides evaluate the same matrix inequality through different code
    paths, so outside the round-off band this always returns True.
    """
    import numpy as np

    expands = is_expanding(t, a).expanding  # validates T and A
    e = spectra.ellipsoid(np.transpose(a))
    return expands == covering.covers(np.transpose(t), e, e).holds


def classify_WE(model: SequenceModel, kernel_trivial: bool) -> ClassificationVerdict:
    """Closure of the expanding set, from the s-number model of ``A``.

    Non-lacunary s-numbers give everything; lacunary ones give the algebra
    of operators that leave ``ker A`` invariant, which collapses back to
    everything when the kernel is trivial.
    """
    lac = is_lacunary(model)
    if not lac.lacunary:
        return ClassificationVerdict(EVERYTHING, exact=lac.exact)
    if kernel_trivial:
        return ClassificationVerdict(
            EVERYTHING, exact=lac.exact,
            note="lacunary, but a trivial kernel collapses the invariance condition",
        )
    return ClassificationVerdict(
        ALGEBRA_AK, exact=lac.exact, note="operators preserving ker A"
    )
