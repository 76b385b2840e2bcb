"""Operators expanding a matrix seminorm: ``||A T x|| >= ||A x||`` for all x.

Membership is a PSD test on ``T^T A^T A T - A^T A``, and transposition turns
it into the covering test for the ellipsoid of ``A^T`` — an exactly
checkable identity in the finite real model, used here as a cross-module
consistency oracle.  The closure of the expanding set reads only the
s-number model of ``A``; it is :func:`seqlab.classify_WE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covering, spectra
from ._linalg import gram_top, psd_margin
from .errors import PSD_TOL, as_square

__all__ = ["ExpandVerdict", "is_expanding", "expanding_dual_check"]


@dataclass(frozen=True)
class ExpandVerdict:
    """``margin`` is the smallest eigenvalue of ``T^T A^T A T - A^T A``
    scaled by ``1 + lambda_max`` of the two forms, each read off the Gram
    matrix itself; expanding iff it clears ``-PSD_TOL``."""

    expanding: bool
    margin: float


def is_expanding(t, a) -> ExpandVerdict:
    """Does ``T`` expand the seminorm ``x -> ||A x||``?"""
    t, a = as_square([("T", t), ("A", a)])
    with np.errstate(over="ignore", invalid="ignore"):  # gram_top reports it
        at = a @ t
        g1, g2 = at.T @ at, a.T @ a
    margin = psd_margin(g1, g2, gram_top(g1), gram_top(g2))
    return ExpandVerdict(margin >= -PSD_TOL, margin)


def expanding_dual_check(t, a) -> bool:
    """Cross-check: ``T`` expands for ``A`` iff ``T^T`` covers ``A^T(B)``.

    Both sides evaluate the same matrix inequality through different code
    paths, so outside the round-off band this always returns True.
    """
    expands = is_expanding(t, a).expanding  # validates T and A
    e = spectra.ellipsoid(np.transpose(a))
    return expands == covering.covers(np.transpose(t), e, e).holds

