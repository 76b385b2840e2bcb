"""Finite-dimensional operator model: s-numbers, widths, ellipsoids, sections.

Index conventions used across the package:

* s-numbers are 1-indexed: ``s(1) >= s(2) >= ...`` are the singular values
  of the generating matrix (the eigenvalues of ``(A^T A)^(1/2)``);
* Kolmogorov widths are 0-indexed and, for an ellipsoid ``K = A(B)``,
  satisfy ``d_n(K) = s_{n+1}(A)``, with ``d_n = 0`` beyond the rank.

All public objects are immutable after construction; every operation here is
a pure function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RCOND, monomial_svd, range_quotient, rank_from_values, section_svd, svd
from .errors import InputError, as_columns, as_operator, as_subspace, check_integer, check_positive
from .errors import check_no_overflow, check_spectrum, frozen

__all__ = [
    "RANK_RCOND",
    "SingularSpectrum",
    "WidthSequence",
    "Ellipsoid",
    "singular_spectrum",
    "ellipsoid",
    "kolmogorov_widths",
    "section_spectrum",
    "truncate_ellipsoid",
    "scale_ellipsoid",
    "ellipsoid_membership",
]

MEMBERSHIP_TOL = 1e-9  # slack of ellipsoid_membership


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Nonincreasing s-numbers with the rank decided by a relative cutoff.

    ``values`` is 0-based storage for the 1-indexed sequence; use :meth:`s`
    for the conventional indexing.
    """

    values: np.ndarray
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(np.asarray(self.values, dtype=float).reshape(-1)))
        check_spectrum(self.values, "singular spectrum")
        refusal = f"rank {{}} outside [0, {self.values.size}]"
        check_integer(self.rank, 0, refusal)
        if self.rank > self.values.size:
            raise InputError(refusal.format(self.rank))

    def __len__(self) -> int:
        return int(self.values.size)

    def s(self, n: int) -> float:
        """1-indexed s-number; zero beyond the stored length."""
        if n < 1:
            raise InputError(f"s-numbers are 1-indexed, got n={n}")
        return float(self.values[n - 1]) if n <= len(self) else 0.0


@dataclass(frozen=True, eq=False)
class WidthSequence:
    """Kolmogorov widths ``d_0 >= d_1 >= ...`` of an ellipsoid; zero beyond rank."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen(np.asarray(self.values, dtype=float).reshape(-1)))
        check_spectrum(self.values, "width sequence")

    def __len__(self) -> int:
        return int(self.values.size)

    def width(self, n: int) -> float:
        """0-indexed width; zero beyond the stored length."""
        if n < 0:
            raise InputError(f"widths are 0-indexed, got n={n}")
        return float(self.values[n]) if n < len(self) else 0.0


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """The set ``A(B)``: image of the unit ball under ``generator``.

    Built from the generator and its s-numbers alone; everything else is
    derived from the generator on first read.  ``span_basis`` holds
    orthonormal columns spanning the column space of the generator (the
    closed linear span of the ellipsoid) and ``right_basis`` the matching
    right singular vectors, so
    ``generator ~= span_basis @ diag(s_1..s_r) @ right_basis.T``.  Both come
    from one factored SVD, cached as one pair, unless the pair was seeded
    when the ellipsoid was made (:func:`ellipsoid` of a monomial generator,
    :func:`truncate_ellipsoid`); ``gram`` caches
    ``generator @ generator.T`` for its one reader, the covering
    certificate :func:`~widthlab.covering.covers`.  Each cache is stored
    once, by ``dict.setdefault``, so concurrent first reads see the same
    arrays.
    """

    generator: np.ndarray
    spectrum: SingularSpectrum
    rcond: float = RANK_RCOND

    def __post_init__(self):
        object.__setattr__(self, "generator", frozen(self.generator))

    def _leading_pairs(self, u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(span_basis, right_basis)`` from the factors of an
        SVD of the generator."""
        return frozen(u[:, : self.rank]), frozen(vh[: self.rank].T)

    def _bases(self) -> tuple[np.ndarray, np.ndarray]:
        pair = self.__dict__.get("_uv")
        if pair is None:
            u, _, vh = svd(self.generator)
            pair = self.__dict__.setdefault("_uv", self._leading_pairs(u, vh))
        return pair

    @property
    def span_basis(self) -> np.ndarray:
        return self._bases()[0]

    @property
    def right_basis(self) -> np.ndarray:
        return self._bases()[1]

    @property
    def gram(self) -> np.ndarray:
        """``generator @ generator.T``; entries that overflow are left for
        :func:`~widthlab.covering.covers` to report."""
        g = self.__dict__.get("_gram")
        if g is None:
            with np.errstate(over="ignore", invalid="ignore"):
                g = self.generator @ self.generator.T
            g.setflags(write=False)
            g = self.__dict__.setdefault("_gram", g)
        return g

    @property
    def ambient_dim(self) -> int:
        return int(self.generator.shape[0])

    @property
    def domain_dim(self) -> int:
        return int(self.generator.shape[1])

    @property
    def rank(self) -> int:
        return self.spectrum.rank


def singular_spectrum(a, rcond: float = RANK_RCOND) -> SingularSpectrum:
    """Singular values of ``a`` in nonincreasing order, with rank cutoff."""
    values = svd(as_operator(a), compute_uv=False)
    return SingularSpectrum(values=values, rank=rank_from_values(values, rcond))


def ellipsoid(a, rcond: float = RANK_RCOND) -> Ellipsoid:
    """Build the ellipsoid ``a(B)``.  A monomial generator takes its
    s-numbers and both bases from one exact decomposition now; any other
    takes its s-numbers from one values-only SVD now and its bases from one
    factored SVD on first read."""
    arr = as_operator(a, "generator")
    exact = monomial_svd(arr)
    sv = svd(arr, compute_uv=False) if exact is None else exact[1]
    e = Ellipsoid(arr, SingularSpectrum(values=sv, rank=rank_from_values(sv, rcond)), rcond=rcond)
    if exact is not None:
        e.__dict__["_uv"] = e._leading_pairs(exact[0], exact[2])
    return e


def kolmogorov_widths(e: Ellipsoid) -> WidthSequence:
    """Widths of the ellipsoid: ``d_n = s_{n+1}`` below the rank, then zero.

    In 0-based storage the shift cancels: ``d[n] = spectrum.values[n]`` for
    ``n < rank`` and ``d[n] = 0`` from the rank on.
    """
    sv = e.spectrum.values
    vals = np.zeros(sv.size)
    vals[: e.rank] = sv[: e.rank]
    return WidthSequence(values=vals)


def section_spectrum(e: Ellipsoid, y) -> SingularSpectrum:
    """Spectrum of the section ``K ∩ Y⊥`` cut out by the subspace ``Y``.

    ``y`` must hold orthonormal columns in the ambient space of ``e`` (a
    ``(ambient_dim, 0)`` array means no constraint).  The section equals the
    image of the unit ball of ``ker(Y^T A)`` under the generator ``A``, so
    its s-numbers are those of ``A`` composed with an orthonormal kernel
    basis, ``min(ambient_dim, domain_dim - rank(Y^T A))`` of them.  They
    interlace: ``s_{n+m}(A) <= sigma_n <= s_n(A)`` for a section of
    codimension ``m``.  :func:`~widthlab._linalg.section_svd` gives them
    from a values-only SVD, with no kernel basis formed.  Their round-off
    is of order ``eps * s_1(A)``, so the rank counts the values above
    ``rcond * s_1(A)``, the generator's top s-number, not the section's;
    so does the rank of ``Y^T A``.
    """
    yarr = as_subspace(y, e.ambient_dim, "section subspace")
    if yarr.shape[1] == 0:
        return e.spectrum
    values, rank = section_svd(e.generator, yarr, e.spectrum.values[0], e.rcond, compute_uv=False)
    return SingularSpectrum(values=values, rank=rank)


def truncate_ellipsoid(e: Ellipsoid, r: int) -> Ellipsoid:
    """Ellipsoid generated by the rank-``r`` truncated SVD of the generator.

    Built directly from the cached SVD so the spectrum equals the first
    ``r`` values exactly (a fresh decomposition of the reconstruction would
    contaminate the cut directions with round-off rank); the parent's
    leading singular pairs are the truncation's bases, so reading them
    makes no SVD.
    """
    refusal = f"truncation rank {{}} outside [1, {e.rank}]"
    check_integer(r, 1, refusal)
    if r > e.rank:
        raise InputError(refusal.format(r))
    u, right = e.span_basis[:, :r], e.right_basis[:, :r]
    sv = e.spectrum.values[:r]
    t = Ellipsoid(u @ (sv[:, None] * right.T), SingularSpectrum(values=sv, rank=r), e.rcond)
    t.__dict__["_uv"] = (frozen(u), frozen(right))
    return t


def scale_ellipsoid(e: Ellipsoid, c: float) -> Ellipsoid:
    """The ellipsoid ``c * K``, generated by ``c`` times the generator.

    A scale that rounds an s-number within the rank to zero is refused, as
    one that overflows is: the rank would count a value that is gone."""
    check_positive(c, "scale")
    with np.errstate(over="ignore"):  # reported just below
        generator, values = c * e.generator, c * e.spectrum.values
    check_no_overflow(generator, "scaled generator entries")
    check_no_overflow(values, "scaled singular values")
    if e.rank and values[e.rank - 1] == 0.0:
        raise InputError("scaled singular values underflow double precision; rescale the input")
    return Ellipsoid(generator, SingularSpectrum(values=values, rank=e.rank), e.rcond)


def ellipsoid_membership(e: Ellipsoid, y) -> bool:
    """True iff ``y`` lies in the ellipsoid (within ``MEMBERSHIP_TOL``):
    :func:`~widthlab._linalg.range_quotient`, from the cached ``span_basis``
    and the s-numbers within the rank, finds ``y`` in the generator's range
    and gives its minimum-norm preimage in the right singular basis, whose
    norm must be at most ``1 + MEMBERSHIP_TOL``."""
    v = as_columns([y], e.ambient_dim, "point")
    coords = range_quotient(e.generator, v, e.spectrum.values[: e.rank], e.span_basis)
    return coords is not None and float(np.linalg.norm(coords)) <= 1.0 + MEMBERSHIP_TOL
