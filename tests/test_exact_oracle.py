"""Covering verdicts and constants against the exact rational oracle of
``exact_psd``, on small generators scaled by powers of two across the
double range.  The constants must be right to a relative ``DELTA`` on the
very floats the library was given; a verdict must be right wherever its
margin lies outside ``MARGIN_BAND``.  ``hypothesis.event`` records which
draws the band leaves out, by scale (``--hypothesis-show-statistics``)."""

from fractions import Fraction

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from widthlab import covers, ellipsoid, is_expanding, range_equiv, schmidt_cover
from widthlab.covering import MARGIN_BAND

from exact_psd import contains, is_psd, product, rational, scaled

DELTA = Fraction(1, 10**8)


def twist(rng, rows, cols, values):
    """``P diag(values) Q^T`` with Haar-orthonormal ``P`` and ``Q`` and
    ``min(rows, cols)`` singular values ``values``."""
    n = min(rows, cols)
    p = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :n]
    q = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:, :n]
    return p @ (np.asarray(values)[:, None] * q.T)


def graded(rng, n):
    """``n`` s-numbers falling geometrically from 1 to a floor in [1e-3, 1]."""
    return np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 3.0), n)


def scale_range(k: int) -> str:
    if k < -100:
        return "k < -100"
    if k < 0:
        return "-100 <= k < 0"
    return "0 <= k <= 100" if k <= 100 else "k > 100"


def check_outside_band(holds: bool, margin: float, exact: bool, k: int) -> None:
    if abs(margin) <= MARGIN_BAND:
        event(f"margin in band, {scale_range(k)}")
        return
    event(f"margin outside band, {scale_range(k)}")
    assert holds == exact, (holds, margin)


class TestOracle:
    def test_one_ulp_decides(self):
        one = rational(np.eye(2))
        assert contains(one, one)
        assert contains(one, rational(np.nextafter(1.0, 0.0) * np.eye(2)))
        assert not contains(one, rational(np.nextafter(1.0, 2.0) * np.eye(2)))

    def test_zero_largest_pivot_needs_a_zero_block(self):
        assert is_psd(rational(np.zeros((2, 2))))
        assert is_psd(rational([[1.0, 1.0], [1.0, 1.0]]))  # the second pivot is 0
        assert not is_psd(rational([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_psd(rational([[0.0, 0.0], [0.0, -1.0]]))
        assert not is_psd(rational([[1.0, 2.0], [2.0, 1.0]]))

    def test_ranges_must_nest_however_small_the_target(self):
        assert not contains(rational(np.diag([1.0, 0.0])), rational(np.diag([0.0, 5e-324])))
        assert contains(rational(np.diag([1.0, 0.0])), rational(np.diag([1.0, 0.0])))

    def test_agrees_with_eigvalsh_off_the_round_off_band(self):
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(60):
            d = int(rng.integers(1, 7))
            m, n = rng.normal(size=(d, d)), 0.5 * rng.normal(size=(d, d))
            low = np.linalg.eigvalsh(m @ m.T - n @ n.T)[0]
            if abs(low) > 1e-8:
                assert contains(rational(m), rational(n)) == (low > 0)
                verdicts.add(bool(low > 0))
        assert verdicts == {True, False}

    def test_scale_dependent_covering_cases_are_refused(self):
        # covers holds on both today; the gap is 1e-6 wide in the first
        # case and a relative 1e-7 in the second
        assert not contains(rational(1e-6 * np.eye(2)), rational(1e-6 * np.diag([1.0, 2.0])))
        a1 = np.random.default_rng(0).normal(size=(5, 5))
        a2 = a1 @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0 + 1e-7])
        assert not contains(rational(np.ldexp(a1, -40)), rational(np.ldexp(a2, -40)))

    def test_product_does_not_round(self):
        # 1 + 2^-60 has no double
        assert product(rational([[1.0, 2.0**-60]]), rational([[1.0], [1.0]])) == [[1 + Fraction(1, 2**60)]]


@st.composite
def range_pairs(draw):
    """``A1`` of rank ``r`` in dimension ``d <= 8``, graded and scaled by
    ``2^k`` with ``|k| <= 1014``, its range on ``r`` coordinate axes (zero
    rows elsewhere), and ``A2 = A1 R`` for a twist ``R`` with singular
    values in [0.5, 2].  The zero rows of ``A2`` are exact, so the two
    ranges agree exactly; every entry stays finite."""
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, d))
    k = draw(st.integers(-1014, 1014))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a1 = np.zeros((d, r))
    a1[rng.permutation(d)[:r]] = np.ldexp(twist(rng, r, r, graded(rng, r)), k)
    return a1, a1 @ twist(rng, r, r, rng.uniform(0.5, 2.0, r))


@settings(max_examples=80, deadline=None)
@given(range_pairs())
def test_range_equiv_constants_are_exact(case):
    # c(1 - δ) K1 ⊆ K2 ⊆ C(1 + δ) K1, while c(1 + δ) K1 ⊄ K2 and K2 ⊄ C(1 - δ) K1
    a1, a2 = case
    eq = range_equiv(a1, a2)
    assert eq.same_range
    m1, m2 = rational(a1), rational(a2)
    c, cc = Fraction(eq.c), Fraction(eq.C)
    assert contains(m2, scaled(c * (1 - DELTA), m1))
    assert not contains(m2, scaled(c * (1 + DELTA), m1))
    assert contains(scaled(cc * (1 + DELTA), m1), m2)
    assert not contains(scaled(cc * (1 - DELTA), m1), m2)


@st.composite
def cover_triples(draw):
    """``T`` (``d2 x d1``, singular values in [0.5, 2]), ``A1``
    (``d1 x d1``, graded) and ``A2 = f T A1 R`` with ``f`` in [0.5, 2] and a
    twist ``R`` with singular values in [0.5, 1], so ``T`` covers about
    when ``f s_1(R) <= 1``; ``A1`` and ``A2`` are scaled by ``2^k`` with
    ``|k| <= 500``."""
    d1 = draw(st.integers(1, 8))
    d2 = draw(st.integers(1, d1))
    f = draw(st.floats(0.5, 2.0))
    k = draw(st.integers(-500, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = twist(rng, d2, d1, rng.uniform(0.5, 2.0, d2))
    a1 = np.ldexp(twist(rng, d1, d1, graded(rng, d1)), k)
    return t, a1, f * (t @ a1) @ twist(rng, d1, d1, rng.uniform(0.5, 1.0, d1)), k


@settings(max_examples=60, deadline=None)
@given(cover_triples())
def test_covers_verdict_is_exact_off_the_band(case):
    t, a1, a2, k = case
    cert = covers(t, ellipsoid(a1), ellipsoid(a2))
    exact = contains(product(rational(t), rational(a1)), rational(a2))
    check_outside_band(cert.holds, cert.psd_margin, exact, k)


@settings(max_examples=60, deadline=None)
@given(cover_triples())
def test_schmidt_norm_is_exact(case):
    # (1 + δ) C W covers K2 and (1 - δ) C W does not
    _, a1, a2, _ = case
    d, _ = schmidt_cover(ellipsoid(a1), ellipsoid(a2))
    image, target = product(rational(d), rational(a1)), rational(a2)
    assert contains(scaled(1 + DELTA, image), target)
    assert not contains(scaled(1 - DELTA, image), target)


@st.composite
def expanding_pairs(draw):
    """``A`` (``d x d``, graded, scaled by ``2^k`` with ``|k| <= 500``) and
    ``T = A^-1 S A`` for ``S = f R``, ``R`` a twist with singular values in
    [1, 1.5] and ``f`` in [0.5, 2], so ``T`` expands ``x -> ||A x||`` about
    when ``f s_d(R) >= 1``."""
    d = draw(st.integers(1, 8))
    f = draw(st.floats(0.5, 2.0))
    k = draw(st.integers(-500, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.ldexp(twist(rng, d, d, graded(rng, d)), k)
    s = f * twist(rng, d, d, rng.uniform(1.0, 1.5, d))
    return np.linalg.solve(a, s @ a), a, k


@settings(max_examples=60, deadline=None)
@given(expanding_pairs())
def test_is_expanding_verdict_is_exact_off_the_band(case):
    # ||A T x|| >= ||A x|| for all x reads (A T)^T (A T) ≽ A^T A: M = T^T A^T, N = A^T
    t, a, k = case
    verdict = is_expanding(t, a)
    exact = contains(product(rational(t.T), rational(a.T)), rational(a.T))
    check_outside_band(verdict.expanding, verdict.margin, exact, k)
