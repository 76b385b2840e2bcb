"""The one SVD entry point, ``_linalg.svd``: exact on monomial matrices,
numpy's shapes for both factor sizes, and refusal of overflow; and the one
range-inclusion rule, ``_linalg.range_contains``, behind its callers, with
Douglas' quotient ``_linalg.range_quotient`` against an independent
pseudo-inverse and the exact oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from widthlab import InputError, first_component_member, range_equiv, solve_xay
from widthlab._linalg import RANK_RCOND, monomial_svd, pow2_scaled, range_contains, range_quotient, rank
from widthlab._linalg import rank_from_values, svd
from widthlab.equations import _matching_maps

from exact_psd import contains, rational, scaled


@st.composite
def monomial(draw):
    """At most one nonzero per row and per column, in any pattern of zero
    rows and columns, with entries ``±2^k``, ``|k| <= 600``; square half
    the time."""
    m = draw(st.integers(1, 8))
    n = m if draw(st.booleans()) else draw(st.integers(1, 8))
    k = draw(st.integers(0, min(m, n)))
    rows = draw(st.permutations(range(m)))[:k]
    cols = draw(st.permutations(range(n)))[:k]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))
    powers = draw(st.lists(st.integers(-600, 600), min_size=k, max_size=k))
    a = np.zeros((m, n))
    a[rows, cols] = [s * 2.0 ** p for s, p in zip(signs, powers)]
    return a


@settings(max_examples=200, deadline=None)
@given(monomial(), st.booleans())
def test_monomial_branch_is_exact(a, full_matrices):
    u, s, vh = svd(a, full_matrices=full_matrices)
    nu, ns, nvh = np.linalg.svd(a, full_matrices=full_matrices)
    assert (u.shape, s.shape, vh.shape) == (nu.shape, ns.shape, nvh.shape)
    np.testing.assert_array_equal(u.T @ u, np.eye(u.shape[1]))
    np.testing.assert_array_equal(vh @ vh.T, np.eye(vh.shape[0]))
    k = s.size
    np.testing.assert_array_equal(s, np.sort(np.abs(a), axis=None)[::-1][:k])
    np.testing.assert_array_equal((u[:, :k] * s) @ vh[:k], a)
    np.testing.assert_array_equal(svd(a, full_matrices=full_matrices, compute_uv=False), s)


@settings(max_examples=200, deadline=None)
@given(monomial())
def test_monomial_kernels_are_exact_coordinate_vectors(a):
    # the kernel, the rows of the full right factor beyond the rank, is
    # exactly the span of the coordinate vectors of the columns whose entry
    # is zero or sits at or below the cutoff; section_svd's row-space basis
    # (the rows within the rank) relies on the same exactness
    _, s, vh = svd(a, full_matrices=True)
    basis = vh[rank(a):].T
    small = np.flatnonzero(np.abs(a).max(axis=0) <= RANK_RCOND * s[0])
    assert basis.shape == (a.shape[1], a.shape[1] - rank(a)) == (a.shape[1], small.size)
    assert np.isin(basis, (0.0, 1.0)).all()
    np.testing.assert_array_equal(basis.T @ basis, np.eye(small.size))
    np.testing.assert_array_equal(np.sort(np.argmax(basis, axis=0)), small)
    if basis.size:
        assert np.abs(a @ basis).max() <= RANK_RCOND * s[0]


def test_overflowing_singular_values_are_refused():
    h = np.full((3, 3), 1e308)
    with pytest.raises(InputError, match="singular values overflow double precision"):
        rank(h)
    with pytest.raises(InputError, match="singular values overflow double precision"):
        solve_xay(np.eye(3), h)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(monomial(), st.booleans(), st.data())
def test_one_more_nonzero_in_a_row_or_column_reaches_gesdd(linalg_calls, a, in_row, data):
    # the gate and the duplicate test turn away exactly the matrices with
    # a repeated row or column; every monomial stays off numpy's SVD
    def two_axis_sums(x):
        nz = x != 0
        return (nz.sum(axis=0) > 1).any() or (nz.sum(axis=1) > 1).any()

    for compute_uv in (False, True):
        linalg_calls.update(svd=0, svd_uv=0)
        svd(a, compute_uv=compute_uv)
        assert linalg_calls["svd"] + linalg_calls["svd_uv"] == 0
    assert not two_axis_sums(a) and monomial_svd(a) is not None
    rows, cols = np.nonzero(a)
    m, n = a.shape
    assume(rows.size and (n > 1 if in_row else m > 1))
    i = data.draw(st.integers(0, rows.size - 1))
    r, c = rows[i], cols[i]
    if in_row:
        c = data.draw(st.sampled_from([j for j in range(n) if j != c]))
    else:
        r = data.draw(st.sampled_from([j for j in range(m) if j != r]))
    b = a.copy()
    b[r, c] = data.draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** data.draw(st.integers(-600, 600))
    assert two_axis_sums(b) and monomial_svd(b) is None
    for compute_uv in (False, True):
        linalg_calls.update(svd=0, svd_uv=0)
        svd(b, compute_uv=compute_uv)
        assert linalg_calls == {"svd": int(not compute_uv), "svd_uv": int(compute_uv), "eigvalsh": 0}


@pytest.mark.parametrize("a", [np.diag([np.inf, 1.0]), np.diag([1.0, -np.inf]),
                               np.array([[0.0, np.nan], [0.0, 0.0]]),
                               np.array([[np.inf, 1.0], [1.0, 1.0]])],
                         ids=["monomial-inf", "monomial-minus-inf", "monomial-nan", "dense-inf"])
def test_non_finite_singular_values_are_refused_in_both_branches(a):
    # the exact branch returned [inf, 1] and a rank of 0 here
    for call in (lambda: svd(a), lambda: svd(a, compute_uv=False), lambda: svd(a, full_matrices=True),
                 lambda: rank(a)):
        with pytest.raises(InputError, match="singular values overflow double precision"):
            call()


def integer_matrix(data, rows, cols):
    """Entries in [-2, 2]: every rank sits far from the cutoff."""
    return data.draw(hnp.arrays(np.float64, (rows, cols), elements=st.integers(-2, 2).map(float)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inclusion_verdicts_do_not_depend_on_the_scale_of_each_operand(data):
    # half the draws put the second operand in the first one's range (or
    # row space); scaling each operand by its own 2^k changes no verdict
    d = data.draw(st.integers(1, 5))
    dims = [data.draw(st.integers(1, 5)) for _ in range(3)]
    related = data.draw(st.booleans())

    def second(first, cols):
        if related:
            return first @ integer_matrix(data, first.shape[1], cols)
        return integer_matrix(data, first.shape[0], cols)

    def scaled(*operands):
        return [np.ldexp(a, data.draw(st.integers(-500, 500))) for a in operands]

    a1 = integer_matrix(data, d, dims[0])
    a2 = second(a1, dims[1])
    assert range_equiv(*scaled(a1, a2)).same_range == range_equiv(a1, a2).same_range

    x, a = integer_matrix(data, d, dims[0]), integer_matrix(data, dims[0], dims[1])
    b = second(x @ a, dims[2])
    assert first_component_member(*scaled(x, a, b)) == first_component_member(x, a, b)

    dom = integer_matrix(data, d, dims[0])
    img = second(dom.T, d).T  # related: img = G dom, whose rows lie in dom's row space
    assert (_matching_maps(*scaled(dom, img)) is None) == (_matching_maps(dom, img) is None)


def test_full_row_rank_takes_no_decomposition(linalg_calls):
    # given the factors of m, a full row rank answers at once
    m = np.random.default_rng(0).normal(size=(3, 5))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    assert range_contains(m, np.ones((3, 2)), s, u)
    assert linalg_calls == {"svd": 0, "svd_uv": 1, "eigvalsh": 0}


def stack_inclusion(m, n):
    """The reference the bordered block stands for: ``rank([m n]) ==
    rank(m)`` from one SVD of the stack of the power-of-two scaled
    operands, both ranks counted at the stack's largest value."""
    m_hat, n_hat = pow2_scaled(m)[0], pow2_scaled(n)[0]
    s = np.linalg.svd(np.hstack([m_hat, n_hat]), compute_uv=False)
    return rank_from_values(s) == rank_from_values(np.linalg.svd(m_hat, compute_uv=False), top=s[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factored_inclusion_answers_as_the_stack_does(data):
    # [[diag(s), Q^T n], [0, n - Q Q^T n]] has the singular values of
    # [m n], whether Q holds all of m's thin left vectors or only those
    # within its rank; integer operands keep every rank far from the cutoff
    d, cols, p = (data.draw(st.integers(1, 6)) for _ in range(3))
    m = integer_matrix(data, d, cols)
    n = m @ integer_matrix(data, cols, p) if data.draw(st.booleans()) else integer_matrix(data, d, p)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    verdict = stack_inclusion(m, n)
    assert range_contains(m, n, s, u) == verdict
    k = rank(m)
    assert range_contains(m, n, s[:k], u[:, :k]) == verdict


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_is_the_pseudo_inverse_on_the_range(data):
    """``range_quotient(m, n)`` is ``None`` exactly when a column of ``n``
    is off ``range(m)``; otherwise its singular values are those of
    ``m^+ n``, and its largest one is ``||m^+ n||``, the least ``t`` with
    ``n(B) ⊆ t m(B)`` (Douglas' lemma), which the exact oracle brackets.

    Integer operands with entries in [-2, 2] and at most 6 rows or
    columns keep every rank far from the cutoff: the product of the
    nonzero singular values of an integer matrix of rank ``r`` is at least
    1 and each is at most ``||m||_F <= 12``, so ``s_r >= 12^(1-r)``.  The
    reference is numpy's minimum-norm least-squares solution, which is
    ``m^+ n`` by another LAPACK route (gelsd).  Both routes are backward
    stable: each computes ``(m + E)^+ n`` up to rounding of order
    ``d u ||n|| / s_r``, with ``||E|| <= g u ||m||`` for a modest ``g``
    (Golub & Van Loan, Matrix Computations, 5.5 and 8.6), and when the
    perturbation keeps the rank, ``||(m + E)^+ - m^+|| <= sqrt(2) ||E||
    / (s_r (s_r - ||E||))`` (P.-Å. Wedin, BIT 13, 1973).  By Weyl's
    inequality each singular value of either moves by at most the norm of
    its error, so the two differ by at most ``bound = 2 (sqrt(2) g + d)
    u kappa(m) ||n|| / s_r``; ``g = 8 (rows + cols)`` is generous for
    these sizes.
    """
    d, cols, p = (data.draw(st.integers(1, 6)) for _ in range(3))
    m = integer_matrix(data, d, cols)
    if data.draw(st.booleans()):
        n = m @ integer_matrix(data, cols, p)
    else:
        n = integer_matrix(data, d, p)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    quotient = range_quotient(m, n, s, u)
    r = np.linalg.matrix_rank(m)
    if np.linalg.matrix_rank(np.hstack([m, n])) > r:
        assert quotient is None
        return
    assert quotient is not None and quotient.shape == (r, p)
    if r == 0:
        return
    sq = np.linalg.svd(quotient, compute_uv=False)
    oracle = np.linalg.svd(np.linalg.lstsq(m, n, rcond=None)[0], compute_uv=False)[: sq.size]
    eps = np.finfo(float).eps
    g = 8 * (d + cols)
    bound = 2 * (np.sqrt(2) * g + d) * eps * (s[0] / s[r - 1]) * np.linalg.norm(n, 2) / s[r - 1]
    np.testing.assert_allclose(sq, oracle, rtol=0, atol=bound)
    # ||m^+ n|| <= t exactly when n n^T <= t^2 m m^T, decided in rationals
    top, exact_m, exact_n = Fraction(float(sq[0])), rational(m), rational(n)
    assert contains(scaled(top + Fraction(bound), exact_m), exact_n)
    if sq[0] > bound:
        assert not contains(scaled(top - Fraction(bound), exact_m), exact_n)
