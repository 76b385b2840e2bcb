"""The one SVD entry point, ``_linalg.svd``: exact on monomial matrices,
numpy's shapes for both factor sizes, and refusal of overflow."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from widthlab import InputError, solve_xay
from widthlab._linalg import RANK_RCOND, monomial_svd, nullspace_basis, rank, svd


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
    # with no cutoff the kernel is exactly the span of the zero columns
    basis = nullspace_basis(a, rcond=0.0)
    assert basis.shape == (a.shape[1], a.shape[1] - np.count_nonzero(a))
    np.testing.assert_array_equal(a @ basis, 0.0)
    np.testing.assert_array_equal(basis.T @ basis, np.eye(basis.shape[1]))
    # the default cutoff adds the columns whose entry sits below it
    s = svd(a, compute_uv=False)
    basis = nullspace_basis(a)
    assert basis.shape[1] == a.shape[1] - rank(a)
    np.testing.assert_array_equal(basis.T @ basis, np.eye(basis.shape[1]))
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
