"""Documented closed forms, checked over the whole domain the API accepts
rather than at a few hand-picked sizes."""

import math
import sys

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from widthlab import (InputError, RigidCompactSpec, covers, ellipsoid, kolmogorov_widths,
                      range_equiv, rigid_cover_search, singular_spectrum)

betas_in_range = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def rigid_inputs(draw):
    """Alphas from a start and sorted ratios, betas anywhere in (1/2, 1);
    the validator, not the strategy, decides which specs are accepted."""
    n = draw(st.integers(1, 12))
    ratios = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1, unique=True))
    alphas = [draw(st.floats(1e-3, 1e3))]
    for r in sorted(ratios, reverse=True):
        alphas.append(alphas[-1] * r)
    betas = draw(st.lists(betas_in_range, min_size=n, max_size=n))
    return tuple(alphas), tuple(betas)


@settings(max_examples=200, deadline=None)
@given(rigid_inputs(), st.floats(1.0, 1e6))
@example(((1.0, 0.5), (0.6, 1 - 1e-13)), 10.0)
@example(((1.0, 0.5, 0.125), (0.6, 0.6 + 1e-11, 0.7)), 10.0)
def test_every_accepted_rigid_spec_is_covered_by_the_identity_only(inputs, norm_bound):
    alphas, betas = inputs
    try:
        spec = RigidCompactSpec(n=len(betas), alphas=alphas, betas=betas)
    except InputError:
        reject()
    rep = rigid_cover_search(spec, norm_bound)
    assert rep.identity_only and rep.admissible_maps == 1
    stats = (rep.edge_graph_stats.out_degree_min, rep.edge_graph_stats.in_degree_max)
    assert stats == ((2, 1) if spec.n > 1 else (None, None))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=5e-324, max_value=math.sqrt(sys.float_info.max)), st.integers(1, 4))
@example(1e-310, 3)
@example(5e-324, 1)
def test_cover_of_a_ball_by_its_multiple_has_norm_c(c, d):
    # c I maps the unit ball onto the ball of radius c, which holds the zero
    # ellipsoid; the witness is c I itself, of norm c
    cert = covers(c * np.eye(d), ellipsoid(np.eye(d)), ellipsoid(np.zeros((d, d))))
    assert cert.holds
    assert abs(cert.norm - c) <= 4 * math.ulp(c)


def orthonormal(rng, m, k, monomial):
    """``k`` orthonormal columns in dimension ``m``: signed coordinate
    vectors, or the Q factor of a Gaussian block."""
    if monomial:
        q = np.zeros((m, k))
        q[rng.permutation(m)[:k], np.arange(k)] = rng.choice([-1.0, 1.0], size=k)
        return q
    return np.linalg.qr(rng.normal(size=(m, k)))[0]


@st.composite
def prescribed_generators(draw):
    """``A = P diag(s) Q^T`` with orthonormal ``P``, ``Q`` and ``r`` nonzero
    prescribed s-numbers, the rest exactly zero: the widths are ``s``."""
    m, n = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    r = draw(st.integers(0, min(m, n)))
    s = sorted(draw(st.lists(st.floats(1e-6, 1e3), min_size=r, max_size=r)), reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    monomial = draw(st.booleans())
    a = orthonormal(rng, m, r, monomial) @ (np.array(s)[:, None] * orthonormal(rng, n, r, monomial).T)
    return a, np.array(s)


@settings(max_examples=150, deadline=None)
@given(prescribed_generators())
def test_widths_are_the_s_numbers_then_zero(case):
    # d_n(A(B)) = s_{n+1}(A) below the rank and 0 beyond it
    a, s = case
    e = ellipsoid(a)
    w = kolmogorov_widths(e).values
    r = s.size
    assert e.rank == r and w.size == min(a.shape)
    np.testing.assert_array_equal(w[:r], singular_spectrum(a).values[:r])
    assert np.all(w[r:] == 0.0)
    if r:
        assert np.abs(w[:r] - s).max() <= 1e-12 * s[0]


@st.composite
def twisted_pairs(draw):
    """``A`` of ``k <= m`` columns with s-numbers in [0.1, 10] and a twist
    ``R = V diag(sigma) W^T`` with ``sigma`` in [0.1, 10]."""
    m = draw(st.integers(1, 20))
    k = draw(st.integers(1, m))
    s = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    sigma = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = orthonormal(rng, m, k, False) @ (np.array(s)[:, None] * orthonormal(rng, k, k, False).T)
    r = orthonormal(rng, k, k, False) @ (np.array(sigma)[:, None] * orthonormal(rng, k, k, False).T)
    return a, r, min(sigma), max(sigma)


@settings(max_examples=150, deadline=None)
@given(twisted_pairs())
def test_range_equiv_of_a_twist_gives_its_extreme_singular_values(case):
    # the tightest c, C with c A(B) ⊆ A R(B) ⊆ C A(B) are sigma_min(R), sigma_max(R)
    a, r, lo, hi = case
    eq = range_equiv(a, a @ r)
    assert eq.same_range
    assert abs(eq.c - lo) <= 1e-10 * lo and abs(eq.C - hi) <= 1e-10 * hi
