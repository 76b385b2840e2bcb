"""Documented closed forms, checked over the whole domain the API accepts
rather than at a few hand-picked sizes."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from widthlab import (Geometric, InputError, Power, RigidCompactSpec, Samples, Scaled, Shifted,
                      SuperGeometric, covers, ellipsoid, kolmogorov_widths, majorizes, range_equiv,
                      sample, schmidt_cover, singular_spectrum, wot_density_experiment)

betas_in_range = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def rigid_inputs(draw, max_n=12):
    """Alphas from a start and sorted ratios, betas anywhere in (1/2, 1),
    some of them a relative 1e-11 or less from an earlier beta or from 1;
    the validator, not the strategy, decides which specs are accepted."""
    n = draw(st.integers(1, max_n))
    ratios = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1, unique=True))
    alphas = [draw(st.floats(1e-3, 1e3))]
    for r in sorted(ratios, reverse=True):
        alphas.append(alphas[-1] * r)
    betas = []
    for _ in range(n):
        beta = draw(betas_in_range)
        near = draw(st.sampled_from(["free", "beta", "one"] if betas else ["free", "one"]))
        if near != "free":
            offset = draw(st.floats(-1e-11, 1e-11))
            beta = (draw(st.sampled_from(betas)) if near == "beta" else 1.0) * (1.0 + offset)
        betas.append(min(beta, math.nextafter(1.0, 0.0)))
    return tuple(alphas), tuple(betas)


# The all-pairs definition of a rigid spec: an axis pair ``m != j`` matches
# straight when ``beta_m = beta_j``, and any pair (``m = j`` included)
# matches swapped when ``beta_m beta_j = 1``, both to a relative 1e-12.
def close(x, y):
    return abs(x - y) <= 1e-12 * max(abs(x), abs(y))


def rigid_by_definition(betas) -> bool:
    n = len(betas)
    return not any((m != j and close(betas[m], betas[j])) or close(betas[m] * betas[j], 1.0)
                   for m in range(n) for j in range(n))


@settings(max_examples=300, deadline=None)
@given(rigid_inputs())
@example(((1.0, 0.5), (0.6, 1 - 1e-13)))
@example(((1.0, 0.5, 0.125), (0.6, 0.6 + 1e-11, 0.7)))
@example(((1.0, 0.5, 0.125), (0.6, 0.7, 0.6 + 1e-13)))
def test_the_validator_accepts_exactly_the_rigid_specs_of_the_definition(inputs):
    alphas, betas = inputs
    try:
        RigidCompactSpec(n=len(betas), alphas=alphas, betas=betas)
    except InputError as exc:
        if "distinct" in str(exc) or "clear of 1" in str(exc):
            assert not rigid_by_definition(betas)
            return
        reject()  # refused for its alphas, or for a beta pushed out of (1/2, 1)
    assert rigid_by_definition(betas)


def covering_maps(alphas, betas) -> list:
    """Every linear ``D`` with ``D K ⊇ K`` on the two-points-per-axis compact,
    by brute force.  ``D`` fixes the origin and permutes the 2n nonzero
    points; the image of each outer point ``alpha_m e_m`` fixes ``D e_m``,
    so each choice of those images is one candidate ``D``, which must then
    send the inner points ``alpha_m beta_m e_m`` onto the points left.  A
    point is an ``(axis, coordinate)`` pair, and images match points to a
    relative 1e-14.  Returns each ``D`` as the axes its columns land on."""
    n = len(alphas)
    points = [(k, alphas[k]) for k in range(n)] + [(k, alphas[k] * betas[k]) for k in range(n)]

    def index(axis, value):
        hits = [i for i in (axis, n + axis) if abs(points[i][1] - value) <= 1e-14 * max(points[i][1], value)]
        return hits[0] if len(hits) == 1 else None

    maps = []
    for outer in itertools.permutations(range(2 * n), n):
        # D e_m = (coordinate of point outer[m] / alpha_m) e_(its axis)
        inner = [index(points[i][0], points[i][1] * betas[m]) for m, i in enumerate(outer)]
        if None not in inner and sorted(inner + list(outer)) == list(range(2 * n)):
            maps.append(tuple(points[i][0] for i in outer))
    return maps


@settings(max_examples=100, deadline=None)
@given(rigid_inputs(max_n=4))
@example(((1.0, 0.5), (0.6, 1 - 1e-13)))
@example(((1.0, 0.5, 0.125, 0.015625), (0.6, 0.6 + 1e-11, 0.7, 1 - 1e-11)))
def test_every_accepted_rigid_spec_is_covered_by_the_identity_only(inputs):
    alphas, betas = inputs
    try:
        spec = RigidCompactSpec(n=len(betas), alphas=alphas, betas=betas)
    except InputError:
        reject()
    assert covering_maps(spec.alphas, spec.betas) == [tuple(range(spec.n))]


@settings(max_examples=50, deadline=None)
@given(rigid_inputs(max_n=4))
def test_two_equal_betas_admit_a_second_cover_and_are_refused(inputs):
    alphas, betas = inputs
    if len(betas) < 2:
        reject()
    betas = (betas[0],) + betas[:1] + betas[2:]
    if any(close(b * b, 1.0) for b in betas):
        reject()  # the outer and inner point of an axis nearly coincide
    assert len(covering_maps(alphas, betas)) >= 2
    try:
        RigidCompactSpec(n=len(betas), alphas=alphas, betas=betas)
    except InputError as exc:
        if "alpha" in str(exc):
            reject()
    else:
        pytest.fail(f"betas {betas} were accepted")


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


# positive terms from 1e-100 to 1e101, nonincreasing once sorted; 80 terms
# reach past the 64-term window
positive_term = st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.integers(-100, 100))
samples_terms = st.lists(positive_term, min_size=1, max_size=80).map(lambda v: tuple(sorted(v, reverse=True)))


@settings(max_examples=200, deadline=None)
@given(samples_terms, samples_terms)
def test_windowed_majorization_constant_is_the_schmidt_norm(a, b):
    # the width sequence of a diagonal generator is its sorted diagonal, and
    # the monomial SVD reads it exactly, so the Schmidt norm max b_n / a_n
    # over the window is the windowed constant bit for bit
    v = majorizes(Samples(a), Samples(b))
    w = v.window
    assert (v.holds, v.exact, w) == (True, False, min(64, len(a), len(b)))
    _, c = schmidt_cover(ellipsoid(np.diag(a[:w]), rcond=0.0), ellipsoid(np.diag(b[:w]), rcond=0.0))
    assert v.constant.hex() == c.hex()


# scale(c, shift(k, geom(q) | pow(p) | supergeom(b))), all nonincreasing
parametric_models = st.builds(
    Scaled, st.builds(lambda m, k: m * 10.0 ** k, st.floats(1.0, 10.0), st.integers(-10, 10)),
    st.builds(Shifted, st.integers(0, 16), st.one_of(
        st.builds(Geometric, st.floats(0.05, 0.95)),
        st.builds(Power, st.floats(0.1, 4.0)),
        st.builds(SuperGeometric, st.floats(1.01, 3.0)))))


def longest_sample(model, n_max=256):
    """``sample(model, d)`` for the largest ``d <= n_max`` it accepts (it
    refuses every ``d`` past the first term below ``MIN_TERM``)."""
    for d in range(n_max, 0, -1):
        try:
            return sample(model, d)
        except InputError:
            pass
    return []


@settings(max_examples=12, deadline=None)  # up to 256 dense covers per example
@given(parametric_models, parametric_models)
def test_tower_schmidt_norm_climbs_to_the_majorization_constant(a, b):
    # majorizes' closed-form C = sup_n b_n / a_n and the dense layer's
    # Schmidt norm max_{n<d} b_n / a_n of the diagonal tower describe one
    # object: at every accepted d the norm never decreases and never passes C
    v = majorizes(a, b)
    assume(v.holds and math.isfinite(v.constant))
    ta, tb = longest_sample(a), longest_sample(b)
    norms = [schmidt_cover(ellipsoid(np.diag(ta[:d]), rcond=0.0),
                           ellipsoid(np.diag(tb[:d]), rcond=0.0))[1]
             for d in range(1, min(len(ta), len(tb)) + 1)]
    assert norms == sorted(norms)
    assert max(norms) <= v.constant * (1 + 1e-12)


def accepted_length(model) -> int:
    """The largest ``d`` that ``sample(model, d)`` accepts: the index of the
    first term below ``MIN_TERM``."""
    d = 0
    while True:
        try:
            model.term(d)
        except InputError:
            return d
        d += 1


@settings(max_examples=40, deadline=None)  # d up to 574
@given(st.one_of(st.floats(0.05, 0.3).map(Geometric), st.floats(1.01, 3.0).map(SuperGeometric)),
       st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(Geometric(0.3), 3, 7, 1.0)  # d = 574, the largest any q in range accepts
@example(Geometric(0.05), 1, 7, 1.0)
@example(SuperGeometric(1.01), 3, 7, 1.0)
@example(SuperGeometric(3.0), 3, 7, 0.0)
def test_tower_yield_closed_form_at_every_accepted_dimension(model, m, seed, place):
    # with m axes drawn among the first d - m (d >= 2m) the yield is the last
    # ratio t_(d-1) / t_(d-m-1) of the diagonal tower: q^m for geom(q) and
    # b^(-m(2d-m-2)) for supergeom(b), to the rounding of the terms; d runs
    # from 2m (place 0) to the largest length sample accepts (place 1)
    top = accepted_length(model)
    d = 2 * m + round(place * (top - 2 * m))
    rho = wot_density_experiment(model, m, [d], seed).rho[0]
    if isinstance(model, Geometric):
        assert top <= 574
        want = model.q ** m
    else:
        want = model.b ** float(-m * (2 * d - m - 2))
    assert abs(rho - want) <= 4 * math.ulp(want), (rho, want)
