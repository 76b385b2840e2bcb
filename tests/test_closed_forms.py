"""Documented closed forms, checked over the whole domain the API accepts
rather than at a few hand-picked sizes."""

import math
import sys

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from widthlab import InputError, RigidCompactSpec, covers, ellipsoid, rigid_cover_search

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
