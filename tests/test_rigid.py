import math

import numpy as np
import pytest

from widthlab import (
    InputError,
    RigidCompactSpec,
    build_rigid_compact,
    rigid_cover_search,
)


def tower_spec(n):
    alphas = tuple(10.0 ** (-(k * (k - 1)) / 2) for k in range(1, n + 1))
    betas = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)[:n]
    return RigidCompactSpec(n=n, alphas=alphas, betas=betas)


class TestSpecValidation:
    def test_duplicate_betas(self):
        with pytest.raises(InputError, match="distinct"):
            RigidCompactSpec(n=2, alphas=(1.0, 0.01), betas=(0.6, 0.6))

    def test_betas_the_search_cannot_tell_apart(self):
        # ratios are compared to a 1e-12 relative tolerance, which takes
        # these betas for equal: the swap of their axes would match too
        with pytest.raises(InputError, match="distinct"):
            RigidCompactSpec(n=4, alphas=(1.0, 0.5, 0.125, 0.015625),
                             betas=(0.6, 0.6 + 1e-13, 0.7, 0.8))
        spec = RigidCompactSpec(n=4, alphas=(1.0, 0.5, 0.125, 0.015625),
                                betas=(0.6, 0.6 + 1e-11, 0.7, 0.8))
        assert rigid_cover_search(spec, norm_bound=10.0).identity_only

    def test_betas_whose_product_is_one(self):
        # beta^2 = 1 - 2e-14 passes for 1, so the map that swaps the two
        # points of that axis would match too
        with pytest.raises(InputError, match="stay clear of 1"):
            RigidCompactSpec(n=2, alphas=(1.0, 0.5), betas=(0.6, 1 - 1e-14))
        with pytest.raises(InputError, match="stay clear of 1"):
            RigidCompactSpec(n=1, alphas=(1.0,), betas=(1 - 1e-13,))

    def test_betas_out_of_interval(self):
        with pytest.raises(InputError, match=r"\(1/2, 1\)"):
            RigidCompactSpec(n=1, alphas=(1.0,), betas=(0.4,))

    def test_alpha_ratios_must_decrease(self):
        with pytest.raises(InputError, match="decrease strictly"):
            RigidCompactSpec(n=3, alphas=(1.0, 0.5, 0.25), betas=(0.6, 0.7, 0.8))

    @pytest.mark.parametrize("n", [2.0, True])
    def test_truncation_size_must_be_an_integer(self, n):
        # neither is an integer, though each equals one
        with pytest.raises(InputError, match="truncation size must be positive, got .* \\(not an integer\\)"):
            RigidCompactSpec(n=n, alphas=(1.0, 0.5), betas=(0.6, 0.7))

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="exactly n=2"):
            RigidCompactSpec(n=2, alphas=(1.0,), betas=(0.6, 0.7))


class TestBuild:
    def test_one_axis(self):
        pts = build_rigid_compact(RigidCompactSpec(n=1, alphas=(1.0,), betas=(0.6,)))
        np.testing.assert_allclose(pts, [[0.0], [1.0], [0.6]])

    def test_two_axes_has_five_points(self):
        spec = RigidCompactSpec(n=2, alphas=(1.0, 0.1), betas=(0.6, 0.7))
        pts = build_rigid_compact(spec)
        assert pts.shape == (5, 2)
        np.testing.assert_allclose(pts[2], [0.0, 0.1])
        np.testing.assert_allclose(pts[4], [0.0, 0.07])


class TestSearch:
    def test_one_axis_identity_only(self):
        rep = rigid_cover_search(RigidCompactSpec(n=1, alphas=(1.0,), betas=(0.6,)),
                                 norm_bound=10.0)
        assert rep.identity_only and rep.admissible_maps == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_towers(self, n):
        rep = rigid_cover_search(tower_spec(n), norm_bound=10.0)
        assert rep.identity_only
        assert rep.admissible_maps == 1
        assert rep.edge_graph_stats.out_degree_min >= 2
        assert rep.edge_graph_stats.in_degree_max <= 1

    def test_identity_survives_any_norm_bound(self):
        rep = rigid_cover_search(tower_spec(3), norm_bound=1.0)
        assert rep.admissible_maps >= 1 and rep.identity_only

    def test_norm_threshold_formula(self):
        spec = tower_spec(5)
        rep = rigid_cover_search(spec, norm_bound=10.0)
        alpha_part = max(spec.alphas[k] / spec.alphas[k + 1] for k in range(4))
        gap = 0.05
        assert rep.max_norm_bound == pytest.approx(alpha_part * gap)

    def test_eight_axes_certify_identity_only(self):
        # the size the deleted cap used to refuse
        alphas = tuple(10.0 ** (-(k * (k - 1)) / 2) for k in range(1, 9))
        betas = tuple(0.51 + 0.05 * k for k in range(8))
        rep = rigid_cover_search(RigidCompactSpec(n=8, alphas=alphas, betas=betas), norm_bound=10.0)
        assert rep.identity_only and rep.admissible_maps == 1
        assert (rep.edge_graph_stats.out_degree_min, rep.edge_graph_stats.in_degree_max) == (2, 1)
        assert rep.max_norm_bound == pytest.approx(1e7 * 0.05)

    def test_a_thousand_axes_certify_identity_only(self):
        # the validator sorts the betas once, so a large spec costs no search
        n = 1000
        alphas = tuple(math.exp(-k * k / (4 * n)) for k in range(n))
        betas = tuple(0.51 + 0.48 * k / n for k in range(n))
        rep = rigid_cover_search(RigidCompactSpec(n=n, alphas=alphas, betas=betas), norm_bound=1e6)
        assert rep.identity_only and rep.admissible_maps == 1
        assert (rep.edge_graph_stats.out_degree_min, rep.edge_graph_stats.in_degree_max) == (2, 1)
        ratio = max(alphas[k] / alphas[k + 1] for k in range(n - 1))
        assert rep.max_norm_bound == pytest.approx(ratio * 0.48 / n, rel=1e-9)

    def test_norm_bound_floor(self):
        with pytest.raises(InputError, match="at least 1"):
            rigid_cover_search(tower_spec(2), norm_bound=0.5)

    def test_search_makes_no_decomposition(self, linalg_calls):
        rigid_cover_search(tower_spec(7), norm_bound=10.0)
        assert linalg_calls == {"svd": 0, "svd_uv": 0, "eigvalsh": 0}

    def test_degree_invariants_across_specs(self):
        for spec in (tower_spec(2),
                     RigidCompactSpec(n=3, alphas=(1.0, 1e-2, 1e-5),
                                      betas=(0.51, 0.99, 0.75))):
            rep = rigid_cover_search(spec, norm_bound=10.0)
            assert rep.edge_graph_stats.out_degree_min >= 2
            assert rep.edge_graph_stats.in_degree_max <= 1
