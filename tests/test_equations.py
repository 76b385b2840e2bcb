import math
import re

import numpy as np
import pytest

from widthlab import (
    InfeasibleError,
    InputError,
    UnsolvableError,
    approx_factorization,
    factor_pair,
    first_component_member,
    match_invertible,
    solve_xay,
    xay_solvable,
)
from widthlab.equations import _relative_residual


def random_with_rank(rng, d, r):
    return rng.normal(size=(d, r)) @ rng.normal(size=(r, d))


class TestSolvability:
    def test_diagonal_example(self):
        v = xay_solvable(np.diag([1.0, 2.0]), np.diag([3.0, 0.0]))
        assert v.solvable and (v.rank_A, v.rank_B) == (2, 1)

    def test_zero_a_nonzero_b(self):
        v = xay_solvable(np.zeros((2, 2)), np.eye(2))
        assert not v.solvable

    def test_rank_deficit_with_brute_force_confirmation(self):
        rng = np.random.default_rng(1)
        a = random_with_rank(rng, 6, 3)
        b = random_with_rank(rng, 6, 4)
        assert not xay_solvable(a, b).solvable
        # no (X, Y) can beat the rank barrier
        for _ in range(200):
            x, y = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
            assert np.linalg.matrix_rank(x @ a @ y, tol=1e-9) <= 3

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            xay_solvable(np.eye(2), np.eye(3))


class TestSolveXAY:
    def test_diagonal_example(self):
        a, b = np.diag([1.0, 2.0]), np.diag([3.0, 0.0])
        pair = solve_xay(a, b)
        np.testing.assert_allclose(pair.X @ a @ pair.Y, b, atol=1e-12)

    def test_b_equals_a(self):
        a = np.diag([1.0, 2.0])
        pair = solve_xay(a, a)
        assert pair.residual <= 1e-12

    def test_random_solvable_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            ra = int(rng.integers(1, d + 1))
            a = random_with_rank(rng, d, ra)
            b = rng.normal(size=(d, d)) @ a @ rng.normal(size=(d, d))
            pair = solve_xay(a, b)
            assert pair.residual <= 1e-9

    def test_unsolvable_carries_verdict(self):
        with pytest.raises(UnsolvableError) as err:
            solve_xay(np.zeros((2, 2)), np.eye(2))
        assert err.value.verdict.rank_B == 2

    def test_zero_b(self):
        pair = solve_xay(np.eye(3), np.zeros((3, 3)))
        assert pair.residual == 0.0

    @pytest.mark.parametrize("k", [-1060, -1000, 0, 1000])
    def test_residual_stays_relative_at_every_scale_of_b(self, k):
        # below the normal range the norm of B is floored at the smallest
        # normal double, so a subnormal B is still solved within tolerance
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(5, 5)), np.ldexp(rng.normal(size=(5, 5)), k)
        pair = solve_xay(a, b)
        assert pair.residual <= 1e-12


class TestRelativeResidual:
    def test_power_of_two_scalings_leave_it_unchanged(self):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(4, 4))
        x, y = b + 1e-6 * rng.normal(size=(4, 4)), np.eye(4)
        ref = _relative_residual(b, x, y)
        assert ref == pytest.approx(np.linalg.norm(x - b) / np.linalg.norm(b), rel=1e-12)
        for k in (-1000, -500, 500, 1000):
            assert _relative_residual(np.ldexp(b, k), np.ldexp(x, k), y) == ref

    def test_zero_b_gives_the_absolute_norm_of_the_product(self):
        x = np.full((3, 3), 1e-200)
        got = _relative_residual(np.zeros((3, 3)), x, np.eye(3))
        assert got == pytest.approx(3e-200, rel=1e-15)


class TestFirstComponent:
    def test_identity(self):
        a = np.diag([1.0, 2.0])
        assert first_component_member(np.eye(2), a, a)

    def test_zero_x(self):
        assert not first_component_member(np.zeros((2, 2)), np.eye(2), np.eye(2))

    def test_constructed_solutions_belong(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = 5
            a = random_with_rank(rng, d, 3)
            b = rng.normal(size=(d, d)) @ a @ rng.normal(size=(d, d))
            pair = solve_xay(a, b)
            assert first_component_member(np.asarray(pair.X), a, b)

    def test_deficient_composition_excluded(self):
        rng = np.random.default_rng(4)
        a = np.eye(4)
        b = random_with_rank(rng, 4, 3)
        x = random_with_rank(rng, 4, 2)  # rank(XA) = 2 < rank(B) = 3
        assert not first_component_member(x, a, b)


class TestFactorPair:
    def test_diagonal(self):
        b = np.diag([1.0, 2.0])
        pair = factor_pair(b)
        assert np.linalg.norm(pair.X @ pair.Y - b) <= 1e-14

    def test_zero_b_keeps_injectivity(self):
        pair = factor_pair(np.zeros((2, 2)))
        assert np.linalg.norm(pair.X @ pair.Y) == 0.0
        assert np.linalg.matrix_rank(np.asarray(pair.Y)) == 2

    def test_random_instances_full_rank(self):
        rng = np.random.default_rng(5)
        for d in (2, 5, 10):
            b = rng.normal(size=(d, d))
            pair = factor_pair(b)
            assert pair.residual <= 1e-12
            assert np.linalg.matrix_rank(np.asarray(pair.X)) == d
            assert np.linalg.matrix_rank(np.asarray(pair.Y)) == d

    @pytest.mark.parametrize("k", [-1060, -500, 0, 500, 1000])
    def test_exact_at_every_scale(self, k):
        # X = [B | I] and Y = U1 = [I; 0]: every entry of X Y is one entry
        # of B times 1 plus zeros, and X U2 = I for U2 = [0; I], bit for bit
        d = 6
        b = np.ldexp(np.random.default_rng(11).normal(size=(d, d)), k)
        pair = factor_pair(b)
        x, y = np.asarray(pair.X), np.asarray(pair.Y)
        assert np.array_equal(x @ y, b)
        assert pair.residual == 0.0
        assert np.array_equal(x @ np.vstack([np.zeros((d, d)), np.eye(d)]), np.eye(d))


class TestMatchInvertible:
    def test_exact_targets_give_zero_residuals(self):
        e = np.eye(4)
        cert = match_invertible([e[:, 0]], [e[:, 0]], [e[:, 1]], [e[:, 1]], eps=1.0)
        assert max(cert.x_residuals + cert.y_residuals) == 0.0

    def test_cross_targets(self):
        e = np.eye(8)
        cert = match_invertible([e[:, 0]], [e[:, 1]], [e[:, 2]], [e[:, 3]], eps=1e-6)
        v = np.asarray(cert.operator)
        assert np.linalg.norm(v @ e[:, 0] - e[:, 1]) < 1e-6
        assert np.linalg.norm(np.linalg.inv(v) @ e[:, 2] - e[:, 3]) < 1e-6
        assert np.linalg.svd(v, compute_uv=False)[-1] > 0

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        d = 10
        for trial in range(25):
            xs = [rng.normal(size=d) for _ in range(3)]
            ys = [rng.normal(size=d) for _ in range(3)]
            xst = [rng.normal(size=d) for _ in range(3)]
            yst = [rng.normal(size=d) for _ in range(3)]
            cert = match_invertible(xs, xst, ys, yst, eps=1e-4)
            assert max(cert.x_residuals + cert.y_residuals) < 1e-4
            v = np.asarray(cert.operator)
            assert np.linalg.svd(v, compute_uv=False)[-1] > 0
            assert np.isfinite(cert.condition)

    def test_coinciding_constraints_force_perturbation(self):
        # identical image requirements for V and V^-1 sides are degenerate
        # until nudged; the certificate still meets eps
        e = np.eye(4)
        cert = match_invertible([e[:, 0]], [e[:, 1]], [e[:, 1]], [e[:, 0]], eps=1e-3)
        assert max(cert.x_residuals + cert.y_residuals) < 1e-3

    @pytest.mark.parametrize("seed", range(3))
    def test_nudge_is_a_quarter_eps_off_the_span(self, seed):
        # x target 0 lies in span(ys): every target is nudged by eps/4
        # along a unit direction orthogonal to the targets before it
        rng = np.random.default_rng(seed)
        xs, ys, xst, yst = (rng.normal(size=(n, 7)) for n in (2, 2, 2, 2))
        xst[0] = ys[0] - ys[1]
        cert = match_invertible(xs, xst, ys, yst, eps=1e-6)
        v = np.asarray(cert.operator)
        moved = [v @ x - t for x, t in zip(xs, xst)]
        np.testing.assert_allclose([np.linalg.norm(m) for m in moved], 0.25e-6, rtol=1e-6)
        np.testing.assert_allclose(cert.x_residuals, 0.25e-6, rtol=1e-6)
        assert max(cert.y_residuals) < 1e-6
        # the second x target's nudge is orthogonal to ys and the first
        # nudged target (a direction drawn at random has cosines near 0.3)
        span = np.column_stack([*ys, xst[0] + moved[0]])
        cosines = (span / np.linalg.norm(span, axis=0)).T @ (moved[1] / np.linalg.norm(moved[1]))
        assert np.abs(cosines).max() <= 1e-6

    def test_dependent_inputs_rejected(self):
        e = np.eye(4)
        with pytest.raises(InputError, match="independent"):
            match_invertible([e[:, 0], 2 * e[:, 0]], [e[:, 1], e[:, 2]],
                             [e[:, 3]], [e[:, 3]], eps=1e-3)

    def test_dimension_floor(self):
        e = np.eye(2)
        with pytest.raises(InputError, match="ambient dimension"):
            match_invertible([e[:, 0]], [e[:, 0]],
                             [e[:, 0], e[:, 1]], [e[:, 0], e[:, 1]], eps=1e-3)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("nudged", [False, True])
    def test_condition_is_the_singular_value_ratio(self, seed, nudged):
        # condition = s_max(V) / s_min(V) from numpy's own SVD, and the
        # residuals through V^-1 = F_dom F_img^-1 stay below eps
        rng = np.random.default_rng(seed)
        d = 9
        xs, ys = list(rng.normal(size=(3, d))), list(rng.normal(size=(2, d)))
        xst, yst = list(rng.normal(size=(3, d))), list(rng.normal(size=(2, d)))
        if nudged:  # an x target inside span(xs, y targets) forces the nudge
            xst[0] = xs[1] + yst[0]
        cert = match_invertible(xs, xst, ys, yst, eps=1e-6)
        v = np.asarray(cert.operator)
        sv = np.linalg.svd(v, compute_uv=False)
        assert cert.condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)
        v_inv = np.linalg.inv(v)
        for y, target, reported in zip(ys, yst, cert.y_residuals):
            assert reported < 1e-6
            assert reported == pytest.approx(np.linalg.norm(v_inv @ y - target), rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("k", [-60, -30, 30])
    @pytest.mark.parametrize("nudged", [False, True])
    def test_nudge_does_not_depend_on_scale(self, k, nudged):
        # scaling every vector and eps by 2^k poses the same problem; an
        # absolute floor in the well-posedness test nudged it at 2^-30
        rng = np.random.default_rng(5)
        xs, ys, xst, yst = (rng.normal(size=(n, 9)) for n in (3, 2, 3, 2))
        if nudged:  # an x target in span(ys) makes V's image dependent
            xst[0] = ys[0] + ys[1]

        def worst(s):
            cert = match_invertible(s * xs, s * xst, s * ys, s * yst, eps=s * 1e-6)
            return max(cert.x_residuals + cert.y_residuals) / (s * 1e-6)

        at_one, scaled = worst(1.0), worst(2.0 ** k)
        assert (at_one > 0.1) == (scaled > 0.1) == nudged
        assert scaled == pytest.approx(at_one, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-3])
    def test_eps_must_be_positive_and_finite(self, eps):
        e = np.eye(4)
        with pytest.raises(InputError, match="eps must be a positive finite number"):
            match_invertible([e[:, 0]], [e[:, 0]], [e[:, 1]], [e[:, 1]], eps=eps)


class TestApproxFactorization:
    def test_already_factored_targets(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(3, 3))
        y0 = rng.normal(size=(3, 3))
        b = x0 @ y0
        pair = approx_factorization(b, x0, y0, [np.eye(3)[:, 0]], eps=1e-2)
        assert pair.residual <= 1e-9

    def test_identity_targets(self):
        b = np.diag([1.0, 2.0])
        pair = approx_factorization(b, np.eye(2), np.eye(2), [np.array([1.0, 0.0])], eps=1e-2)
        x, y = np.asarray(pair.X), np.asarray(pair.Y)
        np.testing.assert_allclose(x @ y, b, atol=1e-9)
        u1 = np.vstack([np.eye(2), np.zeros((2, 2))])
        v = np.array([1.0, 0.0])
        assert np.linalg.norm(y @ v - u1 @ v) < 1e-2
        assert np.linalg.norm(x @ (u1 @ v) - v) < 1e-2

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        d = 6
        u1 = np.vstack([np.eye(d), np.zeros((d, d))])
        for trial in range(10):
            b = rng.normal(size=(d, d))
            x0 = rng.normal(size=(d, d))
            y0 = rng.normal(size=(d, d))
            vs = [rng.normal(size=d) for _ in range(3)]
            pair = approx_factorization(b, x0, y0, vs, eps=1e-3)
            x, y = np.asarray(pair.X), np.asarray(pair.Y)
            assert np.linalg.norm(x @ y - b) <= 1e-9 * (1 + np.linalg.norm(b))
            for v in vs:
                assert np.linalg.norm(y @ v - u1 @ (y0 @ v)) < 1e-3
                assert np.linalg.norm(x @ (u1 @ v) - x0 @ v) < 1e-3

    def test_dependent_test_vectors_followed_by_linearity(self):
        rng = np.random.default_rng(9)
        d = 6
        b = rng.normal(size=(d, d))
        v1, v2 = rng.normal(size=d), rng.normal(size=d)
        vs = [v1, v2, v1 + v2]
        pair = approx_factorization(b, rng.normal(size=(d, d)), rng.normal(size=(d, d)),
                                    vs, eps=1e-3)
        assert pair.residual <= 1e-9

    @pytest.mark.parametrize("d, rank", [(1, 1), (4, 4), (12, 12), (12, 5), (12, 0)])
    def test_right_inverse_and_norm_closed_form(self, d, rank):
        # X = [B | I] from factor_pair, so U2 = [0; I] is an exact right
        # inverse and ||X|| = hypot(1, s_1(B)); numpy's 2-norm is the oracle
        rng = np.random.default_rng(d + rank)
        b = random_with_rank(rng, d, rank)
        x = np.asarray(factor_pair(b).X)
        u2 = np.vstack([np.zeros((d, d)), np.eye(d)])
        assert np.array_equal(x @ u2, np.eye(d))
        s1 = np.linalg.svd(b, compute_uv=False)[0]
        assert math.hypot(1.0, s1) == pytest.approx(np.linalg.norm(x, 2), rel=1e-12)

    @pytest.mark.parametrize("k, feasible", [(-1000, False), (-700, False), (0, True), (20, True),
                                             (100, False), (511, False), (1000, False)])
    def test_outcome_across_scales_of_b(self, k, feasible):
        # the residual ||XY - B|| / ||B|| is relative at every scale: a tiny B
        # drowns in the round-off of the identity half of X = [B | I], and
        # ||B|| near 2^100 leaves no room for eps; no B Gram matrix is formed,
        # so from 2^511 on, where B B^T overflows, the twist is still tried
        rng = np.random.default_rng(0)
        d = 6
        b, x0, y0 = (rng.normal(size=(d, d)) for _ in range(3))
        vs = list(rng.normal(size=(3, d)))
        b = np.ldexp(b, k)
        if not feasible:
            with pytest.raises(InfeasibleError):
                approx_factorization(b, x0, y0, vs, eps=0.1)
            return
        pair = approx_factorization(b, x0, y0, vs, eps=0.1)
        x, y = np.asarray(pair.X), np.asarray(pair.Y)
        u1 = np.vstack([np.eye(d), np.zeros((d, d))])
        assert np.linalg.norm(x @ y - b) <= 1e-9 * np.linalg.norm(b)
        for v in vs:
            assert np.linalg.norm(y @ v - u1 @ (y0 @ v)) < 0.1
            assert np.linalg.norm(x @ (u1 @ v) - x0 @ v) < 0.1

    def test_dependent_test_vectors_each_meet_eps(self):
        # three principal directions carry five vectors, two of them
        # combinations with l1 coefficient norms 5 and 5.5
        rng = np.random.default_rng(10)
        d = 7
        v1, v2, v3 = rng.normal(size=(3, d))
        vs = [v1, v2, 2 * v1 - 3 * v2, v3, -v1 + 0.5 * v2 + 4 * v3]
        b, x0, y0 = (rng.normal(size=(d, d)) for _ in range(3))
        pair = approx_factorization(b, x0, y0, vs, eps=1e-3)
        x, y = np.asarray(pair.X), np.asarray(pair.Y)
        u1 = np.vstack([np.eye(d), np.zeros((d, d))])
        assert pair.residual <= 1e-9
        for v in vs:
            assert np.linalg.norm(y @ v - u1 @ (y0 @ v)) < 1e-3
            assert np.linalg.norm(x @ (u1 @ v) - x0 @ v) < 1e-3

    def test_zero_test_vector_rejected(self):
        with pytest.raises(InputError, match="zero"):
            approx_factorization(np.eye(2), np.eye(2), np.eye(2),
                                 [np.zeros(2)], eps=1e-3)

    def test_infeasible_twist_names_the_callers_eps(self):
        # with ||B|| near 2^40 the twist must meet an inner tolerance of
        # about 8e-16, which it misses; the error names eps=0.01, not that
        rng = np.random.default_rng(0)
        d = 6
        b, x0, y0 = (rng.normal(size=(d, d)) for _ in range(3))
        vs = list(rng.normal(size=(3, d)))
        with pytest.raises(InfeasibleError, match=r"eps=0\.01 at dimension 6") as err:
            approx_factorization(np.ldexp(b, 40), x0, y0, vs, eps=1e-2)
        inner = float(re.search(r"residuals below (\S+)$", str(err.value)).group(1))
        assert f"eps={inner:g}" not in str(err.value)
        assert err.value.achieved > inner

    def test_infeasible_eps_reports_achieved(self):
        b = np.diag([1.0, 2.0])
        with pytest.raises((InfeasibleError, InputError)):
            approx_factorization(b, 1e6 * np.eye(2), np.eye(2),
                                 [np.array([1.0, 0.0])], eps=1e-300)
