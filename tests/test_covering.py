import math
import tracemalloc

import numpy as np
import pytest

from widthlab import (
    ALGEBRA_AK,
    EMPTY,
    EVERYTHING,
    KDIM,
    Geometric,
    InputError,
    NotCoverableError,
    Power,
    Samples,
    Scaled,
    Shifted,
    SuperGeometric,
    classify_WCG,
    classify_WG,
    covers,
    ellipsoid,
    ellipsoid_membership,
    find_separating_projection,
    is_lacunary,
    is_weakly_full,
    kolmogorov_widths,
    prescribed_cover,
    range_equiv,
    scale_ellipsoid,
    schmidt_cover,
    section_spectrum,
    truncate_ellipsoid,
    wot_density_experiment,
)
from widthlab.covering import MARGIN_BAND, PSD_TOL
from widthlab.seqlab import CASE_FINITE_CODIM, CASE_LACUNARY, CASE_NON_LACUNARY, shift_search


def random_contraction(rng, rows, cols):
    c = rng.normal(size=(rows, cols))
    return c / (np.linalg.norm(c, 2) * 1.05)


def certified_cover(rng, d1, d2, dom=None):
    """A triple (T, E1, E2) with T K1 ⊇ K2 by construction."""
    dom = dom or d1
    a1 = rng.normal(size=(d1, dom))
    t = rng.normal(size=(d2, d1))
    a2 = 0.9 * t @ a1 @ random_contraction(rng, dom, dom)
    return t, ellipsoid(a1), ellipsoid(a2)


class TestCovers:
    def test_identity_covers_itself(self):
        e = ellipsoid(np.diag([1.0, 0.5, 0.25]))
        cert = covers(np.eye(3), e, e)
        assert cert.holds
        assert cert.psd_margin == pytest.approx(0.0, abs=1e-15)

    def test_contraction_fails(self):
        e = ellipsoid(np.eye(2))
        cert = covers(np.diag([0.5, 1.0]), e, e)
        assert not cert.holds
        # eigenvalue -3/4 scaled by 1 + lambda_max = 2
        assert cert.psd_margin == pytest.approx(-0.375)

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="map dimension"):
            covers(np.eye(3), ellipsoid(np.eye(2)), ellipsoid(np.eye(3)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InputError, match="tol must be a finite nonnegative number"):
            covers(2 * np.eye(3), e, e, tol=tol)

    def test_witness_recorded_on_success(self):
        rng = np.random.default_rng(0)
        t, e1, e2 = certified_cover(rng, 4, 3)
        cert = covers(t, e1, e2)
        assert cert.holds
        assert cert.norm == pytest.approx(np.linalg.norm(t, 2))
        np.testing.assert_array_equal(np.asarray(cert.witness), t)

    def test_agreement_with_sampling_oracle(self):
        # PSD decision vs membership of sampled target boundary points
        rng = np.random.default_rng(1)
        checked = 0
        for i in range(60):
            d = int(rng.integers(2, 5))
            if i % 2:
                t = rng.normal(size=(d, d))
                e1 = ellipsoid(rng.normal(size=(d, d)))
                e2 = ellipsoid(rng.normal(size=(d, d)))
            else:
                s = [0.5, 0.9, 1.1, 2.0][i % 4]
                t, e1, e2 = certified_cover(rng, d, d)
                e2 = ellipsoid(s * e2.generator)
            cert = covers(t, e1, e2)
            if abs(cert.psd_margin) <= 1e-6:
                continue
            image = ellipsoid(t @ e1.generator)
            u = rng.normal(size=(e2.domain_dim, 200))
            u /= np.linalg.norm(u, axis=0)
            pts = e2.generator @ u
            sampled = all(ellipsoid_membership(image, pts[:, j]) for j in range(200))
            assert cert.holds == sampled
            checked += 1
        assert checked >= 40


    def test_kernel_makes_no_svd(self, linalg_calls):
        rng = np.random.default_rng(3)
        t, e1, e2 = certified_cover(rng, 30, 30)
        linalg_calls.update(svd=0, svd_uv=0, eigvalsh=0)
        assert covers(t, e1, e2).holds
        assert linalg_calls == {"svd": 0, "svd_uv": 0, "eigvalsh": 3}
        linalg_calls.update(eigvalsh=0)
        assert not covers(0.01 * t, e1, e2).holds
        assert linalg_calls == {"svd": 0, "svd_uv": 0, "eigvalsh": 2}

    def test_margin_and_norm_agree_with_the_svd_formula(self):
        # the scale 1 + max(||T A1||², ||A2||²) and the witness norm taken
        # from SVDs, independently of the Gram matrices the kernel reads
        rng = np.random.default_rng(4)
        verdicts = set()
        for i in range(40):
            d = int(rng.integers(2, 121))
            if i % 2:
                t, e1, e2 = certified_cover(rng, d, d)
            else:
                t = rng.normal(size=(d, d))
                e1, e2 = ellipsoid(rng.normal(size=(d, d))), ellipsoid(rng.normal(size=(d, d)))
            cert = covers(t, e1, e2)
            ta = t @ e1.generator
            diff = ta @ ta.T - e2.generator @ e2.generator.T
            want = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0]) / (
                1.0 + max(np.linalg.norm(ta, 2) ** 2, np.linalg.norm(e2.generator, 2) ** 2))
            assert cert.psd_margin == pytest.approx(want, rel=1e-13, abs=0)
            if abs(want) > MARGIN_BAND:
                assert cert.holds == (want >= -PSD_TOL)
            if cert.holds:
                assert cert.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-13, abs=0)
            verdicts.add(cert.holds)
        assert verdicts == {True, False}

    def test_witness_norm_beyond_the_square_root_of_the_largest_double(self):
        # ||T||² overflows, but T A1 and the certificate stay in range
        e1 = ellipsoid(1e-200 * np.diag([3.0, 2.0, 1.0]))
        cert = covers(1e200 * np.eye(3), e1, ellipsoid(np.diag([2.0, 1.0, 0.5])))
        assert cert.holds and cert.psd_margin == pytest.approx(0.075)
        assert cert.norm == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_gram_matrix_is_an_input_error(self):
        e1 = ellipsoid(np.diag([1e300, 1.0, 1e-300]))
        with pytest.raises(InputError, match="overflow double precision"):
            covers(-np.eye(3), e1, ellipsoid(2 * np.eye(3)))


class TestSchmidtCover:
    def test_ratio_example(self):
        e1 = ellipsoid(np.diag([1.0, 0.5, 0.25]))
        e2 = ellipsoid(np.diag([0.5, 0.125]))
        d, c = schmidt_cover(e1, e2)
        assert c == pytest.approx(0.5)  # max(0.5/1, 0.125/0.5)
        assert covers(d, e1, e2).holds

    def test_self_cover_is_orthogonal_on_span(self):
        rng = np.random.default_rng(2)
        e = ellipsoid(rng.normal(size=(4, 4)))
        d, c = schmidt_cover(e, e)
        assert c == pytest.approx(1.0)
        np.testing.assert_allclose(d.T @ d, np.eye(4), atol=1e-12)

    def test_scaled_down_witness_fails(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e1 = ellipsoid(rng.normal(size=(4, 4)))
            e2 = ellipsoid(0.7 * rng.normal(size=(4, 4)))
            d, c = schmidt_cover(e1, e2)
            assert covers(d, e1, e2).holds
            assert not covers((1 - 1e-3) * d, e1, e2).holds

    def test_norm_equals_constant(self):
        rng = np.random.default_rng(4)
        e1 = ellipsoid(rng.normal(size=(5, 5)))
        e2 = ellipsoid(rng.normal(size=(3, 3)))
        d, c = schmidt_cover(e1, e2)
        assert np.linalg.norm(d, 2) == pytest.approx(c, rel=1e-12)

    def test_rank_deficiency_refused(self):
        e1 = ellipsoid(np.diag([1.0, 0.0]))
        e2 = ellipsoid(np.eye(2))
        with pytest.raises(NotCoverableError, match="not coverable"):
            schmidt_cover(e1, e2)

    def test_rectangular_ambient_spaces(self):
        # source in dimension 5, target in dimension 3: D maps 5 -> 3
        rng = np.random.default_rng(12)
        e1 = ellipsoid(rng.normal(size=(5, 5)))
        e2 = ellipsoid(0.5 * rng.normal(size=(3, 4)))
        d, c = schmidt_cover(e1, e2)
        assert d.shape == (3, 5)
        cert = covers(d, e1, e2)
        assert cert.holds and cert.norm == pytest.approx(c, rel=1e-12)

    def test_cover_monotonicity_on_certified_instances(self):
        # d_n(K2) <= ||D|| d_n(K1) whenever the certificate holds
        rng = np.random.default_rng(5)
        for _ in range(25):
            t, e1, e2 = certified_cover(rng, 5, 4)
            cert = covers(t, e1, e2)
            assert cert.holds
            w1 = kolmogorov_widths(e1)
            w2 = kolmogorov_widths(e2)
            for n in range(5):
                assert w2.width(n) <= (1 + 1e-9) * cert.norm * w1.width(n) + 1e-12

    def test_semigroup_law(self):
        # covers(S,E2,E2), covers(T,E1,E2), covers(R,E1,E1) => covers(S T R, E1, E2)
        rng = np.random.default_rng(6)
        for _ in range(10):
            t, e1, e2 = certified_cover(rng, 4, 3)
            r = 1.05 * schmidt_cover(e1, e1)[0]
            s = 1.05 * schmidt_cover(e2, e2)[0]
            assert covers(r, e1, e1).holds
            assert covers(s, e2, e2).holds
            assert covers(s @ t @ r, e1, e2).holds


class TestPrescribedCover:
    def test_axis_aligned_zero_targets(self):
        e = ellipsoid(np.diag([1.0, 0.5, 0.25]))
        y = np.array([[0.0, 0.0, 1.0]]).T  # kill the smallest axis
        d, rho = prescribed_cover(e, y, np.zeros((3, 1)))
        # section = diag(1, 1/2): rho = min over n of sigma_n / s_n = 1
        assert rho == pytest.approx(1.0)
        assert np.abs(d @ y).max() < 1e-12

    def test_identity_constraints_are_interpolated_exactly(self):
        e = ellipsoid(np.diag([1.0, 0.5, 0.25]))
        y = np.array([[0.0, 0.0, 1.0]]).T
        d, rho = prescribed_cover(e, y, y.copy())
        assert np.abs(d @ y - y).max() == 0.0

    def test_geometric_interlacing_floor(self):
        # random constraints against a geometric diagonal: rho >= q^m
        rng = np.random.default_rng(7)
        terms = [0.5 ** n for n in range(8)]
        e = ellipsoid(np.diag(terms))
        for _ in range(10):
            y = np.linalg.qr(rng.normal(size=(8, 2)))[0]
            n = rng.normal(size=(8, 2))
            d, rho = prescribed_cover(e, y, n)
            assert rho >= 0.25 - 1e-9
            assert np.abs(d @ y - n).max() < 1e-10

    def test_certificate_for_scaled_truncation(self):
        rng = np.random.default_rng(8)
        e = ellipsoid(np.diag([0.5 ** n for n in range(6)]))
        y = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        d, rho = prescribed_cover(e, y, np.zeros((6, 2)))
        target = scale_ellipsoid(truncate_ellipsoid(e, 4), rho)
        assert covers(d, e, target).holds

    def test_constraint_dimension_capped(self):
        e = ellipsoid(np.diag([1.0, 0.5]))
        with pytest.raises(InputError, match="below the rank"):
            prescribed_cover(e, np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("y, n", [
        ([[math.nan], [0.0], [0.0]], np.ones((3, 1))),
        ([[1.0], [0.0], [0.0]], [[math.nan], [1.0], [1.0]]),
    ])
    def test_non_finite_constraints_are_input_errors(self, y, n):
        with pytest.raises(InputError, match="entries must be finite"):
            prescribed_cover(ellipsoid(np.diag([3.0, 2.0, 1.0])), y, n)


class TestDichotomyExperiment:
    def test_geometric_plateau(self):
        rep = wot_density_experiment(Geometric(0.5), 2, (8, 16, 32), seed=11)
        assert rep.rho == (0.25, 0.25, 0.25)
        assert all(r <= 1e-10 for r in rep.constraint_residuals)
        assert not rep.model_lacunary

    def test_supergeometric_collapse(self):
        rep = wot_density_experiment(SuperGeometric(2.0), 1, (4, 8, 16), seed=11)
        assert rep.rho[0] > rep.rho[1] > rep.rho[2]
        assert rep.rho[2] / rep.rho[0] < 1e-6
        assert rep.model_lacunary

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_geometric_yield_is_q_to_the_m_at_every_size(self, q):
        # monomial generators are decomposed exactly, so only the rounding
        # of the terms q^n and of two divisions is left; dyadic q is exact
        dims = (8, 12, 40, 56, 80, 96, 128, 256, 512)
        for m in (1, 2, 3):
            rho = wot_density_experiment(Geometric(q), m, dims, seed=7).rho
            want = q ** m
            if q == 0.5:
                assert rho == (want,) * len(dims)
            assert all(abs(r - want) <= 4 * math.ulp(want) for r in rho), (m, rho)

    @pytest.mark.parametrize("b", [1.2, 1.5, 2.0])
    def test_supergeometric_yield_closed_form_up_to_underflow(self, b):
        for m in (1, 2, 3):
            d = 2 * m
            while True:
                try:
                    rho = wot_density_experiment(SuperGeometric(b), m, [d], seed=7).rho[0]
                except InputError as exc:
                    assert "underflow refused" in str(exc)
                    break
                want = b ** float(-m * (2 * d - m - 2))
                assert rho == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0), (m, d)
                d += 1
            assert d > 20

    def test_no_constraints_full_yield(self):
        rep = wot_density_experiment(Geometric(0.5), 0, (4, 8), seed=11)
        assert rep.rho == (1.0, 1.0)

    def test_determinism(self):
        a = wot_density_experiment(Geometric(0.5), 2, (8, 16), seed=5)
        b = wot_density_experiment(Geometric(0.5), 2, (8, 16), seed=5)
        assert a == b

    def test_dimensions_use_independent_substreams(self):
        # each dimension's draw depends on (seed, d) only, so evaluation
        # order cannot change the per-dimension results (the concurrency
        # contract: any schedule merges to the sequential report)
        fwd = wot_density_experiment(SuperGeometric(2.0), 1, (4, 8, 16), seed=9)
        rev = wot_density_experiment(SuperGeometric(2.0), 1, (16, 8, 4), seed=9)
        assert fwd.rho == tuple(reversed(rev.rho))

    def test_underflow_dimension_refused(self):
        with pytest.raises(InputError, match="dimension 40"):
            wot_density_experiment(SuperGeometric(2.0), 1, (4, 40), seed=1)

    def test_dimension_must_exceed_constraints(self):
        with pytest.raises(InputError, match="must exceed"):
            wot_density_experiment(Geometric(0.5), 2, (2,), seed=1)

    def test_fractional_constraint_count(self):
        with pytest.raises(InputError, match=r"constraint count must be nonnegative, got 1.5 \(not an integer\)"):
            wot_density_experiment(Geometric(0.5), 1.5, [8], 0)

    def test_fractional_dimension(self):
        # refused, not cut down to a run at d = 8
        with pytest.raises(InputError, match=r"dimension 8.7 \(not an integer\) must exceed"):
            wot_density_experiment(Geometric(0.5), 0, [8.7], 0)

    def test_narrow_dimension_still_runs(self):
        # d < 2m: the constrained-axis pool is too small for the closed-form
        # draw; the fallback still produces a valid bounded yield
        rep = wot_density_experiment(Geometric(0.5), 2, (3,), seed=1)
        assert 0 < rep.rho[0] <= 1.0

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InputError, match="seed must be a nonnegative integer"):
            wot_density_experiment(Geometric(0.5), 1, (4,), seed=seed)


class TestClassification:
    def test_non_lacunary_self_is_everything(self):
        assert classify_WG(Geometric(0.5), Geometric(0.5)).tag == EVERYTHING

    def test_unmajorized_is_empty(self):
        assert classify_WG(Geometric(0.25), Geometric(0.5)).tag == EMPTY

    def test_shifted_supergeometric_is_kdim(self):
        v = classify_WG(SuperGeometric(2.0), Shifted(1, SuperGeometric(2.0)))
        assert (v.tag, v.k) == (KDIM, 1)

    def test_lacunary_self_is_algebra(self):
        assert classify_WG(SuperGeometric(2.0), SuperGeometric(2.0)).tag == ALGEBRA_AK

    def test_wg_matches_lacunarity_dichotomy(self):
        for model in (Geometric(0.5), Geometric(0.9), Power(1.0), Power(3.0),
                      SuperGeometric(2.0), SuperGeometric(1.5),
                      Scaled(2.0, SuperGeometric(3.0)), Shifted(2, Geometric(0.25))):
            verdict = classify_WG(model, model)
            assert (verdict.tag == EVERYTHING) == (not is_lacunary(model).lacunary)

    def test_wcg_examples(self):
        assert classify_WCG(Geometric(0.5), Geometric(0.25)).tag == EVERYTHING
        assert classify_WCG(Geometric(0.5), Geometric(0.5)).tag == EMPTY
        v = classify_WCG(SuperGeometric(2.0), Shifted(1, SuperGeometric(2.0)))
        assert (v.tag, v.k) == (KDIM, 0)

    def test_samples_budget_branch(self):
        v = classify_WG(Samples((1.0, 0.5, 0.25, 0.125)), Samples((1.0, 0.5, 0.25, 0.125)), k_max=3)
        assert v.tag == EVERYTHING and not v.exact

    def test_exhaustion_note_names_the_last_tested_shift(self):
        # three terms allow shifts 1 and 2 only, whatever the budget
        a = Samples((1.0, 0.5, 0.25))
        v = classify_WG(a, a, k_max=16)
        assert (v.tag, v.exact) == (EVERYTHING, False)
        assert v.note == "every tested shift up to 2 passed"
        assert shift_search(a, a, 16).exhausted_at == 2

    def test_windowed_shift_that_fails_bounds_k(self):
        # a is flat, b_n = 2^-(n^2).  Shift k leaves 8 - k terms of a, so the
        # window holds the ratios b_0 .. b_{7-k}, with maximum b_0 = 1, and
        # for k >= 1 its last quarter is the one ratio b_{7-k}.  The trend
        # rule holds while b_{7-k} <= 1e-3: b_4 = 2^-16 passes at k = 3,
        # b_3 = 2^-9 > 1e-3 fails at k = 4, so k = 3, below the budget.
        a = Samples((1.0,) * 8)
        b = Samples(tuple(2.0 ** -(n * n) for n in range(8)))
        v = classify_WCG(a, b, k_max=16)
        assert (v.tag, v.k, v.exact) == (KDIM, 3, False)
        found = shift_search(a, b, 16, strict=True)
        assert (found.k, found.exhausted_at) == (3, 16)

    @pytest.mark.parametrize("classify", [classify_WG, classify_WCG])
    @pytest.mark.parametrize("a, b", [
        (Geometric(0.5), Geometric(0.25)),                       # closed-form branch
        (Samples((1.0, 0.5, 0.25)), Samples((1.0, 0.5, 0.25))),  # windowed branch
    ])
    def test_negative_shift_budget_is_rejected(self, classify, a, b):
        with pytest.raises(InputError, match="shift budget must be nonnegative, got -1"):
            classify(a, b, k_max=-1)

    def test_a_bool_is_no_shift_budget(self):
        # a bool is no budget, though it compares as 1
        with pytest.raises(InputError, match=r"got True \(not an integer\)"):
            classify_WG(Samples((1.0, 0.5, 0.25)), Samples((1.0, 0.5, 0.25)), True)


class TestSeparatingProjection:
    def test_matrix_units_need_full_rank(self):
        e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = find_separating_projection([e11, e22])
        np.testing.assert_allclose(p, np.eye(2), atol=1e-12)

    def test_single_operator_rank_one(self):
        p = find_separating_projection([np.array([[1.0, 2.0], [3.0, 4.0]])])
        assert np.trace(p) == pytest.approx(1.0)
        assert np.linalg.norm(p @ np.array([[1.0, 2.0], [3.0, 4.0]])) > 0.1

    def test_random_triple(self):
        rng = np.random.default_rng(9)
        mats = [rng.normal(size=(6, 6)) for _ in range(3)]
        p = find_separating_projection(mats)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        stacked = np.stack([(p @ t).reshape(-1) for t in mats])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == 3

    def test_dependent_inputs_named(self):
        t = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(InputError, match="linearly dependent"):
            find_separating_projection([t, 2 * t])

    def test_near_dependent_pair_accepted_by_the_validator_is_separated(self):
        # independent under the RANK_RCOND rule; the greedy stop uses the same rule
        t1 = np.eye(4)
        t2 = t1 + 1e-11 * np.random.default_rng(0).normal(size=(4, 4))
        p = find_separating_projection([t1, t2])
        assert round(np.trace(p)) == 1
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_memory_stays_small(self):
        # the independence check on the d^2 x 3 stack must not build a
        # d^2 x d^2 left factor (40 MiB at d = 48)
        rng = np.random.default_rng(12)
        mats = [rng.normal(size=(48, 48)) for _ in range(3)]
        tracemalloc.start()
        try:
            find_separating_projection(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def rotated_range_pair(d: int, angle: float, seed: int):
    """Two rank-r generators in dimension d whose ranges meet at the
    largest principal angle ``angle``, with orthonormal bases of the two
    ranges."""
    rng = np.random.default_rng([d, seed])
    r = max(1, d // 2)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    rot = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    rot[[r - 1, r - 1, r, r], [r - 1, r, r - 1, r]] = [c, -s, s, c]
    a = np.zeros((d, r))
    a[:r] = rng.normal(size=(r, r)) + 3 * np.eye(r)
    return q @ a, q @ rot @ a @ rng.normal(size=(r, r)), q[:, :r], (q @ rot)[:, :r]


class TestRangeEquivalence:
    @pytest.mark.parametrize("d", [3, 8, 40])
    @pytest.mark.parametrize("angle, same", [(0.0, True), (1e-10, True), (5e-10, True),
                                             (2e-9, False), (1e-6, False), (1e-2, False)])
    def test_small_angle_grid(self, d, angle, same):
        # ||P1 - P2|| is the sine of the largest principal angle, so the
        # ranges count as one up to RANGE_TOL = 1e-9
        for seed in range(3):
            a1, a2, q1, q2 = rotated_range_pair(d, angle, seed)
            gap = np.linalg.norm(q1 @ q1.T - q2 @ q2.T, 2)
            assert gap == pytest.approx(math.sin(angle), rel=1e-3, abs=1e-14)
            assert range_equiv(a1, a2).same_range is same

    def test_pure_scaling(self):
        eq = range_equiv(np.diag([1.0, 0.5]), 3 * np.diag([1.0, 0.5]))
        assert eq.same_range
        assert eq.c == pytest.approx(3.0) and eq.C == pytest.approx(3.0)

    def test_generalized_eigenvalue_constants(self):
        eq = range_equiv(np.diag([1.0, 0.5]), np.eye(2))
        assert eq.same_range
        assert eq.c == pytest.approx(1.0) and eq.C == pytest.approx(2.0)

    def test_distinct_ranges(self):
        eq = range_equiv(np.diag([1.0, 0.0]), np.eye(2))
        assert not eq.same_range and eq.c is None and eq.C is None

    def test_random_same_range_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a1 = rng.normal(size=(5, 3))
            a2 = a1 @ rng.normal(size=(3, 3))  # same column space (generically)
            eq = range_equiv(a1, a2)
            assert eq.same_range
            assert 0 < eq.c <= eq.C
            e1, e2 = ellipsoid(a1), ellipsoid(a2)
            assert covers(np.eye(5), e2, scale_ellipsoid(e1, eq.c)).holds
            assert covers(np.eye(5), scale_ellipsoid(e1, eq.C), e2).holds

    @pytest.mark.parametrize("d", [5, 50])
    def test_constants_are_the_extreme_singular_values_of_the_twist(self, d):
        # the tightest c, C with c a(B) ⊆ a R(B) ⊆ C a(B) are s_min(R), s_max(R)
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + math.sqrt(d) * np.eye(d)
        r = rng.normal(size=(d, d)) + math.sqrt(d) * np.eye(d)
        eq = range_equiv(a, a @ r)
        sv = np.linalg.svd(r, compute_uv=False)
        assert eq.same_range
        assert eq.c == pytest.approx(sv[-1], rel=1e-12)
        assert eq.C == pytest.approx(sv[0], rel=1e-12)


    def test_full_rank_kernel_makes_three_svds_and_no_projector_test(self, linalg_calls):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 40))
        assert range_equiv(a, a @ rng.normal(size=(40, 40))).same_range
        # U1 and s1 from one factored SVD of a1; s-numbers of a2 and the
        # constants from two values-only SVDs
        assert linalg_calls == {"svd": 2, "svd_uv": 1, "eigvalsh": 2}

    def test_rank_deficient_kernel_adds_the_projector_test(self, linalg_calls):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(40, 30))
        assert range_equiv(a, a @ rng.normal(size=(30, 30))).same_range
        # the projector test reads the span of a2 (one factored SVD) and takes
        # one values-only SVD of the d x r matrix q2 - q1 (q1^T q2)
        assert linalg_calls == {"svd": 3, "svd_uv": 2, "eigvalsh": 2}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_gram_matrix_is_an_input_error(self):
        a = np.diag([1e300, 1.0, 1e-300])
        with pytest.raises(InputError, match="overflow double precision"):
            range_equiv(a, a)


class TestWeakFullness:
    def test_finite_codimension(self):
        v = is_weakly_full(Geometric(0.5), 0)
        assert v.weakly_full and v.case == CASE_FINITE_CODIM

    def test_infinite_codimension_non_lacunary(self):
        v = is_weakly_full(Geometric(0.5), math.inf)
        assert not v.weakly_full and v.case == CASE_NON_LACUNARY

    def test_infinite_codimension_lacunary(self):
        v = is_weakly_full(SuperGeometric(2.0), math.inf)
        assert v.weakly_full and v.case == CASE_LACUNARY

    def test_bad_codimension(self):
        with pytest.raises(InputError):
            is_weakly_full(Geometric(0.5), -1)
        with pytest.raises(InputError):
            is_weakly_full(Geometric(0.5), "many")


class TestSectionInterplay:
    def test_section_feeds_schmidt(self):
        # widths of a section majorize the shifted widths, so the section
        # covers a truncation with a computable constant
        e = ellipsoid(np.diag([1.0, 0.5, 0.25, 0.125]))
        y = np.array([[1.0, 0.0, 0.0, 0.0]]).T
        sec = section_spectrum(e, y)
        np.testing.assert_allclose(sec.values, [0.5, 0.25, 0.125])
