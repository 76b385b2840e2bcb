from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    InputError,
    SingularSpectrum,
    WidthSequence,
    ellipsoid,
    ellipsoid_membership,
    kolmogorov_widths,
    scale_ellipsoid,
    section_spectrum,
    singular_spectrum,
    truncate_ellipsoid,
)
from widthlab import spectra
from widthlab._linalg import RANK_RCOND, monomial_svd, svd


def random_orthogonal(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


class TestSingularSpectrum:
    def test_diagonal(self):
        spec = singular_spectrum(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(spec.values, [3.0, 2.0, 1.0])
        assert spec.rank == 3
        assert spec.s(1) == 3.0 and spec.s(4) == 0.0

    def test_permutation_is_isometry(self):
        spec = singular_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.values, [1.0, 1.0])

    def test_against_symmetric_eigenvalue_oracle(self):
        # independent route: sqrt of the eigenvalues of A^T A
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            expected = np.sqrt(np.clip(np.linalg.eigvalsh(a.T @ a), 0.0, None))[::-1]
            got = singular_spectrum(a).values
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * expected[0])

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(5, 5))
            u, v = random_orthogonal(rng, 5), random_orthogonal(rng, 5)
            s0 = singular_spectrum(a).values
            s1 = singular_spectrum(u @ a @ v).values
            np.testing.assert_allclose(s1, s0, rtol=1e-10, atol=1e-10 * s0[0])

    @pytest.mark.parametrize("rank", [1.5, True, -1, 3])
    def test_rank_must_be_an_integer_within_the_length(self, rank):
        with pytest.raises(InputError, match=r"rank .* outside \[0, 2\]"):
            SingularSpectrum(values=np.array([2.0, 1.0]), rank=rank)

    def test_rank_cutoff_is_relative(self):
        spec = singular_spectrum(np.diag([1.0, 1e-13]))
        assert spec.rank == 1

    def test_rejects_non_finite(self):
        with pytest.raises(InputError, match="finite"):
            singular_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


    @pytest.mark.parametrize("build", [lambda v: SingularSpectrum(values=v, rank=1),
                                       lambda v: WidthSequence(values=v)])
    @pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [np.nan],
                                        [2.0, np.nan, 1.0], [2.0, 1.0, -np.inf],
                                        [1.0, -0.5], [-1.0], [1.0, 2.0]])
    def test_constructors_reject_non_finite_values(self, build, values):
        # and negative or increasing ones, under the same refusal
        with pytest.raises(InputError, match="must be finite, nonnegative and nonincreasing"):
            build(values)

    def test_overflowing_singular_values_are_refused(self):
        with pytest.raises(InputError, match="singular values overflow double precision"):
            singular_spectrum(np.full((3, 3), 1e308))
        with pytest.raises(InputError, match="singular values overflow double precision"):
            ellipsoid(np.full((3, 3), 1e308))

    def test_monomial_matrices_are_decomposed_exactly(self):
        # at most one nonzero per row and column: the s-numbers are the
        # sorted |entries|, even on a graded diagonal where gesdd loses the
        # small ones, and the cached factors reproduce the matrix exactly
        rng = np.random.default_rng(12)
        graded = np.diag(0.3 ** np.arange(200.0))
        cases = [graded, np.zeros((3, 2)), np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.0]])]
        for _ in range(30):
            m, n = (int(x) for x in rng.integers(1, 12, size=2))
            k = int(rng.integers(0, min(m, n) + 1))
            a = np.zeros((m, n))
            a[rng.choice(m, k, replace=False), rng.choice(n, k, replace=False)] = (
                rng.normal(size=k) * 10.0 ** rng.integers(-150, 150, size=k))
            cases.append(a)
        for a in cases:
            want = np.zeros(min(a.shape))
            nz = np.sort(np.abs(a[a != 0]))[::-1]
            want[: nz.size] = nz
            np.testing.assert_array_equal(singular_spectrum(a, rcond=0.0).values, want)
            e = ellipsoid(a, rcond=0.0)
            np.testing.assert_array_equal(e.spectrum.values, want)
            np.testing.assert_array_equal((e.span_basis * want[: e.rank]) @ e.right_basis.T, a)
            np.testing.assert_array_equal(e.right_basis.T @ e.right_basis, np.eye(e.rank))


class TestWidths:
    def test_diagonal_shift_identity(self):
        w = kolmogorov_widths(ellipsoid(np.diag([3.0, 2.0, 1.0])))
        np.testing.assert_array_equal(w.values, [3.0, 2.0, 1.0])
        assert w.width(3) == 0.0

    def test_zero_matrix(self):
        w = kolmogorov_widths(ellipsoid(np.zeros((3, 3))))
        np.testing.assert_array_equal(w.values, np.zeros(3))

    def test_width_equals_next_s_number(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            e = ellipsoid(a)
            w = kolmogorov_widths(e)
            for n in range(6):
                assert w.width(n) == e.spectrum.s(n + 1)

    def test_orthogonal_conjugation_matches_diagonal_model(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        e = ellipsoid(a)
        diag_model = ellipsoid(np.diag(e.spectrum.values))
        np.testing.assert_allclose(
            kolmogorov_widths(e).values,
            kolmogorov_widths(diag_model).values,
            rtol=0, atol=1e-12 * e.spectrum.s(1),
        )


class TestSections:
    def test_axis_aligned_drops_top(self):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        sec = section_spectrum(e, np.array([[1.0, 0.0, 0.0]]).T)
        np.testing.assert_allclose(sec.values, [2.0, 1.0])

    def test_empty_subspace_is_noop(self):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        sec = section_spectrum(e, np.zeros((3, 0)))
        np.testing.assert_array_equal(sec.values, e.spectrum.values)

    def test_interlacing_random(self):
        # Gaussian generators, then generators graded down to 1e-12
        rng = np.random.default_rng(17)
        for graded in (False, True):
            for _ in range(25):
                if graded:
                    s = np.sort(10.0 ** rng.uniform(-12, 0, size=6))[::-1]
                    a = random_orthogonal(rng, 6) @ (s[:, None] * random_orthogonal(rng, 6))
                else:
                    a = rng.normal(size=(6, 6))
                e = ellipsoid(a)
                y = np.linalg.qr(rng.normal(size=(6, 2)))[0]
                sec = section_spectrum(e, y)
                s = e.spectrum
                slack = 1e-9 * s.s(1)
                for n in range(1, len(sec) + 1):
                    assert sec.s(n) <= s.s(n) + slack
                    assert sec.s(n) >= s.s(n + 2) - slack

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([0.0, RANK_RCOND]), st.data())
    def test_diagonal_section_drops_the_constrained_terms_exactly(self, d, rcond, data):
        # coordinate constraints on a diagonal generator: the section keeps
        # the other terms, and each constrained term that Y^T A's rank cut
        # counts as zero (a zero term, or one at or below rcond * s_1(A))
        terms = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-1e300, 1e300)), min_size=d, max_size=d)))
        cut = np.array(data.draw(st.permutations(range(d)))[: data.draw(st.integers(0, d))], dtype=int)
        y = np.zeros((d, cut.size))
        y[cut, np.arange(cut.size)] = 1.0
        left = np.delete(terms, cut[np.abs(terms[cut]) > rcond * np.abs(terms).max()])
        sec = section_spectrum(ellipsoid(np.diag(terms), rcond=rcond), y)
        assert sec.values.tobytes() == np.sort(np.abs(left))[::-1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.data())
    def test_section_rank_stays_within_the_generator_and_the_complement(self, amb, dom, data):
        # the section lies in range(A) ∩ Y⊥; its round-off, of order
        # eps * s_1(A), must not count as rank when Y cuts A's top directions
        m = data.draw(st.integers(1, amb - 1))
        r = data.draw(st.integers(1, min(amb, dom) - 1))
        s = np.zeros(min(amb, dom))
        s[:r] = np.sort(10.0 ** np.array(data.draw(st.lists(
            st.floats(-9, 0), min_size=r, max_size=r))))[::-1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = random_orthogonal(rng, amb)[:, : s.size]
        q = random_orthogonal(rng, dom)[:, : s.size]
        e = ellipsoid(p @ (s[:, None] * q.T))
        y = np.linalg.qr(rng.normal(size=(amb, m)))[0]
        assert section_spectrum(e, y).rank <= min(e.rank, amb - m)

    def test_round_off_of_a_cut_top_direction_is_not_rank(self):
        # Y cuts A's top direction, so the section lies in the line Y⊥; its
        # second value is round-off, above the section's own cutoff
        # 1e-12 * 1e-6 but far below the generator's 1e-12 * s_1(A)
        rng = np.random.default_rng(0)
        q, p = random_orthogonal(rng, 2), random_orthogonal(rng, 3)
        a = q @ np.array([[1.0, 0.0, 0.0], [0.0, 1e-6, 0.0]]) @ p
        sec = section_spectrum(ellipsoid(a), q[:, :1])
        assert len(sec) == 2 and sec.rank == 1
        assert sec.s(1) == pytest.approx(1e-6, rel=1e-9)
        assert sec.s(2) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("seed", range(10))
    def test_a_subspace_orthogonal_to_the_range_cuts_nothing(self, seed):
        # Y^T A is round-off alone, so K ∩ Y⊥ = K; cut at its own top value,
        # that round-off counted as rank and removed a random direction
        rng = np.random.default_rng(seed)
        q, p = random_orthogonal(rng, 3), random_orthogonal(rng, 3)
        e = ellipsoid(q @ np.diag([1.0, 0.5, 0.0]) @ p)
        sec = section_spectrum(e, q[:, 2:])
        assert len(sec) == 3 and sec.rank == 2
        np.testing.assert_allclose(sec.values, e.spectrum.values, rtol=0, atol=4 * np.finfo(float).eps)

    def test_dense_section_makes_one_thin_and_one_values_only_svd(self, monkeypatch):
        # the factored SVD of the m x d block Y^T A gives its row space; the
        # section's values come without its vectors, and no full factor of a
        # wide block is formed
        rng = np.random.default_rng(64)
        e = ellipsoid(rng.normal(size=(64, 64)))
        y = np.linalg.qr(rng.normal(size=(64, 3)))[0]
        calls, real_svd = [], np.linalg.svd

        def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            calls.append((a.shape, full_matrices, compute_uv))
            return real_svd(a, full_matrices, compute_uv, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        section_spectrum(e, y)
        assert calls == [((3, 64), False, True), ((64, 64), False, False)]

    def test_rejects_non_orthonormal(self):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InputError, match="orthonormal"):
            section_spectrum(e, np.array([[1.0, 1.0, 0.0]]).T)


class TestLazyBases:
    """A dense generator: s-numbers at construction from one values-only
    SVD, both bases on first read from one factored SVD, cached as one
    pair.  A monomial generator: all three from one exact decomposition at
    construction."""

    def test_bases_cost_one_factored_svd_across_reads(self, linalg_calls):
        e = ellipsoid(np.random.default_rng(31).normal(size=(30, 20)))
        assert linalg_calls == {"svd": 1, "svd_uv": 0, "eigvalsh": 0}
        span, right = e.span_basis, e.right_basis
        for _ in range(3):
            assert e.right_basis is right and e.span_basis is span
        assert linalg_calls == {"svd": 1, "svd_uv": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("rcond", [0.0, RANK_RCOND])
    def test_monomial_generator_is_decomposed_once(self, monkeypatch, rcond):
        # the s-numbers and both bases come from the one exact decomposition
        # svd gives, so reading the bases decomposes nothing more
        a = np.zeros((7, 5))
        a[[4, 0, 6, 2], [1, 3, 0, 4]] = [3.0, -1e-13, 0.25, -2.0]
        u, sv, vh = svd(a)
        calls = []

        def counted(f):
            def wrapper(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectra, "monomial_svd", counted(monomial_svd))
        monkeypatch.setattr(spectra, "svd", counted(svd))
        e = ellipsoid(a, rcond=rcond)
        assert calls == ["monomial_svd"]
        assert e.rank == (4 if rcond == 0.0 else 3)
        assert e.spectrum.values.tobytes() == sv.tobytes()
        assert e.span_basis.tobytes() == u[:, : e.rank].tobytes()
        assert e.right_basis.tobytes() == np.ascontiguousarray(vh[: e.rank].T).tobytes()
        assert calls == ["monomial_svd"]

    def test_widths_make_no_factored_svd(self, linalg_calls):
        kolmogorov_widths(ellipsoid(np.random.default_rng(32).normal(size=(30, 30))))
        assert linalg_calls == {"svd": 1, "svd_uv": 0, "eigvalsh": 0}

    @pytest.mark.parametrize("shape", [(30, 30), (40, 25), (25, 40)])
    def test_lazy_bases_reconstruct_the_generator(self, shape):
        (m, n), k = shape, min(shape) - 1  # one rank short
        rng = np.random.default_rng(list(shape))
        a = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
        e = ellipsoid(a)
        assert e.rank == min(shape) - 1
        sv = e.spectrum.values[: e.rank]
        assert np.abs((e.span_basis * sv) @ e.right_basis.T - a).max() <= 1e-12 * sv[0]

    def test_caches_are_read_only_and_gram_is_the_product(self):
        a = np.random.default_rng(33).normal(size=(6, 4))
        e = ellipsoid(a)
        np.testing.assert_array_equal(e.gram, a @ a.T)
        assert e.gram is e.gram
        for cached in (e.gram, e.span_basis, e.right_basis):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0

    def test_concurrent_first_reads_see_one_pair(self):
        e = ellipsoid(np.random.default_rng(34).normal(size=(60, 60)))
        with ThreadPoolExecutor(max_workers=4) as pool:
            pairs = list(pool.map(lambda _: (e.span_basis, e.right_basis), range(8)))
        assert all(s is pairs[0][0] and r is pairs[0][1] for s, r in pairs)
        assert e.span_basis is pairs[0][0]


class TestTruncation:
    def test_diagonal_example(self):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        t = truncate_ellipsoid(e, 2)
        np.testing.assert_allclose(t.generator, np.diag([3.0, 2.0, 0.0]), atol=1e-14)
        np.testing.assert_array_equal(t.spectrum.values, [3.0, 2.0])

    def test_full_rank_keeps_spectrum(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 4))
        e = ellipsoid(a)
        t = truncate_ellipsoid(e, e.rank)
        np.testing.assert_allclose(t.spectrum.values, e.spectrum.values, rtol=1e-12)

    def test_rank_one_keeps_top_value(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(5, 5))
        e = ellipsoid(a)
        t = truncate_ellipsoid(e, 1)
        assert t.spectrum.values[0] == pytest.approx(e.spectrum.s(1), rel=1e-13)

    def test_width_monotonicity(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(5, 5))
        e = ellipsoid(a)
        for r in range(1, e.rank + 1):
            wt = kolmogorov_widths(truncate_ellipsoid(e, r))
            we = kolmogorov_widths(e)
            for n in range(r):
                assert wt.width(n) == pytest.approx(we.width(n), rel=1e-13)
            for n in range(r, 6):
                assert wt.width(n) == 0.0

    def test_bases_are_the_parents_leading_columns(self, linalg_calls):
        e = ellipsoid(np.random.default_rng(41).normal(size=(12, 9)))
        span, right = e.span_basis, e.right_basis
        calls = dict(linalg_calls)
        t = truncate_ellipsoid(e, 5)
        assert t.span_basis.tobytes() == span[:, :5].tobytes()
        assert t.right_basis.tobytes() == right[:, :5].tobytes()
        assert linalg_calls == calls

    def test_out_of_range(self):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InputError, match="truncation rank"):
            truncate_ellipsoid(e, 4)

    @pytest.mark.parametrize("r", [2.0, 1.5, True])
    def test_rank_must_be_an_integer(self, r):
        e = ellipsoid(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InputError, match=r"truncation rank .* \(not an integer\) outside \[1, 3\]"):
            truncate_ellipsoid(e, r)


class TestMembership:
    def test_boundary_point(self):
        e = ellipsoid(np.diag([2.0, 1.0]))
        assert ellipsoid_membership(e, [2.0, 0.0])

    def test_just_outside(self):
        e = ellipsoid(np.diag([2.0, 1.0]))
        assert not ellipsoid_membership(e, [0.0, 1.01])

    def test_random_boundary_samples(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(4, 4))
        e = ellipsoid(a)
        u = rng.normal(size=(4, 1000))
        u /= np.linalg.norm(u, axis=0)
        pts = a @ u
        assert all(ellipsoid_membership(e, pts[:, i]) for i in range(pts.shape[1]))

    def test_off_range_point(self):
        e = ellipsoid(np.diag([1.0, 0.0]))
        assert not ellipsoid_membership(e, [0.0, 0.5])
        assert ellipsoid_membership(e, [0.5, 0.0])

    @pytest.mark.parametrize("shape", [(3, 2), (5, 3), (8, 3)])
    def test_range_at_rcond_zero_ignores_round_off(self, shape):
        # a @ u carries round-off of order eps off range(a); the inclusion
        # is decided at RANK_RCOND whatever the ellipsoid's own rcond, so
        # that round-off is not counted as a direction
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape)
        e = ellipsoid(a, rcond=0.0)
        u = rng.normal(size=(shape[1], 200))
        u /= np.linalg.norm(u, axis=0)
        off = np.linalg.svd(a, full_matrices=True)[0][:, shape[1]:] @ rng.normal(size=(shape[0] - shape[1],))
        for i in range(u.shape[1]):
            p = a @ (0.999 * u[:, i])
            assert ellipsoid_membership(e, p)
            assert not ellipsoid_membership(e, 1.01 * a @ u[:, i])
            assert not ellipsoid_membership(e, p + 1e-6 * np.linalg.norm(p) * off)

    def test_square_rank_deficient_points_at_rcond_zero_are_inside(self):
        # rcond 0 counts the round-off s-numbers of a rank-2 generator; the
        # preimage divides only by the values the rank rule counts, as the
        # inclusion does, so round-off coordinates are not blown up
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))
            e = ellipsoid(a, rcond=0.0)
            u = rng.normal(size=4)
            assert ellipsoid_membership(e, a @ (0.5 * u / np.linalg.norm(u)))

    def test_rank_deficient_membership_decomposes_only_the_bordered_block(self, monkeypatch):
        # the inclusion reuses the cached basis and s-numbers: one values-only
        # SVD of [[diag(s), Q^T y], [0, y - Q Q^T y]], (rank + d) x (rank + 1),
        # and no SVD of the d x (n + 1) stack [A y]; the preimage norm is
        # the norm of the one-column quotient, which takes no SVD
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 60))
        e = ellipsoid(a)
        e.span_basis
        calls, real_svd = [], np.linalg.svd

        def svd(m, full_matrices=True, compute_uv=True, *args, **kwargs):
            calls.append((m.shape, compute_uv))
            return real_svd(m, full_matrices, compute_uv, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        assert ellipsoid_membership(e, a @ rng.normal(size=60) / 1e3)
        assert calls == [((44, 5), False)]


class TestHelpers:
    def test_scale_ellipsoid(self):
        e = ellipsoid(np.diag([2.0, 1.0]))
        s = scale_ellipsoid(e, 3.0)
        np.testing.assert_array_equal(s.spectrum.values, [6.0, 3.0])
        np.testing.assert_array_equal(s.generator, np.diag([6.0, 3.0]))

    @pytest.mark.parametrize("a, c, what", [
        (1e300 * np.eye(2), 1e300, "generator entries overflow"),
        (1e300 * np.ones((2, 2)), 1e8, "singular values overflow"),  # entries 1e308, top s-number 2e308
        # 1e-11 is within the rank and 1e-324 rounds to 0, which the rank would count
        (np.diag([1.0, 1e-11]), 1e-313, "singular values underflow"),
    ])
    def test_scale_ellipsoid_refuses_overflow_and_underflow(self, a, c, what):
        # no numpy RuntimeWarning, which pytest turns into an error here
        with pytest.raises(InputError, match=f"scaled {what} double precision; rescale the input"):
            scale_ellipsoid(ellipsoid(a), c)
