import numpy as np
import pytest

from widthlab import (
    ALGEBRA_AK,
    EVERYTHING,
    Geometric,
    InputError,
    SuperGeometric,
    classify_WE,
    expanding_dual_check,
    is_expanding,
)
from widthlab.covering import MARGIN_BAND, PSD_TOL


def expanding_operator(rng, a, lo, hi):
    """T with T^T (A^T A) T >= A^T A built through the metric square root."""
    m = a.T @ a
    w, q = np.linalg.eigh(m)
    root = q @ np.diag(np.sqrt(w)) @ q.T
    inv_root = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    d = a.shape[0]
    o = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma = np.diag(rng.uniform(lo, hi, size=d))
    return inv_root @ o @ sigma @ root


class TestIsExpanding:
    def test_doubling_expands(self):
        v = is_expanding(2 * np.eye(3), np.diag([1.0, 0.5, 0.1]))
        assert v.expanding and v.margin > 0

    def test_halving_does_not(self):
        v = is_expanding(0.5 * np.eye(2), np.eye(2))
        assert not v.expanding
        assert v.margin == pytest.approx(-0.375)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            is_expanding(np.eye(2), np.eye(3))

    def test_agreement_with_pointwise_sampling(self):
        # The sampled check is one-sided: a mixed-sign quadratic form with a
        # thin violating cone can pass every random point.  Raw gaussians and
        # uniformly contracting/expanding constructions violate (or hold)
        # fatly, so on those families the two oracles must agree outside the
        # round-off band; the thin-cone regime is exercised through the
        # exact transposed-covering identity instead.
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(150):
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(d, d)) + 0.3 * np.eye(d)
            if trial % 3 == 0:
                t = rng.normal(size=(d, d))
            elif trial % 3 == 1:
                t = expanding_operator(rng, a, 1.05, 2.0)
            else:
                t = expanding_operator(rng, a, 0.5, 0.95)
            verdict = is_expanding(t, a)
            if abs(verdict.margin) <= 1e-6:
                continue
            x = rng.normal(size=(d, 500))
            x /= np.linalg.norm(x, axis=0)
            sampled = bool(np.all(
                np.linalg.norm(a @ t @ x, axis=0) >= np.linalg.norm(a @ x, axis=0) - 1e-9
            ))
            assert verdict.expanding == sampled
            checked += 1
        assert checked >= 100

    def test_kernel_makes_no_svd(self, linalg_calls):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 30))
        is_expanding(rng.normal(size=(30, 30)), a)
        assert linalg_calls == {"svd": 0, "svd_uv": 0, "eigvalsh": 3}

    def test_dual_check_makes_no_factored_svd(self, linalg_calls):
        rng = np.random.default_rng(9)
        assert expanding_dual_check(2 * np.eye(30), rng.normal(size=(30, 30)))
        # the ellipsoid of A^T needs s_1 only: one values-only SVD
        assert linalg_calls == {"svd": 1, "svd_uv": 0, "eigvalsh": 6}

    def test_margin_agrees_with_the_svd_formula(self):
        # the scale 1 + max(||A T||², ||A||²) taken from SVDs, independently
        # of the Gram matrices the kernel reads
        rng = np.random.default_rng(9)
        verdicts = set()
        for i in range(40):
            d = int(rng.integers(2, 121))
            a = rng.normal(size=(d, d)) + 0.3 * np.eye(d)
            t = rng.normal(size=(d, d)) if i % 2 else expanding_operator(rng, a, 0.9, 1.6)
            v = is_expanding(t, a)
            at = a @ t
            diff = at.T @ at - a.T @ a
            want = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0]) / (
                1.0 + max(np.linalg.norm(at, 2) ** 2, np.linalg.norm(a, 2) ** 2))
            assert v.margin == pytest.approx(want, rel=1e-13, abs=0)
            if abs(want) > MARGIN_BAND:
                assert v.expanding == (want >= -PSD_TOL)
            verdicts.add(v.expanding)
        assert verdicts == {True, False}

    def test_scaling_of_a_is_irrelevant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            t = rng.normal(size=(4, 4))
            for c in (1e-3, 1.0, 1e3):
                assert is_expanding(t, c * a).expanding == is_expanding(t, a).expanding

    def test_semigroup_composition(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            a = rng.normal(size=(4, 4)) + 0.3 * np.eye(4)
            s = expanding_operator(rng, a, 1.01, 1.5)
            t = expanding_operator(rng, a, 1.01, 1.5)
            assert is_expanding(s, a).expanding
            assert is_expanding(t, a).expanding
            assert is_expanding(s @ t, a).expanding


class TestDuality:
    def test_trivial_cases(self):
        assert expanding_dual_check(2 * np.eye(2), np.diag([1.0, 0.5]))
        assert expanding_dual_check(0.5 * np.eye(2), np.eye(2))

    def test_random_agreement(self):
        rng = np.random.default_rng(3)
        agreements = 0
        for trial in range(200):
            d = int(rng.integers(2, 9))
            a = rng.normal(size=(d, d))
            if trial % 2:
                t = rng.normal(size=(d, d))
            else:
                t = expanding_operator(rng, a + 0.3 * np.eye(d), 0.8, 1.6)
            if abs(is_expanding(t, a).margin) <= 1e-6:
                continue
            assert expanding_dual_check(t, a)
            agreements += 1
        assert agreements >= 150


class TestClassifyWE:
    def test_non_lacunary_everything(self):
        assert classify_WE(Geometric(0.5), kernel_trivial=False).tag == EVERYTHING

    def test_lacunary_kernel_invariance(self):
        v = classify_WE(SuperGeometric(2.0), kernel_trivial=False)
        assert v.tag == ALGEBRA_AK
        assert "ker" in v.note

    def test_lacunary_trivial_kernel_collapses(self):
        assert classify_WE(SuperGeometric(2.0), kernel_trivial=True).tag == EVERYTHING
