"""Acceptance suite: every gate criterion at its pinned tolerance.

Each test prints one `[PASS]/[FAIL]` line (run with `pytest -s` to see them
live).  All randomness is seeded; the whole suite targets well under two
minutes on a commodity desktop.
"""

import time

import numpy as np

from widthlab import (
    ALGEBRA_AK,
    EMPTY,
    EVERYTHING,
    KDIM,
    Geometric,
    Power,
    RigidCompactSpec,
    Scaled,
    Shifted,
    SuperGeometric,
    approx_factorization,
    classify_WCG,
    classify_WG,
    covers,
    ellipsoid,
    ellipsoid_membership,
    expanding_dual_check,
    factor_pair,
    is_expanding,
    kolmogorov_widths,
    rigid_cover_search,
    schmidt_cover,
    section_spectrum,
    solve_xay,
    wot_density_experiment,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_orthogonal(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


def test_criterion_01_width_identity():
    """d_n(A(B)) = s_{n+1}(A) on 200 seeded random matrices, 1e-12 relative.

    The s-numbers are recomputed through an independent route (symmetric
    eigenvalues of A^T A); spectra are drawn with moderate spread so the
    oracle itself stays accurate at the pinned tolerance.
    """
    rng = np.random.default_rng(20601)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(1, 21))
        if i % 2:
            a = rng.normal(size=(d, d))
            a = random_orthogonal(rng, d) @ np.diag(np.sort(rng.uniform(0.1, 2.0, size=d))[::-1]) @ random_orthogonal(rng, d)
        else:
            a = rng.normal(size=(int(rng.integers(1, 21)), d))
        widths = kolmogorov_widths(ellipsoid(a)).values
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(a.T @ a), 0.0, None))[::-1]
        oracle = oracle[: widths.size]
        scale = max(oracle[0], 1e-300)
        worst = max(worst, float(np.max(np.abs(widths - oracle))) / scale)
    elapsed = time.perf_counter() - t0
    report("criterion 01 width-identity", worst <= 1e-12 and elapsed < 5.0,
           f"max relative deviation {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_section_interlacing():
    """Sections by m-dimensional subspaces interlace the spectrum, m <= 3."""
    rng = np.random.default_rng(20602)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        d = int(rng.integers(4, 11))
        m = int(rng.integers(1, 4))
        e = ellipsoid(rng.normal(size=(d, d)))
        y = np.linalg.qr(rng.normal(size=(d, m)))[0]
        sec = section_spectrum(e, y)
        slack = 1e-9 * e.spectrum.s(1)
        for n in range(1, len(sec) + 1):
            if not (e.spectrum.s(n + m) - slack <= sec.s(n) <= e.spectrum.s(n) + slack):
                violations += 1
    elapsed = time.perf_counter() - t0
    report("criterion 02 section-interlacing", violations == 0 and elapsed < 5.0,
           f"{violations} violations, {elapsed:.2f}s")


def test_criterion_03_cover_monotonicity():
    """Certified covers shrink widths: s_{n+1}(A2) <= (1+1e-9) ||D|| s_{n+1}(A1)."""
    rng = np.random.default_rng(20603)
    violations = 0
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a1 = rng.normal(size=(d1, d1))
        t = rng.normal(size=(d2, d1))
        contraction = rng.normal(size=(d1, d1))
        contraction /= 1.05 * np.linalg.norm(contraction, 2)
        a2 = 0.95 * t @ a1 @ contraction
        e1, e2 = ellipsoid(a1), ellipsoid(a2)
        cert = covers(t, e1, e2)
        if not cert.holds:
            violations += 1
            continue
        w1, w2 = kolmogorov_widths(e1), kolmogorov_widths(e2)
        for n in range(max(d1, d2)):
            if w2.width(n) > (1 + 1e-9) * cert.norm * w1.width(n) + 1e-13:
                violations += 1
    report("criterion 03 cover-monotonicity", violations == 0, f"{violations} violations")


def test_criterion_04_schmidt_optimality():
    """Minimal-norm covers: ||D|| = max s-number ratio, scaled-down copies fail."""
    rng = np.random.default_rng(20604)
    worst_gap = 0.0
    failures = 0
    for _ in range(100):
        d1, d2 = 5, 4
        s1 = np.sort(rng.uniform(0.5, 2.0, size=d1))[::-1]
        r2 = int(rng.integers(1, d2 + 1))
        ratios = rng.uniform(0.3, 0.8, size=r2)
        ratios[int(np.argmax(ratios))] *= 1.25  # make the maximizing ratio strict
        s2 = np.zeros(d2)
        s2[:r2] = ratios * s1[:r2]
        order = np.argsort(s2)[::-1]
        s2 = s2[order]
        e1 = ellipsoid(random_orthogonal(rng, d1) @ np.diag(s1) @ random_orthogonal(rng, d1))
        e2 = ellipsoid(random_orthogonal(rng, d2) @ np.diag(s2) @ random_orthogonal(rng, d2))
        d_op, c = schmidt_cover(e1, e2)
        expected = max(e2.spectrum.s(n) / e1.spectrum.s(n) for n in range(1, e2.rank + 1))
        worst_gap = max(worst_gap,
                        abs(c - expected) / expected,
                        abs(np.linalg.norm(d_op, 2) - c) / c)
        if not covers(d_op, e1, e2).holds or covers(0.999 * d_op, e1, e2).holds:
            failures += 1
    report("criterion 04 schmidt-optimality", failures == 0 and worst_gap <= 1e-10,
           f"{failures} certificate failures, worst norm/ratio gap {worst_gap:.2e}")


def _batch_membership(e, points, tol=1e-9):
    """Vectorized form of the membership oracle for boundary sampling."""
    norms = np.linalg.norm(points, axis=0)
    coords = e.span_basis.T @ points
    resid = np.linalg.norm(points - e.span_basis @ coords, axis=0)
    in_range = resid <= tol * np.maximum(norms, 1e-300)
    sv = e.spectrum.values[: e.rank]
    pre = np.linalg.norm(coords / sv[:, None], axis=0) if e.rank else np.zeros(points.shape[1])
    return (norms == 0.0) | (in_range & (pre <= 1.0 + tol))


def test_criterion_05_oracle_agreement():
    """PSD covering decision vs 1000-point boundary sampling, 500 instances."""
    rng = np.random.default_rng(20605)
    band = 0
    disagreements = 0
    spot_checked = False
    for i in range(500):
        d = int(rng.integers(2, 6))
        if i % 2:
            t = rng.normal(size=(d, d))
            a1 = rng.normal(size=(d, d))
            a2 = rng.normal(size=(d, d))
        else:
            scale = (0.5, 0.8, 1.25, 2.0)[(i // 2) % 4]
            a1 = rng.normal(size=(d, d))
            t = rng.normal(size=(d, d))
            contraction = rng.normal(size=(d, d))
            contraction /= 1.05 * np.linalg.norm(contraction, 2)
            a2 = scale * t @ a1 @ contraction
        e1, e2 = ellipsoid(a1), ellipsoid(a2)
        cert = covers(t, e1, e2)
        if abs(cert.psd_margin) <= 1e-6:
            band += 1
            continue
        image = ellipsoid(t @ a1)
        u = rng.normal(size=(e2.domain_dim, 1000))
        u /= np.linalg.norm(u, axis=0)
        pts = e2.generator @ u
        inside = _batch_membership(image, pts)
        if not spot_checked:
            for j in range(10):  # tie the batch oracle to the public op
                assert bool(inside[j]) == ellipsoid_membership(image, pts[:, j])
            spot_checked = True
        if bool(inside.all()) != cert.holds:
            disagreements += 1
    report("criterion 05 oracle-agreement", disagreements == 0,
           f"{disagreements} disagreements, band occupancy {band}/500")


def test_criterion_06_dichotomy():
    """Constrained covers: geometric plateau at q^m vs super-geometric collapse."""
    t0 = time.perf_counter()
    geo = wot_density_experiment(Geometric(0.5), 2, (8, 16, 32, 64), seed=20606)
    sup = wot_density_experiment(SuperGeometric(2.0), 1, (4, 8, 16), seed=20606)
    elapsed = time.perf_counter() - t0
    geo_ok = all(r >= 0.25 - 1e-9 for r in geo.rho)
    sup_ok = sup.rho[0] > sup.rho[1] > sup.rho[2] and sup.rho[2] / sup.rho[0] < 1e-6
    resid_ok = all(r <= 1e-10 for r in geo.constraint_residuals + sup.constraint_residuals)
    report("criterion 06 dichotomy",
           geo_ok and sup_ok and resid_ok and elapsed < 10.0,
           f"geom rho {geo.rho}, supergeom collapse {sup.rho[2] / sup.rho[0]:.2e}, {elapsed:.2f}s")


def test_criterion_07_classification_table():
    """Nine model pairs against hand-derived closed-form verdicts.

    Derivations (a_n first, b_n second; r_n = b_n/a_n):
      geom(q) self:      r = 1                -> WG Everything (non-lacunary), WCG Empty
      geom shifted(1):   r = q, constant      -> WG Everything, WCG Empty
      geom scaled(3):    r = 3, constant      -> WG Everything, WCG Empty
      pow(2) self:       r = 1                -> WG Everything (non-lacunary), WCG Empty
      pow shifted(1):    r = ((n+1)/(n+2))^2 -> 1: WG Everything, WCG Empty
      pow scaled(3):     r = 3                -> WG Everything, WCG Empty
      sg(2) self:        shift-1 ratio 2^{2n+1} unbounded -> WG AlgebraAK; r = 1 -> WCG Empty
      sg shifted(1):     shift-1 r = 1 bounded, shift-2 unbounded -> WG KDim(1);
                         shift-0 r = 2^{-(2n+1)} -> 0, shift-1 r = 1 -> WCG KDim(0)
      sg scaled(3):      shift-0 r = 3, shift-1 unbounded -> WG AlgebraAK (same shape up
                         to scale); r = 3 not -> 0 -> WCG Empty
    """
    g, p, s = Geometric(0.5), Power(2.0), SuperGeometric(2.0)
    table = [
        (g, g, (EVERYTHING, None), (EMPTY, None)),
        (g, Shifted(1, g), (EVERYTHING, None), (EMPTY, None)),
        (g, Scaled(3.0, g), (EVERYTHING, None), (EMPTY, None)),
        (p, p, (EVERYTHING, None), (EMPTY, None)),
        (p, Shifted(1, p), (EVERYTHING, None), (EMPTY, None)),
        (p, Scaled(3.0, p), (EVERYTHING, None), (EMPTY, None)),
        (s, s, (ALGEBRA_AK, None), (EMPTY, None)),
        (s, Shifted(1, s), (KDIM, 1), (KDIM, 0)),
        (s, Scaled(3.0, s), (ALGEBRA_AK, None), (EMPTY, None)),
    ]
    mismatches = []
    for a, b, wg_expected, wcg_expected in table:
        wg = classify_WG(a, b, k_max=8)
        wcg = classify_WCG(a, b, k_max=8)
        if (wg.tag, wg.k) != wg_expected:
            mismatches.append(f"WG({a},{b}) = {wg.tag},{wg.k} != {wg_expected}")
        if (wcg.tag, wcg.k) != wcg_expected:
            mismatches.append(f"WCG({a},{b}) = {wcg.tag},{wcg.k} != {wcg_expected}")
        if not (wg.exact and wcg.exact):
            mismatches.append(f"inexact verdict on parametric pair ({a},{b})")
    report("criterion 07 classification-table", not mismatches, "; ".join(mismatches))


def test_criterion_08_equations():
    """Solver residuals, the rank barrier, factorizations, SOT matching."""
    rng = np.random.default_rng(20608)
    worst_solve = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        ra = int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, ra)) @ rng.normal(size=(ra, d))
        b = rng.normal(size=(d, d)) @ a @ rng.normal(size=(d, d))
        worst_solve = max(worst_solve, solve_xay(a, b).residual)

    barrier_violations = 0
    a = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6))
    for _ in range(1000):
        x, y = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        if np.linalg.matrix_rank(x @ a @ y, tol=1e-9) > 3:
            barrier_violations += 1

    worst_factor = 0.0
    for d in (2, 4, 6, 8, 10):
        worst_factor = max(worst_factor, factor_pair(rng.normal(size=(d, d))).residual)

    d = 6
    u1 = np.vstack([np.eye(d), np.zeros((d, d))])
    b = rng.normal(size=(d, d))
    x0, y0 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    vs = [rng.normal(size=d) for _ in range(3)]
    pair = approx_factorization(b, x0, y0, vs, eps=1e-3)
    xn, yn = np.asarray(pair.X), np.asarray(pair.Y)
    sot_ok = all(
        np.linalg.norm(yn @ v - u1 @ (y0 @ v)) < 1e-3
        and np.linalg.norm(xn @ (u1 @ v) - x0 @ v) < 1e-3
        for v in vs
    ) and pair.residual <= 1e-9

    ok = worst_solve <= 1e-9 and barrier_violations == 0 and worst_factor <= 1e-12 and sot_ok
    report("criterion 08 equations", ok,
           f"solve residual {worst_solve:.2e}, {barrier_violations} rank-barrier hits, "
           f"factor residual {worst_factor:.2e}, sot {'ok' if sot_ok else 'failed'}")


def test_criterion_09_expanding_duality():
    """is_expanding agrees with the transposed covering test, 1000 instances."""
    rng = np.random.default_rng(20609)
    band = 0
    disagreements = 0
    for i in range(1000):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d))
        if i % 3 == 0:
            t = rng.normal(size=(d, d))
        else:
            base = a + 0.3 * np.eye(d)
            m = base.T @ base
            w, q = np.linalg.eigh(m)
            root = q @ np.diag(np.sqrt(w)) @ q.T
            inv_root = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
            lo, hi = (1.05, 2.0) if i % 3 == 1 else (0.9, 1.1)
            sigma = np.diag(rng.uniform(lo, hi, size=d))
            t = inv_root @ random_orthogonal(rng, d) @ sigma @ root
            a = base
        if abs(is_expanding(t, a).margin) <= 1e-6:
            band += 1
            continue
        if not expanding_dual_check(t, a):
            disagreements += 1
    report("criterion 09 expanding-duality", disagreements == 0,
           f"{disagreements} disagreements, band occupancy {band}/1000")


def test_criterion_10_rigidity():
    """At n=5 the validated spec certifies that only the identity covers the compact."""
    t0 = time.perf_counter()
    spec = RigidCompactSpec(
        n=5,
        alphas=tuple(10.0 ** (-(k * (k - 1)) / 2) for k in range(1, 6)),
        betas=(0.6, 0.65, 0.7, 0.75, 0.8),
    )
    rep = rigid_cover_search(spec, norm_bound=10.0)
    elapsed = time.perf_counter() - t0
    stats = rep.edge_graph_stats
    ok = (rep.identity_only and stats.out_degree_min >= 2
          and stats.in_degree_max <= 1 and elapsed < 60.0)
    report("criterion 10 rigidity", ok,
           f"identity_only={rep.identity_only}, out>={stats.out_degree_min}, "
           f"in<={stats.in_degree_max}, {elapsed:.2f}s")
