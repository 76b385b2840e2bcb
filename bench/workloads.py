"""The four workloads: inputs made from the seed, one round of operations,
and a check for every operation's output.

A workload is built once per process (its set-up) and then yields the same
round of operations again and again.  Each operation is one call into the
program; its check runs after the call returns, outside the timed interval,
and returns None or a description of what is wrong.  Checks compare with
values the benchmark computes itself (module ``expect`` and the prescribed
factors below), never with widthlab's own results.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import expect as X
from common import BENCH_DIR, child_env, write_matrix_file

MARGIN_BAND = 1e-6   # widthlab's documented round-off band for PSD margins
PSD_TOL = 1e-9       # widthlab's default PSD slack
SVD_TOL = 1e-10      # |computed - prescribed| singular value, relative to s_1


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False   # a documented program fault makes this check fail


def orthogonal(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def close(x: float, y: float, rel: float, floor: float = 0.0) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + floor


def first_bad(pairs) -> str | None:
    for ok, message in pairs:
        if not ok:
            return message
    return None


def interlace_error(section, s, m: int, tol: float) -> str | None:
    """s_{n+m} <= sigma_n <= s_n for a codimension-m section."""
    if len(section) != len(s) - m:
        return f"section has {len(section)} s-numbers, expected {len(s) - m}"
    for n, v in enumerate(section):
        if not (s[n + m] - tol <= v <= s[n] + tol):
            return f"sigma_{n + 1}={v!r} outside [{s[n + m]!r}, {s[n]!r}]"
    return None


def spectrum_error(values, s, tol: float) -> str | None:
    values = np.asarray(values, dtype=float)
    if values.shape != s.shape:
        return f"{values.size} values, expected {s.size}"
    worst = float(np.max(np.abs(values - s)))
    return None if worst <= tol else f"max |s_computed - s_prescribed| = {worst:.3g}"


def _outside_band(margin: float) -> float:
    if abs(margin) <= 100 * MARGIN_BAND:
        raise RuntimeError(f"margin {margin:g} too close to the round-off band")
    return margin


class Generators:
    """Generators ``A = U diag(s) V^T`` with random orthogonal factors and
    prescribed spectra, and the answers derived from the factors (README,
    "Expected verdicts")."""

    DELTA = 0.05   # cover scalings (1 +/- DELTA) D around the Schmidt cover

    def __init__(self, rng, d: int):
        self.d = d
        u1, self.v1, u2, v2 = (orthogonal(rng, d) for _ in range(4))
        self.s1 = np.sort(rng.uniform(1.0, 4.0, d))[::-1]
        self.s2 = np.sort(rng.uniform(0.5, 3.5, d))[::-1]
        self.a1 = (u1 * self.s1) @ self.v1.T
        self.a2 = (u2 * self.s2) @ v2.T
        self.tol = SVD_TOL * self.s1[0]
        self.c = float(np.max(self.s2 / self.s1))   # the Schmidt cover's norm
        sb = self.s2.copy()
        sb[d // 2:] = 0.0
        self.b = (u2 * sb) @ v2.T                    # rank d/2 <= rank A1

        # D = c U2 U1^T maps U1 e_i to c U2 e_i, so for T = f D:
        # (T A1)(T A1)^T - A2 A2^T = U2 diag((f c s1)^2 - s2^2) U2^T
        dmat = self.c * (u2 @ u1.T)
        self.covers = []   # (T, scaled margin, witness norm)
        for f in (1.0 + self.DELTA, 1.0 - self.DELTA):
            lam = float(np.min((f * self.c * self.s1) ** 2 - self.s2 ** 2))
            scale = 1.0 + max((f * self.c * self.s1[0]) ** 2, self.s2[0] ** 2)
            self.covers.append((f * dmat, _outside_band(lam / scale), f * self.c))

        # T = V1 diag(t) V1^T: T^T A^T A T - A^T A = V1 diag(s1^2 (t^2 - 1)) V1^T
        t_yes = rng.uniform(1.05, 1.5, d)
        t_no = t_yes.copy()
        t_no[rng.choice(d, size=d // 20, replace=False)] = rng.uniform(0.8, 0.95)
        self.expanding = []   # (T, scaled margin), expanding first
        for t in (t_yes, t_no):
            lam = float(np.min(self.s1 ** 2 * (t ** 2 - 1.0)))
            scale = 1.0 + max(float(np.max(self.s1 * t)) ** 2, self.s1[0] ** 2)
            self.expanding.append(((self.v1 * t) @ self.v1.T, _outside_band(lam / scale)))

    def range_case(self, rng, a):
        """``(A R, sigma_min(R), sigma_max(R))`` for ``R = V diag(sigma) W^T``."""
        v, w = orthogonal(rng, self.d), orthogonal(rng, self.d)
        sigma = rng.uniform(0.5, 2.0, self.d)
        return a @ ((v * sigma) @ w.T), float(sigma.min()), float(sigma.max())


def cover_error(holds, margin, norm, want_margin, want_norm) -> str | None:
    want = want_margin >= -PSD_TOL
    return first_bad([
        (holds == want, f"covers={holds}, expected {want}"),
        (close(margin, want_margin, 1e-8, 1e-12), f"margin {margin!r}, expected {want_margin!r}"),
        (not want or close(norm, want_norm, 1e-9), f"witness norm {norm!r}, expected {want_norm!r}"),
    ])


def expanding_error(expanding, margin, want_margin) -> str | None:
    return first_bad([
        (expanding == (want_margin >= -PSD_TOL), f"expanding={expanding}"),
        (close(margin, want_margin, 1e-8, 1e-12), f"margin {margin!r}, expected {want_margin!r}"),
    ])


def range_error(same, c, cc, lo, hi) -> str | None:
    return first_bad([
        (same is True, "ranges reported different"),
        (same and close(c, lo, 1e-8), f"c={c!r}, expected sigma_min(R)={lo!r}"),
        (same and close(cc, hi, 1e-8), f"C={cc!r}, expected sigma_max(R)={hi!r}"),
    ])


def residual_error(x, y, a, b, reported) -> str | None:
    """X A Y = B recomputed from the returned factors."""
    res = float(np.linalg.norm(x @ a @ y - b) / (1.0 + np.linalg.norm(b)))
    return first_bad([(res <= 1e-9, f"recomputed residual {res:.3g} above 1e-9"),
                      (reported <= 1e-9, f"reported residual {reported:.3g} above 1e-9")])


def rigid_spec(rng, n: int) -> tuple[list, list]:
    """Alphas with strictly decreasing ratios; betas in (1/2, 1) at least
    0.01 apart, far above the search's 1e-12 ratio tolerance."""
    alphas = [1.0]
    for r in np.sort(rng.uniform(0.05, 0.9, n - 1))[::-1]:
        alphas.append(alphas[-1] * float(r))
    betas = [0.51 + 0.01 * int(i) for i in rng.choice(49, size=n, replace=False)]
    return alphas, betas


def rigid_error(identity_only, admissible, threshold, out_min, in_max, alphas, betas):
    want = X.rigid_threshold(alphas, betas)
    want_stats = (2, 1) if len(alphas) >= 2 else (None, None)
    return first_bad([
        (identity_only is True and admissible == 1,
         f"identity_only={identity_only}, admissible_maps={admissible}"),
        (close(threshold, want, 1e-12), f"norm threshold {threshold!r}, expected {want!r}"),
        ((out_min, in_max) == want_stats, f"edge graph ({out_min}, {in_max}), expected {want_stats}"),
    ])


# ----------------------------------------------------------------------
# dense_certify
# ----------------------------------------------------------------------

class DenseCertify:
    """In-process certificates on dense generators ``U diag(s) V^T``."""

    name = "dense_certify"
    tail_pct = 96.0
    # (d, range_equiv operations): range_equiv, the slowest operation, runs
    # twice at the largest size so that the tail percentile falls inside its
    # group of samples, not on the edge between two kinds of operation; the
    # 21 operations of a round also put the median inside one group
    SIZES = ((200, 1), (400, 2))
    SECTION_CODIM = 8

    def __init__(self, W, seed: int, workdir: Path):
        self.W = W
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for d, range_ops in self.SIZES:
            self.ops += self._size_ops(rng, d, range_ops)

    def round_ops(self, traced: bool):
        return self.ops

    def _size_ops(self, rng, d: int, range_ops: int) -> list[Op]:
        W, g = self.W, Generators(rng, d)
        e1, e2 = W.ellipsoid(g.a1), W.ellipsoid(g.a2)
        ops = [Op(f"widths@{d}", lambda: W.kolmogorov_widths(W.ellipsoid(g.a1)),
                  lambda w: spectrum_error(w.values, g.s1, g.tol))]
        for (t, margin, norm), sign in zip(g.covers, "+-"):
            ops.append(Op(f"covers{sign}@{d}", lambda t=t: W.covers(t, e1, e2),
                          lambda v, margin=margin, norm=norm:
                          cover_error(v.holds, v.psd_margin, v.norm, margin, norm)))
        ops.append(Op(f"schmidt_cover@{d}", lambda: W.schmidt_cover(e1, e2),
                      lambda out: first_bad([
                          (close(out[1], g.c, 1e-9), f"norm {out[1]!r}, expected max s2/s1 = {g.c!r}"),
                          (close(float(np.linalg.norm(out[0])), g.c * math.sqrt(d), 1e-9),
                           "Frobenius norm of D is not c sqrt(rank)"),
                      ])))
        ops.append(Op(f"solve_xay@{d}", lambda: W.solve_xay(g.a1, g.b),
                      lambda v: residual_error(np.asarray(v.X), np.asarray(v.Y), g.a1, g.b, v.residual)))
        for (t, margin), label in zip(g.expanding, ("yes", "no")):
            ops.append(Op(f"is_expanding_{label}@{d}", lambda t=t: W.is_expanding(t, g.a1),
                          lambda v, margin=margin: expanding_error(v.expanding, v.margin, margin)))
        # the same inequality through covers(T^T, E(A^T), E(A^T)): True
        # outside the round-off band
        ops.append(Op(f"expanding_dual_check@{d}",
                      lambda: W.expanding_dual_check(g.expanding[0][0], g.a1),
                      lambda agree: None if agree is True else f"dual check gave {agree!r}"))
        for a in (g.a1, g.a2)[:range_ops]:
            ar, lo, hi = g.range_case(rng, a)
            ops.append(Op(f"range_equiv@{d}", lambda a=a, ar=ar: W.range_equiv(a, ar),
                          lambda v, lo=lo, hi=hi: range_error(v.same_range, v.c, v.C, lo, hi)))
        m = self.SECTION_CODIM
        y = orthogonal(rng, d)[:, :m]
        ops.append(Op(f"section_spectrum@{d}", lambda: W.section_spectrum(e1, y),
                      lambda sp: interlace_error(list(sp.values), g.s1, m, g.tol)))
        return ops


# ----------------------------------------------------------------------
# model_studies
# ----------------------------------------------------------------------

# Fixed inputs, independent of the seed: geom(q) breaks its documented
# closed form rho = q^m once q^d falls below the double-precision epsilon,
# and supergeom(b) breaks its closed form in the same way.  Those points are
# the benchmark's only expected failures, the same in every round.
TOWER_MODELS = (("geom", 0.3), ("geom", 0.5), ("geom", 0.8),
                ("pow", 1.0), ("pow", 2.5),
                ("supergeom", 1.5), ("supergeom", 1.2))
TOWER_DIMS = (8, 12, 16, 24, 32, 40, 48, 56, 64, 80, 96, 128)
TOWER_CONSTRAINTS = (1, 2, 3)
TOWER_SEED = 7
# (model, m) -> the dimensions d at which the fault shows today.  Only these
# points count as known failures; a failure anywhere else is unexpected and
# sets ``correct`` false, and a listed point that passes is reported.
TOWER_FAULTS = {
    (("geom", 0.3), 1): (48, 80),
    (("geom", 0.3), 2): (48, 56, 80, 96, 128),
    (("geom", 0.3), 3): (40, 48, 56, 64, 80, 96, 128),
    (("geom", 0.5), 1): (80,),
    (("geom", 0.5), 2): (56, 80),
    (("geom", 0.5), 3): (80, 96, 128),
    (("supergeom", 1.5), 1): (32, 40),
    (("supergeom", 1.5), 2): (32, 40),
    (("supergeom", 1.5), 3): (32, 40),
    (("supergeom", 1.2), 1): (32, 40, 48, 56),
    (("supergeom", 1.2), 2): (32, 40, 48, 56),
    (("supergeom", 1.2), 3): (32, 40, 48, 56),
}
RIGID_NORM_BOUND = 10.0


class ModelStudies:
    """Sequence models, closed-form classifiers, dimension towers, rigidity."""

    name = "model_studies"
    tail_pct = 99.0

    def __init__(self, W, seed: int, workdir: Path):
        self.W = W
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        pairs = self._pairs(rng)
        models = [m for pair in pairs[:len(pairs) // self.REPEATS] for m in pair]
        # parsed once here for the operations that take a model object
        self.parsed = {m: W.parse_model(m.text(True)) for pair in pairs for m in pair}
        self._parse_ops(models)
        self._pair_ops(pairs)
        self._samples_ops(rng)
        self._verdict_ops(models)
        self._tower_ops()
        self._rigid_ops(rng)

    def round_ops(self, traced: bool):
        return self.ops

    REPEATS = 3
    FAMILIES = ("geom", "pow", "supergeom")
    # per family, a parameter range for the slower- and the faster-decaying
    # member of a pair; the gap between them keeps every ratio vertex far
    # below the scan horizon of expect.ratio_sup
    SLOW = {"geom": (0.7, 0.9), "pow": (0.5, 1.2), "supergeom": (1.1, 1.5)}
    FAST = {"geom": (0.3, 0.5), "pow": (1.8, 3.0), "supergeom": (1.9, 2.5)}

    def _pairs(self, rng) -> list[tuple]:
        """Model pairs whose kind is fixed and whose numbers come from the
        seed, so every seed gives the same mix of classifier branches.

        Every model has a shift and a scale.  Same-family pairs come twice:
        with one parameter (supergeom shifts differing by the repeat index,
        which walks AlgebraAK, KDim(1), KDim(2)) and with two parameters (the
        target decaying faster on even repeats, slower on odd ones).
        """
        def model(family, bounds, shift=None):
            return X.Model(family, float(rng.uniform(*bounds)),
                           int(rng.integers(1, 4)) if shift is None else shift,
                           float(rng.uniform(0.5, 4.0)))

        pairs = []
        for r in range(self.REPEATS):
            for fa in self.FAMILIES:
                for fb in self.FAMILIES:
                    if fa != fb:
                        pairs.append((model(fa, self.SLOW[fa]), model(fb, self.SLOW[fb])))
                        continue
                    a = model(fa, self.SLOW[fa])
                    b = X.Model(fb, a.param, a.shift + r if fa == "supergeom" else int(rng.integers(1, 4)),
                                float(rng.uniform(0.5, 4.0)))
                    pairs.append((a, b))
                    slow, fast = model(fa, self.SLOW[fa]), model(fb, self.FAST[fb])
                    pairs.append((slow, fast) if r % 2 == 0 else (fast, slow))
        return pairs

    def _parse_ops(self, models):
        W = self.W
        for i, m in enumerate(models):
            text = m.text(scale_outside=bool(i % 2))

            def check(parsed, m=m):
                for n in range(8):
                    got = parsed.term(n)
                    if not close(got, m.term(n), 1e-12):
                        return f"term {n} = {got!r}, expected {m.term(n)!r}"
                return None

            self.ops.append(Op(f"parse_model[{m.family}]", lambda text=text: W.parse_model(text), check))
            lac, witness = X.lacunarity(m)
            self.ops.append(Op(f"is_lacunary[{m.family}]",
                               lambda p=self.parsed[m]: W.is_lacunary(p),
                               lambda v, lac=lac, witness=witness: first_bad([
                                   (v.lacunary == lac and v.exact, f"lacunary={v.lacunary} exact={v.exact}"),
                                   (close(v.witness_ratio, witness, 1e-12),
                                    f"witness {v.witness_ratio!r}, expected {witness!r}"),
                               ])))

    def _pair_ops(self, pairs):
        W = self.W
        for a, b in pairs:
            pa, pb = self.parsed[a], self.parsed[b]
            holds, to_zero = X.majorization(a, b)
            sup = X.ratio_sup(a, b) if holds else None
            tag = f"{a.family}/{b.family}"

            def maj_check(v, holds=holds, sup=sup):
                if v.holds != holds or not v.exact:
                    return f"holds={v.holds} exact={v.exact}, expected holds={holds}"
                if holds and math.isfinite(sup) and not close(v.constant, sup, 1e-9):
                    return f"constant {v.constant!r}, expected sup b_n/a_n = {sup!r}"
                return None

            self.ops.append(Op(f"majorizes[{tag}]", lambda pa=pa, pb=pb: W.majorizes(pa, pb), maj_check))
            self.ops.append(Op(f"strictly_majorizes[{tag}]",
                               lambda pa=pa, pb=pb: W.strictly_majorizes(pa, pb),
                               lambda v, z=to_zero: None if (v.holds == z and v.exact)
                               else f"holds={v.holds} exact={v.exact}, expected {z}"))
            for strict, fn in ((False, "classify_WG"), (True, "classify_WCG")):
                want = X.classify(a, b, strict)
                self.ops.append(Op(f"{fn}[{tag}]",
                                   lambda pa=pa, pb=pb, fn=fn: getattr(W, fn)(pa, pb, k_max=8),
                                   lambda v, want=want: None if ((v.tag, v.k) == want and v.exact)
                                   else f"{v.tag},{v.k} exact={v.exact}, expected {want}"))

    def _samples_ops(self, rng):
        W = self.W
        # three seeded sequences (the middle one with a lacunary gap), each
        # paired both ways with itself damped by 0.1^n: the damped one is
        # strictly majorized at every tested shift, the reverse pair at none,
        # so every seed takes the same branches
        seqs = []
        for i in range(3):
            ratios = rng.uniform(0.3, 0.95, 39)
            if i == 1:
                ratios[rng.integers(0, 39)] = 1e-4
            vals = np.cumprod(np.concatenate([[1.0], ratios]))
            seqs += [[float(v) for v in vals], [float(v) for v in vals * 0.1 ** np.arange(40)]]
        parsed = []
        for vals in seqs:
            text = "samples(" + ", ".join(repr(v) for v in vals) + ")"
            lac, witness = X.samples_lacunarity(vals)
            self.ops.append(Op("parse_model[samples]", lambda text=text: W.parse_model(text),
                               lambda p, vals=vals: None if tuple(p.values) == tuple(vals)
                               else "samples did not round-trip"))
            p = W.parse_model(text)
            parsed.append(p)
            self.ops.append(Op("is_lacunary[samples]", lambda p=p: W.is_lacunary(p),
                               lambda v, lac=lac, w=witness: None
                               if (v.lacunary == lac and v.witness_ratio == w and not v.exact)
                               else f"lacunary={v.lacunary} witness={v.witness_ratio!r}"))
        for i in range(len(seqs)):
            j = i + 1 if i % 2 == 0 else i - 1
            a, b, pa, pb = seqs[i], seqs[j], parsed[i], parsed[j]
            r = X.samples_ratios(a, b)
            self.ops.append(Op("majorizes[samples]", lambda pa=pa, pb=pb: W.majorizes(pa, pb),
                               lambda v, c=max(r), n=len(r): None
                               if (v.holds and v.constant == c and v.window == n and not v.exact)
                               else f"holds={v.holds} constant={v.constant!r}"))
            strict = X.samples_strict(a, b)
            self.ops.append(Op("strictly_majorizes[samples]",
                               lambda pa=pa, pb=pb: W.strictly_majorizes(pa, pb),
                               lambda v, s=strict: None if (v.holds == s and not v.exact)
                               else f"holds={v.holds}, expected {s}"))
            for strict_cls, fn in ((False, "classify_WG"), (True, "classify_WCG")):
                want = X.samples_classify(a, b, strict_cls, k_max=16)
                self.ops.append(Op(f"{fn}[samples]",
                                   lambda pa=pa, pb=pb, fn=fn: getattr(W, fn)(pa, pb, k_max=16),
                                   lambda v, want=want: None if ((v.tag, v.k) == want and not v.exact)
                                   else f"{v.tag},{v.k}, expected {want}"))

    def _verdict_ops(self, models):
        W = self.W
        for m in models:
            p = self.parsed[m]
            for trivial in (False, True):
                want = X.classify_we(m, trivial)
                self.ops.append(Op(f"classify_WE[{m.family}]",
                                   lambda p=p, trivial=trivial: W.classify_WE(p, kernel_trivial=trivial),
                                   lambda v, want=want: None if v.tag == want
                                   else f"{v.tag}, expected {want}"))
            for codim in (3, math.inf):
                want = X.weakly_full(m, codim)
                self.ops.append(Op(f"is_weakly_full[{m.family}]",
                                   lambda p=p, codim=codim: W.is_weakly_full(p, codim),
                                   lambda v, want=want: None if (v.weakly_full, v.case) == want
                                   else f"{v.weakly_full},{v.case}, expected {want}"))

    def _tower_ops(self):
        W = self.W
        for family, param in TOWER_MODELS:
            m = X.Model(family, param)
            model = W.parse_model(m.text(True))
            for k in TOWER_CONSTRAINTS:
                for d in TOWER_DIMS:
                    if m.log_term(d - 1) < math.log(1e-300):
                        break   # widthlab refuses terms below MIN_TERM
                    lo, hi = X.tower_rho(m, d, k)

                    def check(rep, lo=lo, hi=hi):
                        rho = rep.rho[0]
                        if not (lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12)):
                            want = f"{lo!r}" if lo == hi else f"in [{lo!r}, {hi!r}]"
                            return f"rho {rho!r}, expected {want}"
                        if rep.constraint_residuals[0] > 1e-12:
                            return f"constraint residual {rep.constraint_residuals[0]:.3g}"
                        return None

                    self.ops.append(Op(f"dichotomy[{family}({param}),m={k},d={d}]",
                                       lambda model=model, k=k, d=d:
                                       W.wot_density_experiment(model, k, [d], TOWER_SEED),
                                       check, known_fault=d in TOWER_FAULTS.get(((family, param), k), ())))

    def _rigid_ops(self, rng):
        W = self.W
        for n in range(2, 8):
            for _ in range(2):
                alphas, betas = rigid_spec(rng, n)
                spec = W.RigidCompactSpec(n=n, alphas=tuple(alphas), betas=tuple(betas))
                self.ops.append(Op(f"rigid_cover_search[n={n}]",
                                   lambda spec=spec: W.rigid_cover_search(spec, RIGID_NORM_BOUND),
                                   lambda rep, a=alphas, b=betas: rigid_error(
                                       rep.identity_only, rep.admissible_maps, rep.max_norm_bound,
                                       rep.edge_graph_stats.out_degree_min,
                                       rep.edge_graph_stats.in_degree_max, a, b)))


# ----------------------------------------------------------------------
# cli_files
# ----------------------------------------------------------------------

def read_back(path) -> np.ndarray:
    """A matrix file read with numpy rather than widthlab's parser."""
    with open(path, encoding="ascii") as fh:
        rows, cols = (int(t) for t in fh.readline().split())
    a = np.loadtxt(path, skiprows=1, ndmin=2)
    if a.shape != (rows, cols):
        raise ValueError(f"{path}: header says {rows}x{cols}, body is {a.shape}")
    return a


def line_values(text: str, label: str) -> list[str]:
    """Whitespace-separated fields after ``label`` on its output line."""
    for line in text.splitlines():
        if line.startswith(label):
            return line[len(label):].split()
    raise ValueError(f"no line starting with {label!r}")


class CliFiles:
    """``widthlab.cli.run(argv)`` in-process on matrix files."""

    name = "cli_files"
    # 17 operations: six fast ones, five between 60 and 90 ms (cover-test and
    # expanding, text and --json, and range-equiv) and six slow ones, so the
    # median falls in the middle of the close group, not in a gap
    tail_pct = 95.0
    D = 160
    # find_separating_projection takes a full SVD of the d^2 x 3 stack of its
    # operators, whose d^2 x d^2 factor needs 8 d^4 bytes (5 GiB at d = 160),
    # so its operators stay at SEPARATE_D
    SEPARATE_D = 32
    SECTION_CODIM = 6
    EPS = 1e-3
    TOWER_DIMS = (8, 16, 32, 64, 128)

    def __init__(self, W, seed: int, workdir: Path):
        self.W = W
        rng = np.random.default_rng([seed, 3])
        d, m, eps = self.D, self.SECTION_CODIM, self.EPS
        g = Generators(rng, d)
        s1, tol = g.s1, g.tol
        f = {}

        def put(name, a):
            f[name] = str(workdir / name)
            write_matrix_file(f[name], a)

        put("a1.mat", g.a1)
        put("a2.mat", g.a2)
        put("b.mat", g.b)
        put("y.mat", orthogonal(rng, d)[:, :m])
        for (t, _, _), sign in zip(g.covers, ("plus", "minus")):
            put(f"t_{sign}.mat", t)
        for (t, _), label in zip(g.expanding, ("yes", "no")):
            put(f"te_{label}.mat", t)
        ar, lo, hi = g.range_case(rng, g.a1)
        put("ar.mat", ar)
        seps = [rng.normal(size=(self.SEPARATE_D, self.SEPARATE_D)) for _ in range(3)]
        for i, sep in enumerate(seps):
            put(f"sep{i}.mat", sep)
        xs, xt, ys, yt = (rng.normal(size=(d, 3)) for _ in range(4))
        for name, a in (("xs.mat", xs), ("xt.mat", xt), ("ys.mat", ys), ("yt.mat", yt)):
            put(name, a)
        alphas, betas = rigid_spec(rng, 6)
        f["spec.json"] = str(workdir / "spec.json")
        Path(f["spec.json"]).write_text(json.dumps({"n": 6, "alphas": alphas, "betas": betas}))
        p_pow = float(rng.uniform(0.5, 3.0))
        m_tower = int(rng.integers(1, 4))
        out = {name: str(workdir / name) for name in
               ("d_out.mat", "x_out.mat", "y_out.mat", "fx_out.mat", "fy_out.mat", "p_out.mat", "v_out.mat")}

        def floats(fields):
            return [float(v) for v in fields]

        def widths_text(o):
            return first_bad([
                (spectrum_error(floats(line_values(o, "s-numbers:")), s1, tol) is None, "s-numbers"),
                (spectrum_error(floats(line_values(o, "widths:")), s1, tol) is None, "widths"),
                (line_values(o, "rank:") == [str(d)], "rank"),
            ])

        def cover_test(index, as_json):
            _, margin, norm = g.covers[index]

            def check(o):
                if as_json:
                    j = json.loads(o)
                    holds, got_margin = j["holds"], float(j["psd_margin"])
                    got_norm = None if j["norm"] is None else float(j["norm"])
                else:
                    holds = line_values(o, "covers:") == ["True"]
                    got_margin = float(line_values(o, "psd margin:")[0])
                    got_norm = float(line_values(o, "norm:")[0]) if holds else None
                return cover_error(holds, got_margin, got_norm, margin, norm)
            return check

        def cover_make_error(dd, norm):
            da = dd @ g.a1
            gap = da @ da.T - g.a2 @ g.a2.T
            lam = float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0]) / (1.0 + g.c ** 2 * s1[0] ** 2)
            return first_bad([
                (close(norm, g.c, 1e-9), "norm is not max s2/s1"),
                (close(float(np.linalg.norm(dd, 2)), g.c, 1e-9), "operator's 2-norm is not c"),
                (lam >= -PSD_TOL, f"operator does not cover: margin {lam:.3g}"),
            ])

        def cover_make(o):
            return cover_make_error(read_back(out["d_out.mat"]), float(line_values(o, "norm:")[0]))

        def cover_make_json(o):
            j = json.loads(o)
            return cover_make_error(np.array(j["operator"], dtype=float), float(j["norm"]))

        def solve_xay(o):
            return residual_error(read_back(out["x_out.mat"]), read_back(out["y_out.mat"]),
                                  g.a1, g.b, float(line_values(o, "residual:")[0]))

        def solve_xay_json(o):
            j = json.loads(o)
            return residual_error(np.array(j["X"], dtype=float), np.array(j["Y"], dtype=float),
                                  g.a1, g.b, float(j["residual"]))

        def factor_error(x, y, residual):
            return first_bad([(x.shape == (d, 2 * d) and y.shape == (2 * d, d), "factor shapes"),
                              (np.array_equal(x @ y, read_back(f["b.mat"])), "X Y differs from B"),
                              (residual == 0.0, f"reported residual {residual!r}")])

        def factor(o):
            return factor_error(read_back(out["fx_out.mat"]), read_back(out["fy_out.mat"]),
                                float(line_values(o, "residual:")[0]))

        def factor_json(o):
            j = json.loads(o)
            return factor_error(np.array(j["X"], dtype=float), np.array(j["Y"], dtype=float),
                                float(j["residual"]))

        def range_equiv(o):
            fields = line_values(o, "c:")   # "c: <c>  C: <C>"
            return range_error(line_values(o, "same range:") == ["True"],
                               float(fields[0]), float(fields[2]), lo, hi)

        def expanding_text(o):
            return (expanding_error(line_values(o, "expanding:") == ["True"],
                                    float(line_values(o, "margin:")[0]), g.expanding[0][1])
                    or (None if line_values(o, "dual agreement:") == ["True"] else "dual agreement"))

        def expanding_json(o):
            j = json.loads(o)
            return (expanding_error(j["expanding"], float(j["margin"]), g.expanding[1][1])
                    or (None if j["dual_agreement"] is True else "dual agreement"))

        def separate(o):
            p = read_back(out["p_out.mat"])
            r = int(line_values(o, "projection rank:")[0])
            stacked = np.stack([(p @ s).reshape(-1) for s in seps])
            return first_bad([(np.allclose(p, p.T, atol=1e-12), "projection not symmetric"),
                              (np.allclose(p @ p, p, atol=1e-9), "projection not idempotent"),
                              (abs(np.trace(p) - r) < 1e-6, "rank is not the trace"),
                              (np.linalg.matrix_rank(stacked) == len(seps), "P T_i dependent")])

        def match_inv(o):
            v = read_back(out["v_out.mat"])
            rx = np.linalg.norm(v @ xs - xt, axis=0)
            ry = np.linalg.norm(np.linalg.solve(v, ys) - yt, axis=0)
            return None if max(rx.max(), ry.max()) < eps else "constraint residual not below eps"

        def rigid(o):
            j = json.loads(o)
            st = j["edge_graph_stats"]
            return rigid_error(j["identity_only"], j["admissible_maps"], float(j["max_norm_bound"]),
                               st["out_degree_min"], st["in_degree_max"], alphas, betas)

        def dichotomy(o):
            j = json.loads(o)
            model = X.Model("pow", p_pow)
            for dim, rho, res in zip(j["dims"], j["rho"], j["constraint_residuals"]):
                lo, hi = X.tower_rho(model, dim, m_tower)
                if not lo * (1 - 1e-12) <= float(rho) <= hi * (1 + 1e-12) or float(res) > 1e-12:
                    return f"rho {rho} at d={dim} outside [{lo!r}, {hi!r}]"
            return None if (j["dims"] == list(self.TOWER_DIMS) and j["model_lacunary"] is False) else "report"

        self.ops = [
            self._op("widths", ["widths", f["a1.mat"]], widths_text),
            self._op("section", ["section", f["a1.mat"], f["y.mat"]],
                     lambda o: interlace_error(floats(line_values(o, "section s-numbers:")), s1, m, tol)),
            self._op("cover-test", ["cover-test", "--t", f["t_plus.mat"], "--e1", f["a1.mat"],
                                    "--e2", f["a2.mat"]], cover_test(0, False)),
            self._op("cover-test --json", ["cover-test", "--json", "--t", f["t_minus.mat"],
                                           "--e1", f["a1.mat"], "--e2", f["a2.mat"]],
                     cover_test(1, True)),
            self._op("cover-make --out", ["cover-make", "--e1", f["a1.mat"], "--e2", f["a2.mat"],
                                          "--out", out["d_out.mat"]], cover_make),
            self._op("cover-make --json", ["cover-make", "--json", "--e1", f["a1.mat"], "--e2", f["a2.mat"]],
                     cover_make_json),
            self._op("solve-xay --out", ["solve-xay", "--a", f["a1.mat"], "--b", f["b.mat"],
                                         "--out-x", out["x_out.mat"], "--out-y", out["y_out.mat"]],
                     solve_xay),
            self._op("solve-xay --json", ["solve-xay", "--json", "--a", f["a1.mat"], "--b", f["b.mat"]],
                     solve_xay_json),
            self._op("factor --out", ["factor", "--b", f["b.mat"], "--out-x", out["fx_out.mat"],
                                      "--out-y", out["fy_out.mat"]], factor),
            self._op("factor --json", ["factor", "--json", "--b", f["b.mat"]], factor_json),
            self._op("range-equiv", ["range-equiv", f["a1.mat"], f["ar.mat"]], range_equiv),
            self._op("expanding --dual-check", ["expanding", "--t", f["te_yes.mat"], "--a", f["a1.mat"],
                                                "--dual-check"], expanding_text),
            self._op("expanding --dual-check --json", ["expanding", "--json", "--t", f["te_no.mat"],
                                                       "--a", f["a1.mat"], "--dual-check"],
                     expanding_json),
            self._op("separate --out", ["separate", f["sep0.mat"], f["sep1.mat"], f["sep2.mat"],
                                        "--out", out["p_out.mat"]], separate),
            self._op("match-inv --out", ["match-inv", "--xs", f["xs.mat"], "--xs-target", f["xt.mat"],
                                         "--ys", f["ys.mat"], "--ys-target", f["yt.mat"],
                                         "--eps", repr(eps), "--out", out["v_out.mat"]], match_inv),
            self._op("rigid --json", ["rigid", "--json", "--spec", f["spec.json"],
                                      "--norm-bound", repr(RIGID_NORM_BOUND)], rigid),
            self._op("dichotomy --json", ["dichotomy", "--json", "--model", f"pow({p_pow!r})",
                                          "--m", str(m_tower), "--dims", ",".join(map(str, self.TOWER_DIMS)),
                                          "--seed", str(seed)], dichotomy),
        ]

    def round_ops(self, traced: bool):
        return self.ops

    def _op(self, name, argv, check) -> Op:
        W = self.W

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = W.cli.run(argv)
            return code, out.getvalue(), err.getvalue()

        def checked(result):
            code, out, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            try:
                return check(out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return f"unreadable output: {exc!r}"

        return Op(f"cli {name}", call, checked)


# ----------------------------------------------------------------------
# cli_cold
# ----------------------------------------------------------------------

class CliCold:
    """Fresh ``python -m widthlab`` processes on tiny inputs with known
    answers.  Traced rounds start ``coldshim.py`` instead, which times the
    imports and records spans inside the child process."""

    name = "cli_cold"
    tail_pct = 70.0

    def __init__(self, W, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.dir = workdir
        self.env = child_env()
        self.span_sets: list[list] = []   # one span list per traced child
        self.startups: list[dict] = []

        diag = [float(v) for v in rng.choice(np.arange(1, 10), size=3, replace=False)]
        signs = [1.0 if s else -1.0 for s in rng.integers(0, 2, 3)]
        write_matrix_file(workdir / "w.mat", [[diag[i] * signs[i] if i == j else 0.0 for j in range(3)]
                                              for i in range(3)])
        s_sorted = sorted(diag, reverse=True)

        e1 = sorted((float(v) for v in rng.choice(np.arange(2, 10), size=2, replace=False)), reverse=True)
        e2 = sorted((float(v) for v in rng.choice(np.arange(1, 10), size=2, replace=False)), reverse=True)
        write_matrix_file(workdir / "e1.mat", [[e1[0], 0.0], [0.0, e1[1]]])
        write_matrix_file(workdir / "e2.mat", [[e2[0], 0.0], [0.0, e2[1]]])
        schmidt = max(e2[0] / e1[0], e2[1] / e1[1])

        base = float(rng.choice([1.5, 2.0, 3.0]))
        gap = int(rng.integers(1, 4))
        q = float(rng.choice([0.25, 0.5, 0.75]))

        alphas = [1.0, 0.5, 0.125]
        betas = sorted(float(b) for b in rng.choice([0.55, 0.6, 0.7, 0.8, 0.9], size=3, replace=False))
        (workdir / "spec.json").write_text(json.dumps({"n": 3, "alphas": alphas, "betas": betas}))

        g = [float(v) for v in rng.choice(np.arange(1, 10), size=2, replace=False)]
        r = [float(v) for v in rng.choice([0.5, 1.5, 2.0, 4.0], size=2, replace=False)]
        write_matrix_file(workdir / "g.mat", [[g[0], 0.0], [0.0, g[1]]])
        write_matrix_file(workdir / "gr.mat", [[g[0] * r[0], 0.0], [0.0, g[1] * r[1]]])

        self.commands = [
            (["widths", str(workdir / "w.mat")],
             lambda o: None if [float(v) for v in line_values(o, "s-numbers:")] == s_sorted
             else f"s-numbers {line_values(o, 's-numbers:')}, expected {s_sorted}"),
            (["cover-make", "--e1", str(workdir / "e1.mat"), "--e2", str(workdir / "e2.mat")],
             lambda o: None if close(float(line_values(o, "norm:")[0]), schmidt, 1e-12)
             else f"norm {line_values(o, 'norm:')}, expected {schmidt!r}"),
            (["classify-wg", "--a", f"supergeom({base!r})", "--b", f"shift({gap}, supergeom({base!r}))"],
             lambda o: None if o.strip() == f"KDim({gap})" else f"{o.strip()!r}, expected KDim({gap})"),
            (["classify-seq", "--model", f"geom({q!r})"],
             lambda o: None if (line_values(o, "lacunary:") == ["False"]
                                and float(line_values(o, "witness ratio:")[0]) == q
                                and line_values(o, "exact:") == ["True"]) else f"{o!r}"),
            (["rigid", "--spec", str(workdir / "spec.json"), "--norm-bound", "10"],
             lambda o: None if (line_values(o, "identity only:") == ["True"]
                                and line_values(o, "admissible maps:") == ["1"]) else f"{o!r}"),
            (["range-equiv", str(workdir / "g.mat"), str(workdir / "gr.mat")],
             lambda o: None if (line_values(o, "same range:") == ["True"]
                                and close(float(line_values(o, "c:")[0]), min(r), 1e-9)
                                and close(float(line_values(o, "c:")[2]), max(r), 1e-9))
             else f"{o!r}, expected c={min(r)} C={max(r)}"),
        ]

    def round_ops(self, traced: bool):
        return [self._op(argv, check, traced) for argv, check in self.commands]

    def warmup_ops(self):
        """Every command imports the same modules, so one process fills the
        file cache for all of them."""
        return self.round_ops(False)[:1]

    def _op(self, argv, check, traced: bool) -> Op:
        span_file = self.dir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "coldshim.py"), str(span_file)] + argv
        else:
            cmd = [sys.executable, "-m", "widthlab"] + argv

        def call():
            env = child_env(time.time()) if traced else self.env
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def checked(result):
            code, out, err = result
            if traced:
                record = json.loads(span_file.read_text())
                self.span_sets.append(record["spans"])
                self.startups.append(record["startup"])
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            try:
                return check(out)
            except (ValueError, IndexError) as exc:
                return f"unreadable output: {exc!r}"

        return Op(f"python -m widthlab {argv[0]}", call, checked)


WORKLOADS = {w.name: w for w in (DenseCertify, ModelStudies, CliFiles, CliCold)}
