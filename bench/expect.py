"""Expected answers computed by the benchmark itself, from closed forms and
hand derivations (see README.md, "Expected verdicts"), never from widthlab.

Parametric width models are described by :class:`Model`:
``a_n = scale * f(n + shift)`` with ``f(m) = q^m`` (geom), ``(m+1)^-p``
(pow) or ``b^(-m^2)`` (supergeom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TAU = 1e-3      # widthlab's documented windowed ratio threshold
WINDOW = 64     # widthlab's documented surrogate window
ORDER = {"pow": 0, "geom": 1, "supergeom": 2}   # decay order, slowest first

EVERYTHING, ALGEBRA_AK, KDIM, EMPTY = "Everything", "AlgebraAK", "KDim", "Empty"


@dataclass(frozen=True)
class Model:
    family: str
    param: float
    shift: int = 0
    scale: float = 1.0

    def log_term(self, n: int) -> float:
        m = n + self.shift
        base = math.log(self.scale)
        if self.family == "geom":
            return base + m * math.log(self.param)
        if self.family == "pow":
            return base - self.param * math.log(m + 1.0)
        return base - m * m * math.log(self.param)

    def term(self, n: int) -> float:
        m = n + self.shift
        if self.family == "geom":
            f = self.param ** m
        elif self.family == "pow":
            f = (m + 1.0) ** (-self.param)
        else:
            f = self.param ** float(-(m * m))
        return self.scale * f

    def text(self, scale_outside: bool) -> str:
        """The model in widthlab's grammar; the two nestings are equivalent."""
        core = f"{self.family}({self.param!r})"
        if scale_outside:
            if self.shift:
                core = f"shift({self.shift}, {core})"
            return f"scale({self.scale!r}, {core})" if self.scale != 1.0 else core
        if self.scale != 1.0:
            core = f"scale({self.scale!r}, {core})"
        return f"shift({self.shift}, {core})" if self.shift else core


def lacunarity(m: Model) -> tuple[bool, float]:
    """(lacunary, inf of a_{n+1}/a_n).

    geom: the ratio is q for every n.  pow: ((k+n+1)/(k+n+2))^p increases
    with n, so its infimum is the n = 0 value ((k+1)/(k+2))^p.
    supergeom: b^-(2(n+k)+1) tends to 0.
    """
    if m.family == "geom":
        return False, m.param
    if m.family == "pow":
        return False, ((m.shift + 1.0) / (m.shift + 2.0)) ** m.param
    return True, 0.0


def majorization(a: Model, b: Model) -> tuple[bool, bool]:
    """(b_n <= C a_n for some C, b_n / a_n -> 0) by decay order, then by
    parameter, then (equal supergeom bases) by shift: with equal base the
    log-ratio is (k_a - k_b)(2n + k_a + k_b) log b."""
    oa, ob = ORDER[a.family], ORDER[b.family]
    if ob != oa:
        return ob > oa, ob > oa
    if a.family == "geom":
        return b.param <= a.param, b.param < a.param
    if a.family == "pow":
        return b.param >= a.param, b.param > a.param
    if b.param != a.param:
        return b.param > a.param, b.param > a.param
    return b.shift >= a.shift, b.shift > a.shift


def ratio_sup(a: Model, b: Model, horizon: int = 400) -> float:
    """sup_n b_n / a_n for a bounded pair.

    Same family and parameter: the ratio is constant (geom, or equal
    shifts), decreasing from n = 0 (pow with k_a > k_b, supergeom with
    k_a < k_b), or, for pow with k_a < k_b, increasing to its limit
    scale_b / scale_a.  Every other bounded pair has a ratio that decreases
    or rises to one vertex and then decreases, with the vertex far below
    ``horizon`` for the parameters the benchmark draws, so a scan over
    n < horizon finds the supremum.
    """
    def log_ratio(n):
        return b.log_term(n) - a.log_term(n)

    if a.family == b.family and a.param == b.param:
        if a.family == "pow" and a.shift < b.shift:
            return b.scale / a.scale
        return math.exp(log_ratio(0))
    logs = [log_ratio(n) for n in range(horizon)]
    if logs[-1] > logs[-2]:
        raise RuntimeError(f"ratio of {b} to {a} still rising at n={horizon}")
    return math.exp(max(logs))


def classify(a: Model, b: Model, strict: bool) -> tuple[str, int | None]:
    """Closure of the covering set (WG) or its compact variant (WCG).

    Empty unless ``a`` (strictly) majorizes ``b``.  Only equal-base
    supergeom pairs are shift-sensitive: shifting ``a`` by j turns the
    log-ratio into (k_a + j - k_b)(...), bounded iff j <= k_b - k_a and
    tending to 0 iff j < k_b - k_a.  So the largest majorizing shift is
    k_b - k_a (WG) or k_b - k_a - 1 (WCG); zero with equal shape (same
    base and shift, any scale) is the invariant-span algebra.  For every
    other pair all shifts keep the verdict: Everything.
    """
    holds, to_zero = majorization(a, b)
    if not (to_zero if strict else holds):
        return EMPTY, None
    if a.family == b.family == "supergeom" and a.param == b.param:
        k = b.shift - a.shift - (1 if strict else 0)
        if k == 0 and a.shift == b.shift:
            return ALGEBRA_AK, None
        return KDIM, k
    return EVERYTHING, None


def classify_we(m: Model, kernel_trivial: bool) -> str:
    lacunary, _ = lacunarity(m)
    return ALGEBRA_AK if lacunary and not kernel_trivial else EVERYTHING


def weakly_full(m: Model, codim) -> tuple[bool, str]:
    if not math.isinf(codim):
        return True, "finite-codimension"
    if lacunarity(m)[0]:
        return True, "infinite-codimension-lacunary"
    return False, "infinite-codimension-non-lacunary"


# ----------------------------------------------------------------------
# Sampled (finite) models: the documented windowed surrogates
# ----------------------------------------------------------------------

def samples_lacunarity(values) -> tuple[bool, float]:
    n = min(WINDOW, len(values) - 1)
    worst = min(values[i + 1] / values[i] for i in range(n))
    return worst < TAU, worst


def samples_ratios(a, b, shift: int = 0) -> list[float]:
    a = a[shift:]
    n = min(WINDOW, len(a), len(b))
    return [b[i] / a[i] for i in range(n)]


def samples_strict(a, b, shift: int = 0) -> bool:
    """Trend test: the ratio maximum over the last quarter of the window
    is at most tau times the window maximum."""
    r = samples_ratios(a, b, shift)
    tail = r[-max(1, len(r) // 4):]
    return max(tail) <= TAU * max(r)


def samples_classify(a, b, strict: bool, k_max: int) -> tuple[str, int | None]:
    """Windowed classification: test shifts 1..k_max of ``a`` in turn.

    Windowed majorization always holds, so WG reaches Everything; WCG stops
    at the first shift failing the trend test.
    """
    def holds(k):
        return samples_strict(a, b, k) if strict else True

    if not holds(0):
        return EMPTY, None
    last = 0
    for k in range(1, k_max + 1):
        if k >= len(a):
            break
        if not holds(k):
            same = len(a) == len(b) and all(
                abs(y - (b[0] / a[0]) * x) <= 1e-12 * (b[0] / a[0]) * x for x, y in zip(a, b))
            if last == 0 and same:
                return ALGEBRA_AK, None
            return KDIM, last
        last = k
    return EVERYTHING, None


# ----------------------------------------------------------------------
# Dimension towers and the rigid compact
# ----------------------------------------------------------------------

def tower_rho(m: Model, dim: int, constraints: int) -> tuple[float, float]:
    """Closed form (or two-sided bounds) for the constrained-cover yield.

    With t_n the model terms, removing m axes among the first d - m leaves
    a section whose n-th s-number is t_{n + k(n)}, 0 <= k(n) <= m, with
    k = m at the last index n = d - m - 1 (the top d - m - 1 terms survive
    past every removed axis).  rho = min_n t_{n+k(n)} / t_n.
      geom:      every ratio is q^k(n) >= q^m, reached at the last n: q^m.
      supergeom: t_{n+m}/t_n decreases in n, so the last n gives the
                 minimum: b^(-m(2d - m - 2)).
      pow:       depends on which axes were drawn; t_{n+m}/t_n increases in
                 n, so (1/(m+1))^p <= rho <= ((d-m)/d)^p.
    Returns (low, high); equal for the closed forms.
    """
    d, k = dim, constraints
    if m.family == "geom":
        v = m.param ** k
        return v, v
    if m.family == "supergeom":
        v = m.param ** float(-k * (2 * d - k - 2))
        return v, v
    return (1.0 / (k + 1)) ** m.param, ((d - k) / d) ** m.param


def rigid_threshold(alphas, betas) -> float:
    """max_k alpha_k / alpha_{k+1} times the smallest beta gap."""
    if len(alphas) < 2:
        return 1.0
    ratio = max(alphas[k] / alphas[k + 1] for k in range(len(alphas) - 1))
    gap = min(abs(x - y) for i, x in enumerate(betas) for y in betas[i + 1:])
    return ratio * gap
