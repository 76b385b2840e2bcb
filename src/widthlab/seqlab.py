"""Width-sequence models and the asymptotic predicates built on them.

Supported models are finite ``Samples`` and three parametric families:
``Geometric(q)`` with ``a_n = q^n``, ``Power(p)`` with ``a_n = (n+1)^-p``
and ``SuperGeometric(b)`` with ``a_n = b^(-n^2)``, plus ``Shifted`` and
``Scaled`` wrappers.

Asymptotic predicates (lacunarity, majorization, strict majorization, and
the one shift classifier, :func:`shift_search`) are undecidable from finite
data, so every predicate has two branches: an exact branch driven by
closed-form ratio analysis of the parametric families, and a surrogate over
the first ``DEFAULT_WINDOW`` terms for ``Samples``, whose verdict carries
``exact=False`` and the number of terms examined.

The closure classifications that read only the width sequences (``WG``,
``WCG``, weak fullness and ``WE``, the closure of the expanding set) live
here too.  The module imports no numpy;
only a ``spectrum(file)`` model loads the matrix modules, and numpy with them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import InputError, check_integer, check_positive

__all__ = [
    "SequenceModel",
    "Samples",
    "Geometric",
    "Power",
    "SuperGeometric",
    "Shifted",
    "Scaled",
    "MajorizationVerdict",
    "LacunarityVerdict",
    "ShiftSearch",
    "sample",
    "is_lacunary",
    "majorizes",
    "strictly_majorizes",
    "shift_search",
    "equivalent",
    "parse_model",
    "DEFAULT_WINDOW",
    "RATIO_THRESHOLD",
    "MIN_TERM",
    "EVERYTHING",
    "ALGEBRA_AK",
    "KDIM",
    "EMPTY",
    "ClassificationVerdict",
    "WeakFullnessVerdict",
    "classify_WG",
    "classify_WCG",
    "is_weakly_full",
    "classify_WE",
]

DEFAULT_WINDOW = 64          # terms examined by the windowed surrogates
RATIO_THRESHOLD = 1e-3       # consecutive-ratio threshold of the windowed surrogates
MIN_TERM = 1e-300            # terms below this are refused, never flushed to 0


class SequenceModel:
    """A nonincreasing positive sequence, sampled lazily by index."""

    def term(self, i: int) -> float:
        raise NotImplementedError

    def terms_available(self) -> int | None:
        """Number of defined terms, or None when unbounded."""
        return None


@dataclass(frozen=True)
class Samples(SequenceModel):
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InputError("samples model needs at least one term")
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise InputError("samples must be finite and positive")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise InputError("samples must be nonincreasing")

    def term(self, i: int) -> float:
        if i >= len(self.values):
            raise InputError(f"samples model has only {len(self.values)} terms, index {i} requested")
        return self.values[i]

    def terms_available(self) -> int | None:
        return len(self.values)


@dataclass(frozen=True)
class Geometric(SequenceModel):
    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise InputError(f"geometric ratio must lie in (0, 1), got {self.q}")

    def term(self, i: int) -> float:
        return _checked_term(self.q ** i, self, i)


@dataclass(frozen=True)
class Power(SequenceModel):
    p: float

    def __post_init__(self):
        check_positive(self.p, "power exponent")

    def term(self, i: int) -> float:
        return _checked_term((i + 1.0) ** (-self.p), self, i)


@dataclass(frozen=True)
class SuperGeometric(SequenceModel):
    b: float

    def __post_init__(self):
        if not 1.0 < self.b < math.inf:
            raise InputError(f"super-geometric base must lie in (1, inf), got {self.b}")

    def term(self, i: int) -> float:
        return _checked_term(self.b ** float(-(i * i)), self, i)


@dataclass(frozen=True)
class Shifted(SequenceModel):
    k: int
    inner: SequenceModel

    def __post_init__(self):
        check_integer(self.k, 0, "shift must be a nonnegative integer, got {}")
        object.__setattr__(self, "k", int(self.k))

    def term(self, i: int) -> float:
        return self.inner.term(i + self.k)

    def terms_available(self) -> int | None:
        n = self.inner.terms_available()
        return None if n is None else max(n - self.k, 0)


@dataclass(frozen=True)
class Scaled(SequenceModel):
    c: float
    inner: SequenceModel

    def __post_init__(self):
        check_positive(self.c, "scale")

    def term(self, i: int) -> float:
        return self.c * self.inner.term(i)

    def terms_available(self) -> int | None:
        return self.inner.terms_available()


def _checked_term(value: float, model: SequenceModel, i: int) -> float:
    if value < MIN_TERM:
        raise InputError(f"{model!r}: term {i} falls below {MIN_TERM:g} (positive underflow refused)")
    return value


def sample(model: SequenceModel, n: int) -> list[float]:
    """First ``n`` terms ``a_0 .. a_{n-1}``."""
    check_integer(n, 1, "sample length must be at least 1, got {}")
    return [model.term(i) for i in range(n)]


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MajorizationVerdict:
    """Does ``a`` majorize ``b`` (b_n <= C a_n for a uniform C)?

    ``constant`` is the minimal C on the exact branch and the observed
    window maximum of ``b_n / a_n`` otherwise; ``window`` counts the terms
    examined (None on the exact branch).  A minimal C below the double
    range is rounded up to the smallest subnormal, ``math.ulp(0.0)``, so
    ``b_n <= C a_n`` stays true; one above it reads as infinite.
    """

    holds: bool
    constant: float | None
    window: int | None
    exact: bool


@dataclass(frozen=True)
class LacunarityVerdict:
    """Is ``liminf a_{n+1}/a_n = 0``?  ``witness_ratio`` is the smallest
    derived (exact branch) or observed (windowed branch) consecutive ratio;
    a positive derived ratio below the double range reads as ``math.ulp(0.0)``."""

    lacunary: bool
    witness_ratio: float
    exact: bool


@dataclass(frozen=True)
class ShiftSearch:
    """Outcome of :func:`shift_search`; a closed-form ``k`` may exceed the budget."""

    base: MajorizationVerdict  # unshifted pair; base.exact marks the closed form
    k: int | None              # largest (strictly) majorizing shift; None if all held or base failed
    exhausted_at: int          # the budget, or the last shift tested if terms ran out
    same_shape: bool           # a and b agree up to a positive scale


# ----------------------------------------------------------------------
# Canonical forms and exact ratio analysis
# ----------------------------------------------------------------------

_GEOM, _POW, _SUPER, _SAMPLES = "geom", "pow", "supergeom", "samples"
_DECAY_ORDER = {_POW: 0, _GEOM: 1, _SUPER: 2}


@dataclass(frozen=True)
class _Canon:
    kind: str
    log_scale: float
    param: float | None
    offset: int
    values: tuple | None = None

    def log_term(self, n: int) -> float:
        """Log of term ``n`` of a parametric canon."""
        base = self.log_scale
        m = n + self.offset
        if self.kind == _GEOM:
            return base + m * math.log(self.param)
        if self.kind == _POW:
            return base - self.param * math.log(m + 1.0)
        return base - (m * m) * math.log(self.param)


def _canon(model: SequenceModel) -> _Canon:
    if isinstance(model, Samples):
        return _Canon(_SAMPLES, 0.0, None, 0, model.values)
    if isinstance(model, Geometric):
        return _Canon(_GEOM, 0.0, model.q, 0)
    if isinstance(model, Power):
        return _Canon(_POW, 0.0, model.p, 0)
    if isinstance(model, SuperGeometric):
        return _Canon(_SUPER, 0.0, model.b, 0)
    if isinstance(model, Shifted):
        c = _canon(model.inner)
        if c.kind == _SAMPLES:
            if model.k >= len(c.values):
                raise InputError(f"shift {model.k} exhausts a {len(c.values)}-term samples model")
            return _Canon(_SAMPLES, 0.0, None, 0, c.values[model.k:])
        if c.kind == _GEOM:
            # a shift of a geometric sequence is the same sequence rescaled
            return _Canon(_GEOM, c.log_scale + model.k * math.log(c.param), c.param, 0)
        return _Canon(c.kind, c.log_scale, c.param, c.offset + model.k)
    if isinstance(model, Scaled):
        c = _canon(model.inner)
        if c.kind == _SAMPLES:
            values = tuple(model.c * v for v in c.values)
            _check_double_range(values, model)
            return _Canon(_SAMPLES, 0.0, None, 0, values)
        return _Canon(c.kind, c.log_scale + math.log(model.c), c.param, c.offset)
    raise InputError(f"unknown sequence model {model!r}")


_SHAPE_RTOL = 1e-12  # relative tolerance of each term in _same_shape


def _same_shape(a: _Canon, b: _Canon) -> bool:
    """Equality up to a positive scale (scaling never changes a verdict)."""
    if a.kind != b.kind:
        return False
    if a.kind == _SAMPLES:
        if len(a.values) != len(b.values):
            return False
        r = b.values[0] / a.values[0]
        return all(abs(y - r * x) <= _SHAPE_RTOL * r * x for x, y in zip(a.values, b.values))
    return a.param == b.param and a.offset == b.offset


@dataclass(frozen=True)
class _RatioProfile:
    bounded: bool
    to_zero: bool
    sup: float | None


def _exp_clamped(x: float) -> float:
    """``exp(x)``, read as infinite where it would overflow and as the
    smallest subnormal where it would underflow to 0, never below ``exp(x)``."""
    return max(math.exp(x), math.ulp(0.0)) if x < 700.0 else math.inf


def _profile(a: _Canon, b: _Canon) -> _RatioProfile:
    """Exact behaviour of ``r_n = b_n / a_n`` for parametric models.

    In every bounded case the log-ratio's derivative changes sign at most
    once (+ to -), so the supremum sits at n = 0 or at the analytic vertex;
    we evaluate the integer candidates around it.
    """
    def lr(n: int) -> float:
        return b.log_term(n) - a.log_term(n)

    def sup_at(candidates) -> float:
        ns = sorted({max(0, int(c)) for c in candidates})
        return _exp_clamped(max(lr(n) for n in ns))

    def around(v: float):
        if not math.isfinite(v):
            return (0,)
        return (0, math.floor(v) - 1, math.floor(v), math.ceil(v), math.ceil(v) + 1)

    oa, ob = _DECAY_ORDER[a.kind], _DECAY_ORDER[b.kind]
    if ob < oa:
        return _RatioProfile(False, False, None)
    if ob > oa:
        # b decays strictly faster than every shift of a
        if a.kind == _POW and b.kind == _GEOM:
            vertex = -a.param / math.log(b.param) - (a.offset + 1)
        elif a.kind == _POW and b.kind == _SUPER:
            lb = math.log(b.param)
            bb = b.offset + a.offset + 1
            cc = b.offset * (a.offset + 1) - a.param / (2 * lb)
            disc = bb * bb - 4 * cc
            vertex = (-bb + math.sqrt(disc)) / 2 if disc >= 0 else 0.0
        else:  # a geometric, b super-geometric
            vertex = -math.log(a.param) / (2 * math.log(b.param)) - b.offset
        return _RatioProfile(True, True, sup_at(around(vertex)))

    if a.kind == _GEOM:
        slope = math.log(b.param) - math.log(a.param)
        if slope > 0:
            return _RatioProfile(False, False, None)
        return _RatioProfile(True, slope < 0, sup_at((0,)))

    if a.kind == _POW:
        if b.param < a.param:
            return _RatioProfile(False, False, None)
        if b.param > a.param:
            vertex = (b.param * (a.offset + 1) - a.param * (b.offset + 1)) / (a.param - b.param)
            return _RatioProfile(True, True, sup_at(around(vertex)))
        if a.offset >= b.offset:
            return _RatioProfile(True, False, sup_at((0,)))
        # ratio increases toward its limit scale_b / scale_a
        return _RatioProfile(True, False, _exp_clamped(b.log_scale - a.log_scale))

    # both super-geometric
    la, lb = math.log(a.param), math.log(b.param)
    lead = la - lb
    if lead > 0:
        return _RatioProfile(False, False, None)
    if lead < 0:
        vertex = (b.offset * lb - a.offset * la) / (la - lb)
        return _RatioProfile(True, True, sup_at(around(vertex)))
    if a.offset > b.offset:
        return _RatioProfile(False, False, None)
    if a.offset < b.offset:
        return _RatioProfile(True, True, sup_at((0,)))
    return _RatioProfile(True, False, sup_at((0,)))


# ----------------------------------------------------------------------
# Windowed surrogates
# ----------------------------------------------------------------------

def _window_ratios(a: SequenceModel, b: SequenceModel) -> list[float]:
    """``b_n / a_n`` over the first ``DEFAULT_WINDOW`` terms both models define."""
    avail = [m.terms_available() for m in (a, b)]
    n = min([DEFAULT_WINDOW] + [t for t in avail if t is not None])
    if n < 1:
        raise InputError("no overlapping terms to compare")
    av, bv = sample(a, n), sample(b, n)
    _check_double_range(av, a)
    _check_double_range(bv, b)
    return [y / x for x, y in zip(av, bv)]


def _check_double_range(values, model: SequenceModel) -> None:
    """Refuse terms out of (0, inf), where ratios turn nan; nonincreasing
    terms are bounded by the first and the last."""
    if not (values[-1] > 0.0 and values[0] < math.inf):
        raise InputError(f"{model!r}: a term leaves the double range (0 or infinite terms refused)")


# ----------------------------------------------------------------------
# Public predicates
# ----------------------------------------------------------------------

def is_lacunary(model: SequenceModel) -> LacunarityVerdict:
    """Exact for parametric families; for samples, the smallest of the
    first ``DEFAULT_WINDOW`` consecutive ratios against ``RATIO_THRESHOLD``."""
    c = _canon(model)
    if c.kind == _GEOM:
        return LacunarityVerdict(False, c.param, True)
    if c.kind == _POW:
        o = c.offset
        # positive, so an underflow is rounded up as in _exp_clamped
        worst = max(((o + 1.0) / (o + 2.0)) ** c.param, math.ulp(0.0))
        return LacunarityVerdict(False, worst, True)
    if c.kind == _SUPER:
        return LacunarityVerdict(True, 0.0, True)
    vals = c.values
    n = min(DEFAULT_WINDOW, len(vals) - 1)
    if n < 1:
        raise InputError("lacunarity scan needs at least two sample terms")
    ratios = [vals[i + 1] / vals[i] for i in range(n)]
    worst = min(ratios)
    return LacunarityVerdict(worst < RATIO_THRESHOLD, worst, False)


def majorizes(a: SequenceModel, b: SequenceModel) -> MajorizationVerdict:
    """Is there a uniform C with ``b_n <= C a_n``?

    Exact (with minimal C) for parametric pairs.  When samples are involved
    any finite window is trivially bounded, so the verdict holds with the
    observed C and ``exact=False``.
    """
    return _compare(a, b, strict=False)


def strictly_majorizes(a: SequenceModel, b: SequenceModel) -> MajorizationVerdict:
    """Does ``b_n / a_n`` tend to zero?

    Exact for parametric pairs.  The samples surrogate is a trend test: the
    ratio maximum over the last quarter of the window must fall below
    ``RATIO_THRESHOLD`` times the window maximum.
    """
    return _compare(a, b, strict=True)


def _compare(a: SequenceModel, b: SequenceModel, strict: bool) -> MajorizationVerdict:
    """:func:`strictly_majorizes` if ``strict``, else :func:`majorizes`."""
    ca, cb = _canon(a), _canon(b)
    if ca.kind != _SAMPLES and cb.kind != _SAMPLES:
        prof = _profile(ca, cb)
        return MajorizationVerdict(prof.to_zero if strict else prof.bounded, prof.sup, None, True)
    ratios = _window_ratios(a, b)
    top = max(ratios)
    holds = not strict or max(ratios[-max(1, len(ratios) // 4):]) <= RATIO_THRESHOLD * top
    return MajorizationVerdict(bool(holds), float(top), len(ratios), False)


def shift_search(a: SequenceModel, b: SequenceModel, k_max: int,
                 strict: bool = False) -> ShiftSearch:
    """Largest left shift of ``a`` that still (strictly) majorizes ``b``.

    Parametric pairs are answered in closed form: only the equal-base
    super-geometric pair is shift-sensitive, every other family combination
    keeps its (strict) majorization under arbitrary shifts of ``a``.
    Otherwise shifts ``1 .. k_max`` are tested in turn with the windowed
    surrogate, stopping at the first that fails.
    """
    check_integer(k_max, 0, "shift budget must be nonnegative, got {}")
    base = _compare(a, b, strict)
    if not base.holds:
        return ShiftSearch(base, None, k_max, False)
    ca, cb = _canon(a), _canon(b)
    same = _same_shape(ca, cb)
    if base.exact:
        k = None
        if ca.kind == _SUPER and cb.kind == _SUPER and ca.param == cb.param:
            k = cb.offset - ca.offset - (1 if strict else 0)
        return ShiftSearch(base, k, k_max, same)
    for k in range(1, k_max + 1):
        try:
            holds = _compare(Shifted(k, a), b, strict).holds
        except InputError:
            # shift exhausted a finite samples model: every testable shift held
            return ShiftSearch(base, None, k - 1, same)
        if not holds:
            return ShiftSearch(base, k - 1, k_max, same)
    return ShiftSearch(base, None, k_max, same)


def equivalent(a: SequenceModel, b: SequenceModel) -> bool:
    """True iff each sequence majorizes the other."""
    return majorizes(a, b).holds and majorizes(b, a).holds


# ----------------------------------------------------------------------
# Closure classifications read off the width sequences
# ----------------------------------------------------------------------

EVERYTHING = "Everything"
ALGEBRA_AK = "AlgebraAK"
KDIM = "KDim"
EMPTY = "Empty"
_TAGS = frozenset({EVERYTHING, ALGEBRA_AK, KDIM, EMPTY})


@dataclass(frozen=True)
class ClassificationVerdict:
    """Closure classification: everything, an invariant-subspace algebra,
    a k-dimensional quotient condition, or empty."""

    tag: str
    k: int | None = None
    exact: bool = True
    note: str = ""

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InputError(f"unknown classification tag {self.tag!r}")
        if (self.tag == KDIM) != (self.k is not None):
            raise InputError("k must be supplied exactly for KDim verdicts")


CASE_FINITE_CODIM = "finite-codimension"
CASE_NON_LACUNARY = "infinite-codimension-non-lacunary"
CASE_LACUNARY = "infinite-codimension-lacunary"


@dataclass(frozen=True)
class WeakFullnessVerdict:
    """Weak fullness of the algebra preserving an operator range."""

    weakly_full: bool
    case: str
    lacunarity: LacunarityVerdict


def classify_WG(a: SequenceModel, b: SequenceModel, k_max: int = 16) -> ClassificationVerdict:
    """Classify the closure of ``{T : T K1 ⊇ K2}`` from the width sequences.

    Empty when ``a`` fails to majorize ``b``; Everything when every left
    shift of ``a`` still majorizes ``b``; otherwise the largest majorizing
    shift ``k`` bounds the quotient image dimension.  The one-ellipsoid case
    (equal sequences up to scale) turns ``k = 0`` into the invariant-span
    algebra: Everything for non-lacunary sequences, AlgebraAK for lacunary
    ones.

    ``k_max`` is the search budget for sampled models and must be
    nonnegative on either branch; on the exact parametric branch the shift
    gap is derived in closed form and the reported ``k`` may exceed it.
    """
    return _classify(a, b, k_max, strict=False)


def classify_WCG(a: SequenceModel, b: SequenceModel, k_max: int = 16) -> ClassificationVerdict:
    """Compact-operator variant: strict majorization replaces majorization."""
    return _classify(a, b, k_max, strict=True)


def _classify(a, b, k_max, strict) -> ClassificationVerdict:
    found = shift_search(a, b, k_max, strict=strict)
    exact = found.base.exact
    if not found.base.holds:
        return ClassificationVerdict(EMPTY, exact=exact)
    if found.k is None:
        note = "" if exact else f"every tested shift up to {found.exhausted_at} passed"
        return ClassificationVerdict(EVERYTHING, exact=exact, note=note)
    if found.k == 0 and found.same_shape:
        return ClassificationVerdict(ALGEBRA_AK, exact=exact)
    return ClassificationVerdict(KDIM, k=found.k, exact=exact)


def is_weakly_full(model: SequenceModel, closure_codim) -> WeakFullnessVerdict:
    """Weak fullness of the algebra preserving an operator range.

    ``closure_codim`` is the codimension of the range closure: any finite
    value gives weak fullness outright; at infinite codimension the verdict
    follows lacunarity of the width sequence (lacunary: weakly full,
    non-lacunary: not).
    """
    lac = is_lacunary(model)
    if isinstance(closure_codim, float) and closure_codim == math.inf:
        if lac.lacunary:
            return WeakFullnessVerdict(True, CASE_LACUNARY, lac)
        return WeakFullnessVerdict(False, CASE_NON_LACUNARY, lac)
    check_integer(closure_codim, 0, "codimension must be nonnegative, got {}")
    return WeakFullnessVerdict(True, CASE_FINITE_CODIM, lac)


def classify_WE(model: SequenceModel, kernel_trivial: bool) -> ClassificationVerdict:
    """Closure of the expanding set, from the s-number model of ``A``.

    Non-lacunary s-numbers give everything; lacunary ones give the algebra
    of operators that leave ``ker A`` invariant, which collapses back to
    everything when the kernel is trivial.
    """
    lac = is_lacunary(model)
    if not lac.lacunary:
        return ClassificationVerdict(EVERYTHING, exact=lac.exact)
    if kernel_trivial:
        return ClassificationVerdict(
            EVERYTHING, exact=lac.exact,
            note="lacunary, but a trivial kernel collapses the invariance condition",
        )
    return ClassificationVerdict(
        ALGEBRA_AK, exact=lac.exact, note="operators preserving ker A"
    )


# ----------------------------------------------------------------------
# Model grammar
# ----------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]+")


class _Parser:
    """Recursive-descent parser for the model grammar, whitespace-insensitive.

    grammar: geom(q) | pow(p) | supergeom(b) | shift(k, M) | scale(c, M)
             | samples(v1, v2, ...) | spectrum(path.mat)
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise InputError(f"sequence model: position {self.pos}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a number")
        self.pos = m.end()
        return float(m.group(0))

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.error("expected a model name")
        self.pos = m.end()
        return m.group(0)

    def path(self) -> str:
        self.skip_ws()
        end = self.text.find(")", self.pos)
        if end < 0:
            self.error("unterminated spectrum(...) path")
        raw = self.text[self.pos:end].strip()
        if not raw:
            self.error("empty path in spectrum(...)")
        self.pos = end
        return raw

    def model(self) -> SequenceModel:
        kind = self.name().lower()
        self.expect("(")
        if kind == "geom":
            m = Geometric(self.number())
        elif kind == "pow":
            m = Power(self.number())
        elif kind == "supergeom":
            m = SuperGeometric(self.number())
        elif kind == "shift":
            k = self.number()
            if not k.is_integer():
                self.error("shift count must be an integer")
            self.expect(",")
            m = Shifted(int(k), self.model())
        elif kind == "scale":
            c = self.number()
            self.expect(",")
            m = Scaled(c, self.model())
        elif kind == "samples":
            vals = [self.number()]
            self.skip_ws()
            while self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                vals.append(self.number())
            m = Samples(tuple(vals))
        elif kind == "spectrum":
            m = _spectrum_model(self.path())
        else:
            self.error(f"unknown model {kind!r}")
        self.expect(")")
        return m


def _spectrum_model(path: str) -> Samples:
    from .matrixio import read_matrix
    from .spectra import singular_spectrum

    spec = singular_spectrum(read_matrix(path))
    if spec.rank == 0:
        raise InputError(f"{path}: matrix has no nonzero singular values")
    return Samples(tuple(spec.values[: spec.rank]))


def parse_model(text: str) -> SequenceModel:
    """Parse a model expression such as ``shift(1, geom(0.5))``."""
    parser = _Parser(text)
    model = parser.model()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after model expression")
    return model
