"""widthlab: a desk-scale numerical laboratory for Kolmogorov widths,
ellipsoid covering, bilinear operator equations and expanding operators.

Everything runs on finite-dimensional truncations with explicit tolerances;
asymptotic statements are exposed through exact closed-form classifiers for
parametric width-sequence models and through windowed surrogates (flagged
``exact=False``) for sampled data.

``import widthlab`` loads no layer module: each sits in ``sys.modules``
behind ``importlib.util.LazyLoader`` and runs on its first attribute access,
and the public names below are fetched from their modules on first use.
A sequence-model classification therefore never loads numpy.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# module -> the public names served from it, each from its one home module
_EXPORTS = {
    "covering": (
        "MARGIN_BAND", "CoverCertificate", "DichotomyReport", "RangeEquivalence", "covers",
        "find_separating_projection", "prescribed_cover", "range_equiv", "schmidt_cover",
        "wot_density_experiment",
    ),
    "equations": (
        "MatchCertificate", "SolutionPair", "SolvabilityVerdict", "approx_factorization",
        "factor_pair", "first_component_member", "match_invertible", "solve_xay", "xay_solvable",
    ),
    "errors": (
        "PSD_TOL", "InfeasibleError", "InputError", "NotCoverableError", "UnsolvableError",
        "WidthlabError",
    ),
    "expanding": ("ExpandVerdict", "expanding_dual_check", "is_expanding"),
    "matrixio": ("format_matrix", "parse_matrix", "read_matrix", "write_matrix"),
    "rigid": (
        "CoverSearchReport", "EdgeGraphStats", "RigidCompactSpec", "build_rigid_compact",
        "rigid_cover_search",
    ),
    "seqlab": (
        "DEFAULT_WINDOW", "MIN_TERM", "RATIO_THRESHOLD", "Geometric", "LacunarityVerdict",
        "MajorizationVerdict", "Power", "Samples", "Scaled", "SequenceModel", "Shifted",
        "SuperGeometric", "equivalent", "is_lacunary", "majorizes", "parse_model", "sample",
        "strictly_majorizes",
        "ALGEBRA_AK", "EMPTY", "EVERYTHING", "KDIM", "ClassificationVerdict",
        "WeakFullnessVerdict", "classify_WCG", "classify_WE", "classify_WG", "is_weakly_full",
    ),
    "spectra": (
        "RANK_RCOND", "Ellipsoid", "SingularSpectrum", "WidthSequence", "ellipsoid",
        "ellipsoid_membership", "kolmogorov_widths", "scale_ellipsoid", "section_spectrum",
        "singular_spectrum", "truncate_ellipsoid",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the public modules are package attributes too, as after an eager import
__all__ = [*_EXPORTS, *_HOME]


def _lazy(layer: str):
    """Register ``widthlab.<layer>`` in ``sys.modules``; its code runs on
    the first attribute access (``from . import layer`` is not one)."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in ("_linalg", "matrixio", "spectra", "seqlab", "covering", "equations", "expanding", "rigid"):
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
