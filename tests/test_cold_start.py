"""Cold start: ``import widthlab`` loads no layer module, each command loads
only what it runs, and the lazy modules still look eager to code that
inspects them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import widthlab
from widthlab import write_matrix

SRC = str(Path(widthlab.__file__).resolve().parent.parent)

LAYERS = ("matrixio", "spectra", "seqlab", "covering", "equations", "expanding", "rigid", "_linalg")

# Every name the package bound when it imported its modules eagerly, less
# the deleted rigid size cap MAX_TRUNCATION and the shift classifier that
# shift_search replaced (max_majorizing_shift, ShiftClassification and its
# ClassificationError).
EAGER_NAMES = {
    "covering", "equations", "errors", "expanding", "matrixio", "rigid", "seqlab", "spectra",
    "ALGEBRA_AK", "EMPTY", "EVERYTHING", "KDIM", "MARGIN_BAND", "PSD_TOL",
    "ClassificationVerdict", "CoverCertificate", "DichotomyReport", "RangeEquivalence",
    "WeakFullnessVerdict", "classify_WCG", "classify_WG", "covers", "find_separating_projection",
    "is_weakly_full", "prescribed_cover", "range_equiv", "schmidt_cover", "wot_density_experiment",
    "MatchCertificate", "SolutionPair", "SolvabilityVerdict", "approx_factorization", "factor_pair",
    "first_component_member", "match_invertible", "solve_xay", "xay_solvable",
    "InfeasibleError", "InputError", "NotCoverableError", "UnsolvableError",
    "WidthlabError",
    "ExpandVerdict", "classify_WE", "expanding_dual_check", "is_expanding",
    "format_matrix", "parse_matrix", "read_matrix", "write_matrix",
    "CoverSearchReport", "EdgeGraphStats", "RigidCompactSpec", "build_rigid_compact",
    "rigid_cover_search",
    "DEFAULT_WINDOW", "MIN_TERM", "RATIO_THRESHOLD", "Geometric", "LacunarityVerdict",
    "MajorizationVerdict", "Power", "Samples", "Scaled", "SequenceModel",
    "Shifted", "SuperGeometric", "equivalent", "is_lacunary", "majorizes",
    "parse_model", "sample", "strictly_majorizes",
    "RANK_RCOND", "Ellipsoid", "SingularSpectrum", "WidthSequence", "ellipsoid",
    "ellipsoid_membership", "kolmogorov_widths", "scale_ellipsoid", "section_spectrum",
    "singular_spectrum", "truncate_ellipsoid",
}

# Runs `python -m widthlab ARGS`, then reports on stderr whether numpy was loaded.
NUMPY_PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr))
runpy.run_module("widthlab", run_name="__main__", alter_sys=True)
"""


def fresh_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cold")
    write_matrix(d / "A.mat", np.diag([3.0, 2.0, 1.0]))
    (d / "spec.json").write_text(json.dumps({"n": 3, "alphas": [1.0, 0.5, 0.125],
                                             "betas": [0.6, 0.7, 0.8]}))
    return d


COMMANDS = {
    "classify-seq-samples": ["classify-seq", "--model", "samples(1, 1e-5, 1e-6)"],
    "classify-seq-json": ["classify-seq", "--model", "geom(0.5)", "--json"],
    "classify-wg": ["classify-wg", "--a", "supergeom(2)", "--b", "shift(1, supergeom(2))"],
    "classify-wg-samples": ["classify-wg", "--a", "samples(1, 0.5, 0.25)", "--b",
                            "samples(1, 0.5, 0.2)", "--json"],
    "classify-wcg": ["classify-wcg", "--a", "pow(1)", "--b", "geom(0.5)", "--json"],
    "weakly-full-inf": ["weakly-full", "--model", "supergeom(2)", "--codim", "inf"],
    "weakly-full-finite": ["weakly-full", "--model", "geom(0.5)", "--codim", "3", "--json"],
    "classify-we": ["classify-we", "--model", "supergeom(2)"],
    "rigid": ["rigid", "--spec", "spec.json", "--norm-bound", "10", "--json"],
}


@pytest.mark.parametrize("argv, numpy_loaded",
                         [(argv, False) for argv in COMMANDS.values()] + [(["widths", "A.mat"], True)],
                         ids=[*COMMANDS, "widths"])
def test_commands_load_numpy_only_for_matrices(files, argv, numpy_loaded):
    proc = fresh_python(["-c", NUMPY_PROBE, *argv], files)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"numpy loaded: {numpy_loaded}\n"


# After the imports a tracer makes, which wraps each layer's functions
# through vars(): every layer is registered, and vars() loads it.  The
# package's sequence-model names come from modules that need no numpy.
IMPORT_CONTRACT = """\
import inspect, json, sys
import widthlab, widthlab.cli
report = {"numpy_at_import": "numpy" in sys.modules,
          "registered": [layer for layer in %r if f"widthlab.{layer}" in sys.modules]}
from widthlab import PSD_TOL, classify_WE, classify_WG, is_weakly_full, parse_model, rigid_cover_search
report["numpy_after_model_names"] = "numpy" in sys.modules
report["functions"] = {
    layer: sorted(name for name, fn in vars(sys.modules[f"widthlab.{layer}"]).items()
                  if inspect.isfunction(fn) and fn.__module__ == f"widthlab.{layer}"
                  and not name.startswith("_"))
    for layer in report["registered"]}
print(json.dumps(report))
""" % (LAYERS,)


def test_import_registers_every_layer_and_vars_loads_it(tmp_path):
    proc = fresh_python(["-c", IMPORT_CONTRACT], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["numpy_at_import"] is report["numpy_after_model_names"] is False
    assert report["registered"] == list(LAYERS)
    functions = report["functions"]
    for layer in LAYERS:
        module = getattr(widthlab, layer)
        public = {name for name in getattr(module, "__all__", ())
                  if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
                  and getattr(module, name).__module__ == module.__name__}
        assert public <= set(functions[layer]), layer
        assert functions[layer], layer
    assert "svd" in functions["_linalg"] and "covers" in functions["covering"]
    assert {"classify_WG", "is_weakly_full", "shift_search"} <= set(functions["seqlab"])


def test_all_keeps_every_eagerly_bound_name():
    assert set(widthlab.__all__) == EAGER_NAMES
    assert len(widthlab.__all__) == len(EAGER_NAMES)
    assert EAGER_NAMES <= set(dir(widthlab))
    namespace = {}
    exec("from widthlab import *", namespace)
    assert EAGER_NAMES <= set(namespace)
    assert namespace["covers"] is widthlab.covering.covers


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        widthlab.no_such_name  # noqa: B018
