"""The input contract as a whole: no argv makes the CLI exit 2, and no
module imports another module's private or unexported names."""

import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import write_matrix
from widthlab.cli import run

from test_cli import SUBCOMMANDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "widthlab"

# Hostile option values; the huge integers only go to options that do not
# size the work (a large --dims or --k-max is valid, just slow).
HOSTILE = ["-1", "nan", "inf", "0", "", "-inf", "1e400", "-0.5", "x", "-nan", str(10 ** 30)]
SIZED = {"--dims": ["8,16", "64", "3,64", "5"], "--k-max": ["16", "1000", "1"]}


def write_inputs(d: Path) -> Path:
    """The matrix files and rigidity specs that ``command_table`` names, in ``d``."""
    mats = {"A": np.diag([3.0, 2.0, 1.0]), "T": 2 * np.eye(3), "Z": np.zeros((3, 3)),
            "R": np.arange(6.0).reshape(2, 3), "Y": np.array([[1.0, 0.0, 0.0]]).T,
            "X1": np.array([[1.0, 0.0, 0.0, 0.0]]), "X2": np.array([[0.0, 1.0, 0.0, 0.0]]),
            # one vector each (a file's columns are the vectors): e0 .. e3 in R^4
            **{f"E{i}": np.eye(4)[:, i:i + 1] for i in range(4)},
            # at the overflow edge: H H^T and M M^T overflow, M's s-numbers too
            "H": np.diag([1e300, 1.0, 1e-300]), "M": np.full((3, 3), 1e308)}
    for name, m in mats.items():
        write_matrix(d / f"{name}.mat", m)
    specs = {"good": {"n": 3, "alphas": [1.0, 1e-1, 1e-3], "betas": [0.6, 0.7, 0.8]},
             "short": {"n": 3, "alphas": [1.0], "betas": [0.6]}}
    for name, spec in specs.items():
        (d / f"{name}.json").write_text(json.dumps(spec))
    return d


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("contract"))


def command_table(d: Path) -> dict:
    """Per subcommand: positional candidates, then option -> candidate values
    (the first candidate is valid)."""
    mat = [str(d / f"{n}.mat") for n in ("A", "T", "Z", "R", "Y", "X1", "X2", "H", "M")]
    col = [str(d / f"E{i}.mat") for i in range(4)]
    spec = [str(d / "good.json"), str(d / "short.json")]
    model = ["geom(0.5)", "samples(1,1e-5,1e-6)", "supergeom(2)", "pow(1)", "samples(1,0.5)",
             "shift(1e400, geom(0.5))", "pow(1e400)", "supergeom(1e400)"]
    wg = {"--a": model, "--b": model, "--k-max": None}
    return {
        "widths": ([mat], {}),
        "section": ([mat, mat[4:] + mat[:4]], {}),
        "classify-seq": ([], {"--model": model[1:] + model[:1]}),
        "cover-test": ([], {"--t": mat[1:] + mat[:1], "--e1": mat, "--e2": mat}),
        "cover-make": ([], {"--e1": mat, "--e2": mat}),
        "classify-wg": ([], wg),
        "classify-wcg": ([], wg),
        "range-equiv": ([mat, mat[1:] + mat[:1]], {}),
        "weakly-full": ([], {"--model": model, "--codim": ["inf", "3"]}),
        "dichotomy": ([], {"--model": model, "--m": ["1", "0", "2"], "--dims": None,
                           "--seed": ["0", "7"]}),
        "solve-xay": ([], {"--a": mat, "--b": mat}),
        "factor": ([], {"--b": mat}),
        # first: V e0 = e1 and V^-1 e1 = e0, which must be nudged (demo 05);
        # e0 -> e1 with e2 -> e3 is well posed
        "match-inv": ([], {"--xs": [col[0], col[1], mat[5], mat[7]],
                           "--xs-target": [col[1], col[0], mat[6], mat[8]],
                           "--ys": [col[1], col[2], mat[6]], "--ys-target": [col[0], col[3], mat[8]],
                           "--eps": ["1e-3"]}),
        "separate": ([mat, mat[1:] + mat[:1]], {}),
        "expanding": ([], {"--t": mat[1:] + mat[:1], "--a": mat}),
        "classify-we": ([], {"--model": model}),
        "rigid": ([], {"--spec": spec, "--norm-bound": ["10"]}),
    }


def test_table_covers_every_subcommand(files):
    assert list(command_table(files)) == SUBCOMMANDS


@st.composite
def argv_for(draw, table, name):
    """A valid argv for ``name`` with one or two values made hostile and up
    to one option left out."""
    positional, options = table[name]
    slots = dict(enumerate(positional), **options)
    values = {k: draw(st.sampled_from(SIZED[k] if c is None else c)) for k, c in slots.items()}
    for k in draw(st.sets(st.sampled_from(list(slots)), min_size=1, max_size=2)):
        values[k] = draw(st.sampled_from(HOSTILE[:-1] if k in SIZED else HOSTILE))
    dropped = draw(st.sets(st.sampled_from(list(options)), max_size=1)) if options else set()
    argv = [name] + [values[i] for i in range(len(positional))]
    argv += [f"{k}={values[k]}" for k in options if k not in dropped]
    return argv + (["--json"] if draw(st.booleans()) else [])


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_no_argv_is_an_internal_error(files, name):
    @settings(max_examples=16, derandomize=True, database=None, deadline=None)
    @given(argv_for(command_table(files), name))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1), f"{argv} exited {code}: {err.getvalue()}"

    check()


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


# modules whose every public name other modules may import: the shared
# kernels and the checks, which have no __all__ of their own
SHARED = {"_linalg", "errors"}


def exported_names(source: str) -> list:
    """The module's ``__all__``, empty when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unexported_imports(source: str, exports) -> list:
    """``from .m import name`` in ``source`` with ``name`` not in
    ``exports(m)``, for every package module ``m`` outside ``SHARED``."""
    return [f"{node.lineno}: from .{node.module} import {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            and node.module not in SHARED
            for alias in node.names if alias.name not in exports(node.module)]


def test_modules_import_only_exported_names():
    def exports(module):
        return exported_names((PACKAGE / f"{module}.py").read_text())

    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in unexported_imports(path.read_text(), exports)]
    assert offenders == []


def test_import_scan_flags_exactly_the_unexported_names():
    source = ("from .a import f, g\nfrom ._linalg import h\nfrom .errors import k\n"
              "from . import a\ndef w():\n    from .a import z\n")
    assert unexported_imports(source, {"a": ["f"]}.get) == ["1: from .a import g",
                                                           "6: from .a import z"]


# the names a layer's __all__ may take from another module: defaults of the
# layer's own signatures
FOREIGN_DEFAULTS = {("covering.py", "PSD_TOL"), ("spectra.py", "RANK_RCOND")}


def foreign_exports(source: str) -> list:
    """Names in the module's ``__all__`` that it does not define at top level
    (by ``def``, ``class`` or assignment)."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in exported_names(source) if name not in defined]


def test_every_public_name_has_one_home_module():
    offenders = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "__init__.py" for name in foreign_exports(path.read_text())
                 if (path.name, name) not in FOREIGN_DEFAULTS]
    assert offenders == []


def test_export_scan_flags_exactly_the_imported_names():
    source = ("from .x import A, f\nB, C = 1, 2\ndef g(): pass\nclass K: pass\n"
              "__all__ = ['A', 'B', 'C', 'f', 'g', 'K']\n")
    assert foreign_exports(source) == ["A", "f"]


# numpy.linalg routines that run an SVD, an eigensolver or a QR
# factorization; a matrix norm with ord 2, -2 or 'nuc' takes the singular
# values too
DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "pinv", "lstsq", "matrix_rank", "cond",
                  "qr"}
SPECTRAL_ORDS = {2, -2, "nuc"}


def is_linalg(node, names) -> bool:
    """``node`` is ``<...>.linalg.<name>`` for one of ``names``."""
    return isinstance(node, ast.Attribute) and node.attr in names and \
        isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"


def spectral_ord(node) -> bool:
    try:
        return ast.literal_eval(node) in SPECTRAL_ORDS
    except ValueError:
        return True  # an ord the scan cannot read counts as spectral


def decomposition_calls(source: str) -> list:
    """Lines of ``source`` that use an SVD-, eigen- or QR-based numpy.linalg
    routine or import one (or ``norm``) from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [f"{node.lineno}: from numpy.linalg import {alias.name}"
                      for alias in node.names if alias.name in DECOMPOSITIONS | {"norm"}]
        elif is_linalg(node, DECOMPOSITIONS):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and is_linalg(node.func, {"norm"}) and any(
                map(spectral_ord, node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"])):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_linalg_calls_numpy_svd():
    # every decomposition goes through _linalg, whose SVD is exact on
    # monomial matrices and refuses overflow
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "_linalg.py" for line in decomposition_calls(path.read_text())]
    assert offenders == []


@pytest.mark.parametrize("source, hits", [
    ("np.linalg.svd(a)", 1), ("np.linalg.eigvalsh(g)", 1), ("np.linalg.eig(g)", 1),
    ("np.linalg.pinv(x)", 1), ("np.linalg.lstsq(a, b)", 1), ("np.linalg.matrix_rank(a)", 1),
    ("np.linalg.cond(a)", 1), ("np.linalg.norm(v, 2)", 1), ("np.linalg.norm(v, ord=-2)", 1),
    ("np.linalg.norm(v, 'nuc')", 1), ("np.linalg.norm(v, ord=k)", 1),
    ("from numpy.linalg import eigh, solve", 1),
    ("np.linalg.qr(a)", 1),
    ("np.linalg.norm(v)", 0), ("np.linalg.norm(v, axis=0)", 0), ("np.linalg.norm(v, 'fro')", 0),
    ("np.linalg.solve(a, b)", 0), ("np.linalg.inv(a)", 0),
])
def test_decomposition_scan_flags_exactly_the_banned_calls(source, hits):
    assert len(decomposition_calls(source)) == hits


def small_float_literals(source: str) -> list:
    """Float literals of magnitude in (0, 1e-3) that are not the value of a
    module-level UPPER_CASE constant, as ``line: value``."""
    tree = ast.parse(source)
    named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in node.targets)}
    return [f"{node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3 and id(node) not in named]


def test_every_small_tolerance_is_a_named_constant():
    offenders = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in small_float_literals(path.read_text())]
    assert offenders == []


def test_literal_scan_allows_only_module_level_constants():
    assert small_float_literals("TOL = 1e-9\n_RCOND = 1e-12\nBIG = 0.5\n") == []
    assert small_float_literals("x = 1e-9\n") == ["1: 1e-09"]
    assert small_float_literals("def f(tol=1e-9):\n    TOL = 1e-8\n") == ["1: 1e-09", "2: 1e-08"]
    assert small_float_literals("y = z > 0.0 and z < 1e-300\n") == ["1: 1e-300"]
