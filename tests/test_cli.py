import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab
from widthlab import MatchCertificate, read_matrix, write_matrix
from widthlab import cli
from widthlab.cli import _to_json, run

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SUBCOMMANDS = ["widths", "section", "classify-seq", "cover-test", "cover-make", "classify-wg",
               "classify-wcg", "range-equiv", "weakly-full", "dichotomy", "solve-xay", "factor",
               "match-inv", "separate", "expanding", "classify-we", "rigid"]

# Runs sys.argv[1] (a `module:function` target) the way a generated console
# script does: the CLI arguments in sys.argv[1:], then sys.exit(func()).
CONSOLE_SCRIPT_RUNNER = """\
import importlib, sys
module, _, name = sys.argv.pop(1).partition(":")
func = getattr(importlib.import_module(module), name)
sys.argv[0] = "widthlab"
sys.exit(func())
"""


@pytest.fixture
def workdir(tmp_path):
    write_matrix(tmp_path / "A.mat", np.diag([3.0, 2.0, 1.0]))
    write_matrix(tmp_path / "Y.mat", np.array([[1.0, 0.0, 0.0]]).T)
    write_matrix(tmp_path / "T.mat", 2 * np.eye(3))
    write_matrix(tmp_path / "B.mat", np.diag([3.0, 0.0, 0.0]))
    return tmp_path


def invoke(capsys, argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerdictCommands:
    def test_widths_human(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["widths", workdir / "A.mat"])
        assert code == 0
        assert "s-numbers: 3 2 1" in out
        assert "widths:    3 2 1" in out

    def test_widths_json(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["widths", workdir / "A.mat", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["s_numbers"] == ["3", "2", "1"]
        assert payload["rank"] == 3

    def test_section(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["section", workdir / "A.mat", workdir / "Y.mat", "--json"])
        assert code == 0
        assert json.loads(out)["section_s_numbers"] == ["2", "1"]

    def test_classify_wg_prints_tag(self, capsys):
        code, out, _ = invoke(capsys, ["classify-wg", "--a", "geom(0.5)", "--b", "geom(0.5)"])
        assert code == 0 and out.strip() == "Everything"

    def test_classify_wcg_kdim(self, capsys):
        code, out, _ = invoke(capsys, ["classify-wcg", "--a", "supergeom(2)",
                                       "--b", "shift(1, supergeom(2))"])
        assert code == 0 and out.strip() == "KDim(0)"

    def test_negative_verdict_still_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, ["classify-wg", "--a", "geom(0.25)", "--b", "geom(0.5)"])
        assert code == 0 and out.strip() == "Empty"

    def test_cover_test(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["cover-test", "--t", workdir / "T.mat",
                                       "--e1", workdir / "A.mat", "--e2", workdir / "A.mat"])
        assert code == 0 and "covers:     True" in out

    def test_expanding_with_dual_check(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["expanding", "--t", workdir / "T.mat",
                                       "--a", workdir / "A.mat", "--dual-check", "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["expanding"] is True and payload["dual_agreement"] is True

    def test_range_equiv(self, workdir, capsys):
        code, out, _ = invoke(capsys, ["range-equiv", workdir / "A.mat", workdir / "T.mat"])
        assert code == 0 and out == "same range: True\nc: 0.66666666666666663  C: 2\n"
        code, out, _ = invoke(capsys, ["range-equiv", workdir / "A.mat", workdir / "B.mat", "--json"])
        assert code == 0 and json.loads(out) == {"same_range": False, "c": None, "C": None}

    def test_classify_we(self, capsys):
        code, out, _ = invoke(capsys, ["classify-we", "--model", "supergeom(2)"])
        assert code == 0 and out == "AlgebraAK\noperators preserving ker A\n"
        code, out, _ = invoke(capsys, ["classify-we", "--model", "geom(0.5)"])
        assert code == 0 and out == "Everything\n"

    def test_classify_we_kernel_trivial(self, capsys):
        code, out, _ = invoke(capsys, ["classify-we", "--model", "supergeom(2)",
                                       "--kernel-trivial", "--json"])
        payload = json.loads(out)
        assert code == 0 and (payload["tag"], payload["exact"]) == ("Everything", True)
        assert payload["note"] == "lacunary, but a trivial kernel collapses the invariance condition"

    def test_weakly_full(self, capsys):
        code, out, _ = invoke(capsys, ["weakly-full", "--model", "supergeom(2)", "--codim", "inf"])
        assert code == 0 and "weakly full: True" in out

    def test_rigid(self, tmp_path, capsys):
        spec = {"n": 3, "alphas": [1.0, 1e-1, 1e-3], "betas": [0.6, 0.7, 0.8]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, ["rigid", "--spec", path, "--norm-bound", "10", "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["identity_only"] is True

    def test_rigid_rejects_betas_the_search_cannot_tell_apart(self, tmp_path, capsys):
        spec = {"n": 4, "alphas": [1.0, 0.5, 0.125, 0.015625], "betas": [0.6, 0.6 + 1e-13, 0.7, 0.8]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, _, err = invoke(capsys, ["rigid", "--spec", path, "--norm-bound", "10"])
        assert code == 1 and "distinct" in err

    def test_rigid_rejects_a_beta_the_search_takes_for_one(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n": 2, "alphas": [1, 0.5], "betas": [0.6, 0.99999999999999]}))
        code, out, err = invoke(capsys, ["rigid", "--spec", path, "--norm-bound", "10"])
        assert code == 1 and out == "" and "stay clear of 1" in err

    def test_cover_test_with_a_subnormal_operator(self, tmp_path, capsys):
        write_matrix(tmp_path / "T.mat", 1e-310 * np.eye(3))
        write_matrix(tmp_path / "I.mat", np.eye(3))
        write_matrix(tmp_path / "Z.mat", np.zeros((3, 3)))
        code, out, err = invoke(capsys, ["cover-test", "--t", tmp_path / "T.mat",
                                         "--e1", tmp_path / "I.mat", "--e2", tmp_path / "Z.mat"])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "covers:     True"
        assert float(out.splitlines()[-1].split()[-1]) == 1e-310

    @pytest.mark.parametrize("a, b", [("shift(2000, geom(0.5))", "geom(0.5)"),
                                      ("scale(1e-200, scale(1e-200, pow(1)))", "pow(1)")])
    def test_classify_wg_with_a_scale_below_double_range(self, a, b, capsys):
        code, out, err = invoke(capsys, ["classify-wg", "--a", a, "--b", b])
        assert (code, out, err) == (0, "Everything\n", "")

    def test_widths_reads_the_file_once(self, workdir, capsys, monkeypatch):
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_matrix(path)

        monkeypatch.setattr(widthlab.matrixio, "read_matrix", counting_read)
        code, _, _ = invoke(capsys, ["widths", workdir / "A.mat"])
        assert code == 0 and len(reads) == 1

    def test_widths_equal_s_numbers_up_to_the_rank(self, tmp_path, capsys):
        # both come from one decomposition, so they agree to the last bit
        write_matrix(tmp_path / "G.mat", np.random.default_rng(3).normal(size=(40, 40)))
        code, out, _ = invoke(capsys, ["widths", tmp_path / "G.mat", "--json"])
        payload = json.loads(out)
        rank = payload["rank"]
        assert code == 0 and rank == 40
        assert payload["widths"][:rank] == payload["s_numbers"][:rank]


class TestFileOutputs:
    def test_cover_make_writes_operator(self, workdir, capsys):
        out_path = workdir / "D.mat"
        code, out, _ = invoke(capsys, ["cover-make", "--e1", workdir / "A.mat",
                                       "--e2", workdir / "A.mat", "--out", out_path])
        assert code == 0
        d = read_matrix(out_path)
        assert d.shape == (3, 3)

    def test_solve_xay_round_trip(self, workdir, capsys):
        code, _, _ = invoke(capsys, ["solve-xay", "--a", workdir / "A.mat", "--b", workdir / "B.mat",
                                     "--out-x", workdir / "X.mat", "--out-y", workdir / "Yo.mat"])
        assert code == 0
        x = read_matrix(workdir / "X.mat")
        y = read_matrix(workdir / "Yo.mat")
        a = read_matrix(workdir / "A.mat")
        b = read_matrix(workdir / "B.mat")
        np.testing.assert_allclose(x @ a @ y, b, atol=1e-10)

    def test_factor_round_trip_is_exact(self, tmp_path, capsys):
        b = np.random.default_rng(11).normal(size=(5, 5))
        write_matrix(tmp_path / "B.mat", b)
        code, out, _ = invoke(capsys, ["factor", "--b", tmp_path / "B.mat",
                                       "--out-x", tmp_path / "X.mat", "--out-y", tmp_path / "Y.mat"])
        assert code == 0 and out == "residual: 0\n"
        x, y = read_matrix(tmp_path / "X.mat"), read_matrix(tmp_path / "Y.mat")
        assert x.shape == (5, 10) and y.shape == (10, 5)
        assert np.array_equal(x @ y, b)

    def test_separate(self, tmp_path, capsys):
        t1 = np.zeros((2, 2)); t1[0, 0] = 1.0
        t2 = np.zeros((2, 2)); t2[1, 1] = 1.0
        write_matrix(tmp_path / "t1.mat", t1)
        write_matrix(tmp_path / "t2.mat", t2)
        code, out, _ = invoke(capsys, ["separate", tmp_path / "t1.mat", tmp_path / "t2.mat",
                                       "--out", tmp_path / "P.mat"])
        assert code == 0 and "projection rank: 2" in out
        np.testing.assert_allclose(read_matrix(tmp_path / "P.mat"), np.eye(2), atol=1e-12)

    def test_match_inv(self, tmp_path, capsys):
        e = np.eye(8)
        write_matrix(tmp_path / "xs.mat", e[:, :1])
        write_matrix(tmp_path / "xst.mat", e[:, 1:2])
        write_matrix(tmp_path / "ys.mat", e[:, 2:3])
        write_matrix(tmp_path / "yst.mat", e[:, 3:4])
        code, out, _ = invoke(capsys, ["match-inv", "--xs", tmp_path / "xs.mat",
                                       "--xs-target", tmp_path / "xst.mat",
                                       "--ys", tmp_path / "ys.mat",
                                       "--ys-target", tmp_path / "yst.mat",
                                       "--eps", "1e-6", "--out", tmp_path / "V.mat"])
        assert code == 0
        v = read_matrix(tmp_path / "V.mat")
        assert np.linalg.norm(v @ e[:, 0] - e[:, 1]) < 1e-6


class TestDeterminismAndRoundTrip:
    def test_json_is_byte_identical(self, capsys):
        argv = ["dichotomy", "--model", "supergeom(2)", "--m", "1",
                "--dims", "4,8,16", "--seed", "7", "--json"]
        code1, out1, _ = invoke(capsys, argv)
        code2, out2, _ = invoke(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_widths_reparse_as_samples_keeps_verdicts(self, tmp_path, capsys):
        write_matrix(tmp_path / "G.mat", np.diag([0.5 ** n for n in range(8)]))
        code, out, _ = invoke(capsys, ["widths", str(tmp_path / "G.mat"), "--json"])
        assert code == 0
        values = json.loads(out)["s_numbers"]
        samples_expr = "samples(" + ", ".join(values) + ")"
        code1, out1, _ = invoke(capsys, ["classify-seq", "--model", samples_expr, "--json"])
        code2, out2, _ = invoke(capsys, ["classify-seq", "--model",
                                         f"spectrum({tmp_path / 'G.mat'})", "--json"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestErrorPaths:
    def test_help_lists_every_subcommand_in_order(self, capsys):
        code, out, _ = invoke(capsys, ["--help"])
        assert code == 0
        assert out[out.index("{") + 1:out.index("}")].split(",") == SUBCOMMANDS

    def test_subcommand_help_says_what_it_does(self, capsys):
        code, out, _ = invoke(capsys, ["rigid", "--help"])
        assert code == 0
        assert "identity-only rigidity certificate for the two-points-per-axis compact" in out

    @pytest.mark.parametrize("argv", [
        ["classify-wg", "--a", "samples(1,.5,.25)", "--b", "samples(1,.5,.25)", "--k-max", "-1"],
        ["classify-wcg", "--a", "geom(0.5)", "--b", "geom(0.25)", "--k-max", "-5"],
    ])
    def test_negative_k_max_is_input_error(self, argv, capsys):
        code, out, err = invoke(capsys, argv)
        assert code == 1 and out == "" and "shift budget must be nonnegative" in err

    def test_unwritable_output_is_input_error(self, workdir, capsys):
        target = workdir / "no-such-dir" / "X.mat"
        for argv in (["factor", "--b", workdir / "B.mat"],
                     ["solve-xay", "--a", workdir / "A.mat", "--b", workdir / "B.mat"]):
            code, out, err = invoke(capsys, argv + ["--out-x", target])
            assert code == 1 and out == ""
            assert err.startswith(f"error: {target}: cannot write: ")

    @pytest.mark.parametrize("spec", [
        {"n": 3.7, "alphas": "123", "betas": [0.6, 0.7, 0.8]},
        {"n": True, "alphas": [1.0], "betas": [0.6]},
        {"n": "3", "alphas": [1.0, 1e-1, 1e-3], "betas": [0.6, 0.7, 0.8]},
        {"n": 3, "alphas": [1.0, 1e-1, "1e-3"], "betas": [0.6, 0.7, 0.8]},
        {"n": 3, "alphas": [1.0, 1e-1, 1e-3], "betas": [0.6, 0.7, False]},
        {"n": 1, "alphas": 1.0, "betas": [0.6]},
    ])
    def test_rigid_rejects_malformed_spec(self, tmp_path, spec, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = invoke(capsys, ["rigid", "--spec", path, "--norm-bound", "10"])
        assert code == 1 and out == ""
        assert err == f"error: {path}: n must be an integer, alphas and betas arrays of numbers\n"

    @pytest.mark.parametrize("argv, message", [
        (["dichotomy", "--model", "geom(0.5)", "--m", "1", "--dims", "4", "--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
    ])
    def test_bad_numeric_value_is_input_error(self, workdir, argv, message, capsys):
        code, out, err = invoke(capsys, [workdir / a[1:] if a.startswith("@") else a for a in argv])
        assert code == 1 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("model", ["scale(1e-300, samples(1e-300, 1e-300))",
                                       "scale(1e300, samples(1e300, 1e10))",
                                       "scale(1e-300, samples(1e-20, 1e-300))"])
    @pytest.mark.parametrize("command", [["classify-seq", "--model"],
                                         ["classify-wg", "--a", "samples(1, 1)", "--b"]])
    def test_scaled_samples_out_of_double_range_is_input_error(self, model, command, capsys):
        # these exited 2 (float division by zero) or printed a nan or 0 ratio
        code, out, err = invoke(capsys, command + [model])
        assert code == 1 and out == ""
        assert err == (f"error: {widthlab.parse_model(model)!r}: a term leaves the double "
                       f"range (0 or infinite terms refused)\n")

    @pytest.mark.parametrize("a, b", [("samples(1,0.5,0.25)", "scale(1e300, scale(1e300, geom(0.5)))"),
                                      ("scale(1e300, scale(1e300, geom(0.5)))", "samples(1,0.5,0.25)")])
    def test_window_term_out_of_double_range_is_input_error(self, a, b, capsys):
        # with the overflowing model as b this printed Everything and exited 0
        code, out, err = invoke(capsys, ["classify-wg", "--a", a, "--b", b])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "a term leaves the double range" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("argv, message", [
        (["cover-test", "--t", "@N.mat", "--e1", "@H.mat", "--e2", "@T.mat"],
         "Gram matrix entries overflow double precision; rescale the input"),
        (["widths", "@M.mat"], "singular values overflow double precision; rescale the input"),
        (["expanding", "--t", "@T.mat", "--a", "@M.mat"],
         "Gram matrix entries overflow double precision; rescale the input"),
    ])
    def test_finite_input_that_overflows_is_input_error(self, workdir, argv, message, capsys):
        write_matrix(workdir / "H.mat", np.diag([1e300, 1.0, 1e-300]))
        write_matrix(workdir / "N.mat", -np.eye(3))
        write_matrix(workdir / "M.mat", np.full((3, 3), 1e308))
        code, out, err = invoke(capsys, [workdir / a[1:] if a.startswith("@") else a for a in argv])
        assert code == 1 and out == "" and err == f"error: {message}\n"

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = invoke(capsys, ["widths", "no-such-file.mat"])
        assert code == 1 and "no-such-file.mat" in err

    def test_unknown_flag_is_input_error(self, workdir, capsys):
        code, _, err = invoke(capsys, ["widths", "--bogus", workdir / "A.mat"])
        assert code == 1 and "bogus" in err

    def test_model_parse_error_names_position(self, capsys):
        code, _, err = invoke(capsys, ["classify-seq", "--model", "geom(0.5"])
        assert code == 1 and "position" in err

    def test_bad_model_parameter(self, capsys):
        code, _, err = invoke(capsys, ["classify-wg", "--a", "geom(2)", "--b", "geom(0.5)"])
        assert code == 1 and "(0, 1)" in err

    def test_malformed_matrix_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2\n3 x\n")
        code, _, err = invoke(capsys, ["widths", bad])
        assert code == 1 and "bad.mat:3" in err


def declared_console_script():
    """The `module:function` target of `widthlab` in `[project.scripts]`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["widthlab"]


def console_script_command():
    """argv prefix running the `widthlab` console script.

    An installed script on PATH wins, then an installed `console_scripts`
    entry point, then the target declared in this repository's pyproject.
    """
    script = shutil.which("widthlab")
    if script is not None:
        return [script]
    installed = entry_points(group="console_scripts", name="widthlab")
    target = next(iter(installed)).value if installed else declared_console_script()
    return [sys.executable, "-c", CONSOLE_SCRIPT_RUNNER, target]


def run_child(argv, cwd, stdout=subprocess.PIPE):
    """Run argv in a child process that imports the same `widthlab` as this one."""
    package_parent = str(Path(widthlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=60)


def test_console_script_entry_point(tmp_path):
    write_matrix(tmp_path / "A.mat", np.diag([2.0, 1.0]))
    proc = run_child(console_script_command() + ["widths", "A.mat"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "s-numbers: 2 1" in proc.stdout, proc.stderr


# Runs `python -m widthlab` with every import of scipy failing.
WITHOUT_SCIPY_RUNNER = """\
import runpy, sys
sys.modules["scipy"] = None
runpy.run_module("widthlab", run_name="__main__", alter_sys=True)
"""


def test_runs_without_scipy(tmp_path):
    write_matrix(tmp_path / "A1.mat", np.diag([1.0, 0.5]))
    write_matrix(tmp_path / "A2.mat", np.eye(2))
    proc = run_child([sys.executable, "-c", WITHOUT_SCIPY_RUNNER,
                      "range-equiv", "A1.mat", "A2.mat", "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["same_range"] is True
    assert float(payload["c"]) == pytest.approx(1.0, rel=1e-12)
    assert float(payload["C"]) == pytest.approx(2.0, rel=1e-12)


def test_python_m_widthlab(tmp_path):
    write_matrix(tmp_path / "A.mat", np.diag([2.0, 1.0]))
    proc = run_child([sys.executable, "-m", "widthlab", "widths", "A.mat"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "s-numbers: 2 1" in proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["classify-seq", "--model", "geom(0.5)"],
                                  ["cover-make", "--e1", "E.mat", "--e2", "E.mat", "--json"]])
def test_closed_standard_output_exits_1_silently(tmp_path, monkeypatch, argv):
    # the reader is gone before the child starts; with buffered output the
    # short report fails at the closing flush, the 160 x 160 one while printed
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    write_matrix(tmp_path / "E.mat", np.random.default_rng(0).normal(size=(160, 160)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_child([sys.executable, "-m", "widthlab", *argv], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv, message", [
    (["cover-test", "--t", "N.mat", "--e1", "H.mat", "--e2", "T.mat"],
     "Gram matrix entries overflow double precision; rescale the input"),
    (["cover-test", "--t", "M.mat", "--e1", "T.mat", "--e2", "T.mat"],
     "Gram matrix entries overflow double precision; rescale the input"),
    (["expanding", "--t", "T.mat", "--a", "M.mat", "--dual-check"],
     "Gram matrix entries overflow double precision; rescale the input"),
    (["section", "A.mat", "H.mat"], "section subspace: columns are not orthonormal (tolerance 1e-09)"),
    (["section", "A.mat", "M.mat"], "section subspace: columns are not orthonormal (tolerance 1e-09)"),
    (["range-equiv", "Big.mat", "Small.mat"], "scaling constants underflow double precision; rescale the input"),
    (["range-equiv", "Small.mat", "Big.mat"], "scaling constants overflow double precision; rescale the input"),
])
def test_overflow_error_is_the_only_stderr_line(tmp_path, argv, message):
    write_matrix(tmp_path / "A.mat", np.diag([3.0, 2.0, 1.0]))
    write_matrix(tmp_path / "Big.mat", np.array([[1e300]]))
    write_matrix(tmp_path / "Small.mat", np.array([[1e-300]]))
    write_matrix(tmp_path / "H.mat", np.diag([1e300, 1.0, 1e-300]))
    write_matrix(tmp_path / "N.mat", -np.eye(3))
    write_matrix(tmp_path / "M.mat", np.full((3, 3), 1e308))
    write_matrix(tmp_path / "T.mat", 2 * np.eye(3))
    proc = run_child([sys.executable, "-m", "widthlab", *argv], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_range_equiv_when_the_gram_matrix_overflows(tmp_path):
    # H H^T overflows, but the constants come from the generators alone
    write_matrix(tmp_path / "H.mat", np.diag([1e300, 1.0, 1e-300]))
    proc = run_child([sys.executable, "-m", "widthlab", "range-equiv", "H.mat", "H.mat"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "same range: True\nc: 1  C: 1\n", "")


def test_factor_residual_when_the_norm_of_b_overflows(tmp_path):
    # ||B||_F overflows although B is finite; X Y = B exactly all the same
    write_matrix(tmp_path / "M.mat", np.full((3, 3), 1e308))
    proc = run_child([sys.executable, "-m", "widthlab", "factor", "--b", "M.mat"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "residual: 0\n", "")


def test_solve_xay_residual_when_x_a_overflows(tmp_path):
    # X A reaches 1e450 before Y brings the product back to B
    write_matrix(tmp_path / "H.mat", np.diag([1e300, 1.0, 1e-300]))
    proc = run_child([sys.executable, "-m", "widthlab", "solve-xay", "--a", "H.mat", "--b", "H.mat"],
                     tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    label, value = proc.stdout.split()
    assert label == "residual:" and 0.0 <= float(value) <= 1e-9


# --json reports against the rendering they replace: every real, array
# entries included, a 17-digit string, then json.dumps(indent=2, sort_keys=True)

def reference_jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [reference_jsonify(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: reference_jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonify(v) for k, v in obj.items()}
    return [reference_jsonify(v) for v in obj]


def reference_json(payload) -> str:
    return json.dumps(reference_jsonify(payload), indent=2, sort_keys=True)


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]))


def arrays(ndim):
    return st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim).flatmap(
        lambda shape: st.lists(finite, min_size=math.prod(shape), max_size=math.prod(shape))
        .map(lambda vals: np.array(vals, dtype=float).reshape(shape)))


# the payload layouts of cover-make, solve-xay and factor, separate, match-inv
payloads = st.one_of(
    st.fixed_dictionaries({"norm": finite, "operator": arrays(2)}),
    st.fixed_dictionaries({"residual": finite, "X": arrays(2), "Y": arrays(2)}),
    st.fixed_dictionaries({"projection": arrays(2), "rank": st.integers(0, 9)}),
    st.builds(MatchCertificate, arrays(2), finite, st.lists(finite, max_size=3).map(tuple),
              st.lists(finite, max_size=3).map(tuple)),
    st.fixed_dictionaries({"s_numbers": arrays(1), "nested": st.lists(arrays(2), max_size=2)}),
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_json_report_matches_the_reference_rendering(payload):
    assert _to_json(payload) == reference_json(payload)


def matrix_file(path, a):
    write_matrix(path, a)
    return str(path)


def cover_make_argv(rng, d):
    d1, d2 = rng.integers(1, 6, size=2)
    e2 = rng.normal(size=(d2, rng.integers(1, d1 + 1)))
    return ["cover-make", "--e1", matrix_file(d / "e1.mat", rng.normal(size=(d1, d1))),
            "--e2", matrix_file(d / "e2.mat", e2)]


def solve_xay_argv(rng, d):
    n, r = rng.integers(1, 6), rng.integers(1, 6)
    b = rng.normal(size=(n, min(r, n))) @ rng.normal(size=(min(r, n), n))
    return ["solve-xay", "--a", matrix_file(d / "a.mat", rng.normal(size=(n, n))),
            "--b", matrix_file(d / "b.mat", b)]


def factor_argv(rng, d):
    n = rng.integers(1, 6)
    return ["factor", "--b", matrix_file(d / "b.mat", rng.normal(size=(n, n)))]


def separate_argv(rng, d):
    n = rng.integers(2, 5)
    return ["separate"] + [matrix_file(d / f"t{i}.mat", rng.normal(size=(n, n)))
                           for i in range(rng.integers(1, 4))]


def match_inv_argv(rng, d):
    n, kx, ky = rng.integers(4, 8), rng.integers(1, 3), rng.integers(1, 3)
    argv = ["match-inv", "--eps", "1e-3"]
    for name, k in [("xs", kx), ("xs-target", kx), ("ys", ky), ("ys-target", ky)]:
        argv += [f"--{name}", matrix_file(d / f"{name}.mat", rng.normal(size=(n, k)))]
    return argv


@pytest.mark.parametrize("make_argv", [cover_make_argv, solve_xay_argv, factor_argv,
                                       separate_argv, match_inv_argv])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_json_subcommands_match_the_reference_rendering(make_argv, seed):
    seen = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_to_json", lambda payload: seen.append(payload) or _to_json(payload))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(make_argv(np.random.default_rng(seed), Path(tmp)) + ["--json"])
    assert code == 0 and len(seen) == 1
    assert out.getvalue() == reference_json(seen[0]) + "\n"
