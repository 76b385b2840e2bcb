"""Command-line front door.

One subcommand per library operation; matrices travel in the shared text
format, sequence models in the ``geom(q) / pow(p) / supergeom(b) / shift /
scale / samples / spectrum(file)`` grammar.  ``--json`` switches to a JSON
report whose reals are decimal strings with 17 significant digits, making
output byte-identical across runs for identical argv.

Exit codes: 0 when a verdict was produced (even a negative one), 1 on input
errors, 2 on internal errors.

Each handler calls the library through its module (``covering.covers``),
and the package loads a module on its first use, so a command loads only
what it runs: the sequence-model commands never load numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

from . import covering, equations, expanding, matrixio, rigid, seqlab, spectra
from .errors import (
    PSD_TOL,
    InfeasibleError,
    InputError,
    NotCoverableError,
    UnsolvableError,
    WidthlabError,
)

__all__ = ["run", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonify(obj, arrays: list):
    """JSON-ready copy of ``obj``; each 1-d or 2-d array becomes a
    placeholder string holding its index in ``arrays``, where it is put."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _fmt(obj)
    np = sys.modules.get("numpy")  # never imported: no value is a numpy one
    if np is not None and isinstance(obj, np.ndarray) and obj.ndim in (1, 2):
        arrays.append(obj)
        return f"{_ARRAY_MARK}{len(arrays) - 1}"
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonify(getattr(obj, f.name), arrays) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, arrays) for v in obj]
    if np is not None and isinstance(obj, np.floating):
        return _fmt(float(obj))
    if np is not None and isinstance(obj, np.integer):
        return int(obj)
    raise WidthlabError(f"internal: cannot serialize {type(obj)!r}")


# json.dumps writes the NUL of a placeholder as \u0000; no other string in a
# report holds NUL, since argv and file paths cannot.
_ARRAY_MARK = "\0array:"
_PLACEHOLDER = re.compile(r'^( *)(.*)"\\u0000array:(\d+)"', re.MULTILINE)


def _array_json(a, indent: str) -> str:
    """``json.dumps(indent=2)`` of ``a`` as nested lists of 17-digit strings,
    opening on a line indented by ``indent``: one template, filled once."""
    a = a.astype(float, copy=False)
    template = '"%.17g"'
    for depth in range(a.ndim, 0, -1):  # innermost level first
        pad = indent + "  " * (depth - 1)
        n = a.shape[depth - 1]
        template = f"[\n{pad}  " + f",\n{pad}  ".join([template] * n) + f"\n{pad}]" if n else "[]"
    return template % tuple(a.ravel().tolist())


def _to_json(payload) -> str:
    """``json.dumps(indent=2, sort_keys=True)`` of the payload with every
    real as a 17-digit string; arrays are laid out by one template each."""
    arrays = []
    text = json.dumps(_jsonify(payload, arrays), indent=2, sort_keys=True)
    return _PLACEHOLDER.sub(lambda m: m[1] + m[2] + _array_json(arrays[int(m[3])], m[1]), text)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(_to_json(payload))
    else:
        for line in human_lines:
            print(line)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant that reports bad usage as an input error (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _dims(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"dimension list must be comma-separated integers, got {text!r}") from None


def _codim(text: str):
    if text.strip().lower() in {"inf", "infinity"}:
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise InputError(f"codimension must be an integer or 'inf', got {text!r}") from None


def _tag_line(verdict) -> str:
    if verdict.tag == "KDim":
        return f"KDim({verdict.k})"
    return verdict.tag


def _read_rigid_spec(path: str) -> rigid.RigidCompactSpec:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    try:
        n, alphas, betas = raw["n"], raw["alphas"], raw["betas"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: expected fields n, alphas, betas ({exc})") from None
    # json.load gives exact int, float and list types; bool is not a number here
    if type(n) is not int or not all(isinstance(v, list) and all(type(x) in (int, float) for x in v)
                                     for v in (alphas, betas)):
        raise InputError(f"{path}: n must be an integer, alphas and betas arrays of numbers")
    return rigid.RigidCompactSpec(n=n, alphas=tuple(alphas), betas=tuple(betas))


@functools.cache  # one parser per process; handlers find library functions on their modules at call time
def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="widthlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report (default: human-readable)")
        p.set_defaults(handler=handler)
        return p

    p = cmd("widths", "s-numbers and Kolmogorov widths of a matrix", _widths)
    p.add_argument("matrix", help="matrix file")

    p = cmd("section", "spectrum of the section of an ellipsoid by a subspace", _section)
    p.add_argument("matrix", help="generator matrix file")
    p.add_argument("subspace", help="orthonormal columns of the subspace being cut out")

    p = cmd("classify-seq", "lacunarity verdict for a sequence model", _classify_seq)
    p.add_argument("--model", required=True, help="sequence model expression")
    p.add_argument("--tau", type=float, default=seqlab.RATIO_THRESHOLD,
                   help="windowed ratio threshold (default %(default)s)")
    p.add_argument("--window", type=int, default=seqlab.DEFAULT_WINDOW,
                   help="surrogate window length (default %(default)s)")

    p = cmd("cover-test", "does T map one ellipsoid over another?", _cover_test)
    p.add_argument("--t", required=True, help="operator matrix file")
    p.add_argument("--e1", required=True, help="source generator file")
    p.add_argument("--e2", required=True, help="target generator file")
    p.add_argument("--tol", type=float, default=PSD_TOL, help="PSD slack (default %(default)s)")

    p = cmd("cover-make", "minimal-norm covering operator between ellipsoids", _cover_make)
    p.add_argument("--e1", required=True, help="source generator file")
    p.add_argument("--e2", required=True, help="target generator file")
    p.add_argument("--out", help="write the covering operator to this matrix file")

    for name, help_text, handler in (
        ("classify-wg", "closure of the two-ellipsoid covering set", _classify_wg),
        ("classify-wcg", "compact-operator covering closure (strict variant)", _classify_wcg),
    ):
        p = cmd(name, help_text, handler)
        p.add_argument("--a", required=True, help="width model of the source ellipsoid")
        p.add_argument("--b", required=True, help="width model of the target ellipsoid")
        p.add_argument("--k-max", type=int, default=16, help="shift budget for sampled models (default 16)")

    p = cmd("range-equiv", "are two operator ranges equal, and between which scalings?", _range_equiv)
    p.add_argument("matrix1", help="first generator file")
    p.add_argument("matrix2", help="second generator file")

    p = cmd("weakly-full", "weak fullness of the algebra preserving an operator range", _weakly_full)
    p.add_argument("--model", required=True, help="width model of a generating ellipsoid")
    p.add_argument("--codim", required=True, type=_codim, help="codimension of the range closure (integer or 'inf')")

    p = cmd("dichotomy", "constrained-cover yield across a dimension tower", _dichotomy)
    p.add_argument("--model", required=True, help="sequence model expression")
    p.add_argument("--m", required=True, type=int, help="number of interpolation constraints")
    p.add_argument("--dims", required=True, type=_dims, help="comma-separated dimensions, e.g. 4,8,16")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = cmd("solve-xay", "solve X A Y = B", _solve_xay)
    p.add_argument("--a", required=True, help="matrix file for A")
    p.add_argument("--b", required=True, help="matrix file for B")
    p.add_argument("--out-x", help="write X to this matrix file")
    p.add_argument("--out-y", help="write Y to this matrix file")

    p = cmd("factor", "exact factorization X Y = B through a doubled space", _factor)
    p.add_argument("--b", required=True, help="matrix file for B")
    p.add_argument("--out-x", help="write X to this matrix file")
    p.add_argument("--out-y", help="write Y to this matrix file")

    p = cmd("match-inv", "invertible V matching vector constraints on V and V^-1", _match_inv)
    p.add_argument("--xs", required=True, help="constraint vectors for V, as matrix columns")
    p.add_argument("--xs-target", required=True, help="target vectors for V, as matrix columns")
    p.add_argument("--ys", required=True, help="constraint vectors for V^-1, as matrix columns")
    p.add_argument("--ys-target", required=True, help="target vectors for V^-1, as matrix columns")
    p.add_argument("--eps", required=True, type=float, help="constraint tolerance")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", help="write V to this matrix file")

    p = cmd("separate", "projection keeping a family of operators independent in trace duality", _separate)
    p.add_argument("matrices", nargs="+", help="operator matrix files")
    p.add_argument("--out", help="write the projection to this matrix file")

    p = cmd("expanding", "does T expand the seminorm x -> ||A x||?", _expanding)
    p.add_argument("--t", required=True, help="matrix file for T")
    p.add_argument("--a", required=True, help="matrix file for A")
    p.add_argument("--tol", type=float, default=PSD_TOL, help="PSD slack (default %(default)s)")
    p.add_argument("--dual-check", action="store_true", help="also run the transposed covering cross-check")

    p = cmd("classify-we", "closure of the expanding set from the s-number model of A", _classify_we)
    p.add_argument("--model", required=True, help="s-number model of A")
    p.add_argument("--kernel-trivial", action="store_true", help="assert ker A = {0} (default: nontrivial)")

    p = cmd("rigid", "identity-only rigidity certificate for the two-points-per-axis compact", _rigid)
    p.add_argument("--spec", required=True, help="JSON file with fields n, alphas, betas")
    p.add_argument("--norm-bound", required=True, type=float, help="norm cap for admissible covers")

    return top


def _read_ellipsoid(path: str):
    return spectra.ellipsoid(matrixio.read_matrix(path))


def _widths(args) -> None:
    e = _read_ellipsoid(args.matrix)
    spec, widths = e.spectrum, spectra.kolmogorov_widths(e)
    _emit(args, {"s_numbers": spec.values, "widths": widths.values, "rank": spec.rank},
          [f"s-numbers: {' '.join(_fmt(v) for v in spec.values)}",
           f"widths:    {' '.join(_fmt(v) for v in widths.values)}",
           f"rank:      {spec.rank}"])


def _section(args) -> None:
    e = _read_ellipsoid(args.matrix)
    spec = spectra.section_spectrum(e, matrixio.read_matrix(args.subspace))
    _emit(args, {"section_s_numbers": spec.values, "rank": spec.rank},
          [f"section s-numbers: {' '.join(_fmt(v) for v in spec.values)}",
           f"rank:              {spec.rank}"])


def _classify_seq(args) -> None:
    verdict = seqlab.is_lacunary(seqlab.parse_model(args.model), tau=args.tau, window=args.window)
    _emit(args, verdict,
          [f"lacunary:      {verdict.lacunary}",
           f"witness ratio: {_fmt(verdict.witness_ratio)}",
           f"exact:         {verdict.exact}"])


def _cover_test(args) -> None:
    cert = covering.covers(matrixio.read_matrix(args.t), _read_ellipsoid(args.e1),
                           _read_ellipsoid(args.e2), tol=args.tol)
    _emit(args, cert,
          [f"covers:     {cert.holds}",
           f"psd margin: {_fmt(cert.psd_margin)}"]
          + ([f"norm:       {_fmt(cert.norm)}"] if cert.norm is not None else []))


def _cover_make(args) -> None:
    d, c = covering.schmidt_cover(_read_ellipsoid(args.e1), _read_ellipsoid(args.e2))
    if args.out:
        matrixio.write_matrix(args.out, d)
    _emit(args, {"norm": c, "operator": d},
          [f"norm: {_fmt(c)}"] + ([f"operator written to {args.out}"] if args.out else []))


def _classify_wg(args, strict=False) -> None:
    classify = seqlab.classify_WCG if strict else seqlab.classify_WG
    verdict = classify(seqlab.parse_model(args.a), seqlab.parse_model(args.b), k_max=args.k_max)
    _emit(args, verdict, [_tag_line(verdict)])


def _classify_wcg(args) -> None:
    _classify_wg(args, strict=True)


def _range_equiv(args) -> None:
    eq = covering.range_equiv(matrixio.read_matrix(args.matrix1), matrixio.read_matrix(args.matrix2))
    lines = [f"same range: {eq.same_range}"]
    if eq.same_range:
        lines.append(f"c: {_fmt(eq.c)}  C: {_fmt(eq.C)}")
    _emit(args, eq, lines)


def _weakly_full(args) -> None:
    verdict = seqlab.is_weakly_full(seqlab.parse_model(args.model), args.codim)
    _emit(args, verdict,
          [f"weakly full: {verdict.weakly_full}",
           f"case:        {verdict.case}"])


def _dichotomy(args) -> None:
    model = seqlab.parse_model(args.model)
    report = covering.wot_density_experiment(model, args.m, args.dims, args.seed)
    lines = ["dim  rho"] + [f"{d:<4d} {_fmt(r)}" for d, r in zip(report.dims, report.rho)]
    lines.append(f"model lacunary: {report.model_lacunary}")
    _emit(args, report, lines)


def _emit_pair(args, pair) -> None:
    """Write the factors of a solved pair where asked, then report it."""
    if args.out_x:
        matrixio.write_matrix(args.out_x, pair.X)
    if args.out_y:
        matrixio.write_matrix(args.out_y, pair.Y)
    _emit(args, {"residual": pair.residual, "X": pair.X, "Y": pair.Y},
          [f"residual: {_fmt(pair.residual)}"])


def _solve_xay(args) -> None:
    _emit_pair(args, equations.solve_xay(matrixio.read_matrix(args.a), matrixio.read_matrix(args.b)))


def _factor(args) -> None:
    _emit_pair(args, equations.factor_pair(matrixio.read_matrix(args.b)))


def _match_inv(args) -> None:
    xs, xs_target, ys, ys_target = (matrixio.read_matrix(path).T for path in
                                    (args.xs, args.xs_target, args.ys, args.ys_target))
    cert = equations.match_invertible(xs, xs_target, ys, ys_target, eps=args.eps, seed=args.seed)
    if args.out:
        matrixio.write_matrix(args.out, cert.operator)
    _emit(args, cert,
          [f"condition:   {_fmt(cert.condition)}",
           f"x residuals: {' '.join(_fmt(r) for r in cert.x_residuals)}",
           f"y residuals: {' '.join(_fmt(r) for r in cert.y_residuals)}"])


def _separate(args) -> None:
    p = covering.find_separating_projection([matrixio.read_matrix(f) for f in args.matrices])
    if args.out:
        matrixio.write_matrix(args.out, p)
    rank = int(round(p.trace()))
    _emit(args, {"projection": p, "rank": rank}, [f"projection rank: {rank}"])


def _expanding(args) -> None:
    t, a = matrixio.read_matrix(args.t), matrixio.read_matrix(args.a)
    verdict = expanding.is_expanding(t, a, tol=args.tol)
    payload = {"expanding": verdict.expanding, "margin": verdict.margin}
    lines = [f"expanding: {verdict.expanding}", f"margin:    {_fmt(verdict.margin)}"]
    if args.dual_check:
        agree = expanding.expanding_dual_check(t, a)
        payload["dual_agreement"] = agree
        lines.append(f"dual agreement: {agree}")
    _emit(args, payload, lines)


def _classify_we(args) -> None:
    verdict = seqlab.classify_WE(seqlab.parse_model(args.model), kernel_trivial=args.kernel_trivial)
    _emit(args, verdict, [_tag_line(verdict)] + ([verdict.note] if verdict.note else []))


def _rigid(args) -> None:
    report = rigid.rigid_cover_search(_read_rigid_spec(args.spec), norm_bound=args.norm_bound)
    _emit(args, report,
          [f"identity only:   {report.identity_only}",
           f"admissible maps: {report.admissible_maps}",
           f"norm threshold:  {_fmt(report.max_norm_bound)}",
           f"edge graph:      out-degree min {report.edge_graph_stats.out_degree_min}, "
           f"in-degree max {report.edge_graph_stats.in_degree_max}"])


def run(argv) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (InputError, NotCoverableError, UnsolvableError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WidthlabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))
