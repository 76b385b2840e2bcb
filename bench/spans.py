"""In-memory spans around widthlab's public functions and the numpy/scipy
linear-algebra routines they call, and the per-layer metrics built from them.

Wrappers replace every name through which callers reach a wrapped function:
the attribute of its defining module, the re-export on the ``widthlab``
package and the ``from ... import`` copies held by the other widthlab
modules (``cli`` calling ``read_matrix``, ``covering`` calling
``ellipsoid``, ...).  numpy and scipy routines are replaced on
``numpy.linalg`` and ``scipy.linalg``, which widthlab looks up at call time.

A span is recorded only while an operation is open (:meth:`Tracer.begin`),
so the benchmark's own checks, which also use numpy, stay out of the trace.
Each span carries the operation id, its own id, its parent's id, a name, a
layer, start and end in nanoseconds, and an optional extra value (bytes for
file I/O, computed flops for linear algebra).
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("matrixio", "spectra", "seqlab", "covering", "equations",
          "expanding", "rigid", "cli")

_SKIP = object()


# ----------------------------------------------------------------------
# Computed flop counts: leading-order textbook counts for dense LAPACK
# routines (Golub & Van Loan, Matrix Computations, 4th ed., sections 5.2-5.4
# and 8.3-8.6).  They are derived from matrix sizes, not measured.
# ----------------------------------------------------------------------

def _mn(a):
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        return None
    m, n = int(shape[0]), int(shape[1])
    return max(m, n), min(m, n)


def _svd_values_flops(a) -> float:
    mn = _mn(a)
    if mn is None:
        return 0.0
    m, n = mn
    return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0


def _svd_meta(args, kwargs):
    a = args[0]
    mn = _mn(a)
    if mn is None:
        return ("svd", 0.0)
    m, n = mn
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    if not compute_uv:
        return ("svd", _svd_values_flops(a))
    if full:
        return ("svd", 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3)
    return ("svd", 14.0 * m * n * n + 8.0 * n ** 3)


def _norm_meta(args, kwargs):
    x = args[0]
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    if order == 2 and getattr(x, "ndim", 0) == 2:
        return ("svd", _svd_values_flops(x))  # the 2-norm is the top singular value
    return _SKIP


def _square_meta(kind: str, coeff: float):
    def meta(args, kwargs):
        mn = _mn(args[0])
        return (kind, 0.0 if mn is None else coeff * mn[1] ** 3)
    return meta


def _lstsq_meta(args, kwargs):
    a, b = args[0], args[1]
    mn = _mn(a)
    if mn is None:
        return ("other", 0.0)
    k = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
    return ("other", _svd_values_flops(a) + 2.0 * mn[0] * mn[1] * k)


def _pinv_meta(args, kwargs):
    mn = _mn(args[0])
    if mn is None:
        return ("other", 0.0)
    m, n = mn
    return ("other", 14.0 * m * n * n + 8.0 * n ** 3 + 2.0 * m * n * n)


def _qr_meta(args, kwargs):
    mn = _mn(args[0])
    if mn is None:
        return ("other", 0.0)
    m, n = mn
    return ("other", 4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


def _rank_meta(args, kwargs):
    return ("other", _svd_values_flops(args[0]))


# name on numpy.linalg -> meta(args, kwargs) giving (kind, flops) or _SKIP
_NUMPY_LINALG = {
    "svd": _svd_meta,
    "norm": _norm_meta,
    "eigvalsh": _square_meta("eigh", 4.0 / 3.0),
    "eigh": _square_meta("eigh", 9.0),
    "lstsq": _lstsq_meta,
    "inv": _square_meta("other", 2.0),
    "pinv": _pinv_meta,
    "qr": _qr_meta,
    "matrix_rank": _rank_meta,
}
# scipy.linalg.eigh(a, b, eigvals_only=True): Cholesky, reduction and a
# symmetric tridiagonal eigensolve, about 14/3 n^3.
_SCIPY_LINALG = {"eigh": _square_meta("other", 14.0 / 3.0)}


def _read_post(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return (os.fspath(path), os.path.getsize(path))


def _write_post(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


class Tracer:
    """Installs wrappers, records spans while an operation is open."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- operations ----------------------------------------------------
    def begin(self, op_id: int) -> None:
        self._op = op_id

    def end(self) -> None:
        self._op = None

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, meta=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            extra = meta(args, kwargs) if meta is not None else None
            if extra is _SKIP:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
            if post is not None:
                extra = post(args, kwargs, result)
            tracer.spans.append((tracer._op, span_id, parent, name, layer, t0, t1, extra))
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public widthlab function and the linear-algebra
        routines; idempotent only through :meth:`uninstall`."""
        import numpy.linalg
        import scipy.linalg

        if self._patches:
            raise RuntimeError("tracer already installed")
        for attr, meta in _NUMPY_LINALG.items():
            fn = getattr(numpy.linalg, attr)
            self._patch(numpy.linalg, attr, self._wrap(fn, f"numpy.linalg.{attr}", "linalg", meta))
        for attr, meta in _SCIPY_LINALG.items():
            fn = getattr(scipy.linalg, attr)
            self._patch(scipy.linalg, attr, self._wrap(fn, f"scipy.linalg.{attr}", "linalg", meta))

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"widthlab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                post = None
                if layer == "matrixio" and attr == "read_matrix":
                    post = _read_post
                elif layer == "matrixio" and attr == "write_matrix":
                    post = _write_post
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", layer, post=post)
        owners = [sys.modules["widthlab"]] + [sys.modules[f"widthlab.{layer}"] for layer in LAYERS]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

PER_LAYER_UNITS = {
    "linalg.svd_calls": "calls/op",
    "linalg.svd_ms": "ms/op",
    "linalg.eigh_calls": "calls/op",
    "linalg.eigh_ms": "ms/op",
    "linalg.other_ms": "ms/op",
    "linalg.flops_computed": "flop/op",
    "spectra.calls": "calls/op",
    "spectra.self_ms": "ms/op",
    "covering.calls": "calls/op",
    "covering.self_ms": "ms/op",
    "covering.dichotomy_ms": "ms/op",
    "equations.calls": "calls/op",
    "equations.self_ms": "ms/op",
    "expanding.calls": "calls/op",
    "expanding.self_ms": "ms/op",
    "seqlab.calls": "calls/op",
    "seqlab.self_ms": "ms/op",
    "seqlab.parse_ms": "ms/op",
    "rigid.calls": "calls/op",
    "rigid.self_ms": "ms/op",
    "matrixio.parse_ms": "ms/op",
    "matrixio.format_ms": "ms/op",
    "matrixio.bytes_read": "B/op",
    "matrixio.bytes_written": "B/op",
    "matrixio.reads_per_file": "reads/file",
    "cli.self_ms": "ms/op",
    "startup.python_ms": "ms",
    "startup.numpy_ms": "ms",
    "startup.scipy_ms": "ms",
    "startup.widthlab_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(span_sets, n_ops: int) -> dict:
    """Per-operation layer figures from one or more span lists.

    Each list comes from one process; span ids are unique within a list.
    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap: one thread).
    """
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    kind_calls = defaultdict(int)
    kind_ns = defaultdict(int)
    flops = 0.0
    dichotomy_ns = parse_model_ns = parse_ns = format_ns = 0
    bytes_read = bytes_written = reads = 0
    files = set()
    for proc, spans in enumerate(span_sets):
        child_ns = defaultdict(int)
        for op, sid, parent, name, layer, t0, t1, extra in spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        for op, sid, parent, name, layer, t0, t1, extra in spans:
            dur = t1 - t0
            own = dur - child_ns.get(sid, 0)
            calls[layer] += 1
            self_ns[layer] += own
            if layer == "linalg":
                kind, fl = extra
                kind_calls[kind] += 1
                kind_ns[kind] += dur
                flops += fl
            elif name == "covering.wot_density_experiment":
                dichotomy_ns += dur
            elif name == "seqlab.parse_model":
                parse_model_ns += dur
            elif name == "matrixio.parse_matrix":
                parse_ns += own
            elif name == "matrixio.format_matrix":
                format_ns += own
            elif name == "matrixio.read_matrix":
                reads += 1
                bytes_read += extra[1]
                files.add((proc, op, extra[0]))
            elif name == "matrixio.write_matrix":
                bytes_written += extra
    n = max(n_ops, 1)

    def ms(ns):
        return ns / 1e6 / n

    out = {
        "linalg.svd_calls": kind_calls["svd"] / n,
        "linalg.svd_ms": ms(kind_ns["svd"]),
        "linalg.eigh_calls": kind_calls["eigh"] / n,
        "linalg.eigh_ms": ms(kind_ns["eigh"]),
        "linalg.other_ms": ms(kind_ns["other"]),
        "linalg.flops_computed": flops / n,
        "covering.dichotomy_ms": ms(dichotomy_ns),
        "seqlab.parse_ms": ms(parse_model_ns),
        "matrixio.parse_ms": ms(parse_ns),
        "matrixio.format_ms": ms(format_ns),
        "matrixio.bytes_read": bytes_read / n,
        "matrixio.bytes_written": bytes_written / n,
        "matrixio.reads_per_file": reads / len(files) if files else 0.0,
        "cli.self_ms": ms(self_ns["cli"]),
    }
    for layer in ("spectra", "covering", "equations", "expanding", "seqlab", "rigid"):
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.self_ms"] = ms(self_ns[layer])
    return out


def overhead_pct(traced_s: float, traced_ops: int, plain_s: float, plain_ops: int) -> float:
    """Extra mean operation time of traced rounds over untraced ones, in %."""
    if not traced_ops or not plain_ops or plain_s <= 0:
        return math.nan
    return 100.0 * ((traced_s / traced_ops) / (plain_s / plain_ops) - 1.0)
