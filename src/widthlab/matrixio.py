"""Plain-text matrix files shared by the whole package and its CLI.

Format: the first line holds ``rows cols``; each of the following ``rows``
non-blank lines holds ``cols`` whitespace-separated numbers in Python
``float`` syntax.  Blank lines are skipped but counted in error positions;
a ``rows x 0`` matrix has no non-blank data line.  Numbers are written with
17 significant digits so write/read round-trips every float64 bit-exactly.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError

__all__ = ["read_matrix", "write_matrix", "parse_matrix", "format_matrix"]


def parse_matrix(text: str, source: str = "<string>") -> np.ndarray:
    """Parse the text matrix format; errors name the source and position."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError(f"{source}:1: expected header 'rows cols'")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"{source}:1: header must be 'rows cols', got {lines[0].strip()!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(f"{source}:1: header must hold two integers, got {lines[0].strip()!r}") from None
    if rows < 0 or cols < 0:
        raise InputError(f"{source}:1: negative dimensions {rows}x{cols}")

    # 1-based line numbers of the non-blank lines after the header; a row
    # with no entries is a blank line, so a rows x 0 matrix has none
    body = [n for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    data = body[:rows] if cols else []
    if cols and len(body) < rows:
        raise InputError(f"{source}:{len(lines)}: expected {rows} data rows, found {len(body)}")
    tokens = []
    for n in data:
        parts = lines[n - 1].split()
        if len(parts) != cols:
            raise InputError(f"{source}:{n}: expected {cols} entries, found {len(parts)}")
        tokens += parts
    out = np.empty((rows, cols), dtype=float)
    try:
        out.ravel()[:] = list(map(float, tokens))
    except ValueError:  # only now look for the token float() refused
        for k, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                raise InputError(f"{source}:{data[k // cols]}: column {k % cols + 1}: "
                                 f"not a number: {tok!r}") from None
    if len(body) > len(data):
        raise InputError(f"{source}:{body[len(data)]}: unexpected data after the {rows}x{cols} matrix")
    if not np.all(np.isfinite(out)):
        raise InputError(f"{source}: matrix contains non-finite entries")
    return out


def format_matrix(a: np.ndarray) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise InputError(f"can only format 2-d arrays, got shape {a.shape}")
    rows, cols = a.shape
    # "%.17g" % x and f"{x:.17g}" give the same digits for every float
    template = "\n".join([f"{rows} {cols}"] + [" ".join(["%.17g"] * cols)] * rows) + "\n"
    return template % tuple(a.ravel().tolist())


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    return parse_matrix(text, source=str(path))


def write_matrix(path: str | os.PathLike, a: np.ndarray) -> None:
    text = format_matrix(a)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from None
