"""Plain-text matrix files shared by the whole package and its CLI.

Format: the first line holds ``rows cols``; each of the following ``rows``
lines holds ``cols`` whitespace-separated decimal numbers.  Numbers are
written with 17 significant digits so write/read round-trips every float64
bit-exactly.
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

    out = np.empty((rows, cols), dtype=float)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) < rows:
        raise InputError(f"{source}:{len(lines)}: expected {rows} data rows, found {len(body)}")
    for i in range(rows):
        parts = body[i].split()
        if len(parts) != cols:
            raise InputError(f"{source}:{i + 2}: expected {cols} entries, found {len(parts)}")
        for j, tok in enumerate(parts):
            try:
                out[i, j] = float(tok)
            except ValueError:
                raise InputError(f"{source}:{i + 2}: column {j + 1}: not a number: {tok!r}") from None
    if not np.all(np.isfinite(out)):
        raise InputError(f"{source}: matrix contains non-finite entries")
    return out


def format_matrix(a: np.ndarray) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise InputError(f"can only format 2-d arrays, got shape {a.shape}")
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


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
