"""Exception hierarchy and the checks on caller-supplied values.

``InputError`` marks contract violations on user-supplied data (bad shapes,
broken invariants, unparsable files).  The remaining classes mark graceful
mathematical refusals: an operation whose precondition is a theorem-level
hypothesis raises a dedicated error instead of returning garbage.

Each check of a value a caller passes in is written once here, next to the
error it raises; the CLI passes its arguments straight to the library, so
both accept the same values.  ``as_*`` returns the checked array, ``check_*``
only raises.  numpy is imported by the array checks themselves, so a
command that checks only scalars never loads it.
"""

from __future__ import annotations

import math
import numbers

ORTHO_TOL = 1e-9

# PSD slack of the covering and expanding certificates: a certificate
# holds iff its scaled margin is at least ``-PSD_TOL``.
PSD_TOL = 1e-9


class WidthlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WidthlabError, ValueError):
    """Invalid input: shape mismatch, violated invariant, parse failure."""


class NotCoverableError(WidthlabError):
    """No bounded covering operator exists for the requested pair."""


class InfeasibleError(WidthlabError):
    """A constructive operation cannot meet the requested tolerance.

    Carries ``achieved``, the best residual the construction reached.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class UnsolvableError(WidthlabError):
    """The operator equation has no solution; carries the verdict."""

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


def frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    import numpy as np

    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def as_operator(a, name: str = "matrix") -> np.ndarray:
    """A dense 2-d float array with positive dimensions and finite entries."""
    import numpy as np

    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name}: expected a 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"{name}: dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name}: entries must be finite")
    return arr


def as_square(named) -> list[np.ndarray]:
    """Operators given as ``(name, value)`` pairs, each checked by
    :func:`as_operator`, square and of one size."""
    mats = [as_operator(value, name) for name, value in named]
    if not mats:
        raise InputError("need at least one operator")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise InputError(f"{' and '.join(name for name, _ in named)} must be square of one "
                         f"size, got {' and '.join(str(m.shape) for m in mats)}")
    return mats


def as_columns(vectors, dim: int | None, name: str) -> np.ndarray:
    """Finite vectors of length ``dim`` as the columns of one array;
    ``dim=None`` takes the length of the first vector."""
    import numpy as np

    arrs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not arrs:
        return np.zeros((dim or 0, 0))
    d = arrs[0].size if dim is None else dim
    for i, v in enumerate(arrs):
        if v.size != d:
            raise InputError(f"{name}[{i}]: expected length {d}, got {v.size}")
        if not np.all(np.isfinite(v)):
            raise InputError(f"{name}[{i}]: entries must be finite")
    return np.column_stack(arrs)


def as_subspace(y, dim: int, name: str) -> np.ndarray:
    """Finite columns in dimension ``dim``, orthonormal up to ``ORTHO_TOL``;
    ``None`` is the zero subspace, a ``(dim, 0)`` array."""
    import numpy as np

    q = np.zeros((dim, 0)) if y is None else np.asarray(y, dtype=float)
    if q.ndim != 2 or q.shape[0] != dim:
        raise InputError(f"{name}: expected shape ({dim}, m), got {q.shape}")
    # a Gram matrix made non-finite by an entry or by overflow fails `<=`
    with np.errstate(over="ignore", invalid="ignore"):
        if q.shape[1] and not np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= ORTHO_TOL:
            if not np.all(np.isfinite(q)):
                raise InputError(f"{name}: entries must be finite")
            raise InputError(f"{name}: columns are not orthonormal (tolerance {ORTHO_TOL:g})")
    return q


def check_spectrum(values: np.ndarray, name: str) -> None:
    """``values`` must be finite, nonnegative and nonincreasing.  One pass
    tests the order; a nonincreasing sequence is then finite and
    nonnegative when its first value is below infinity and its last is at
    least zero.  NaN fails every comparison, so it is rejected wherever it
    sits."""
    if values.size and not (values[0] < math.inf and values[-1] >= 0
                            and (values[1:] <= values[:-1]).all()):
        raise InputError(f"{name} must be finite, nonnegative and nonincreasing")


def check_no_overflow(values, name: str) -> None:
    """``values``, computed from finite input, must have stayed finite."""
    import numpy as np

    if not np.isfinite(values).all():
        raise InputError(f"{name} overflow double precision; rescale the input")


def check_positive(value, name: str) -> None:
    """``value`` must be a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be a positive finite number, got {value}")


def check_integer(value, minimum: int, refusal: str) -> None:
    """``value`` must be an integer of at least ``minimum``; a bool is not
    one.  The error is ``refusal`` with the value in its ``{}``, marked when
    it is not an integer."""
    # the exact-type test spares the common int an abstract-class lookup
    integral = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not (integral and value >= minimum):
        raise InputError(refusal.format(value if integral else f"{value!r} (not an integer)"))
