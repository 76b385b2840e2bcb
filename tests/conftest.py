import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of values-only SVDs (``svd``), factored SVDs (``svd_uv``, with
    ``compute_uv=True``) and ``np.linalg.eigvalsh`` calls made while the test
    runs; widthlab looks numpy's linear algebra up at call time.  A matrix
    2-norm from ``np.linalg.norm`` counts as a values-only SVD, since numpy
    takes it from one through a name this patch does not reach."""
    calls = {"svd": 0, "svd_uv": 0, "eigvalsh": 0}
    real_svd, real_eigvalsh, real_norm = np.linalg.svd, np.linalg.eigvalsh, np.linalg.norm

    def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        calls["svd_uv" if compute_uv else "svd"] += 1
        return real_svd(a, full_matrices, compute_uv, *args, **kwargs)

    def eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return real_eigvalsh(*args, **kwargs)

    def norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2) and np.ndim(x) == 2:
            calls["svd"] += 1
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls
