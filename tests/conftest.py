import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of SVDs and ``np.linalg.eigvalsh`` calls made while the test
    runs; widthlab looks numpy's linear algebra up at call time.  A matrix
    2-norm from ``np.linalg.norm`` counts as an SVD, since numpy takes it
    from one through a name this patch does not reach."""
    calls = {"svd": 0, "eigvalsh": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    real_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2) and np.ndim(x) == 2:
            calls["svd"] += 1
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls
