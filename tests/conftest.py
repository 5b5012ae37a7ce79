"""Shared fixtures: deterministic seeding and small reusable models/datasets."""

import numpy as np
import pytest

from repro.utils import seed_everything


@pytest.fixture(autouse=True)
def _seed_everything():
    """Every test starts from the same global seed for reproducibility."""
    seed_everything(1234)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def svd_calls(monkeypatch):
    """Names of the SVD routines called while the test runs, one entry per call.

    Covers both SVDs the package uses: ``np.linalg.svd`` (factorization,
    spectral init) and ``scipy.linalg.svdvals`` (stable rank).
    """
    import scipy.linalg

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(scipy.linalg, "svdvals", counted(scipy.linalg.svdvals))
    return calls


def numeric_gradient(fn, array, eps=1e-3):
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array`` (mutated in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture
def gradcheck():
    return numeric_gradient
