"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def lapack_calls(monkeypatch):
    """Shapes of the np.linalg eigh, qr and svd calls made while the test runs.

    A dict from routine name to the input shapes of its calls, in call order.
    """
    calls = {}
    for name in ("eigh", "qr", "svd"):
        shapes = calls[name] = []
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigh_calls(lapack_calls):
    """Shapes of the np.linalg.eigh calls made while the test runs, in call order."""
    return lapack_calls["eigh"]
