"""Shared fixtures."""

import sys

import numpy as np
import pytest

from logsumineq import matfun


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


@pytest.fixture
def input_checks(monkeypatch):
    """Calls to matfun's input checks made while the test runs.

    A dict from check name (_as_square_complex, _require_hermitian) to its
    call count, wherever in the package the check is called from.
    """
    counts = {}
    for name in ("_as_square_complex", "_require_hermitian"):
        counts[name] = 0
        real = getattr(matfun, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("logsumineq") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts
