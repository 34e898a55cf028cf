"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the np.linalg.eigh calls made while the test runs, in call order."""
    calls = []
    real = np.linalg.eigh

    def counted(H):
        calls.append(H.shape)
        return real(H)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
