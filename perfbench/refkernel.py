"""Fixed reference kernel used to normalize timings against machine drift.

On a small shared VM the core can run 20-40% slower for stretches of several
seconds, and raw wall-clock timings then vary far more between runs than any
change under test.  The benchmark times this kernel right before and after
every harness call and divides the call's time by the mean of the two kernel
times.  The kernel mixes the same kinds of work the verifier does at small n
(interpreter loops, small-array ufuncs, 3x3 complex `eigh` and `qr`), so a
slowdown that hits one hits the other.

This module imports numpy and the standard library only, never `logsumineq`:
a change to the program under test must not change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference machine (2 vCPU, Python 3.11, numpy 2.4,
# OpenBLAS, one BLAS thread).  Normalized times are reported in these units:
# normalized = raw * NOMINAL_S / measured kernel time.
NOMINAL_S = 4.5e-3

_ROUNDS = 48


def _inputs() -> list[np.ndarray]:
    rng = np.random.default_rng(20200507)
    return [
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(_ROUNDS)
    ]


_MATS = _inputs()
# Bound once, so that wrapping numpy.linalg for a traced run leaves the
# kernel untouched.
_qr = np.linalg.qr
_eigh = np.linalg.eigh


def run() -> float:
    """Run the kernel once and return a checksum, so no work can be skipped."""
    acc = 0.0
    for G in _MATS:
        Q, R = _qr(G)
        d = np.diag(R)
        U = Q * (d / np.abs(d))
        H = (G + G.conj().T) / 2.0
        w, V = _eigh(H)
        F = (V * np.exp(np.clip(w, -5.0, 5.0))) @ V.conj().T
        F = (F + F.conj().T) / 2.0
        acc += float(np.max(np.abs(U.conj().T @ F @ U)))
        # interpreter work: small Python-level bookkeeping as in the harness
        counts: dict[int, float] = {}
        for k in range(40):
            key = (k * 7) % 11
            counts[key] = counts.get(key, 0.0) + 0.5 * k
        acc += sum(counts.values()) * 1e-6
    return acc


def timed() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
