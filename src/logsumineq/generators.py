"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator as its first argument and draws from
it in a fixed order, so an instance is fully determined by the rng state it
receives.  Preconditions of the target checks hold by construction: positive
sequences stay in (0, SEQUENCE_HI], expansive members are I + QQ†,
contractive PD members have spectrum inside (CONTRACTIVE_FLOOR, 1], density
matrices are normalized spectra in a random basis.  A public generator
checks its dimension n and family size m (_count), its spectrum window
(errors._spectrum_range, TrialConfig's rule) and a total to split
(matfun._checked, then positive definite) before it draws, so a bad one is a
DomainError or DimensionError that leaves the stream untouched.

Random-basis matrices are drawn and built in two steps.  A draw is only
Generator calls, in the fewest that consume its stream: _draw_pd (the
draws of rand_pd, rand_contractive_pd and rand_density), _draw_expansive
and _draw_commuting (of rand_commuting_pair and rand_density_pair) return
the values the rng gives, a complex Gaussian as its raw real and imaginary
parts (2, n, n) (_complex_gaussian) and every spectrum or amplitude as its
raw uniforms, a pair's 2n spectrum uniforms from one random(2n) call.
Every map of drawn values runs in the build, once over a stack of draws:
_uniform maps uniforms onto a window [lo, hi] with the bits of
Generator.uniform(lo, hi), _sequence onto (0, SEQUENCE_HI], _contractive
and _density onto spectra; _complex assembles the Gaussians (..., 2, n, n) inside _unitaries,
_build_expansive, _build_psd and _build_contraction; _unitaries, then
matfun's _build, turn spectra (..., n) and Gaussians into phase-fixed
unitaries and U diag(w) U† in one qr and one matmul, and _build_pair
builds two spectra over one basis.  Sum-matched families are built by
_split_matching.  Elementwise maps give a stack's rows the bits they get
one at a time, so the one-matrix generators are the stack-free case, and a
stacked build is bitwise equal to one call per matrix.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError, _require, _spectrum_range
from .matfun import (
    INVERSE_FLOOR_RTOL,
    SpectralDecomposition,
    _adjoint,
    _build,
    _checked,
    _decompose,
    _herm,
    _Segments,
)
from .scalar import SequencePair

__all__ = [
    "rand_unitary",
    "rand_pd",
    "rand_psd",
    "rand_expansive",
    "rand_contractive_pd",
    "rand_contraction",
    "rand_square",
    "rand_sequence",
    "rand_sequence_pair",
    "rand_commuting_pair",
    "rand_density",
    "rand_density_pair",
    "rand_split_matching",
]

CONTRACTIVE_FLOOR = 0.05
SEQUENCE_HI = 10.0


def _count(value, what: str) -> int:
    """value checked an integer >= 1, not a bool: every generator's n and family size m."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real part, then imaginary part, in one (2, n, n) draw: the values of two (n, n) draws."""
    return rng.standard_normal((2, n, n))


def _complex(x: np.ndarray) -> np.ndarray:
    """The complex Gaussians (..., n, n) of (a stack of) raw draws x (..., 2, n, n).

    The bits of x[..., 0, :, :] + 1j * x[..., 1, :, :], without its second temporary.
    """
    G = x[..., 1, :, :] * 1j
    G += x[..., 0, :, :]
    return G


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(A stack of) uniforms u in [0, 1) on [lo, hi]: the bits of Generator.uniform(lo, hi)."""
    return lo + (hi - lo) * u


def _sequence(u: np.ndarray) -> np.ndarray:
    """Entries in (0, SEQUENCE_HI] from (a stack of) uniforms u in [0, 1)."""
    return SEQUENCE_HI * (1.0 - u)


def _contractive(u: np.ndarray) -> np.ndarray:
    """Spectra in (CONTRACTIVE_FLOOR, 1] from (a stack of) uniforms u (..., n) in [0, 1)."""
    return 1.0 - (1.0 - CONTRACTIVE_FLOOR) * u


def _density(u: np.ndarray) -> np.ndarray:
    """Density spectra from (a stack of) uniforms u (..., n), each row bounded away from 0."""
    w = u + 1e-3  # so log stays finite
    return w / w.sum(axis=-1, keepdims=True)


def _unitaries(x: np.ndarray) -> np.ndarray:
    """Q of the QR of (a stack of) complex Gaussians, from raw draws x (..., 2, n, n).

    R's diagonal phases are moved into Q.
    """
    Q, R = np.linalg.qr(_complex(x))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _draw_pd(rng: np.random.Generator, n: int):
    """The draws of rand_pd, rand_contractive_pd and rand_density: the spectrum's uniforms, then
    the basis Gaussian."""
    return rng.random(n), _complex_gaussian(rng, n)


def _draw_expansive(rng: np.random.Generator, n: int):
    """The draws of rand_expansive: the amplitude's uniform, then the Gaussian."""
    return rng.random(), _complex_gaussian(rng, n)


def _build_expansive(u, x: np.ndarray) -> np.ndarray:
    """I + QQ†, Q = amp G / sqrt(n), amp in [0.3, 1], for (stacks of) the amplitudes' uniforms u
    and raw Gaussians x of G."""
    n = x.shape[-1]
    Q = (_uniform(u, 0.3, 1.0) / np.sqrt(n))[..., None, None] * _complex(x)
    return _herm(np.eye(n) + Q @ _adjoint(Q))


def _build_psd(scale, x: np.ndarray) -> np.ndarray:
    """QQ†, Q = sqrt(scale/n) G, for (stacks of) scales and raw Gaussians x of G."""
    Q = np.sqrt(np.asarray(scale) / x.shape[-1])[..., None, None] * _complex(x)
    return _herm(Q @ _adjoint(Q))


def _build_contraction(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(U diag(s)) V† from the SVD G = U S V†, for (stacks of) s and raw Gaussians x of G."""
    U, _, Vh = np.linalg.svd(_complex(x))
    return (U * s[..., None, :]) @ Vh


def _split_matching(dec: SpectralDecomposition, shares: np.ndarray, m) -> np.ndarray:
    """carrier C_i carrier† with carrier = total^{1/2} S^{-1/2}, S = sum(C_i), for T families.

    dec decomposes [S_1..S_T, total_1..total_T] (2T, n, n), each total
    Hermitian PD, and the PD shares lie on one flat member axis (K, n, n),
    family t's m[t] on consecutive rows; each family's members sum to its total.
    """
    T = len(m)
    w, U = dec.eigenvalues, dec.unitary
    U_s, U_t = U[:T], U[T:]
    S_inv_half = (U_s * (1.0 / np.sqrt(w[:T, None, :]))) @ _adjoint(U_s)
    T_half = (U_t * np.sqrt(w[T:, None, :])) @ _adjoint(U_t)
    carrier = np.repeat(T_half @ S_inv_half, m, axis=0)
    return _herm(carrier @ shares @ _adjoint(carrier))


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    n = _count(n, "dimension n")
    return _unitaries(_complex_gaussian(rng, n))


def rand_pd(rng: np.random.Generator, n: int, spectrum_range: tuple[float, float]) -> np.ndarray:
    """PD matrix with spectrum uniform in [lo, hi], random basis."""
    n = _count(n, "dimension n")
    window = _spectrum_range(spectrum_range)
    u, x = _draw_pd(rng, n)
    return _build(_uniform(u, *window), _unitaries(x))


def rand_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    n = _count(n, "dimension n")
    return _build_psd(scale, _complex_gaussian(rng, n))


def rand_expansive(rng: np.random.Generator, n: int) -> np.ndarray:
    """I + QQ†, so the spectrum sits in [1, 1 + ||Q||^2]."""
    n = _count(n, "dimension n")
    return _build_expansive(*_draw_expansive(rng, n))


def rand_contractive_pd(rng: np.random.Generator, n: int) -> np.ndarray:
    """PD matrix below I: spectrum uniform in (CONTRACTIVE_FLOOR, 1]."""
    n = _count(n, "dimension n")
    u, x = _draw_pd(rng, n)
    return _build(_contractive(u), _unitaries(x))


def rand_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    """General complex matrix with singular values in [0, 1]."""
    n = _count(n, "dimension n")
    x = _complex_gaussian(rng, n)
    return _build_contraction(rng.random(n), x)


def rand_square(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unstructured complex square matrix."""
    n = _count(n, "dimension n")
    return _complex(_complex_gaussian(rng, n))


def rand_sequence(rng: np.random.Generator, n: int) -> np.ndarray:
    """Entries in (0, SEQUENCE_HI]: strictly positive so log-type f never sees 0."""
    n = _count(n, "dimension n")
    return _sequence(rng.random(n))


def rand_sequence_pair(rng: np.random.Generator, n: int) -> SequencePair:
    return SequencePair(tuple(rand_sequence(rng, n)), tuple(rand_sequence(rng, n)))


def _draw_commuting(rng: np.random.Generator, n: int, extra: int = 0):
    """The draws of rand_commuting_pair and rand_density_pair: the basis Gaussian, then the
    first and the second spectrum's uniforms, and extra more, in one call."""
    return _complex_gaussian(rng, n), rng.random(2 * n + extra)


def _build_pair(x: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U diag(wa) U† and U diag(wb) U† over the unitaries U of (stacks of) raw Gaussians x."""
    U = _unitaries(x)
    return _build(wa, U), _build(wb, U)


def rand_commuting_pair(
    rng: np.random.Generator,
    n: int,
    a_range: tuple[float, float],
    b_range: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Commuting PD pair (shared eigenbasis), A's spectrum uniform in a_range and B's in b_range."""
    n = _count(n, "dimension n")
    a_window, b_window = _spectrum_range(a_range), _spectrum_range(b_range)
    x, u = _draw_commuting(rng, n)
    return _build_pair(x, _uniform(u[:n], *a_window), _uniform(u[n:], *b_window))


def rand_density(rng: np.random.Generator, n: int) -> np.ndarray:
    n = _count(n, "dimension n")
    u, x = _draw_pd(rng, n)
    return _build(_density(u), _unitaries(x))


def rand_density_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Commuting density pair with full support (shared eigenbasis)."""
    n = _count(n, "dimension n")
    x, u = _draw_commuting(rng, n)
    return _build_pair(x, _density(u[:n]), _density(u[n:]))


def rand_split_matching(
    rng: np.random.Generator, total: np.ndarray, m: int, spectrum_range: tuple[float, float]
) -> list[np.ndarray]:
    """PD family B_1..B_m with sum exactly total (congruence-normalized shares).

    total must be Hermitian with its least eigenvalue above INVERSE_FLOOR_RTOL times its
    largest magnitude, the default inverse floor.
    """
    (total,) = _checked({"total": total})
    dec_total = _decompose(total[None])
    w = dec_total.eigenvalues[0]
    ok = w[0] > INVERSE_FLOOR_RTOL * abs(w).max()
    _require(ok, DomainError, "total is not positive definite (min eigenvalue {:.3e})", w[0])
    m = _count(m, "family size m")
    window = _spectrum_range(spectrum_range)
    uniforms, gaussians = zip(*(_draw_pd(rng, total.shape[0]) for _ in range(m)))
    shares = _build(_uniform(np.array(uniforms), *window), _unitaries(np.array(gaussians)))
    dec_sum = _decompose(_Segments([m]).total(shares))
    dec = SpectralDecomposition(
        np.concatenate([dec_sum.unitary, dec_total.unitary]),
        np.concatenate([dec_sum.eigenvalues, dec_total.eigenvalues]),
    )
    return list(_split_matching(dec, shares, [m]))
