"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator as its first argument and draws from
it in a fixed order, so an instance is fully determined by the rng state it
receives.  Preconditions of the target checks hold by construction: positive
sequences stay in (0, SEQUENCE_HI], expansive members are I + QQ†,
contractive PD members have spectrum inside (CONTRACTIVE_FLOOR, 1], density
matrices are normalized spectra in a random basis.

Random-basis matrices are drawn and built in two steps.  A draw (_draw_pd,
_draw_contractive_pd) takes the spectrum and a complex Gaussian from the
rng; the build (_unitaries, then _build) turns stacks of draws (..., n)
and (..., n, n) into phase-fixed unitaries and U diag(w) U† in one qr and
one matmul.  Expansive members I + QQ† take the same two steps through
_draw_expansive and _build_expansive; commuting pairs and density
matrices draw through _draw_commuting, _draw_density and _draw_density_pair
and build through _build_pair (two spectra over one basis) or _build; PSD
matrices, contractions and sum-matched families are built by _build_psd,
_build_contraction and _split_matching from draws made in the generators'
order.  The one-matrix generators are the stack-free case, so a stacked
build is bitwise equal to one call per matrix.
"""

from __future__ import annotations

import numpy as np

from .matfun import SpectralDecomposition, _adjoint, _decompose, _herm, _total, hermitize
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


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real part, then imaginary part, drawn in one call: the values of two (n, n) draws."""
    x = rng.standard_normal((2, n, n))
    return x[0] + 1j * x[1]


def _unitaries(G: np.ndarray) -> np.ndarray:
    """Q of the QR of (a stack of) complex Gaussians, R's diagonal phases moved into Q."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _build(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U diag(w) U† for (stacks of) spectra w (..., n) and unitaries U (..., n, n)."""
    return _herm((U * w[..., None, :]) @ _adjoint(U))


def _draw_pd(rng: np.random.Generator, n: int, spectrum_range: tuple[float, float]):
    """The draws of rand_pd: spectrum uniform in [lo, hi], then the basis Gaussian."""
    lo, hi = spectrum_range
    return rng.uniform(lo, hi, n), _complex_gaussian(rng, n)


def _draw_contractive_pd(rng: np.random.Generator, n: int):
    """The draws of rand_contractive_pd: the spectrum, then the basis Gaussian."""
    return 1.0 - (1.0 - CONTRACTIVE_FLOOR) * rng.random(n), _complex_gaussian(rng, n)


def _draw_expansive(rng: np.random.Generator, n: int):
    """The draws of rand_expansive: the amplitude, then the Gaussian."""
    return rng.uniform(0.3, 1.0), _complex_gaussian(rng, n)


def _build_expansive(amp: np.ndarray, G: np.ndarray) -> np.ndarray:
    """I + QQ†, Q = amp G / sqrt(n), for (stacks of) amplitudes (...) and Gaussians (..., n, n)."""
    n = G.shape[-1]
    Q = (np.asarray(amp) / np.sqrt(n))[..., None, None] * G
    return _herm(np.eye(n) + Q @ _adjoint(Q))


def _build_psd(scale, G: np.ndarray) -> np.ndarray:
    """QQ†, Q = sqrt(scale/n) G, for (stacks of) scales (...) and Gaussians (..., n, n)."""
    Q = np.sqrt(np.asarray(scale) / G.shape[-1])[..., None, None] * G
    return _herm(Q @ _adjoint(Q))


def _build_contraction(s: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(U diag(s)) V† from the SVD G = U S V†, for (stacks of) s (..., n) and G (..., n, n)."""
    U, _, Vh = np.linalg.svd(G)
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
    return _unitaries(_complex_gaussian(rng, n))


def rand_pd(rng: np.random.Generator, n: int, spectrum_range: tuple[float, float]) -> np.ndarray:
    """PD matrix with spectrum uniform in [lo, hi], random basis."""
    w, G = _draw_pd(rng, n, spectrum_range)
    return _build(w, _unitaries(G))


def rand_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return _build_psd(scale, _complex_gaussian(rng, n))


def rand_expansive(rng: np.random.Generator, n: int) -> np.ndarray:
    """I + QQ†, so the spectrum sits in [1, 1 + ||Q||^2]."""
    return _build_expansive(*_draw_expansive(rng, n))


def rand_contractive_pd(rng: np.random.Generator, n: int) -> np.ndarray:
    """PD matrix below I: spectrum uniform in (CONTRACTIVE_FLOOR, 1]."""
    w, G = _draw_contractive_pd(rng, n)
    return _build(w, _unitaries(G))


def rand_contraction(rng: np.random.Generator, n: int) -> np.ndarray:
    """General complex matrix with singular values in [0, 1]."""
    G = _complex_gaussian(rng, n)
    return _build_contraction(rng.random(n), G)


def rand_square(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unstructured complex square matrix."""
    return _complex_gaussian(rng, n)


def rand_sequence(rng: np.random.Generator, n: int) -> np.ndarray:
    """Entries in (0, SEQUENCE_HI]: strictly positive so log-type f never sees 0."""
    return SEQUENCE_HI * (1.0 - rng.random(n))


def rand_sequence_pair(rng: np.random.Generator, n: int) -> SequencePair:
    return SequencePair(tuple(rand_sequence(rng, n)), tuple(rand_sequence(rng, n)))


def _draw_commuting(rng: np.random.Generator, n: int, a_range, b_range):
    """The draws of rand_commuting_pair: the basis Gaussian, then the spectra of A and B."""
    G = _complex_gaussian(rng, n)
    return G, rng.uniform(a_range[0], a_range[1], n), rng.uniform(b_range[0], b_range[1], n)


def _build_pair(G: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U diag(wa) U† and U diag(wb) U† over the unitaries U of (stacks of) Gaussians G."""
    U = _unitaries(G)
    return _build(wa, U), _build(wb, U)


def rand_commuting_pair(
    rng: np.random.Generator,
    n: int,
    a_range: tuple[float, float],
    b_range: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    return _build_pair(*_draw_commuting(rng, n, a_range, b_range))


def _density_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.random(n) + 1e-3  # bounded away from 0 so log stays finite
    return w / w.sum()


def _draw_density(rng: np.random.Generator, n: int):
    """The draws of rand_density: the spectrum, then the basis Gaussian."""
    return _density_spectrum(rng, n), _complex_gaussian(rng, n)


def _draw_density_pair(rng: np.random.Generator, n: int):
    """The draws of rand_density_pair: the basis Gaussian, then the spectra of rho and sigma."""
    G = _complex_gaussian(rng, n)
    return G, _density_spectrum(rng, n), _density_spectrum(rng, n)


def rand_density(rng: np.random.Generator, n: int) -> np.ndarray:
    w, G = _draw_density(rng, n)
    return _build(w, _unitaries(G))


def rand_density_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Commuting density pair with full support (shared eigenbasis)."""
    return _build_pair(*_draw_density_pair(rng, n))


def rand_split_matching(
    rng: np.random.Generator, total: np.ndarray, m: int, spectrum_range: tuple[float, float]
) -> list[np.ndarray]:
    """PD family B_1..B_m with sum exactly total (congruence-normalized shares)."""
    total = hermitize(total)
    spectra, gaussians = zip(*(_draw_pd(rng, total.shape[0], spectrum_range) for _ in range(m)))
    shares = _build(np.array(spectra), _unitaries(np.array(gaussians)))
    dec = _decompose(np.concatenate([_total(shares, [m]), total[None]]))
    return list(_split_matching(dec, shares, [m]))
