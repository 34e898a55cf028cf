"""Hermitian matrix functional calculus and Loewner-order comparison.

Everything here works through the spectral decomposition A = U diag(w) U†:
f(A) = U diag(f(w)) U†.  Each matrix is decomposed once; A^{1/2}, A^{-1},
A^{-1/2} and f(A) are all read off that one SpectralDecomposition (map,
sqrt, inverse, then reconstruct), never by decomposing an intermediate
result again.  Inputs are validated once, at the public functions; the
private _decompose and _herm take arrays that are already square, finite
and Hermitian, and are what internal kernels call.

Stacks: _herm, _decompose, _verdict, jacobi_eigh and every
SpectralDecomposition method accept leading batch axes, (..., n, n) for
matrices and (..., n) for eigenvalues, and treat each trailing matrix on its
own; _total sums a family's members along axis -3.  Checks reduce over
the last axis and report the first failing matrix with the message of the
one-matrix case.  A one-matrix call is the stack
case with no leading axes, not a second implementation, and a stacked
result must be bitwise equal to the results of one call per matrix: numpy's
eigh, qr and matmul loop the same LAPACK/BLAS routine over the leading axes,
and everything else here is elementwise.

Two eigensolvers are available: "eigh" (LAPACK via numpy) and "jacobi" (a
self-contained cyclic Jacobi sweep, run on a whole stack at once).  The
second exists so that candidate counterexamples can be re-verified through
an independent numerical route; keep the two code paths distinct.  Only
spectral_decompose and the private _decompose take the choice; every other
function here uses "eigh".  The sweep holds each matrix H and its
accumulated unitary U as one (2n, n) array, H on rows :n and U on rows n:,
so that one column rotation turns both; a pair is rotated and fixed
without a mask only when every live matrix of the stack turns it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NumericError,
    PreconditionError,
    SingularityError,
    _tolerance,
)
from .functions import FunctionSpec, _apply_rows

__all__ = [
    "SpectralDecomposition",
    "LoewnerVerdict",
    "maxnorm",
    "hermitize",
    "commutator_maxnorm",
    "commutes",
    "jacobi_eigh",
    "spectral_decompose",
    "apply_function",
    "loewner_leq",
    "make_commuting_pair",
    "psd_inverse",
    "psd_sqrt",
]

HERMITIAN_RTOL = 1e-12
COMMUTE_RTOL = 1e-9
UNITARY_TOL = 1e-10
PSD_CLAMP_RTOL = 1e-12
SOLVERS = ("eigh", "jacobi")


def _as_square_complex(M, what: str = "matrix", stack: bool = False) -> np.ndarray:
    """M as a complex (n, n) array, or (..., n, n) with stack=True, checked finite."""
    A = np.asarray(M, dtype=complex)
    if (A.ndim < 2 if stack else A.ndim != 2) or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise DimensionError(f"{what} must be square with n >= 1, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise DomainError(f"{what} has non-finite entries")
    return A


def maxnorm(M) -> float:
    """Largest entry magnitude."""
    A = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(A))) if A.size else 0.0


def _adjoint(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _herm(A: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of (a stack of) square complex arrays; exactly Hermitian, no checks."""
    return (A + _adjoint(A)) / 2.0


def _total(X: np.ndarray) -> np.ndarray:
    """Sum over the member axis (-3) in member order, as sum() adds a list of members."""
    return sum(X[..., k, :, :] for k in range(X.shape[-3]))


def _first(bad: np.ndarray, *values: np.ndarray) -> list[float]:
    """values at the first True entry of bad (C order), for error messages."""
    k = int(np.flatnonzero(bad)[0])
    return [float(np.ravel(np.broadcast_to(v, np.shape(bad)))[k]) for v in values]


def hermitize(M) -> np.ndarray:
    """(M + M†)/2.  Idempotent on Hermitian inputs."""
    return _herm(_as_square_complex(M))


def _require_hermitian(M, what: str = "matrix", stack: bool = False) -> np.ndarray:
    A = _as_square_complex(M, what, stack)
    drift = np.abs(A - _adjoint(A)).max(axis=(-2, -1))
    bad = drift > HERMITIAN_RTOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    if bad.any():
        (drift,) = _first(bad, drift)
        raise DomainError(f"{what} is not Hermitian (anti-Hermitian part {drift:.3e})")
    return _herm(A)


def commutator_maxnorm(A, B) -> float:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return maxnorm(A @ B - B @ A)


def commutes(A, B) -> bool:
    return commutator_maxnorm(A, B) <= COMMUTE_RTOL * max(1.0, maxnorm(A) * maxnorm(B))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary U and real eigenvalues w with A = U diag(w) U†.

    A decomposition fresh from an eigensolver has w ascending.  map, sqrt and
    inverse return new decompositions over the same U whose values follow
    U's columns, so they need not be sorted.  A stack of decompositions has
    U of shape (..., n, n) and w of shape (..., n); indexing it indexes the
    leading axes.
    """

    unitary: np.ndarray
    eigenvalues: np.ndarray

    def __getitem__(self, index) -> SpectralDecomposition:
        return SpectralDecomposition(self.unitary[index], self.eigenvalues[index])

    def reconstruct(self) -> np.ndarray:
        """U diag(w) U†, the one place a decomposition becomes a matrix again."""
        U = self.unitary
        return _herm((U * self.eigenvalues[..., None, :]) @ _adjoint(U))

    def _with(self, values) -> SpectralDecomposition:
        w = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(w)):
            raise DomainError("matrix has non-finite entries")
        return SpectralDecomposition(self.unitary, w)

    def map(self, f) -> SpectralDecomposition:
        """f(A).  Raises DomainError if an eigenvalue exits f's domain.

        f is a FunctionSpec, or for a stack one per entry of the first axis.
        """
        return self._with(_apply_rows(f, self.eigenvalues))

    def sqrt(self) -> SpectralDecomposition:
        """Unique PSD square root; eigenvalues in [-1e-12*norm, 0) are clamped to 0."""
        w = self.eigenvalues
        lowest = w.min(axis=-1)
        clamp = PSD_CLAMP_RTOL * np.maximum(1.0, abs(w).max(axis=-1))
        bad = lowest < -clamp
        if bad.any():
            low, lim = _first(bad, lowest, clamp)
            raise DomainError(
                f"matrix is not PSD (min eigenvalue {low:.3e} below clamp -{lim:.3e})"
            )
        return self._with(np.sqrt(np.clip(w, 0.0, None)))

    def inverse(self, floor: float | None = None) -> SpectralDecomposition:
        """A^{-1} for positive definite A.

        floor defaults to 1e-10 * max|eigenvalue|; any eigenvalue below the
        floor (or a floor that is not strictly positive, NaN included) is
        treated as singular rather than inverted, so round-off null spaces
        cannot leak huge weights.
        """
        w = self.eigenvalues
        lowest = w.min(axis=-1)
        if floor is None:
            floor = 1e-10 * abs(w).max(axis=-1)
        bad = ~((floor > 0.0) & (lowest >= floor))
        if bad.any():
            lim, low = _first(bad, floor, lowest)
            raise SingularityError(
                f"matrix not invertible above floor {lim:.3e} (min eigenvalue {low:.3e})"
            )
        return self._with(1.0 / w)


@dataclass(frozen=True)
class LoewnerVerdict:
    """PSD verdict on a residual matrix.

    holds iff residual_min_eigenvalue >= -tolerance * max(1, residual_norm),
    where residual_norm is the spectral norm of the residual.
    """

    residual_min_eigenvalue: float
    residual_norm: float
    tolerance: float
    holds: bool


_JACOBI_MAX_SWEEPS = 100


def _frobenius(H: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a (K, n, n) stack, bit for bit.

    norm sums the squares of the real parts, then of the imaginary parts,
    each as one BLAS dot product; a (K, 1, L) @ (K, L, 1) matmul runs the
    same dot on every matrix.
    """
    x = H.reshape(H.shape[0], 1, H.shape[-1] ** 2)
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def _rotate(X: np.ndarray, p: int, q: int, c, a, b, turn=None) -> None:
    """Columns p, q of each matrix: x_p <- c x_p - a x_q, x_q <- b x_p + c x_q.

    With a turn mask only the matrices where turn is True rotate; the others
    keep their bits, because an identity rotation is not a no-op: x - 0*y
    turns -0.0 into +0.0.
    """
    x_p, x_q = X[:, :, p], X[:, :, q]
    new_p, new_q = c * x_p - a * x_q, b * x_p + c * x_q
    if turn is not None:
        new_p, new_q = np.where(turn, new_p, x_p), np.where(turn, new_q, x_q)
    X[:, :, p], X[:, :, q] = new_p, new_q


def jacobi_eigh(A) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix, or of a stack (..., n, n).

    Returns (eigenvalues ascending, unitary V with A = V diag(w) V†), with
    A's leading axes.  Independent of LAPACK; used as the second-opinion
    solver.  Each matrix of a stack keeps its own scale, skips its own small
    pairs and stops sweeping once it has converged, so it gets exactly the
    arithmetic, and the bits, of a one-matrix call.  Errors name the first
    failing matrix in C order, with the one-matrix message.

    The sweep holds the live matrices as one (K, 2n, n) array W, H on rows
    :n and the accumulated unitary U on rows n:, so that one column rotation
    of W turns both.  A pair that every live matrix turns is rotated and
    fixed with plain slices; only a pair that some of them skip takes the
    masked form.
    """
    H = _require_hermitian(A, "jacobi input", stack=True)
    shape, n = H.shape, H.shape[-1]
    H = H.reshape(-1, n, n)
    K = H.shape[0]
    w = np.empty(H.shape[:-1])
    V = np.empty(H.shape, dtype=complex)
    W = np.concatenate((H, np.broadcast_to(np.eye(n, dtype=complex), H.shape)), axis=1)
    ids = np.arange(K)
    scale = np.maximum(1.0, _frobenius(H))
    target, floor = 1e-14 * scale, 1e-18 * scale
    diagonal = np.eye(n, dtype=bool)
    sweeps = 0
    while True:
        # Only the matrices that have not converged sweep again.
        offdiag = _frobenius(np.where(diagonal, 0.0, W[:, :n]))
        live = offdiag > target
        if not live.all():
            done = ~live
            w[ids[done]] = np.diagonal(W[done, :n], axis1=-2, axis2=-1).real
            V[ids[done]] = W[done, n:]
            W, ids, target, floor, offdiag = (x[live] for x in (W, ids, target, floor, offdiag))
        if not ids.size:
            break
        H = W[:, :n]
        if sweeps >= _JACOBI_MAX_SWEEPS:
            raise NumericError(
                f"jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
                f"(n={n}, offdiag={offdiag[0]:.3e}, maxnorm={maxnorm(H[0]):.3e})"
            )
        HT = H.swapaxes(-1, -2)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[:, p, q]
                # hypot, not np.abs: array abs of complex values is not
                # bitwise the scalar abs of a one-matrix sweep.
                beta = np.hypot(apq.real, apq.imag)
                turn = beta > floor
                every = turn.all()
                if not every:
                    if not turn.any():
                        continue
                    beta = np.where(turn, beta, 1.0)
                phi = apq / beta
                tau = (H[:, q, q].real - H[:, p, p].real) / (2.0 * beta)
                # 1/(tau + sqrt(1 + tau^2)) for tau >= 0, else -1/(-tau + sqrt(1 + tau^2))
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- J† A J and U <- U J with J[p,p]=c, J[p,q]=s*phi,
                # J[q,p]=-s*conj(phi), J[q,q]=c
                s_phi, s_conj = (s * phi)[:, None], (s * np.conj(phi))[:, None]
                c = c[:, None]
                cols, sel = (None, slice(None)) if every else (turn[:, None], turn)
                _rotate(W, p, q, c, s_conj, s_phi, cols)
                _rotate(HT, p, q, c, s_phi, s_conj, cols)
                H[sel, p, q] = H[sel, q, p] = 0.0
                H[sel, p, p] = H[sel, p, p].real
                H[sel, q, q] = H[sel, q, q].real
        sweeps += 1
    order = np.argsort(w, axis=-1, kind="stable")
    rows = np.arange(K)[:, None]
    return w[rows, order].reshape(shape[:-1]), V[rows, :, order].swapaxes(-1, -2).reshape(shape)


def _decompose(H: np.ndarray, solver: str = "eigh") -> SpectralDecomposition:
    """Eigendecomposition of (a stack of) already Hermitian arrays; no input checks.

    Either solver takes a whole stack in one call: "eigh" in one LAPACK
    call, "jacobi" in one call of jacobi_eigh, looked up by its module name
    so that a wrapper bound there (a tracer, a test's counter) sees it.
    """
    if solver == "eigh":
        try:
            w, U = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigh failed to converge (n={H.shape[-1]}, maxnorm={maxnorm(H):.3e}): {exc}"
            ) from exc
    elif solver == "jacobi":
        w, U = jacobi_eigh(H)
    else:
        raise DomainError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    return SpectralDecomposition(np.ascontiguousarray(U), np.asarray(w, dtype=float))


def spectral_decompose(A, solver: str = "eigh") -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return _decompose(_require_hermitian(A), solver)


def apply_function(f: FunctionSpec, A) -> np.ndarray:
    """f(A) = U diag(f(w)) U†.  Raises DomainError if an eigenvalue exits f's domain."""
    return spectral_decompose(A).map(f).reconstruct()


def _verdict(w: np.ndarray, tol: float) -> LoewnerVerdict:
    """PSD verdict on a residual with eigenvalues w.

    For a stack w of shape (..., n) the verdict's fields are arrays over the
    leading axes; for one residual they are plain floats and a bool.
    """
    tol = _tolerance(tol)
    min_eig = w.min(axis=-1)
    norm = abs(w).max(axis=-1)
    holds = min_eig >= -tol * np.maximum(1.0, norm)
    if np.ndim(w) == 1:
        return LoewnerVerdict(float(min_eig), float(norm), tol, bool(holds))
    return LoewnerVerdict(min_eig, norm, tol, holds)


def loewner_leq(A, B, tol: float = 1e-9) -> LoewnerVerdict:
    """Verdict on A <= B in the Loewner order, i.e. B - A PSD within tolerance."""
    A = _require_hermitian(A, "A")
    B = _require_hermitian(B, "B")
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch {A.shape} vs {B.shape}")
    return _verdict(_decompose(_herm(B - A)).eigenvalues, tol)


def make_commuting_pair(U, lambda_a, lambda_b) -> tuple[np.ndarray, np.ndarray]:
    """(U diag(la) U†, U diag(lb) U†), commuting by shared eigenbasis."""
    U = _as_square_complex(U, "U")
    n = U.shape[0]
    gram_drift = maxnorm(U.conj().T @ U - np.eye(n))
    if gram_drift > UNITARY_TOL:
        raise PreconditionError(f"U is not unitary (U†U - I maxnorm {gram_drift:.3e})")
    la = np.asarray(lambda_a, dtype=float)
    lb = np.asarray(lambda_b, dtype=float)
    if la.shape != (n,) or lb.shape != (n,):
        raise DimensionError(f"eigenvalue lists must have length {n}")
    if not (np.all(np.isfinite(la)) and np.all(np.isfinite(lb))):
        raise DomainError("eigenvalue lists must be finite")
    return SpectralDecomposition(U, la).reconstruct(), SpectralDecomposition(U, lb).reconstruct()


def psd_inverse(A, floor: float | None = None) -> np.ndarray:
    """Inverse through the spectral decomposition (see SpectralDecomposition.inverse)."""
    return spectral_decompose(A).inverse(floor).reconstruct()


def psd_sqrt(A) -> np.ndarray:
    """Unique PSD square root; eigenvalues in [-1e-12*norm, 0) are clamped to 0."""
    return spectral_decompose(A).sqrt().reconstruct()
