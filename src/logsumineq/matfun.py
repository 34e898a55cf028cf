"""Hermitian matrix functional calculus and Loewner-order comparison.

Everything here works through the spectral decomposition A = U diag(w) U†:
f(A) = U diag(f(w)) U†.  Each matrix is decomposed once; A^{1/2}, A^{-1},
A^{-1/2} and f(A) are all read off that one SpectralDecomposition (map,
sqrt, inverse, then _build(w, U), the one W diag(w) W† formula, which the
generators and Loewner kernels call with their own W), never by
decomposing an intermediate result again.  Inputs are validated once, at
the public functions, by one rule (_checked) that names each argument; the
private _decompose and _herm take arrays that are already square, finite and
Hermitian, and are what internal kernels call.

Stacks: _herm, _decompose, _gap_scale, _max_entry, jacobi_eigh and every
SpectralDecomposition method accept leading batch axes, (..., n, n) for
matrices and (..., n) for eigenvalues, and treat each trailing matrix on its
own; _Segments takes the layout of T families on a flat member axis
(K, n, n), on which family t holds m[t] consecutive members, and its total
sums each family.  Checks reduce over the last axis, and each refuses through
errors._require, which reports the first failing matrix with the message of
the one-matrix case.  A one-matrix call is the stack
case with no leading axes, not a second implementation, and a stacked
result must be bitwise equal to the results of one call per matrix: numpy's
eigh, qr and matmul loop the same LAPACK/BLAS routine over the leading axes,
and everything else here is elementwise.

Padded stacks: a trial of own size n may sit in a stack of size N >= n as
the top-left block of its matrices, an identity-like pad below and right of
it.  _decompose(H, size) takes the own sizes, refuses an eigenvector
with weight on both sides of a pad (a NumericError naming the first such
matrix), orders each matrix's eigenpairs own-first (_ordered), and the
decomposition carries the sizes: sqrt, inverse and _gap_scale read the first
n eigenvalues only (_lowest, _largest), and _own_block zeroes a pad for a
matrix-level check.  A size None is a public one-trial call's: _own, the one
place that reads it, makes every slot own, and a check over every slot
takes the bits of the unmasked one.

Every decomposition here is LAPACK's eigh, in _decompose; _verdict
decomposes the one residual of a public Loewner check.  jacobi_eigh, a
self-contained cyclic Jacobi sweep run on a whole stack at once, is kept
apart from it as the independent second opinion: the search confirms its
candidates' residuals through it, and _ordered gives its eigenpairs the
own-first order that _decompose gives eigh's.  The sweep holds each matrix
H and its accumulated unitary U as one (2n, n) array, H on rows :n and U on
rows n:, so that one column rotation turns both, in place.  No step is
masked: a pair that only some live matrices turn is rotated on that subset
alone, gathered and written back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_TOLERANCE,
    DimensionError,
    DomainError,
    NumericError,
    PreconditionError,
    SingularityError,
    _holds,
    _require,
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
INVERSE_FLOOR_RTOL = 1e-10  # SpectralDecomposition.inverse's default floor, relative to max|w|


def _as_square_complex(M, what: str, stack: bool = False) -> np.ndarray:
    """M as a complex (n, n) array, or (..., n, n) with stack=True, checked numeric and finite."""
    try:
        A = np.asarray(M, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be an array of numbers: {exc}") from exc
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


def _build(w: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W diag(w) W† for (stacks of) values w (..., n) and square W (..., n, n); exactly Hermitian."""
    return _herm((W * w[..., None, :]) @ _adjoint(W))


class _Segments:
    """The layout of T families on one flat member axis (K, ...), taken once from m.

    Family t has m[t] members on consecutive rows.  total(X) gives the
    totals (T, ...), each adding its family's members in member order from
    zero, as sum() adds a list of members.  Ragged families are padded with
    zero members to the largest m, one slot per step: a running sum that
    starts from zero is never -0.0, so adding a +0.0 slot leaves its bits
    unchanged.  A kernel takes the layout once and sums every family stack
    of its group with it.
    """

    def __init__(self, m) -> None:
        m = np.asarray(m)
        self.T, self.top = len(m), int(m.max())
        # the member slots of the ragged layout padded to top, or None when every m is top
        self.filled = None if self.top == m.min() else np.arange(self.top) < m[:, None]

    def total(self, X: np.ndarray) -> np.ndarray:
        shape = (self.T, self.top, *X.shape[1:])
        if self.filled is None:
            slots = X.reshape(shape)
        else:
            slots = np.zeros(shape, dtype=X.dtype)
            slots[self.filled] = X
        out = slots[:, 0] + 0.0
        for k in range(1, self.top):
            out += slots[:, k]
        return out


def _max_entry(M: np.ndarray) -> np.ndarray:
    """maxnorm of each matrix of a stack."""
    return np.abs(M).max(axis=(-2, -1))


def _own(size, N: int):
    """The own slots (..., N) of a padded stack whose matrices have own sizes size (...); with
    size None, a public one-trial call's, every slot (N,) is own."""
    return np.arange(N) < (N if size is None else np.asarray(size)[..., None])


def _lowest(w: np.ndarray, size=None) -> np.ndarray:
    """Each row's least own eigenvalue: the least of its first size slots."""
    return np.where(_own(size, w.shape[-1]), w, np.inf).min(axis=-1)


def _largest(w: np.ndarray, size=None) -> np.ndarray:
    """Each row's largest own eigenvalue magnitude (see _lowest)."""
    return np.where(_own(size, w.shape[-1]), abs(w), 0.0).max(axis=-1)


def _gap_scale(w: np.ndarray, size=None):
    """Each residual's gap, its minimum eigenvalue, and scale max(1, ||R||), from eigenvalues w
    (own-first, over the first size slots of a padded stack): every PSD test, the verdict's
    and each precondition's, is _holds(*_gap_scale(w, size), tol)."""
    return _lowest(w, size), np.maximum(1.0, _largest(w, size))


def _own_block(M: np.ndarray, size=None) -> np.ndarray:
    """(A stack of) matrices with their pad block zeroed."""
    own = _own(size, M.shape[-1])
    return np.where(own[..., :, None] & own[..., None, :], M, 0.0)


def hermitize(M) -> np.ndarray:
    """(M + M†)/2.  Idempotent on Hermitian inputs."""
    return _herm(_checked({"M": M}, square=("M",))[0])


def _require_hermitian(M, what: str, stack: bool = False) -> np.ndarray:
    A = _as_square_complex(M, what, stack)
    drift = _max_entry(A - _adjoint(A))
    ok = _holds(-drift, np.maximum(1.0, _max_entry(A)), HERMITIAN_RTOL)
    _require(ok, DomainError, "{} is not Hermitian (anti-Hermitian part {:.3e})", what, drift)
    return _herm(A)


def _checked(named: dict, square=()) -> list[np.ndarray]:
    """The one entry check of every public matrix argument: the named matrices, in order, each
    square and finite, then Hermitian (returned as its exact Hermitian part) unless its name is
    in square, then of the first one's shape.  Each refusal names its argument; a shape
    mismatch is a DimensionError."""
    out = [
        _as_square_complex(M, name) if name in square else _require_hermitian(M, name)
        for name, M in named.items()
    ]
    first, shape = next(iter(named)), out[0].shape
    for name, M in zip(named, out):
        if M.shape != shape:
            raise DimensionError(f"{name} has shape {M.shape}, expected {first}'s {shape}")
    return out


def _commuting(A: np.ndarray, B: np.ndarray):
    """Each commutator maxnorm of (stacks of) square arrays A, B, and whether it is within
    COMMUTE_RTOL * max(1, |A| |B|) (maxnorms): the one commutation rule."""
    commutator = _max_entry(A @ B - B @ A)
    scale = np.maximum(1.0, _max_entry(A) * _max_entry(B))
    return commutator, _holds(-commutator, scale, COMMUTE_RTOL)


def commutator_maxnorm(A, B) -> float:
    return float(_commuting(*_checked({"A": A, "B": B}, square=("A", "B")))[0])


def commutes(A, B) -> bool:
    return bool(_commuting(*_checked({"A": A, "B": B}, square=("A", "B")))[1])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary U and real eigenvalues w with A = U diag(w) U†.

    A decomposition fresh from an eigensolver has w ascending.  map, sqrt and
    inverse return new decompositions over the same U whose values follow
    U's columns, so they need not be sorted.  A stack of decompositions has
    U of shape (..., n, n) and w of shape (..., n); indexing it indexes the
    leading axes.  A padded stack (_decompose with a size) carries each
    matrix's own size, its eigenpairs own-first, and sqrt and inverse check
    and scale by the own eigenvalues only.
    """

    unitary: np.ndarray
    eigenvalues: np.ndarray
    _size: np.ndarray | None = None

    def __getitem__(self, index) -> SpectralDecomposition:
        size = None if self._size is None else self._size[index]
        return SpectralDecomposition(self.unitary[index], self.eigenvalues[index], size)

    def reconstruct(self) -> np.ndarray:
        """U diag(w) U†, the one place a decomposition becomes a matrix again."""
        return _build(self.eigenvalues, self.unitary)

    def _with(self, values) -> SpectralDecomposition:
        w = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(w)):
            raise DomainError("matrix has non-finite entries")
        return SpectralDecomposition(self.unitary, w, self._size)

    def map(self, f) -> SpectralDecomposition:
        """f(A).  Raises DomainError if an eigenvalue exits f's domain.

        f is a FunctionSpec, or for a stack one per entry of the first axis.
        """
        return self._with(_apply_rows(f, self.eigenvalues))

    def sqrt(self) -> SpectralDecomposition:
        """Unique PSD square root; eigenvalues in [-1e-12*max(1, norm), 0) are clamped to 0."""
        w = self.eigenvalues
        lowest, scale = _gap_scale(w, self._size)
        ok = _holds(lowest, scale, PSD_CLAMP_RTOL)
        template = "matrix is not PSD (min eigenvalue {:.3e} below clamp -{:.3e})"
        _require(ok, DomainError, template, lowest, PSD_CLAMP_RTOL * scale)
        return self._with(np.sqrt(np.clip(w, 0.0, None)))

    def inverse(self, floor: float | None = None) -> SpectralDecomposition:
        """A^{-1} for positive definite A.

        floor defaults to INVERSE_FLOOR_RTOL * max|eigenvalue|; any eigenvalue
        below the floor (or a floor that is not strictly positive, NaN
        included) is treated as singular rather than inverted, so round-off
        null spaces cannot leak huge weights.
        """
        w = self.eigenvalues
        lowest = _lowest(w, self._size)
        if floor is None:
            floor = INVERSE_FLOOR_RTOL * _largest(w, self._size)
        ok = (floor > 0.0) & (lowest >= floor)
        template = "matrix not invertible above floor {:.3e} (min eigenvalue {:.3e})"
        _require(ok, SingularityError, template, floor, lowest)
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


def _rotate(X: np.ndarray, p: int, q: int, c, a, b) -> None:
    """Columns p, q of each matrix, in place: x_p <- c x_p - a x_q, x_q <- b x_p + c x_q.

    The three products are taken first; x_q then becomes c x_q + b x_p, the
    same bits as b x_p + c x_q, since addition commutes exactly.
    """
    x_p, x_q = X[:, :, p], X[:, :, q]
    c_p, a_q, b_p = c * x_p, a * x_q, b * x_p
    x_q *= c
    x_q += b_p
    np.subtract(c_p, a_q, out=x_p)


def _turn(W: np.ndarray, p: int, q: int, beta: np.ndarray) -> None:
    """One Jacobi step on pair (p, q) of every matrix of a contiguous (K, 2n, n) sweep array,
    whose H (rows :n) has |H[p, q]| = beta above its floor: H <- J† H J and U <- U J with
    J[p,p] = c, J[p,q] = s phi, J[q,p] = -s conj(phi), J[q,q] = c."""
    n = W.shape[-1]
    H = W[:, :n]
    phi = H[:, p, q] / beta
    tau = (H[:, q, q].real - H[:, p, p].real) / (2.0 * beta)
    # 1/(tau + sqrt(1 + tau^2)) for tau >= 0, else -1/(-tau + sqrt(1 + tau^2))
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    s_phi, s_conj = (s * phi)[:, None], (s * np.conj(phi))[:, None]
    c = c[:, None]
    _rotate(W, p, q, c, s_conj, s_phi)
    _rotate(H.swapaxes(-1, -2), p, q, c, s_phi, s_conj)
    # On each flattened matrix, H[p, q] and H[q, p] lie (q - p)(n - 1) entries apart, and
    # H[p, p] and H[q, q] (q - p)(n + 1): zero the pair, and the imaginary parts of its diagonal.
    flat = W.reshape(len(W), -1)
    flat[:, p * n + q : q * n + p + 1 : (q - p) * (n - 1)] = 0.0
    flat.imag[:, p * (n + 1) : q * (n + 1) + 1 : (q - p) * (n + 1)] = 0.0


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
    of W turns both.  A pair that every live matrix turns is rotated on W in
    place; a pair that only some of them turn (a padded matrix never turns a
    pair across its pad) is rotated on that subset, gathered and written back.
    No step is masked: a matrix that skips a pair keeps its bits, which an
    identity rotation would not (x - 0*y turns -0.0 into +0.0).
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
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[:, p, q]
                # hypot, not np.abs: array abs of complex values is not
                # bitwise the scalar abs of a one-matrix sweep.
                beta = np.hypot(apq.real, apq.imag)
                turn = beta > floor
                turning = np.count_nonzero(turn)
                if turning == len(turn):
                    _turn(W, p, q, beta)
                elif turning:
                    some = np.flatnonzero(turn)
                    turned = W[some]
                    _turn(turned, p, q, beta[some])
                    W[some] = turned
        sweeps += 1
    order = np.argsort(w, axis=-1, kind="stable")
    rows = np.arange(K)[:, None]
    return w[rows, order].reshape(shape[:-1]), V[rows, :, order].swapaxes(-1, -2).reshape(shape)


def _own_first(w: np.ndarray, U: np.ndarray, size: np.ndarray):
    """(w, U) with each matrix's own eigenpairs first, each side in ascending order.

    A matrix of own size n padded to N is block diagonal, so each of its
    eigenvectors must lie wholly on its own rows :n (own) or on the pad rows
    n: (pad).  One with weight on both sides is a NumericError naming the
    first such matrix of the stack.  A matrix at its full size N keeps its
    solver's order: all its eigenvectors are own.
    """
    N = w.shape[-1]
    own_rows = _own(size, N)[..., None, :]
    # each eigenvector's weight on the own rows, then on the pad rows (..., 2, N)
    sides = np.concatenate([own_rows, ~own_rows], axis=-2).astype(float)
    weight = sides @ abs(U)
    on_own, on_pad = weight[..., 1, :] == 0.0, weight[..., 0, :] == 0.0
    template = (
        "eigenvector {} of stacked matrix {} (own size {} of {}) lies on both sides of its pad"
    )
    index = np.arange(size.size).reshape(size.shape)[..., None]
    _require(on_own | on_pad, NumericError, template, np.arange(N), index, size[..., None], N)
    # the own slots, then the pad slots, each in the solver's order: distinct keys, any sort
    order = (np.where(on_own, 0, N) + np.arange(N)).reshape(-1, N).argsort(axis=-1)
    rows = np.arange(len(order))[:, None]
    w = w.reshape(-1, N)[rows, order].reshape(w.shape)
    return w, U.reshape(-1, N, N)[rows, :, order].swapaxes(-1, -2).reshape(U.shape)


def _ordered(w: np.ndarray, U: np.ndarray, size=None) -> SpectralDecomposition:
    """The decomposition of an eigensolver's eigenpairs (w, U) of (a stack of) Hermitian arrays.

    size, when given, holds the own size of each matrix of a padded stack
    (broadcasting against its leading axes): each matrix is its own block
    and an identity-like pad, and its eigenpairs come own-first (_own_first).
    """
    w = np.asarray(w, dtype=float)
    if size is not None:
        size = np.broadcast_to(size, U.shape[:-2])
        if (size < U.shape[-1]).any():
            w, U = _own_first(w, U, size)
    return SpectralDecomposition(np.ascontiguousarray(U), w, size)


def _decompose(H: np.ndarray, size=None) -> SpectralDecomposition:
    """Eigendecomposition of (a stack of) already Hermitian arrays in one LAPACK call; no input
    checks.  size is _ordered's."""
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigh failed to converge (n={H.shape[-1]}, maxnorm={maxnorm(H):.3e}): {exc}"
        ) from exc
    return _ordered(w, U, size)


def spectral_decompose(A) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return _decompose(_checked({"A": A})[0])


def apply_function(f: FunctionSpec, A) -> np.ndarray:
    """f(A) = U diag(f(w)) U†.  Raises DomainError if an eigenvalue exits f's domain."""
    return spectral_decompose(A).map(f).reconstruct()


def _verdict(R: np.ndarray, tol: float) -> LoewnerVerdict:
    """PSD verdict on the one residual of a Hermitian stack R (1, n, n)."""
    w = _decompose(R).eigenvalues[0]
    tol = _tolerance(tol)
    min_eig, scale = _gap_scale(w)
    holds = bool(_holds(min_eig, scale, tol))
    return LoewnerVerdict(float(min_eig), float(abs(w).max()), tol, holds)


def loewner_leq(A, B, tol: float = DEFAULT_TOLERANCE) -> LoewnerVerdict:
    """Verdict on A <= B in the Loewner order, i.e. B - A PSD within tolerance."""
    A, B = _checked({"A": A, "B": B})
    return _verdict(_herm(B - A)[None], tol)


def make_commuting_pair(U, lambda_a, lambda_b) -> tuple[np.ndarray, np.ndarray]:
    """(U diag(la) U†, U diag(lb) U†), commuting by shared eigenbasis."""
    (U,) = _checked({"U": U}, square=("U",))
    n = U.shape[0]
    drift = maxnorm(U.conj().T @ U - np.eye(n))
    ok = _holds(-drift, 1.0, UNITARY_TOL)
    _require(ok, PreconditionError, "U is not unitary (U†U - I maxnorm {:.3e})", drift)
    pair = []
    for name, values in (("lambda_a", lambda_a), ("lambda_b", lambda_b)):
        w = np.asarray(values, dtype=float)
        if w.shape != (n,):
            raise DimensionError(f"{name} must have length {n}, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DomainError(f"{name} has non-finite entries")
        pair.append(SpectralDecomposition(U, w).reconstruct())
    return pair[0], pair[1]


def psd_inverse(A, floor: float | None = None) -> np.ndarray:
    """Inverse through the spectral decomposition (see SpectralDecomposition.inverse)."""
    return spectral_decompose(A).inverse(floor).reconstruct()


def psd_sqrt(A) -> np.ndarray:
    """Unique PSD square root; eigenvalues in [-1e-12*max(1, norm), 0) are clamped to 0."""
    return spectral_decompose(A).sqrt().reconstruct()
