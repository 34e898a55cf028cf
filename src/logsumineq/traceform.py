"""Trace-form inequalities for commuting self-adjoint matrices.

Every quantity comes from the joint spectrum: commuting Hermitian matrices
share an eigenbasis, so each trace inequality reduces exactly to its scalar
counterpart on the paired eigenvalue lists, read off the basis U of one
eigensolve (see _mix).  The four trace gaps (trace_log_sum_gap,
exp_log_trace_gap, q_trace_gap, reverse_trace_gap) are computed twice: the
matrix-product route (functional calculus plus explicit products and
traces) is their internal cross-check; joint_spectrum,
quantum_relative_entropy and von_neumann_entropy have no second route.  The
two routes share only U: the product route takes g(A) = U diag(g(wa)) U†,
decomposes B and the product, and inverts the denominator from its mapped
decomposition.  It is skipped when a zero weight makes f blow up there
(e.g. 0 * log 0 terms), since only the scalar route carries the continuity
convention.

A product-path value outside its cross-check bound goes to a referee: the
same product-path formula evaluated by mpmath at 50 digits on the float64
inputs, in a child interpreter.  The pair passes if its joint-spectrum
value agrees with the referee within the same bound; otherwise
NumericError reports all three values, instead of a silently wrong
verdict.  This process never imports mpmath.

Each statement has one kernel over a stack of T pairs, trusted Hermitian
(T, N, N) arrays: each step decomposes the matrices of the whole stack in
one eigh call, and the scalar layer's kernel (see scalar) runs on the joint
spectra.  The public function of a statement checks each input once at
entry, by matfun._checked (A, then B, then equal shapes), and runs its
kernel as the T=1 stack.  A kernel runs each check over the whole stack,
A's before B's, then commutation, then the scalar checks, and raises the
one-pair message of the first failing pair.

Each kernel takes size, the own size n of each pair of a padded stack (the
harness pads every matrix of a size class to N as the direct sum A ⊕ I); a
public function passes none, and every slot is own (matfun._own).  Every
decomposition whose eigenvalues a check reads takes the own sizes, so each
matrix's eigenpairs come own-first (matfun._decompose).  The joint spectra
(T, N) go to the scalar kernels with the same sizes, which read their own
entries only; every density check, entropy and product-path trace reads the
own slots or the own block; and a dispute hands the referee the pair's own
block.  The pad of g(A) on the product path is the identity.
"""

from __future__ import annotations

import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DEFAULT_TOLERANCE,
    DomainError,
    NumericError,
    PreconditionError,
    SupportError,
    _holds,
    _require,
)
from .functions import FunctionSpec, _outside, identity_fn, log_fn, q_log_fn
from .matfun import (
    PSD_CLAMP_RTOL,
    SpectralDecomposition,
    _adjoint,
    _checked,
    _commuting,
    _decompose,
    _gap_scale,
    _herm,
    _max_entry,
    _own,
)
from .qlog import _check_positive, _q_log
from .scalar import (
    InequalityVerdict,
    _active_sums,
    _forward,
    _on_own,
    _one,
    _positive,
    _q_powers,
    _q_sums,
    _quotient,
    _reverse,
)

__all__ = [
    "joint_spectrum",
    "trace_log_sum_gap",
    "exp_log_trace_gap",
    "quantum_relative_entropy",
    "von_neumann_entropy",
    "q_trace_gap",
    "reverse_trace_gap",
]

CROSS_CHECK_RTOL = 1e-9
EXP_LOG_CROSS_RTOL = 1e-8
SUPPORT_ATOL = 1e-14
DENSITY_TRACE_TOL = 1e-10
LEAKAGE_RTOL = 1e-7  # B's off-diagonal part in the joint basis, relative to max(1, |B|)
_TAU = (5.0**0.5 - 1.0) / 2.0  # the mix's weight on B (see _mix)
_IDENTITY = identity_fn()
_LOG = log_fn()
_Q_LOG = q_log_fn(0.0)  # every q_log shares one domain


def _one_trial(named: dict) -> list[np.ndarray]:
    """The named matrices checked by matfun._checked, in order, each as a T=1 stack."""
    return [M[None] for M in _checked(named)]


def _trace(M: np.ndarray, own) -> np.ndarray:
    """The real part of the trace of each matrix of a stack over its own slots: the diagonal's
    complex sum, as np.trace adds it, with +0.0 for a pad slot."""
    return np.where(own, np.diagonal(M, axis1=-2, axis2=-1), 0.0).sum(axis=-1).real


def _identity_pad(x: np.ndarray, own) -> np.ndarray:
    """Eigenvalues x (T, N) with 1.0 in every pad slot: a decomposition's pad is the identity."""
    return np.where(own, x, 1.0)


def _own_pair(A: np.ndarray, B: np.ndarray, size, k: int):
    """Pair k's own blocks of the stacks A, B: what a dispute hands the referee."""
    n = A.shape[-1] if size is None else int(size[k])
    return A[k, :n, :n], B[k, :n, :n]


def joint_spectrum(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paired eigenvalues (wa, wb) of a commuting Hermitian pair, plus the shared basis U.

    U is the eigenbasis of the mix A/|A| + tau*B/|B| (see _mix); wa and wb
    are the diagonals of U†AU and U†BU, in the mix's eigenvalue order.
    """
    A, B = _one_trial({"A": A, "B": B})
    dec_a, wb = _joint(A, B)
    return dec_a.eigenvalues[0], wb[0], dec_a.unitary[0]


def _mix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A/|A| + tau*B/|B| for each pair of a stack, with |X| = max(1, maxnorm X).

    A commuting pair's mix has their joint eigenbasis, and a generic
    combination separates what either matrix separates (Bunse-Gerstner,
    Byers and Mehrmann, SIAM J. Matrix Anal. Appl. 14, 1993).  tau is not
    small: when A splits a pair by a relative delta that the commutation
    check cannot see, B leaks about delta/(2 tau) off the diagonal.  Two
    distinct joint eigenvalue pairs (a, b), (a', b') that the mix maps to
    one value leave the basis unpinned; _joint then retries the swapped mix
    _mix(B, A), whose weight on B is 1/tau, and no two distinct pairs meet
    under both weights.
    """
    scale_a = np.maximum(1.0, _max_entry(A))[:, None, None]
    scale_b = np.maximum(1.0, _max_entry(B))[:, None, None]
    return A / scale_a + _TAU * (B / scale_b)


def _joint(A: np.ndarray, B: np.ndarray, U=None, size=None):
    """joint_spectrum of each pair of Hermitian stacks A, B, from the eigenbasis U of _mix(A, B)
    (decomposed here unless given), own-first.

    Returns A's decomposition in the joint basis, U diag(wa) U†, and B's
    paired eigenvalues wb (T, N).  B's off-diagonal leakage is checked; the
    pairs that leak are retried once on the eigenbasis of the swapped mix
    _mix(B, A) (see _mix), and those that still leak are rejected.  A's
    leakage needs no check of its own.  With U†MU = diag(x) + E for the mix
    M, offdiag(U†AU) = |A| (offdiag(E) - tau offdiag(U†BU)/|B|), so A leaks
    at most tau times B's bound plus round-off (1/tau times, after a retry).
    """
    if U is None:
        U = _decompose(_mix(A, B), size=size).unitary
    norm, ok = _commuting(A, B)
    _require(ok, PreconditionError, "matrices do not commute (commutator maxnorm {:.3e})", norm)
    diagonal, scale = np.eye(U.shape[-1], dtype=bool), np.maximum(1.0, _max_entry(B))
    Bt = _adjoint(U) @ B @ U
    off = _max_entry(np.where(diagonal, 0.0, Bt))
    ok = _holds(-off, scale, LEAKAGE_RTOL)
    if not ok.all():
        bad = ~ok
        own_sizes = None if size is None else size[bad]
        swapped = _decompose(_mix(B[bad], A[bad]), size=own_sizes).unitary
        U = U.copy()  # the caller's basis stays as it is
        U[bad], Bt[bad] = swapped, _adjoint(swapped) @ B[bad] @ swapped
        off[bad] = _max_entry(np.where(diagonal, 0.0, Bt[bad]))
        ok = _holds(-off, scale, LEAKAGE_RTOL)
    template = (
        "no joint eigenbasis found (off-diagonal leakage {:.3e}); inputs are too far from commuting"
    )
    _require(ok, PreconditionError, template, off)
    wa = np.diagonal(_adjoint(U) @ A @ U, axis1=-2, axis2=-1).real.copy()
    return SpectralDecomposition(U, wa, size), np.diagonal(Bt, axis1=-2, axis2=-1).real.copy()


# -- the cross-check and its referee ----------------------------------------


def _cross_check(label, primary, product_path, rtol, refereed) -> None:
    """Compare the product-path values (T,) with the primary ones; the referee settles disputes.

    A pair k whose values differ by more than rtol * max(1, |primary|) gets
    its quantity recomputed by refereed(k) (see _referee).  It passes if its
    primary value agrees with the referee's within the same bound.
    """
    scale = np.maximum(1.0, np.abs(primary))
    for k in np.flatnonzero(~_holds(-np.abs(product_path - primary), scale, rtol)).tolist():
        value = refereed(k)
        if not _holds(-abs(value - primary[k]), scale[k], rtol):
            raise NumericError(
                f"{label}: matrix-product path {float(product_path[k])!r} disagrees with "
                f"joint-spectrum value {float(primary[k])!r}, and the 50-digit "
                f"product path gives {value!r}"
            )


def _referee(quantity: str, A: np.ndarray, B: np.ndarray, f=None, g=None, q=None) -> float:
    """A cross-checked quantity at 50 digits on one pair of float64 matrices A, B (n, n).

    quantity names a method of referee.Referee; f, g and q are the pair's
    functions and order.  The referee runs in a child interpreter (see
    referee): importing mpmath keeps about 3 MB of code objects in memory for
    good, which a run should not carry for a check this rare, and a dispute
    costs a child's start (a fraction of a second) instead.
    """
    import subprocess  # at the first dispute: a run without one never loads it

    package_root = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "logsumineq.referee"],
        input=pickle.dumps((quantity, A, B, f, g, q)),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    if proc.returncode:
        raise NumericError(f"the referee failed: {proc.stderr.decode().strip()}")
    return float(proc.stdout)


# -- the trace statements ----------------------------------------------------


def _product_path(f, g, dec_ga: SpectralDecomposition, B: np.ndarray, reverse: bool = False):
    """trace g(A), trace g(B) and trace[g(A) f(g(X) g(Y)^{-1})] (T,) by functional calculus.

    (X, Y) is (A, B), or (B, A) when reverse; f and g are FunctionSpecs, or
    one per pair.  dec_ga is g(A)'s decomposition, read off the joint
    spectrum's decomposition of A; the rest of the route stays an
    independent check.  The denominator is inverted from its mapped
    decomposition.  A padded dec_ga (its own sizes) gives B's decomposition
    its sizes, for the inverse's own floor, and the traces are of the own
    blocks.  The product's decomposition is only mapped and reconstructed, and
    f of a block-diagonal matrix is block diagonal whatever basis the solver
    picks within an eigenspace, so it takes no sizes.
    """
    size = dec_ga._size
    own = _own(size, dec_ga.eigenvalues.shape[-1])
    dec_gb = _decompose(B, size=size).map(g)
    gA, gB = dec_ga.reconstruct(), dec_gb.reconstruct()
    num, den = (gB, dec_ga) if reverse else (gA, dec_gb)
    P = _herm(num @ den.inverse().reconstruct())
    core = _trace(gA @ _decompose(P).map(f).reconstruct(), own)
    return _trace(gA, own), _trace(gB, own), core


def _trace_log_sums(f: FunctionSpec, g: FunctionSpec, A: np.ndarray, B: np.ndarray, size=None):
    """lhs, rhs and gap (T,) of the forward trace inequality for commuting stacks A, B."""
    dec_a, wb = _joint(A, B, size=size)
    own = _own(size, wb.shape[-1])
    gb = _positive(g, wb, "b", own)
    ga = _on_own(g, dec_a.eigenvalues, own)
    sides = _forward(f, _IDENTITY, ga, gb, size)  # the forward inequality on the weights g(a), g(b)
    rows = ~(_outside(_quotient(ga, gb, own), *f.domain()) & own).any(axis=-1)
    if rows.any():
        lhs, rhs, A, B = sides[0][rows], sides[1][rows], A[rows], B[rows]
        size = None if size is None else size[rows]
        dec_ga = dec_a[rows]._with(_identity_pad(ga, own)[rows])
        tr_ga, tr_gb, core = _product_path(f, g, dec_ga, B)
        _cross_check(
            "trace_log_sum_gap",
            lhs,
            core,
            CROSS_CHECK_RTOL,
            lambda k: _referee("forward_lhs", *_own_pair(A, B, size, k), f, g),
        )
        _cross_check(
            "trace_log_sum_gap rhs",
            rhs,
            tr_ga * np.asarray(f(tr_ga / tr_gb), dtype=float),
            CROSS_CHECK_RTOL,
            lambda k: _referee("forward_rhs", *_own_pair(A, B, size, k), f, g),
        )
    return sides


def trace_log_sum_gap(
    f: FunctionSpec, g: FunctionSpec, A, B, tol: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
    """trace[g(A) f(g(A) g(B)^{-1})] >= trace[g(A)] f(trace g(A)/trace g(B)).

    Requires a commuting pair, g positive on B's spectrum, and x*f(x) convex
    on the ratio interval; all inherited from the scalar forward inequality
    on the joint spectrum.
    """
    return _one(_trace_log_sums(f, g, *_one_trial({"A": A, "B": B})), tol)


def _exp_log_traces(A: np.ndarray, B: np.ndarray, size=None):
    """lhs, rhs and gap (T,) of the exponential-log corollary for commuting stacks A, B."""
    dec_a, wb = _joint(A, B, size=size)
    wa, own = dec_a.eigenvalues, _own(size, wb.shape[-1])
    if (((wa <= 0.0) | (wb <= 0.0)) & own).any():
        raise PreconditionError("both matrices must be positive definite")
    wa, wb = np.where(own, wa, 0.0), np.where(own, wb, 0.0)
    a_log_a = _active_sums(lambda sel: wa[sel] * np.log(wa[sel]), own)
    lhs = a_log_a - _active_sums(lambda sel: wa[sel] * np.log(wb[sel]), own)
    sum_a, sum_b = wa.sum(axis=-1), wb.sum(axis=-1)
    rhs = sum_a * np.log(sum_a / sum_b)

    LA = dec_a.map(_LOG).reconstruct()
    LB = _decompose(B).map(_LOG).reconstruct()  # only mapped: no sizes (see _product_path)
    lhs_prod = _trace(A @ LA, own) - _trace(A @ LB, own)
    _cross_check(
        "exp_log_trace_gap",
        lhs,
        lhs_prod,
        EXP_LOG_CROSS_RTOL,
        lambda k: _referee("exp_log_lhs", *_own_pair(A, B, size, k)),
    )
    return lhs, rhs, lhs - rhs


def exp_log_trace_gap(A, B, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """trace(A log A) - trace(A log B) >= trace(A) log(trace A/trace B).

    The f = log, g = identity trace inequality for positive definite
    commuting A, B.  The product-path cross-check recomputes both traces
    through functional calculus (log, matrix product, trace) to 1e-8.
    """
    return _one(_exp_log_traces(*_one_trial({"A": A, "B": B})), tol)


def _require_density(w: np.ndarray, what: str, size=None) -> None:
    """Check the eigenvalues w (T, N) of a stack of density matrices, own-first over their own
    sizes: PSD with unit trace."""
    lowest, scale = _gap_scale(w, size)
    ok = _holds(lowest, scale, PSD_CLAMP_RTOL)
    _require(ok, DomainError, "{} is not PSD (min eigenvalue {:.3e})", what, lowest)
    tr = np.where(_own(size, w.shape[-1]), w, 0.0).sum(axis=-1)
    ok = _holds(-np.abs(tr - 1.0), 1.0, DENSITY_TRACE_TOL)
    _require(ok, DomainError, "{} must have unit trace, got {!r}", what, tr)


def _relative_entropies(rho: np.ndarray, sigma: np.ndarray, size=None) -> np.ndarray:
    """D(rho||sigma) (T,) for commuting Hermitian stacks, both checked to be density matrices."""
    triple = None if size is None else size[:, None]
    dec = _decompose(np.stack([rho, sigma, _mix(rho, sigma)], axis=1), size=triple)
    _require_density(dec.eigenvalues[:, 0], "rho", size)
    _require_density(dec.eigenvalues[:, 1], "sigma", size)
    dec_r, ws = _joint(rho, sigma, dec.unitary[:, 2], size)
    wr = np.clip(dec_r.eigenvalues, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    active = (wr > SUPPORT_ATOL) & _own(size, wr.shape[-1])
    if (active & (ws <= SUPPORT_ATOL)).any():
        raise SupportError("rho has weight outside sigma's support; divergence is infinite")
    return _active_sums(lambda sel: wr[sel] * (np.log(wr[sel]) - np.log(ws[sel])), active)


def quantum_relative_entropy(rho, sigma) -> float:
    """D(rho||sigma) = trace[rho (log rho - log sigma)] for commuting states.

    Eigenvalues below 1e-14 count as exact zeros (0*log 0 = 0); rho putting
    weight where sigma vanishes is a support violation (the divergence is
    +infinity) and raises SupportError.
    """
    return float(_relative_entropies(*_one_trial({"rho": rho, "sigma": sigma}))[0])


def _entropies(rho: np.ndarray, size=None) -> np.ndarray:
    """-trace(rho log rho) (T,) for a Hermitian stack, checked to be density matrices."""
    w = _decompose(rho, size=size).eigenvalues
    _require_density(w, "rho", size)
    w = np.clip(w, 0.0, None)
    active = (w > SUPPORT_ATOL) & _own(size, w.shape[-1])
    return -_active_sums(lambda sel: w[sel] * np.log(w[sel]), active)


def von_neumann_entropy(rho) -> float:
    """-trace(rho log rho) with the 0*log 0 = 0 convention; lies in [0, log n]."""
    return float(_entropies(*_one_trial({"rho": rho}))[0])


def _q_traces(A: np.ndarray, B: np.ndarray, q: np.ndarray, r: np.ndarray, size=None):
    """lhs, rhs and gap (T,) of the deformed-log trace inequality for commuting stacks A, B.

    Pair t has its own order q[t] and power r[t].
    """
    dec_a, wb = _joint(A, B, size=size)
    p, s, powers = _q_powers(dec_a.eigenvalues, wb, q, r, size)
    sides = _q_sums(p, s, q, size)
    own = _own(size, p.shape[-1])
    rows = ~(_outside(_quotient(p, s, own), *_Q_LOG.domain()) & own).any(axis=-1)
    if rows.any():
        lhs, rhs, A, B, q = sides[0][rows], sides[1][rows], A[rows], B[rows], q[rows]
        size = None if size is None else size[rows]
        powers = [g for g, keep in zip(powers, rows.tolist()) if keep]
        lnqs = [q_log_fn(x) for x in q.tolist()]
        dec_p = dec_a[rows]._with(_identity_pad(p, own)[rows])
        tr_ar, tr_br, core = _product_path(lnqs, powers, dec_p, B)
        lhs_prod = tr_br ** (1.0 - q) * core

        def refereed(quantity):
            return lambda k: _referee(
                quantity, *_own_pair(A, B, size, k), lnqs[k], powers[k], float(q[k])
            )

        _cross_check("q_trace_gap", lhs, lhs_prod, CROSS_CHECK_RTOL, refereed("q_lhs"))
        rhs_prod = tr_ar * (
            _q_log(_check_positive("x", tr_ar), q) - _q_log(_check_positive("x", tr_br), q)
        )
        _cross_check("q_trace_gap rhs", rhs, rhs_prod, CROSS_CHECK_RTOL, refereed("q_rhs"))
    return sides


def q_trace_gap(A, B, q: float, r: float, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """Deformed-log trace inequality for commuting pairs.

    (trace B^r)^(1-q) trace[A^r lnq(A^r B^-r)] vs
    trace(A^r) [lnq(trace A^r) - lnq(trace B^r)], direction by sign of 2 - q.
    """
    pair = _one_trial({"A": A, "B": B})
    return _one(_q_traces(*pair, np.array([float(q)]), np.array([float(r)])), tol)


def _reverse_traces(f: FunctionSpec, g: FunctionSpec, A: np.ndarray, B: np.ndarray, size=None):
    """lhs, rhs and gap (T,) of the reverse trace inequality for commuting stacks A, B."""
    dec_a, wb = _joint(A, B, size=size)
    own = _own(size, wb.shape[-1])
    ga = _positive(g, dec_a.eigenvalues, "a", own)
    gb = _positive(g, wb, "b", own)
    sides = _reverse(f, _IDENTITY, ga, gb, size)  # the reverse inequality on the weights g(a), g(b)
    # The scalar verdict evaluated f at every ratio g(b_i)/g(a_i), so all lie in f's domain.
    _, _, core = _product_path(f, g, dec_a._with(_identity_pad(ga, own)), B, reverse=True)
    _cross_check(
        "reverse_trace_gap",
        sides[0],
        core,
        CROSS_CHECK_RTOL,
        lambda k: _referee("reverse_lhs", *_own_pair(A, B, size, k), f, g),
    )
    return sides


def reverse_trace_gap(
    f: FunctionSpec, g: FunctionSpec, A, B, tol: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
    """trace[g(A) f(g(B) g(A)^{-1})] <= trace[g(A)] f(trace g(B)/trace g(A)).

    Reverse direction: needs g positive on both spectra and x*f(1/x) concave
    on the ratio interval, matching the scalar reverse inequality on the
    joint spectrum.
    """
    return _one(_reverse_traces(f, g, *_one_trial({"A": A, "B": B})), tol)
