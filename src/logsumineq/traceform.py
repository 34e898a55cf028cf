"""Trace-form inequalities for commuting self-adjoint matrices.

Every quantity is computed twice.  The primary value comes from the joint
spectrum: commuting Hermitian matrices share an eigenbasis, so each trace
inequality reduces exactly to its scalar counterpart on the paired
eigenvalue lists.  The matrix-product route (functional calculus plus
explicit products and traces) is then compared against that value as an
internal cross-check.  The two routes share only A's decomposition:
the product route takes g(A) from it, decomposes B and the product, and
inverts the denominator from its mapped decomposition.  The product route
is skipped when a zero weight makes f blow up there (e.g. 0 * log 0
terms), since only the scalar route carries the continuity convention.

A product-path value outside its cross-check bound goes to a referee: the
same product-path formula evaluated by mpmath at 50 digits on the float64
inputs, in a child interpreter.  The pair passes if its joint-spectrum
value agrees with the referee within the same bound; otherwise
NumericError reports all three values, instead of a silently wrong
verdict.  This process never imports mpmath.

Each statement has one kernel over a stack of T pairs, trusted Hermitian
(T, n, n) arrays: each step decomposes the matrices of the whole stack in
one eigh call, and the scalar layer's kernel (see scalar) runs on the joint
spectra.  The public function of a statement checks each input once at
entry (A Hermitian, then B, then equal shapes) and runs its kernel as the
T=1 stack.  A kernel runs each check over the whole stack, A's before B's,
then commutation, then the scalar checks, and raises the one-pair message
of the first failing pair.
"""

from __future__ import annotations

import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, NumericError, PreconditionError, SupportError
from .functions import FunctionSpec, _outside, identity_fn, log_fn, power_fn, q_log_fn
from .matfun import (
    COMMUTE_RTOL,
    SpectralDecomposition,
    _adjoint,
    _decompose,
    _first,
    _herm,
    _require_hermitian,
)
from .qlog import _check_positive, _q_log
from .scalar import (
    DEFAULT_TOLERANCE,
    InequalityVerdict,
    _active_sums,
    _forward,
    _one,
    _positive,
    _q_powers,
    _q_sums,
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
_CLUSTER_RTOL = 1e-8
_IDENTITY = identity_fn()
_LOG = log_fn()
_Q_LOG = q_log_fn(0.0)  # every q_log shares one domain


def _checked_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """A and B checked square, finite and Hermitian (A first) and of one shape, as T=1 stacks."""
    A, B = _require_hermitian(A), _require_hermitian(B)
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch {A.shape} vs {B.shape}")
    return A[None], B[None]


def _max_entry(M: np.ndarray) -> np.ndarray:
    """maxnorm of each matrix of a stack."""
    return np.abs(M).max(axis=(-2, -1))


def _trace(M: np.ndarray) -> np.ndarray:
    """The real part of the trace of each matrix of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real


def joint_spectrum(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paired eigenvalues (wa, wb) of a commuting Hermitian pair, plus the shared basis U.

    Diagonalizes A, then rediagonalizes B inside each (near-)degenerate
    eigenspace of A, where commutation alone does not pin the basis down.
    """
    A, B = _checked_pair(A, B)
    wa, wb, U = _joint(_decompose(A), B)
    return wa[0], wb[0], U[0]


def _joint(dec_a: SpectralDecomposition, B: np.ndarray):
    """joint_spectrum of each pair of a stack, from A's decomposition and Hermitian B.

    Returns wa, wb (T, n) and U (T, n, n).  Only the pairs whose A has a
    cluster of eigenvalues run the cluster loop.
    """
    A = dec_a.reconstruct()
    commutator = _max_entry(A @ B - B @ A)
    bad = commutator > COMMUTE_RTOL * np.maximum(1.0, _max_entry(A) * _max_entry(B))
    if bad.any():
        (commutator,) = _first(bad, commutator)
        raise PreconditionError(f"matrices do not commute (commutator maxnorm {commutator:.3e})")
    wa = dec_a.eigenvalues.copy()
    U = dec_a.unitary.copy()
    Bt = _adjoint(U) @ B @ U
    wb = np.diagonal(Bt, axis1=-2, axis2=-1).real.copy()
    gap_tol = _CLUSTER_RTOL * np.maximum(1.0, np.abs(wa).max(axis=-1))
    for t in np.flatnonzero((np.diff(wa, axis=-1) <= gap_tol[:, None]).any(axis=-1)).tolist():
        _rediagonalize(wa[t], gap_tol[t], Bt[t], wb[t], U[t])
        Bt[t] = U[t].conj().T @ B[t] @ U[t]
    # After block rotation the transported B must be diagonal.
    off = _max_entry(np.where(np.eye(wa.shape[-1], dtype=bool), 0.0, Bt))
    bad = off > 1e-7 * np.maximum(1.0, _max_entry(B))
    if bad.any():
        (off,) = _first(bad, off)
        raise PreconditionError(
            f"no joint eigenbasis found (off-diagonal leakage {off:.3e}); "
            "inputs are too far from commuting"
        )
    return wa, wb, U


def _rediagonalize(wa, gap_tol, Bt, wb, U) -> None:
    """Rediagonalize one pair's Bt inside each cluster of wa, updating wb and U in place.

    A cluster is a run of eigenvalues whose steps are at most gap_tol.
    """
    n, start = len(wa), 0
    while start < n:
        stop = start + 1
        while stop < n and wa[stop] - wa[stop - 1] <= gap_tol:
            stop += 1
        if stop - start > 1:
            sub = _decompose(_herm(Bt[start:stop, start:stop]))
            wb[start:stop] = sub.eigenvalues
            U[:, start:stop] = U[:, start:stop] @ sub.unitary
        start = stop


# -- the cross-check and its referee ----------------------------------------


def _cross_check(label, primary, product_path, rtol, refereed) -> None:
    """Compare the product-path values (T,) with the primary ones; the referee settles disputes.

    A pair k whose values differ by more than rtol * max(1, |primary|) gets
    its quantity recomputed by refereed(k) (see _referee).  It passes if its
    primary value agrees with the referee's within the same bound.
    """
    bound = rtol * np.maximum(1.0, np.abs(primary))
    for k in np.flatnonzero(np.abs(product_path - primary) > bound).tolist():
        value = refereed(k)
        if abs(value - primary[k]) > bound[k]:
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
    decomposition.
    """
    dec_gb = _decompose(B).map(g)
    gA, gB = dec_ga.reconstruct(), dec_gb.reconstruct()
    num, den = (gB, dec_ga) if reverse else (gA, dec_gb)
    P = _herm(num @ den.inverse().reconstruct())
    core = _trace(gA @ _decompose(P).map(f).reconstruct())
    return _trace(gA), _trace(gB), core


def _trace_log_sums(f: FunctionSpec, g: FunctionSpec, A: np.ndarray, B: np.ndarray):
    """lhs, rhs and gap (T,) of the forward trace inequality for commuting stacks A, B."""
    dec_a = _decompose(A)
    wa, wb, _ = _joint(dec_a, B)
    gb = _positive(g, wb, "b")
    ga = g(wa)
    sides = _forward(f, _IDENTITY, ga, gb)  # the forward inequality on the weights g(a), g(b)
    rows = ~_outside(ga / gb, *f.domain()).any(axis=-1)
    if rows.any():
        lhs, rhs, A, B = sides[0][rows], sides[1][rows], A[rows], B[rows]
        tr_ga, tr_gb, core = _product_path(f, g, dec_a[rows]._with(ga[rows]), B)
        _cross_check(
            "trace_log_sum_gap",
            lhs,
            core,
            CROSS_CHECK_RTOL,
            lambda k: _referee("forward_lhs", A[k], B[k], f, g),
        )
        _cross_check(
            "trace_log_sum_gap rhs",
            rhs,
            tr_ga * np.asarray(f(tr_ga / tr_gb), dtype=float),
            CROSS_CHECK_RTOL,
            lambda k: _referee("forward_rhs", A[k], B[k], f, g),
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
    return _one(_trace_log_sums(f, g, *_checked_pair(A, B)), tol)


def _exp_log_traces(A: np.ndarray, B: np.ndarray):
    """lhs, rhs and gap (T,) of the exponential-log corollary for commuting stacks A, B."""
    dec_a = _decompose(A)
    wa, wb, _ = _joint(dec_a, B)
    if (wa <= 0.0).any() or (wb <= 0.0).any():
        raise PreconditionError("both matrices must be positive definite")
    lhs = (wa * np.log(wa)).sum(axis=-1) - (wa * np.log(wb)).sum(axis=-1)
    sum_a, sum_b = wa.sum(axis=-1), wb.sum(axis=-1)
    rhs = sum_a * np.log(sum_a / sum_b)

    LA = dec_a.map(_LOG).reconstruct()
    LB = _decompose(B).map(_LOG).reconstruct()
    lhs_prod = _trace(A @ LA) - _trace(A @ LB)
    _cross_check(
        "exp_log_trace_gap",
        lhs,
        lhs_prod,
        EXP_LOG_CROSS_RTOL,
        lambda k: _referee("exp_log_lhs", A[k], B[k]),
    )
    return lhs, rhs, lhs - rhs


def exp_log_trace_gap(A, B, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """trace(A log A) - trace(A log B) >= trace(A) log(trace A/trace B).

    The f = log, g = identity trace inequality for positive definite
    commuting A, B.  The product-path cross-check recomputes both traces
    through functional calculus (log, matrix product, trace) to 1e-8.
    """
    return _one(_exp_log_traces(*_checked_pair(A, B)), tol)


def _require_density(w: np.ndarray, what: str) -> None:
    """Check the eigenvalues w (T, n) of a stack of density matrices: PSD with unit trace."""
    lowest = w[:, 0]
    bad = lowest < -1e-12 * np.maximum(1.0, np.abs(w).max(axis=-1))
    if bad.any():
        (low,) = _first(bad, lowest)
        raise DomainError(f"{what} is not PSD (min eigenvalue {low:.3e})")
    tr = w.sum(axis=-1)
    bad = np.abs(tr - 1.0) > DENSITY_TRACE_TOL
    if bad.any():
        (tr,) = _first(bad, tr)
        raise DomainError(f"{what} must have unit trace, got {tr!r}")


def _relative_entropies(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """D(rho||sigma) (T,) for commuting Hermitian stacks, both checked to be density matrices."""
    dec = _decompose(np.stack([rho, sigma], axis=1))
    _require_density(dec.eigenvalues[:, 0], "rho")
    _require_density(dec.eigenvalues[:, 1], "sigma")
    wr, ws, _ = _joint(dec[:, 0], sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    active = wr > SUPPORT_ATOL
    if (active & (ws <= SUPPORT_ATOL)).any():
        raise SupportError("rho has weight outside sigma's support; divergence is infinite")
    return _active_sums(wr, lambda sel: np.log(wr[sel]) - np.log(ws[sel]), active)


def quantum_relative_entropy(rho, sigma) -> float:
    """D(rho||sigma) = trace[rho (log rho - log sigma)] for commuting states.

    Eigenvalues below 1e-14 count as exact zeros (0*log 0 = 0); rho putting
    weight where sigma vanishes is a support violation (the divergence is
    +infinity) and raises SupportError.
    """
    return float(_relative_entropies(*_checked_pair(rho, sigma))[0])


def _entropies(rho: np.ndarray) -> np.ndarray:
    """-trace(rho log rho) (T,) for a Hermitian stack, checked to be density matrices."""
    w = _decompose(rho).eigenvalues
    _require_density(w, "rho")
    w = np.clip(w, 0.0, None)
    return -_active_sums(w, lambda sel: np.log(w[sel]), w > SUPPORT_ATOL)


def von_neumann_entropy(rho) -> float:
    """-trace(rho log rho) with the 0*log 0 = 0 convention; lies in [0, log n]."""
    return float(_entropies(_require_hermitian(rho)[None])[0])


def _q_traces(A: np.ndarray, B: np.ndarray, q: np.ndarray, r: np.ndarray):
    """lhs, rhs and gap (T,) of the deformed-log trace inequality for commuting stacks A, B.

    Pair t has its own order q[t] and power r[t].
    """
    dec_a = _decompose(A)
    wa, wb, _ = _joint(dec_a, B)
    p, s = _q_powers(wa, wb, q, r)
    sides = _q_sums(p, s, q)
    rows = ~_outside(p / s, *_Q_LOG.domain()).any(axis=-1)
    if rows.any():
        lhs, rhs, A, B, q = sides[0][rows], sides[1][rows], A[rows], B[rows], q[rows]
        powers = [power_fn(x) for x in r[rows].tolist()]
        lnqs = [q_log_fn(x) for x in q.tolist()]
        tr_ar, tr_br, core = _product_path(lnqs, powers, dec_a[rows]._with(p[rows]), B)
        lhs_prod = tr_br ** (1.0 - q) * core

        def refereed(quantity):
            return lambda k: _referee(quantity, A[k], B[k], lnqs[k], powers[k], float(q[k]))

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
    pair = _checked_pair(A, B)
    return _one(_q_traces(*pair, np.array([float(q)]), np.array([float(r)])), tol)


def _reverse_traces(f: FunctionSpec, g: FunctionSpec, A: np.ndarray, B: np.ndarray):
    """lhs, rhs and gap (T,) of the reverse trace inequality for commuting stacks A, B."""
    dec_a = _decompose(A)
    wa, wb, _ = _joint(dec_a, B)
    ga = _positive(g, wa, "a")
    gb = _positive(g, wb, "b")
    sides = _reverse(f, _IDENTITY, ga, gb)  # the reverse inequality on the weights g(a), g(b)
    # The scalar verdict evaluated f at every ratio g(b_i)/g(a_i), so all lie in f's domain.
    _, _, core = _product_path(f, g, dec_a._with(ga), B, reverse=True)
    _cross_check(
        "reverse_trace_gap",
        sides[0],
        core,
        CROSS_CHECK_RTOL,
        lambda k: _referee("reverse_lhs", A[k], B[k], f, g),
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
    return _one(_reverse_traces(f, g, *_checked_pair(A, B)), tol)
