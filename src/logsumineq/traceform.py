"""Trace-form inequalities for commuting self-adjoint matrices.

Every quantity is computed twice.  The primary value comes from the joint
spectrum: commuting Hermitian matrices share an eigenbasis, so each trace
inequality reduces exactly to its scalar counterpart on the paired
eigenvalue lists.  The matrix-product route (functional calculus plus
explicit products and traces) is then compared against that value as an
internal cross-check; disagreement raises NumericError instead of returning
a silently wrong verdict.  The two routes share only A's decomposition:
the product route takes g(A) from it and decomposes B, the denominator and
the product itself.  The product route is skipped when a zero weight makes
f blow up there (e.g. 0 * log 0 terms), since only the scalar route carries
the continuity convention.  Each public function checks each input once at
entry, A before B, and then runs on trusted arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, PreconditionError, SupportError
from .functions import FunctionSpec, log_fn, power_fn, q_log_fn
from .matfun import (
    SpectralDecomposition,
    _decompose,
    _herm,
    _require_hermitian,
    commutator_maxnorm,
    commutes,
    maxnorm,
)
from .qlog import QLogParams, q_log
from .scalar import (
    DEFAULT_TOLERANCE,
    InequalityVerdict,
    SequencePair,
    _verdict,
    generalized_log_sum_gap,
    q_log_sum_gap,
    reverse_log_sum_gap,
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


def joint_spectrum(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paired eigenvalues (wa, wb) of a commuting Hermitian pair, plus the shared basis U.

    Diagonalizes A, then rediagonalizes B inside each (near-)degenerate
    eigenspace of A, where commutation alone does not pin the basis down.
    """
    return _checked_joint(A, B)[3]


def _checked_joint(A, B):
    """(A, B, A's decomposition, joint spectrum), each input checked Hermitian once, A first."""
    A, B = _require_hermitian(A), _require_hermitian(B)
    dec_a = _decompose(A)
    return A, B, dec_a, _joint_spectrum(dec_a, B)


def _joint_spectrum(dec_a: SpectralDecomposition, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """joint_spectrum from A's decomposition and Hermitian B."""
    A = dec_a.reconstruct()
    if not commutes(A, B):
        raise PreconditionError(
            f"matrices do not commute (commutator maxnorm {commutator_maxnorm(A, B):.3e})"
        )
    wa = dec_a.eigenvalues.copy()
    U = dec_a.unitary.copy()
    Bt = U.conj().T @ B @ U
    n = len(wa)
    gap_tol = _CLUSTER_RTOL * max(1.0, float(np.max(np.abs(wa))))
    wb = np.empty(n)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and wa[stop] - wa[stop - 1] <= gap_tol:
            stop += 1
        if stop - start == 1:
            wb[start] = Bt[start, start].real
        else:
            sub = _decompose(_herm(Bt[start:stop, start:stop]))
            wb[start:stop] = sub.eigenvalues
            U[:, start:stop] = U[:, start:stop] @ sub.unitary
        start = stop
    # After block rotation the transported B must be diagonal.
    Bd = U.conj().T @ B @ U
    off = maxnorm(Bd - np.diag(np.diag(Bd)))
    if off > 1e-7 * max(1.0, maxnorm(B)):
        raise PreconditionError(
            f"no joint eigenbasis found (off-diagonal leakage {off:.3e}); "
            "inputs are too far from commuting"
        )
    return wa, wb, U


def _cross_check(label: str, primary: float, product_path: float, rtol: float) -> None:
    if abs(product_path - primary) > rtol * max(1.0, abs(primary)):
        raise NumericError(
            f"{label}: matrix-product path {product_path!r} disagrees with "
            f"joint-spectrum value {primary!r}"
        )


def _in_domain(f: FunctionSpec, ratios: np.ndarray) -> bool:
    """Whether every ratio lies in f's domain, so the product path can evaluate f."""
    lo, hi, lo_open = f.domain()
    return bool(np.all((ratios > lo) if lo_open else (ratios >= lo)) and np.all(ratios <= hi))


def _product_path(
    f: FunctionSpec, g: FunctionSpec, dec_a: SpectralDecomposition, B, reverse: bool = False
) -> tuple[float, float, float]:
    """trace g(A), trace g(B) and trace[g(A) f(g(X) g(Y)^{-1})] by functional calculus.

    (X, Y) is (A, B), or (B, A) when reverse.  Only g(A) comes from the joint
    spectrum's decomposition of A, so the route stays an independent check.
    """
    gA = dec_a.map(g).reconstruct()
    gB = _decompose(B).map(g).reconstruct()
    num, den = (gB, gA) if reverse else (gA, gB)
    P = _herm(num @ _decompose(den).inverse().reconstruct())
    core = float(np.trace(gA @ _decompose(P).map(f).reconstruct()).real)
    return float(np.trace(gA).real), float(np.trace(gB).real), core


def trace_log_sum_gap(
    f: FunctionSpec, g: FunctionSpec, A, B, tol: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
    """trace[g(A) f(g(A) g(B)^{-1})] >= trace[g(A)] f(trace g(A)/trace g(B)).

    Requires a commuting pair, g positive on B's spectrum, and x*f(x) convex
    on the ratio interval; all inherited from the scalar forward inequality
    on the joint spectrum.
    """
    _, B, dec_a, (wa, wb, _) = _checked_joint(A, B)
    verdict = generalized_log_sum_gap(f, g, SequencePair(tuple(wa), tuple(wb)), tol)
    if _in_domain(f, np.asarray(g(wa), dtype=float) / np.asarray(g(wb), dtype=float)):
        tr_ga, tr_gb, lhs_prod = _product_path(f, g, dec_a, B)
        _cross_check("trace_log_sum_gap", verdict.lhs, lhs_prod, CROSS_CHECK_RTOL)
        rhs_prod = tr_ga * float(f(tr_ga / tr_gb))
        _cross_check("trace_log_sum_gap rhs", verdict.rhs, rhs_prod, CROSS_CHECK_RTOL)
    return verdict


def exp_log_trace_gap(A, B, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """trace(A log A) - trace(A log B) >= trace(A) log(trace A/trace B).

    The f = log, g = identity trace inequality for positive definite
    commuting A, B.  The product-path cross-check recomputes both traces
    through functional calculus (log, matrix product, trace) to 1e-8.
    """
    A, B, dec_a, (wa, wb, _) = _checked_joint(A, B)
    if np.any(wa <= 0.0) or np.any(wb <= 0.0):
        raise PreconditionError("both matrices must be positive definite")
    lhs = float(np.sum(wa * np.log(wa)) - np.sum(wa * np.log(wb)))
    sum_a = float(np.sum(wa))
    sum_b = float(np.sum(wb))
    rhs = sum_a * math.log(sum_a / sum_b)

    LA = dec_a.map(log_fn()).reconstruct()
    LB = _decompose(B).map(log_fn()).reconstruct()
    lhs_prod = float(np.trace(A @ LA).real - np.trace(A @ LB).real)
    _cross_check("exp_log_trace_gap", lhs, lhs_prod, EXP_LOG_CROSS_RTOL)
    return _verdict(lhs, rhs, lhs - rhs, tol)


def _density(M, what: str) -> tuple[np.ndarray, SpectralDecomposition]:
    """A density matrix as a Hermitian array and its decomposition, checked PSD with unit trace."""
    H = _require_hermitian(M)
    dec = _decompose(H)
    w = dec.eigenvalues
    if float(w[0]) < -1e-12 * max(1.0, float(np.max(np.abs(w)))):
        raise DomainError(f"{what} is not PSD (min eigenvalue {float(w[0]):.3e})")
    tr = float(np.sum(w))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise DomainError(f"{what} must have unit trace, got {tr!r}")
    return H, dec


def quantum_relative_entropy(rho, sigma) -> float:
    """D(rho||sigma) = trace[rho (log rho - log sigma)] for commuting states.

    Eigenvalues below 1e-14 count as exact zeros (0*log 0 = 0); rho putting
    weight where sigma vanishes is a support violation (the divergence is
    +infinity) and raises SupportError.
    """
    _, dec_rho = _density(rho, "rho")
    sigma, _ = _density(sigma, "sigma")
    wr, ws, _ = _joint_spectrum(dec_rho, sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    active = wr > SUPPORT_ATOL
    if np.any(active & (ws <= SUPPORT_ATOL)):
        raise SupportError("rho has weight outside sigma's support; divergence is infinite")
    if not np.any(active):
        return 0.0
    return float(np.sum(wr[active] * (np.log(wr[active]) - np.log(ws[active]))))


def von_neumann_entropy(rho) -> float:
    """-trace(rho log rho) with the 0*log 0 = 0 convention; lies in [0, log n]."""
    w = np.clip(_density(rho, "rho")[1].eigenvalues, 0.0, None)
    active = w > SUPPORT_ATOL
    if not np.any(active):
        return 0.0
    return float(-np.sum(w[active] * np.log(w[active])))


def q_trace_gap(A, B, q: float, r: float, tol: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """Deformed-log trace inequality for commuting pairs.

    (trace B^r)^(1-q) trace[A^r lnq(A^r B^-r)] vs
    trace(A^r) [lnq(trace A^r) - lnq(trace B^r)], direction by sign of 2 - q.
    """
    _, B, dec_a, (wa, wb, _) = _checked_joint(A, B)
    verdict = q_log_sum_gap(SequencePair(tuple(wa), tuple(wb)), q, r, tol)

    power = power_fn(float(r))
    lnq = q_log_fn(float(q))
    if _in_domain(lnq, np.asarray(power(wa), dtype=float) / np.asarray(power(wb), dtype=float)):
        tr_ar, tr_br, core = _product_path(lnq, power, dec_a, B)
        lhs_prod = tr_br ** (1.0 - float(q)) * core
        _cross_check("q_trace_gap", verdict.lhs, lhs_prod, CROSS_CHECK_RTOL)
        params = QLogParams(float(q))
        rhs_prod = tr_ar * (q_log(tr_ar, params) - q_log(tr_br, params))
        _cross_check("q_trace_gap rhs", verdict.rhs, rhs_prod, CROSS_CHECK_RTOL)
    return verdict


def reverse_trace_gap(
    f: FunctionSpec, g: FunctionSpec, A, B, tol: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
    """trace[g(A) f(g(B) g(A)^{-1})] <= trace[g(A)] f(trace g(B)/trace g(A)).

    Reverse direction: needs g positive on both spectra and x*f(1/x) concave
    on the ratio interval, matching the scalar reverse inequality on the
    joint spectrum.
    """
    _, B, dec_a, (wa, wb, _) = _checked_joint(A, B)
    verdict = reverse_log_sum_gap(f, g, SequencePair(tuple(wa), tuple(wb)), tol)
    # The scalar verdict evaluated f at every ratio g(b_i)/g(a_i), so all lie in f's domain.
    _, _, lhs_prod = _product_path(f, g, dec_a, B, reverse=True)
    _cross_check("reverse_trace_gap", verdict.lhs, lhs_prod, CROSS_CHECK_RTOL)
    return verdict
