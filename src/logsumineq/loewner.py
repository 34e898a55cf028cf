"""Operator-order inequalities for non-commuting positive definite families.

Verdicts compare both sides of a claimed Loewner inequality by forming the
residual RHS - LHS (or the claim-appropriate orientation) and checking its
minimum eigenvalue.  Public functions validate their inputs once; the
private kernels take Hermitian arrays or SpectralDecompositions and
decompose each matrix once.

Each residual check has one kernel over a stack of T trials (see matfun on
leading axes), (T, m, n, n) for the families, (T, n, n) for the matrices
of operator Jensen and mean monotonicity, returning the residual
eigenvalues (T, n).  A trial's members and totals sit side by side on the
member axis, so each step of a kernel is one eigensolver call for the whole
stack.  The public *_residual function of a check validates its one
instance and runs the kernel as the T=1 stack.  The kernels check f's
operator class and anchor values once per distinct f (for the perspective
sum, perspective_sum_residual checks its f), then run their checks step by
step over the stack; a failing check raises the one-trial message of the
first failing trial.  Operator monotonicity/concavity/convexity of
the scalar function is established by catalog, not numerically: only
families whose operator class is classical textbook knowledge get the flags.

Everything here decomposes through LAPACK's eigh, with one exception: the
perspective-sum kernel _perspective_sums takes solver="jacobi".  The
contractive search calls the kernel that way to re-verify its candidates, a
stack at a time, through the independent Jacobi solver.  The choice reaches
only that kernel and _perspective.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, PreconditionError
from .functions import FunctionSpec, _outside
from .matfun import (
    LoewnerVerdict,
    SpectralDecomposition,
    _adjoint,
    _as_square_complex,
    _decompose,
    _first,
    _herm,
    _require_hermitian,
    _total,
    _verdict,
    apply_function,
    hermitize,
    maxnorm,
    psd_inverse,
    psd_sqrt,
    spectral_decompose,
)
from .scalar import DEFAULT_TOLERANCE

__all__ = [
    "operator_class_flags",
    "require_operator_class",
    "operator_perspective",
    "perspective_identity_gap",
    "operator_jensen_residual",
    "perspective_sum_residual",
    "operator_shannon_residual",
    "pooled_inverse_residual",
    "matrix_mean",
    "pooled_mean_residual",
    "split_mean_residual",
    "mean_monotonicity_residual",
]

SUM_MATCH_RTOL = 1e-9
_F_AT_ANCHOR_TOL = 1e-12


def operator_class_flags(f: FunctionSpec) -> frozenset[str]:
    """Catalog of known operator classes; adding a constant offset preserves all three."""
    fam = f.family
    if fam == "identity":
        return frozenset({"operator_monotone", "operator_concave", "operator_convex"})
    if fam in ("log", "shifted_log"):
        return frozenset({"operator_monotone", "operator_concave"})
    if fam == "q_log":
        if 0.0 <= float(f.param) <= 2.0:
            return frozenset({"operator_monotone", "operator_concave"})
        return frozenset()
    if fam == "power":
        r = float(f.param)
        flags: set[str] = set()
        if 0.0 < r <= 1.0:
            flags.update({"operator_monotone", "operator_concave"})
        if 1.0 <= r <= 2.0 or -1.0 <= r < 0.0:
            flags.add("operator_convex")
        return frozenset(flags)
    return frozenset()


def require_operator_class(f: FunctionSpec, *needed: str) -> None:
    flags = operator_class_flags(f)
    missing = [name for name in needed if name not in flags]
    if missing:
        raise PreconditionError(
            f"{f.label()} is not in the operator catalog as {', '.join(missing)}"
        )


def _validate_family(mats, what: str) -> np.ndarray:
    """The family as a Hermitian stack (m, n, n), each member checked Hermitian."""
    if len(mats) < 1:
        raise DomainError(f"{what} must contain at least one matrix")
    out = [_require_hermitian(M, f"{what}[{k}]") for k, M in enumerate(mats)]
    n = out[0].shape[0]
    for k, M in enumerate(out):
        if M.shape[0] != n:
            raise DomainError(f"{what}[{k}] has dimension {M.shape[0]}, expected {n}")
    return np.stack(out)


def _validate_families(A_family, B_family) -> tuple[np.ndarray, np.ndarray]:
    As = _validate_family(A_family, "A_family")
    Bs = _validate_family(B_family, "B_family")
    if len(As) != len(Bs):
        raise DomainError("A_family and B_family must have the same length")
    if As[0].shape != Bs[0].shape:
        raise DomainError("A_family and B_family must share dimension")
    return As, Bs


def _perspective(
    f, dec_a: SpectralDecomposition, B: np.ndarray, solver: str = "eigh"
) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} from A's decomposition and Hermitian B.

    Works on stacks; f is one FunctionSpec or one per entry of the first axis.
    """
    root = dec_a.sqrt()
    sA = root.reconstruct()
    sA_inv = root.inverse().reconstruct()
    arg = _herm(sA_inv @ B @ sA_inv)
    return _herm(sA @ _decompose(arg, solver).map(f).reconstruct() @ sA)


def operator_perspective(f: FunctionSpec, A, B) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} for positive definite A."""
    return _perspective(f, spectral_decompose(A), _require_hermitian(B, "B"))


def perspective_identity_gap(f: FunctionSpec, A, B) -> float:
    """Relative maxnorm distance between the perspective of (A, B) and plain f(B).

    The two coincide when A = I (or when A and B commute and f is applied in
    the shared basis); for generic non-commuting pairs they differ by O(1).
    This is a measurement, never an assertion.
    """
    P = operator_perspective(f, A, B)
    FB = apply_function(f, hermitize(B))
    return maxnorm(P - FB) / max(1.0, maxnorm(FB))


def _strict_contraction_problem(f: FunctionSpec, monotone: bool) -> str | None:
    """Why f cannot take a contraction with C† C != I in its direction, or None."""
    if _outside(0.0, *f.domain()):
        return f"{f.label()} is undefined at 0; a strict contraction pushes the spectrum there"
    if monotone and float(f(0.0)) < -_F_AT_ANCHOR_TOL:
        return "monotone direction needs f(0) >= 0"
    if not monotone and float(f(0.0)) > _F_AT_ANCHOR_TOL:
        return "convex direction needs f(0) <= 0"
    return None


def _operator_jensen(f: FunctionSpec, C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual eigenvalues (T, n) of the operator Jensen check for C, Hermitian X (T, n, n)."""
    norm = np.linalg.norm(C, 2, axis=(-2, -1))
    bad = norm > 1.0 + 1e-12
    if bad.any():
        (norm,) = _first(bad, norm)
        raise PreconditionError(f"contraction has operator norm {norm!r} > 1")
    flags = operator_class_flags(f)
    monotone = "operator_monotone" in flags
    if not monotone and "operator_convex" not in flags:
        raise PreconditionError(
            f"{f.label()} is neither operator monotone nor operator convex in the catalog"
        )
    Ct = _adjoint(C)
    dec = _decompose(np.stack([_herm(Ct @ X @ C), X], axis=1))  # Y = C† X C, then X
    strict = np.abs(Ct @ C - np.eye(C.shape[-1])).max(axis=(-2, -1)) > 1e-12
    if strict.any():
        wx = dec.eigenvalues[:, 1]
        not_psd = monotone & (wx[:, 0] < -1e-12 * np.maximum(1.0, np.abs(wx).max(axis=-1)))
        problem = _strict_contraction_problem(f, monotone)
        bad = strict & (not_psd | (problem is not None))
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise PreconditionError(
                "X must be PSD for the monotone direction" if not_psd[t] else problem
            )
    fYX = dec.map(f).reconstruct()
    CfXC = Ct @ fYX[:, 1] @ C
    residual = fYX[:, 0] - CfXC if monotone else CfXC - fYX[:, 0]
    return _decompose(_herm(residual)).eigenvalues


def operator_jensen_residual(
    f: FunctionSpec, contraction, X, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Operator Jensen check for a contraction C (operator norm <= 1).

    For catalog operator-monotone f (on [0, infinity), with f(0) >= 0) and
    PSD X the verdict is on f(C† X C) - C† f(X) C >= 0.  For catalog
    operator-convex f with f(0) <= 0 it is on C† f(X) C - f(C† X C) >= 0.
    When C† C = I both sides agree by similarity and the anchor conditions
    at 0 are not needed.
    """
    C = _as_square_complex(contraction, "contraction")
    Xh = _require_hermitian(X, "X")
    if C.shape != Xh.shape:
        raise DomainError(f"contraction shape {C.shape} does not match X shape {Xh.shape}")
    return _verdict(_operator_jensen(f, C[None], Xh[None])[0], tol)


def _require_expansive(w_sum: np.ndarray, m: int, tol: float) -> None:
    """sum(A_i) >= m*I from the eigenvalues (..., n) of the sum(s)."""
    check = _verdict(w_sum - m, tol)
    if not np.all(check.holds):
        (slack,) = _first(~np.asarray(check.holds), check.residual_min_eigenvalue)
        raise PreconditionError(
            f"family is not expansive: sum(A_i) >= m*I fails "
            f"(min eigenvalue of the slack {slack:.3e})"
        )


def _perspective_sums(
    fs,
    As: np.ndarray,
    Bs: np.ndarray,
    lhs_form: str,
    require_expansive: bool,
    tol: float,
    solver: str = "eigh",
) -> np.ndarray:
    """Residual eigenvalues (T, n) of the perspective-sum inequality for T trials.

    As and Bs are Hermitian stacks (T, m, n, n) and fs[t] is trial t's f.
    The totals sit on the member axis beside the members, so each step (the
    decomposition, then the perspective argument's) is one eigensolver call
    for all trials; the residuals take one more.
    """
    if lhs_form not in ("perspective_sum", "sum_fb"):
        raise DomainError(f"unknown lhs_form {lhs_form!r}")
    A, B = _total(As)[:, None], _total(Bs)[:, None]
    members = Bs if lhs_form == "sum_fb" else As
    dec = _decompose(np.concatenate([A, members], axis=1), solver)
    if require_expansive:
        _require_expansive(dec.eigenvalues[:, 0], As.shape[1], tol)
    if lhs_form == "sum_fb":
        rhs = _perspective(fs, dec[:, 0], B[:, 0], solver)
        lhs = _total(dec[:, 1:].map(fs).reconstruct())
    else:
        P = _perspective(fs, dec, np.concatenate([B, Bs], axis=1), solver)
        rhs, lhs = P[:, 0], _total(P[:, 1:])
    return _decompose(_herm(rhs - lhs), solver).eigenvalues


def perspective_sum_residual(
    f: FunctionSpec,
    A_family,
    B_family,
    lhs_form: str = "perspective_sum",
    require_expansive: bool = True,
    tol: float = DEFAULT_TOLERANCE,
) -> LoewnerVerdict:
    """Superadditivity of the operator perspective over a PD family.

        sum_i A_i^{1/2} f(A_i^{-1/2} B_i A_i^{-1/2}) A_i^{1/2}
            <= A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2},   A = sum A_i, B = sum B_i

    for catalog operator-concave f.  lhs_form selects the left side:
    "perspective_sum" is the displayed sum above; "sum_fb" replaces each
    summand with plain f(B_i), which is a genuinely different (and for
    some f false) claim kept for comparison experiments.  With
    require_expansive=True the input must satisfy sum(A_i) >= m*I; pass
    False to probe the inequality outside that hypothesis (see the harness
    search mode).
    """
    As, Bs = _validate_families(A_family, B_family)
    require_operator_class(f, "operator_concave")
    w = _perspective_sums([f], As[None], Bs[None], lhs_form, require_expansive, tol)
    return _verdict(w[0], tol)


def _operator_shannon(fs, As: np.ndarray, Bs: np.ndarray, dec, tol: float) -> np.ndarray:
    """Residual eigenvalues (T, n) of the operator Shannon check for Hermitian stacks (T, m, n, n).

    fs[t] is trial t's f; dec decomposes [A, A_1..A_m] (T, m + 1, n, n), A = sum(A_i).
    """
    for f in dict.fromkeys(fs):
        require_operator_class(f, "operator_concave")
        f_at_one = float(f(1.0))
        if abs(f_at_one) > _F_AT_ANCHOR_TOL:
            raise PreconditionError(f"f(1) must vanish, got {f_at_one!r}")
    A = _total(As)
    mismatch = np.abs(A - _total(Bs)).max(axis=(-2, -1))
    bad = mismatch > SUM_MATCH_RTOL * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    if bad.any():
        (mismatch,) = _first(bad, mismatch)
        raise PreconditionError(f"sum(A_i) != sum(B_i) (maxnorm mismatch {mismatch:.3e})")
    _require_expansive(dec.eigenvalues[:, 0], As.shape[1], tol)
    total = _total(_perspective(fs, dec[:, 1:], Bs))
    return _decompose(_herm(-total)).eigenvalues


def operator_shannon_residual(
    A_family, B_family, f: FunctionSpec, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Negative semidefiniteness of the perspective sum when the totals match.

    Requires sum(A_i) = sum(B_i) within tolerance, sum(A_i) >= m*I, and a
    catalog operator-concave f with f(1) = 0.  The verdict is on
    -sum_i A_i^{1/2} f(A_i^{-1/2} B_i A_i^{-1/2}) A_i^{1/2} >= 0.
    """
    As, Bs = _validate_families(A_family, B_family)
    dec = _decompose(np.concatenate([_total(As)[None], As])[None])
    return _verdict(_operator_shannon([f], As[None], Bs[None], dec, tol)[0], tol)


def _pooled_inverse(Xs: np.ndarray, As: np.ndarray) -> np.ndarray:
    """Residual eigenvalues (T, n) of the pooled-inverse check for stacks (T, m, n, n).

    Xs are square and As Hermitian.
    """
    m = As.shape[1]
    inverses = _decompose(np.concatenate([As, _total(As)[:, None]], axis=1)).inverse()
    inverses = inverses.reconstruct()  # A_i^{-1}, then A^{-1}
    lhs = _total(_herm(_adjoint(Xs) @ inverses[:, :m] @ Xs))
    SX = _total(Xs)
    rhs = _herm(_adjoint(SX) @ inverses[:, m] @ SX)
    return _decompose(_herm(lhs - rhs)).eigenvalues


def pooled_inverse_residual(X_family, A_family, tol: float = DEFAULT_TOLERANCE) -> LoewnerVerdict:
    """sum_i X_i† A_i^{-1} X_i >= (sum X_i)† (sum A_i)^{-1} (sum X_i).

    X_i are arbitrary square complex matrices; A_i must be PD.
    """
    As = _validate_family(A_family, "A_family")
    if len(X_family) != len(As):
        raise DomainError("X_family and A_family must have the same length")
    n = As[0].shape[0]
    Xs = []
    for k, X in enumerate(X_family):
        Xk = _as_square_complex(X, f"X_family[{k}]")
        if Xk.shape[0] != n:
            raise DomainError(f"X_family[{k}] has dimension {Xk.shape[0]}, expected {n}")
        Xs.append(Xk)
    return _verdict(_pooled_inverse(np.stack(Xs)[None], As[None])[0], tol)


def _mean(f: FunctionSpec, sB: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2} from (stacks of) B^{1/2} and A^{-1}."""
    arg = _herm(sB @ A_inv @ sB)
    return _herm(sB @ _decompose(arg).map(f).inverse().reconstruct() @ sB)


def matrix_mean(f: FunctionSpec, A, B) -> np.ndarray:
    """B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2} for PD A, B.

    f's matrix image must be PD so the middle inverse exists; for
    f = power(1/2) this is the geometric mean of A and B.
    """
    return _mean(f, psd_sqrt(B), psd_inverse(A))


def _pooled_mean(f: FunctionSpec, As: np.ndarray, Bs: np.ndarray) -> np.ndarray:
    """Residual eigenvalues (T, n) of the pooled mean bound for Hermitian stacks (T, m, n, n)."""
    require_operator_class(f, "operator_monotone")
    m = As.shape[1]
    dec = _decompose(np.concatenate([Bs, _total(Bs)[:, None], As, _total(As)[:, None]], axis=1))
    roots = dec[:, : m + 1].sqrt().reconstruct()  # B_i^{1/2}, then B^{1/2}
    inverses = dec[:, m + 1 :].inverse().reconstruct()  # A_i^{-1}, then A^{-1}
    args = _decompose(_herm(roots @ inverses @ roots))
    f_sum = _total(args[:, :m].map(f).reconstruct())
    sB_sum = _total(roots[:, :m])
    lhs = _herm(sB_sum @ _decompose(f_sum).inverse().reconstruct() @ sB_sum) / m
    sB = roots[:, m]
    rhs = _herm(sB @ args[:, m].map(f).inverse().reconstruct() @ sB)
    return _decompose(_herm(rhs - lhs)).eigenvalues


def pooled_mean_residual(
    f: FunctionSpec, A_family, B_family, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Pooled-family mean bound for catalog operator-monotone f:

        (1/m) (sum B_i^{1/2}) [sum f(B_i^{1/2} A_i^{-1} B_i^{1/2})]^{-1} (sum B_i^{1/2})
            <= B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2}.
    """
    As, Bs = _validate_families(A_family, B_family)
    return _verdict(_pooled_mean(f, As[None], Bs[None])[0], tol)


def _split_mean(f: FunctionSpec, As: np.ndarray, Bs: np.ndarray) -> np.ndarray:
    """Residual eigenvalues (T, n) of the split mean bound for Hermitian stacks (T, m, n, n)."""
    require_operator_class(f, "operator_monotone")
    m = As.shape[1]
    dec = _decompose(np.concatenate([As, _total(As)[:, None], Bs, _total(Bs)[:, None]], axis=1))
    sA = dec[:, :m].sqrt().reconstruct()
    # mean(A_i, B_i) for each member, then mean(A, B)
    means = _mean(f, dec[:, m + 1 :].sqrt().reconstruct(), dec[:, : m + 1].inverse().reconstruct())
    lhs = _total(_herm(sA @ means[:, :m] @ sA))
    sA_sum = _total(sA)
    rhs = _herm(sA_sum @ means[:, m] @ sA_sum) / m
    return _decompose(_herm(rhs - lhs)).eigenvalues


def split_mean_residual(
    f: FunctionSpec, A_family, B_family, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Per-member split of the pooled mean bound:

        sum_i A_i^{1/2} B_i^{1/2} [f(B_i^{1/2} A_i^{-1} B_i^{1/2})]^{-1} B_i^{1/2} A_i^{1/2}
            <= (1/m) (sum A_i^{1/2}) B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2} (sum A_i^{1/2}).

    The verdict reports the residual as computed; empirically this direction
    fails for families with widely spread spectra, so callers should treat a
    negative verdict on valid PD input as information, not as a numerical
    fault (see the test suite for a reproducible 1x1 instance).
    """
    As, Bs = _validate_families(A_family, B_family)
    return _verdict(_split_mean(f, As[None], Bs[None])[0], tol)


def _mean_monotonicity(
    f: FunctionSpec,
    A_part: np.ndarray,
    B_part: np.ndarray,
    A_whole: np.ndarray,
    B_whole: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Residual eigenvalues (T, n) of mean monotonicity for Hermitian stacks (T, n, n)."""
    require_operator_class(f, "operator_monotone")
    dec = _decompose(
        np.stack(
            [_herm(A_whole - A_part), _herm(B_whole - B_part), B_whole, B_part, A_whole, A_part],
            axis=1,
        )
    )
    order = _verdict(dec.eigenvalues[:, :2], tol)
    bad = ~order.holds
    if bad.any():
        name = "AB"[int(np.flatnonzero(bad)[0]) % 2]
        (low,) = _first(bad, order.residual_min_eigenvalue)
        raise PreconditionError(f"{name}_part <= {name}_whole fails (min eigenvalue {low:.3e})")
    # mean(A_whole, B_whole), then mean(A_part, B_part)
    means = _mean(f, dec[:, 2:4].sqrt().reconstruct(), dec[:, 4:].inverse().reconstruct())
    return _decompose(_herm(means[:, 0] - means[:, 1])).eigenvalues


def mean_monotonicity_residual(
    f: FunctionSpec,
    A_part,
    B_part,
    A_whole,
    B_whole,
    tol: float = DEFAULT_TOLERANCE,
) -> LoewnerVerdict:
    """Mean monotonicity in both arguments for catalog operator-monotone f:

        A_part <= A_whole and B_part <= B_whole (all PD) implies
        mean(A_part, B_part) <= mean(A_whole, B_whole)

    with mean(A, B) = B^{1/2}[f(B^{1/2}A^{-1}B^{1/2})]^{-1}B^{1/2}.
    """
    named = {"A_part": A_part, "B_part": B_part, "A_whole": A_whole, "B_whole": B_whole}
    mats = [_require_hermitian(M, name) for name, M in named.items()]
    shapes = [M.shape for M in mats]
    if len(set(shapes)) != 1:
        raise DimensionError(
            f"A_part, B_part, A_whole and B_whole must share one shape, got {shapes}"
        )
    return _verdict(_mean_monotonicity(f, *(M[None] for M in mats), tol)[0], tol)
