"""Operator-order inequalities for non-commuting positive definite families.

A verdict forms the residual RHS - LHS of a claimed Loewner inequality (or
its claim-appropriate orientation) and checks its minimum eigenvalue.
Public functions validate their inputs once, each matrix argument by
matfun._checked and a family's members as name[0], name[1], ... (_families);
private kernels take Hermitian arrays or SpectralDecompositions and
decompose each matrix once.

Each check has one kernel over a stack of T trials (see matfun on leading
axes) returning its Hermitian residuals R (T, n, n); its public *_residual
runs the kernel as the T=1 stack and gives matfun._verdict of its one
residual.  Operator Jensen and mean monotonicity take stacks
(T, n, n).  The other five take families on one flat member axis
(K, n, n), trial t's m[t] members on consecutive rows, beside the counts m;
the kernel takes their layout once (matfun._Segments) and decomposes the
totals and all members together, one eigensolver call per step.  f's
operator class and anchor values are checked once per distinct f
(perspective_sum_residual checks the perspective sum's f).  Each kernel
takes size, the own size n of each trial of a padded stack (the harness
pads every matrix of a trial to its size class N by an identity block); a
public function passes none, and every slot is own (matfun._own).  Every
decomposition carries the own sizes (_laid_out) and orders eigenpairs
own-first, and every check is read on the own slots or the own block
(matfun._own_block), so a pad adds no value of its own to a check; the
harness reads a padded residual's eigenvalues on its own slots, and its gap
moves from the unpadded one at round-off only.  A failing check raises the
one-trial message of the first failing trial in trial order for the
hypotheses (expansivity, matching sums, the contraction and order checks),
through errors._require.  Operator classes come from a catalog of textbook
results, not from numerics.

Every perspective and mean is built in its anchor's eigenbasis (_anchored),
and no anchor root or inverse is formed as a matrix: the perspective takes
f at (A, B), the mean 1/f(1/x) at (B, A), so A is neither inverted nor
decomposed.  The only reconstructed roots are the statements' own factors,
A_i^{1/2} (split mean) and sum(B_i^{1/2}) (pooled mean).

Every kernel decomposes through LAPACK's eigh, and none decomposes its
residual: each caller does, once (matfun._verdict, or the harness's Loewner
judge).  The contractive search confirms its candidates' residuals through
the independent Jacobi solver (harness), which re-derives the residual's
eigenvalues, not its formation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import (
    DEFAULT_TOLERANCE,
    DimensionError,
    DomainError,
    PreconditionError,
    _holds,
    _require,
    _tolerance,
)
from .functions import FunctionSpec, _outside
from .matfun import (
    INVERSE_FLOOR_RTOL,
    PSD_CLAMP_RTOL,
    LoewnerVerdict,
    SpectralDecomposition,
    _adjoint,
    _build,
    _checked,
    _decompose,
    _gap_scale,
    _herm,
    _largest,
    _lowest,
    _max_entry,
    _own_block,
    _Segments,
    _verdict,
    maxnorm,
    psd_sqrt,  # noqa: F401 (the benchmark self-tests rebind it here)
)

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

LHS_FORMS = ("perspective_sum", "sum_fb")  # perspective_sum_residual's left-hand sides
SUM_MATCH_RTOL = 1e-9
CONTRACTION_TOL = 1e-12  # the operator norm's excess over 1, and C† C - I's for a strict C
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


def _families(square=(), **families) -> list[np.ndarray]:
    """Each family as a stack (m, n, n) of its members, all checked by matfun._checked in order
    as name[0], name[1], ..., square only for the names in square.  A family that is not a
    sequence (a list, tuple or array) is a DomainError; an empty family, or two families of
    different lengths, is a DimensionError."""
    for name, family in families.items():
        listed = isinstance(family, Sequence) and not isinstance(family, (str, bytes))
        if not (listed or isinstance(family, np.ndarray) and family.ndim > 0):
            raise DomainError(f"{name} must be a sequence of matrices, got {family!r:.40}")
    lengths = [(name, len(family)) for name, family in families.items()]
    first, m = lengths[0]
    for name, k in lengths:
        if k < 1:
            raise DimensionError(f"{name} must contain at least one matrix")
        if k != m:
            raise DimensionError(f"{name} has length {k}, expected {first}'s {m}")
    named = {f"{name}[{k}]": M for name, family in families.items() for k, M in enumerate(family)}
    members = _checked(named, [f"{name}[{k}]" for name in square for k in range(m)])
    return [np.stack(members[i : i + m]) for i in range(0, len(members), m)]


def _laid_out(size, m, *parts):
    """The own sizes of a padded stack of the trials' matrices ("T") and their members ("K"),
    in the order of parts, from the trials' own sizes size; None (unpadded) when size is."""
    if size is None:
        return None
    each = {"T": size, "K": np.repeat(size, m)}
    return np.concatenate([each[part] for part in parts])


def _anchored(dec: SpectralDecomposition, M: np.ndarray):
    """(W, C's decomposition) for Hermitian M and the PD anchor S = U D U† of dec:
    C = D^{-1/2} U† M U D^{-1/2} = V diag(x) V† and W = U D^{1/2} V, so that X = S^{-1/2} M
    S^{-1/2} = (UV) diag(x) (UV)† and S^{1/2} g(X) S^{1/2} = _build(g(x), W).  C takes dec's
    own sizes."""
    root = dec.sqrt()
    s, U = root.inverse().eigenvalues, dec.unitary
    C_matrix = _herm(s[..., :, None] * (_adjoint(U) @ M @ U) * s[..., None, :])
    C = _decompose(C_matrix, size=dec._size)
    return (U * root.eigenvalues[..., None, :]) @ C.unitary, C


def _perspective(f, dec_a: SpectralDecomposition, B: np.ndarray) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} from A's decomposition and Hermitian B.

    Works on stacks; f is one FunctionSpec or one per entry of the first axis.
    """
    W, C = _anchored(dec_a, B)
    return _build(C.map(f).eigenvalues, W)


def operator_perspective(f: FunctionSpec, A, B) -> np.ndarray:
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} for positive definite A."""
    A, B = _checked({"A": A, "B": B})
    return _perspective(f, _decompose(A), B)


def perspective_identity_gap(f: FunctionSpec, A, B) -> float:
    """Relative maxnorm distance between the perspective of (A, B) and plain f(B).

    The two coincide when A = I (or when A and B commute and f is applied in
    the shared basis); for generic non-commuting pairs they differ by O(1).
    This is a measurement, never an assertion.
    """
    A, B = _checked({"A": A, "B": B})
    P = _perspective(f, _decompose(A), B)
    FB = _decompose(B).map(f).reconstruct()
    return maxnorm(P - FB) / max(1.0, maxnorm(FB))


def _strict_contraction_problem(f: FunctionSpec, monotone: bool) -> str | None:
    """Why f cannot take a contraction with C† C != I in its direction, or None."""
    if _outside(0.0, *f.domain()):
        return f"{f.label()} is undefined at 0; a strict contraction pushes the spectrum there"
    f_at_zero = float(f(0.0))
    if monotone and not _holds(f_at_zero, 1.0, _F_AT_ANCHOR_TOL):
        return "monotone direction needs f(0) >= 0"
    if not monotone and not _holds(-f_at_zero, 1.0, _F_AT_ANCHOR_TOL):
        return "convex direction needs f(0) <= 0"
    return None


def _operator_jensen(f: FunctionSpec, C: np.ndarray, X: np.ndarray, size=None) -> np.ndarray:
    """The residuals (T, n, n) of the operator Jensen check for C, Hermitian X (T, n, n)."""
    norm = np.linalg.norm(_own_block(C, size), 2, axis=(-2, -1))
    ok = _holds(1.0 - norm, 1.0, CONTRACTION_TOL)
    _require(ok, PreconditionError, "contraction has operator norm {!r} > 1", norm)
    flags = operator_class_flags(f)
    monotone = "operator_monotone" in flags
    if not monotone and "operator_convex" not in flags:
        raise PreconditionError(
            f"{f.label()} is neither operator monotone nor operator convex in the catalog"
        )
    Ct, pair = _adjoint(C), None if size is None else size[:, None]
    dec = _decompose(np.stack([_herm(Ct @ X @ C), X], axis=1), size=pair)  # Y = C† X C, then X
    excess = _max_entry(_own_block(Ct @ C - np.eye(C.shape[-1]), size))
    strict = ~_holds(-excess, 1.0, CONTRACTION_TOL)
    if strict.any():
        not_psd = monotone & ~_holds(*_gap_scale(dec.eigenvalues[:, 1], size), PSD_CLAMP_RTOL)
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
    return _herm(residual)


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
    C, X = _checked({"contraction": contraction, "X": X}, square=("contraction",))
    return _verdict(_operator_jensen(f, C[None], X[None]), tol)


def _require_expansive(w_sum: np.ndarray, m, tol: float, size=None) -> None:
    """sum(A_i) >= m*I from the eigenvalues (T, n) of the sums of T families of m[t] members."""
    slack, scale = _gap_scale(w_sum - np.asarray(m)[:, None], size)
    ok = _holds(slack, scale, _tolerance(tol))
    template = "family is not expansive: sum(A_i) >= m*I fails (min eigenvalue of the slack {:.3e})"
    _require(ok, PreconditionError, template, slack)


def _per_member(fs, m) -> list:
    """Family t's f repeated over its m[t] members: one f per row of the member axis."""
    return [f for f, k in zip(fs, m) for _ in range(k)]


def _perspective_sums(
    fs,
    As: np.ndarray,
    Bs: np.ndarray,
    m,
    lhs_form: str,
    require_expansive: bool,
    tol: float,
    size=None,
) -> np.ndarray:
    """The residuals rhs - lhs (T, n, n) of the perspective-sum inequality for T trials.

    As and Bs are Hermitian members (K, n, n), trial t's m[t] on consecutive
    rows, and fs[t] is trial t's f.  The totals sit beside the members, so
    each step (the decomposition, then the perspective argument's) is one
    eigensolver call for all trials.
    """
    if lhs_form not in LHS_FORMS:
        raise DomainError(f"unknown lhs_form {lhs_form!r}")
    T, total = len(m), _Segments(m).total
    A, B = total(As), total(Bs)
    members = Bs if lhs_form == "sum_fb" else As
    dec = _decompose(np.concatenate([A, members]), size=_laid_out(size, m, "T", "K"))
    if require_expansive:
        _require_expansive(dec.eigenvalues[:T], m, tol, size)
    f_members = _per_member(fs, m)
    if lhs_form == "sum_fb":
        rhs = _perspective(fs, dec[:T], B)
        lhs = total(dec[T:].map(f_members).reconstruct())
    else:
        P = _perspective([*fs, *f_members], dec, np.concatenate([B, Bs]))
        rhs, lhs = P[:T], total(P[T:])
    return _herm(rhs - lhs)


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
    As, Bs = _families(A_family=A_family, B_family=B_family)
    require_operator_class(f, "operator_concave")
    R = _perspective_sums([f], As, Bs, [len(As)], lhs_form, require_expansive, tol)
    return _verdict(R, tol)


def _operator_shannon(fs, As: np.ndarray, Bs: np.ndarray, m, tol: float, size=None) -> np.ndarray:
    """The residuals (T, n, n) of the operator Shannon check for T trials.

    As and Bs are Hermitian members (K, n, n), trial t's m[t] on consecutive
    rows, and fs[t] is trial t's f.  One decomposition takes the totals
    A = sum(A_i) of the T trials, then the members.
    """
    for f in dict.fromkeys(fs):
        require_operator_class(f, "operator_concave")
        f_at_one = float(f(1.0))
        ok = _holds(-abs(f_at_one), 1.0, _F_AT_ANCHOR_TOL)
        _require(ok, PreconditionError, "f(1) must vanish, got {!r}", f_at_one)
    total = _Segments(m).total
    A = total(As)
    mismatch = _max_entry(_own_block(A - total(Bs), size))
    ok = _holds(-mismatch, np.maximum(1.0, _max_entry(_own_block(A, size))), SUM_MATCH_RTOL)
    _require(ok, PreconditionError, "sum(A_i) != sum(B_i) (maxnorm mismatch {:.3e})", mismatch)
    T = len(m)
    dec = _decompose(np.concatenate([A, As]), size=_laid_out(size, m, "T", "K"))
    _require_expansive(dec.eigenvalues[:T], m, tol, size)
    lhs = total(_perspective(_per_member(fs, m), dec[T:], Bs))
    return _herm(-lhs)


def operator_shannon_residual(
    A_family, B_family, f: FunctionSpec, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Negative semidefiniteness of the perspective sum when the totals match.

    Requires sum(A_i) = sum(B_i) within tolerance, sum(A_i) >= m*I, and a
    catalog operator-concave f with f(1) = 0.  The verdict is on
    -sum_i A_i^{1/2} f(A_i^{-1/2} B_i A_i^{-1/2}) A_i^{1/2} >= 0.
    """
    As, Bs = _families(A_family=A_family, B_family=B_family)
    return _verdict(_operator_shannon([f], As, Bs, [len(As)], tol), tol)


def _pooled_inverse(Xs: np.ndarray, As: np.ndarray, m, size=None) -> np.ndarray:
    """The residuals (T, n, n) of the pooled-inverse check for T trials.

    Xs (square) and As (Hermitian) are members (K, n, n), trial t's m[t] on
    consecutive rows.
    """
    K, total = len(As), _Segments(m).total
    # X† A^{-1} X = Y† Y with Y = D^{-1/2} U† X, for each A_i, then for A
    dec = _decompose(np.concatenate([As, total(As)]), size=_laid_out(size, m, "K", "T"))
    root = dec.inverse().sqrt()
    Y = root.eigenvalues[..., :, None] * (_adjoint(root.unitary) @ np.concatenate([Xs, total(Xs)]))
    gram = _adjoint(Y) @ Y
    return _herm(total(gram[:K]) - gram[K:])


def pooled_inverse_residual(X_family, A_family, tol: float = DEFAULT_TOLERANCE) -> LoewnerVerdict:
    """sum_i X_i† A_i^{-1} X_i >= (sum X_i)† (sum A_i)^{-1} (sum X_i).

    X_i are arbitrary square complex matrices; A_i must be PD.
    """
    Xs, As = _families(square=("X_family",), X_family=X_family, A_family=A_family)
    return _verdict(_pooled_inverse(Xs, As, [len(As)]), tol)


def _inverted(dec_b: SpectralDecomposition, A: np.ndarray):
    """(W, B^{1/2} A^{-1} B^{1/2} = X^{-1} on C's basis) for (W, C) = _anchored(dec_b, A), A PD:
    x_max d_min/d_max <= lambda_max(A)/d_max and x_min >= lambda_min(A)/d_max, so the default
    floor scaled by d_min/d_max passes every A that inverse() passes, whatever cond(B)."""
    W, C = _anchored(dec_b, A)
    d, size = dec_b.eigenvalues, dec_b._size  # d > 0: _anchored inverted its root
    floor = INVERSE_FLOOR_RTOL * _largest(C.eigenvalues, size)
    return W, C.inverse(floor * _lowest(d, size) / _largest(d, size))


def _positive_image(f: FunctionSpec, arg: SpectralDecomposition) -> SpectralDecomposition:
    """f(B^{1/2} A^{-1} B^{1/2}) of a mean's argument, checked positive definite before a mean
    inverts it: an f that is not positive on the argument's spectrum (log below 1) gives an
    indefinite image, which is refused as such, not as near-singular."""
    image = arg.map(f)
    lowest = _lowest(image.eigenvalues, image._size)
    template = "{}(B^1/2 A^-1 B^1/2) is not positive definite (min eigenvalue {:.3e})"
    _require(lowest > 0.0, DomainError, template, f.label(), lowest)
    return image


def _mean(f: FunctionSpec, dec_b: SpectralDecomposition, A: np.ndarray) -> np.ndarray:
    """B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2}, the perspective of 1/f(1/x) at (B, A)."""
    W, arg = _inverted(dec_b, A)
    return _build(_positive_image(f, arg).inverse().eigenvalues, W)


def matrix_mean(f: FunctionSpec, A, B) -> np.ndarray:
    """B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2} for PD A, B.

    B, then A, must be PD (SingularityError) and f's matrix image PD
    (DomainError); for f = power(1/2) this is the geometric mean of A and B.
    """
    B, A = _checked({"B": B, "A": A})
    return _mean(f, _decompose(B), A)


def _pooled_mean(f: FunctionSpec, As: np.ndarray, Bs: np.ndarray, m, size=None) -> np.ndarray:
    """The residuals (T, n, n) of the pooled mean bound for T trials.

    As and Bs are Hermitian members (K, n, n), trial t's m[t] on consecutive rows.
    """
    require_operator_class(f, "operator_monotone")
    K, total = len(As), _Segments(m).total
    dec = _decompose(np.concatenate([Bs, total(Bs)]), size=_laid_out(size, m, "K", "T"))
    W, arg = _inverted(dec, np.concatenate([As, total(As)]))
    # f(B_i^{1/2} A_i^{-1} B_i^{1/2}), then the totals', on C's eigenvectors
    f_arg = _positive_image(f, arg)
    f_sum = total(_build(f_arg.eigenvalues[:K], dec.unitary[:K] @ f_arg.unitary[:K]))
    sB_sum = total(dec[:K].sqrt().reconstruct())
    pooled = _decompose(f_sum, size=size).inverse()
    lhs = _build(pooled.eigenvalues, sB_sum @ pooled.unitary) / np.asarray(m)[:, None, None]
    rhs = _build(f_arg[K:].inverse().eigenvalues, W[K:])
    return _herm(rhs - lhs)


def pooled_mean_residual(
    f: FunctionSpec, A_family, B_family, tol: float = DEFAULT_TOLERANCE
) -> LoewnerVerdict:
    """Pooled-family mean bound for catalog operator-monotone f:

        (1/m) (sum B_i^{1/2}) [sum f(B_i^{1/2} A_i^{-1} B_i^{1/2})]^{-1} (sum B_i^{1/2})
            <= B^{1/2} [f(B^{1/2} A^{-1} B^{1/2})]^{-1} B^{1/2}.
    """
    As, Bs = _families(A_family=A_family, B_family=B_family)
    return _verdict(_pooled_mean(f, As, Bs, [len(As)]), tol)


def _split_mean(f: FunctionSpec, As: np.ndarray, Bs: np.ndarray, m, size=None) -> np.ndarray:
    """The residuals (T, n, n) of the split mean bound for T trials.

    As and Bs are Hermitian members (K, n, n), trial t's m[t] on consecutive rows.
    """
    require_operator_class(f, "operator_monotone")
    K, total = len(As), _Segments(m).total
    dec = _decompose(np.concatenate([As, Bs, total(Bs)]), size=_laid_out(size, m, "K", "K", "T"))
    sA = dec[:K].sqrt().reconstruct()
    roots = np.concatenate([sA, total(sA)])  # A_i^{1/2}, then sum(A_i^{1/2})
    # mean(A_i, B_i) for each member, then mean(A, B), between the roots
    sides = _herm(roots @ _mean(f, dec[K:], np.concatenate([As, total(As)])) @ roots)
    rhs = sides[K:] / np.asarray(m)[:, None, None]
    return _herm(rhs - total(sides[:K]))


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
    As, Bs = _families(A_family=A_family, B_family=B_family)
    return _verdict(_split_mean(f, As, Bs, [len(As)]), tol)


def _mean_monotonicity(
    f: FunctionSpec,
    A_part: np.ndarray,
    B_part: np.ndarray,
    A_whole: np.ndarray,
    B_whole: np.ndarray,
    tol: float,
    size=None,
) -> np.ndarray:
    """The residuals (T, n, n) of mean monotonicity for Hermitian stacks (T, n, n)."""
    require_operator_class(f, "operator_monotone")
    pair = None if size is None else size[:, None]
    dec = _decompose(
        np.stack([_herm(A_whole - A_part), _herm(B_whole - B_part), B_whole, B_part], axis=1),
        size=pair,
    )
    low, scale = _gap_scale(dec.eigenvalues[:, :2], pair)
    ok = _holds(low, scale, _tolerance(tol))
    template = "{0}_part <= {0}_whole fails (min eigenvalue {1:.3e})"  # {0} is A, then B
    _require(ok, PreconditionError, template, ("A", "B"), low)
    # mean(A_whole, B_whole), then mean(A_part, B_part)
    means = _mean(f, dec[:, 2:], np.stack([A_whole, A_part], axis=1))
    return _herm(means[:, 0] - means[:, 1])


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
    return _verdict(_mean_monotonicity(f, *(M[None] for M in _checked(named)), tol), tol)
