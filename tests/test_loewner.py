"""Operator-order results: Jensen, perspective sums, Shannon form, matrix means.

Also pins down, with reproducible instances, the statements that do NOT hold
in general: the pointwise perspective identity for non-commuting pairs, the
plain-sum left-hand side with f = log, and the split-mean comparison.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.errors import DimensionError, DomainError, PreconditionError, SingularityError
from logsumineq.functions import (
    exp_fn,
    identity_fn,
    log_fn,
    power_fn,
    q_log_fn,
    rational_fn,
    shifted_log_fn,
)
from logsumineq.generators import (
    rand_contraction,
    rand_expansive,
    rand_pd,
    rand_psd,
    rand_split_matching,
    rand_square,
    rand_unitary,
)
from logsumineq.harness import SUITES, TrialConfig
from logsumineq.loewner import (
    _mean_monotonicity,
    _operator_shannon,
    _perspective_sums,
    _pooled_mean,
    _split_mean,
    matrix_mean,
    mean_monotonicity_residual,
    operator_class_flags,
    operator_jensen_residual,
    operator_perspective,
    operator_shannon_residual,
    perspective_identity_gap,
    perspective_sum_residual,
    pooled_inverse_residual,
    pooled_mean_residual,
    split_mean_residual,
)
from logsumineq.matfun import (
    hermitize,
    loewner_leq,
    maxnorm,
    psd_inverse,
    psd_sqrt,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=5)
counts = st.integers(min_value=1, max_value=4)

SQRT = power_fn(0.5)


# -- operator class catalog -------------------------------------------------------


def test_class_catalog():
    assert operator_class_flags(log_fn()) == {"operator_monotone", "operator_concave"}
    assert operator_class_flags(shifted_log_fn(1.0)) == {"operator_monotone", "operator_concave"}
    assert operator_class_flags(power_fn(0.5)) == {"operator_monotone", "operator_concave"}
    assert operator_class_flags(power_fn(1.5)) == {"operator_convex"}
    assert operator_class_flags(power_fn(-1.0)) == {"operator_convex"}
    assert operator_class_flags(power_fn(3.0)) == frozenset()
    assert operator_class_flags(q_log_fn(0.5)) == {"operator_monotone", "operator_concave"}
    assert operator_class_flags(q_log_fn(3.0)) == frozenset()
    assert operator_class_flags(exp_fn()) == frozenset()
    assert operator_class_flags(rational_fn()) == frozenset()
    # offsets change nothing
    assert operator_class_flags(power_fn(0.5, offset=-1.0)) == operator_class_flags(power_fn(0.5))


def test_concavity_gate_rejects_exp():
    rng = np.random.default_rng(0)
    As = [rand_expansive(rng, 3)]
    Bs = [rand_pd(rng, 3, (0.5, 2.0))]
    with pytest.raises(PreconditionError):
        perspective_sum_residual(exp_fn(), As, Bs)


# -- operator perspective ----------------------------------------------------------


def test_perspective_commuting_reduces_to_scalar():
    A = np.diag([2.0, 3.0])
    B = np.diag([4.0, 12.0])
    P = operator_perspective(SQRT, A, B)
    # a f(b/a) on each joint eigenvalue: 2*sqrt(2), 3*2
    assert np.allclose(np.diag(P).real, [2.0 * math.sqrt(2.0), 6.0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_perspective_and_mean_are_exactly_hermitian(n):
    # each is W diag(w) W† made Hermitian, so it equals its adjoint bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A, B = rand_pd(rng, n, (0.2, 5.0)), rand_pd(rng, n, (0.2, 5.0))
        for M in (
            operator_perspective(SQRT, A, B),
            operator_perspective(log_fn(), A, B),
            matrix_mean(SQRT, A, B),
            matrix_mean(power_fn(0.3), A, B),
        ):
            assert np.array_equal(M, M.conj().T), seed


def test_perspective_identity_gap_zero_when_a_is_identity():
    rng = np.random.default_rng(1)
    B = rand_pd(rng, 3, (0.5, 2.0))
    assert perspective_identity_gap(log_fn(), np.eye(3), B) <= 1e-12


def test_perspective_identity_gap_checks_each_input_once(input_checks, eigh_calls):
    rng = np.random.default_rng(3)
    A, B = rand_pd(rng, 3, (0.5, 2.0)), rand_pd(rng, 3, (0.5, 2.0))
    eigh_calls.clear()
    input_checks.update(dict.fromkeys(input_checks, 0))
    perspective_identity_gap(log_fn(), A, B)
    # A, then B, each checked square, finite and Hermitian at entry and nowhere after
    assert input_checks == {"_as_square_complex": 2, "_require_hermitian": 2}
    # A, the perspective's argument in A's eigenbasis, then B for f(B)
    assert len(eigh_calls) == 3


def test_perspective_identity_fails_for_noncommuting():
    # the pointwise summand = f(B) identity is false off the commuting case;
    # keep one sizable witness pinned so nobody "fixes" it into an assertion
    rng = np.random.default_rng(2)
    U = rand_unitary(rng, 3)
    A = hermitize(U @ np.diag([0.2, 1.0, 5.0]) @ U.conj().T)
    B = np.diag([5.0, 1.0, 0.2])
    gap = perspective_identity_gap(log_fn(), A, B)
    assert gap > 0.1


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_perspective_congruence_scaling(seed, n):
    # P_f(cA, cB) = c P_f(A, B) for positive scalars
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.3, 3.0))
    B = rand_pd(rng, n, (0.3, 3.0))
    c = float(rng.uniform(0.5, 4.0))
    lhs = operator_perspective(SQRT, c * A, c * B)
    rhs = c * operator_perspective(SQRT, A, B)
    assert maxnorm(lhs - rhs) <= 1e-9 * max(1.0, maxnorm(rhs))


# -- operator Jensen ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_jensen_monotone_direction(seed, n):
    rng = np.random.default_rng(seed)
    C = rand_contraction(rng, n)
    X = rand_psd(rng, n, scale=2.0)
    v = operator_jensen_residual(SQRT, C, X)
    assert v.holds


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_jensen_convex_direction(seed, n):
    rng = np.random.default_rng(seed)
    C = rand_contraction(rng, n)
    X = rand_psd(rng, n, scale=2.0)
    v = operator_jensen_residual(power_fn(2.0), C, X)
    assert v.holds


def test_jensen_unitary_conjugation_is_equality():
    rng = np.random.default_rng(3)
    U = rand_unitary(rng, 4)
    X = rand_psd(rng, 4)
    v = operator_jensen_residual(SQRT, U, X)
    assert abs(v.residual_min_eigenvalue) <= 1e-9
    assert abs(v.residual_norm) <= 1e-9


def test_jensen_rejects_expansive_c():
    rng = np.random.default_rng(4)
    X = rand_psd(rng, 3)
    with pytest.raises(PreconditionError):
        operator_jensen_residual(SQRT, 2.0 * np.eye(3), X)


def test_jensen_rejects_bad_anchor():
    # monotone branch needs f(0) >= 0 for a strict contraction
    rng = np.random.default_rng(5)
    C = 0.5 * np.eye(3)
    X = rand_pd(rng, 3, (0.5, 2.0))
    with pytest.raises(PreconditionError):
        operator_jensen_residual(power_fn(0.5, offset=-1.0), C, X)


def test_jensen_rejects_f_outside_both_operator_classes():
    message = r"^exp is neither operator monotone nor operator convex in the catalog$"
    with pytest.raises(PreconditionError, match=message):
        operator_jensen_residual(exp_fn(), 0.5 * np.eye(2), 2.0 * np.eye(2))


def test_jensen_rejects_f_undefined_at_zero_for_a_strict_contraction():
    message = r"^log is undefined at 0; a strict contraction pushes the spectrum there$"
    with pytest.raises(PreconditionError, match=message):
        operator_jensen_residual(log_fn(), 0.5 * np.eye(2), 2.0 * np.eye(2))


def test_jensen_contraction_norm_identity():
    # scalar case: C = [c], X = [x] gives f(c^2 x) - c^2 f(x)
    v = operator_jensen_residual(SQRT, np.array([[0.5]]), np.array([[4.0]]))
    expected = math.sqrt(0.25 * 4.0) - 0.25 * 2.0
    assert v.residual_min_eigenvalue == pytest.approx(expected, rel=1e-12)


# -- perspective superadditivity ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds, dims, counts)
def test_perspective_sum_expansive(seed, n, m):
    rng = np.random.default_rng(seed)
    As = [rand_expansive(rng, n) for _ in range(m)]
    Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    assert perspective_sum_residual(SQRT, As, Bs).holds


@settings(max_examples=60, deadline=None)
@given(seeds, dims, counts)
def test_perspective_sum_holds_without_expansivity(seed, n, m):
    # superadditivity of the perspective needs no condition on sum(A)
    rng = np.random.default_rng(seed)
    As = [rand_pd(rng, n, (0.05, 1.0)) for _ in range(m)]
    Bs = [rand_pd(rng, n, (0.1, 3.0)) for _ in range(m)]
    v = perspective_sum_residual(log_fn(), As, Bs, require_expansive=False)
    assert v.holds


def test_perspective_sum_single_family_is_equality():
    rng = np.random.default_rng(6)
    A = [rand_expansive(rng, 3)]
    B = [rand_pd(rng, 3, (0.5, 2.0))]
    v = perspective_sum_residual(SQRT, A, B)
    assert abs(v.residual_min_eigenvalue) <= 1e-10


def test_perspective_sum_checks_expansivity_when_asked():
    rng = np.random.default_rng(7)
    As = [0.1 * np.eye(3), 0.1 * np.eye(3)]
    Bs = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(2)]
    with pytest.raises(PreconditionError):
        perspective_sum_residual(SQRT, As, Bs, require_expansive=True)
    # same data sails through with the gate off
    assert perspective_sum_residual(SQRT, As, Bs, require_expansive=False).holds


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_expansivity_check_rejects_a_tolerance_not_finite_and_positive(tol):
    # the expansivity check is the first reader of tol, so it meets the rule first
    rng = np.random.default_rng(7)
    As = [0.1 * np.eye(3), 0.1 * np.eye(3)]
    Bs = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(2)]
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        perspective_sum_residual(SQRT, As, Bs, require_expansive=True, tol=tol)


def test_plain_sum_lhs_fails_for_log():
    # sum f(B_i) <= f-perspective aggregate is FALSE for f = log:
    # concrete rejection witness, scaled identities
    As = [10.0 * np.eye(2), 10.0 * np.eye(2)]
    Bs = [math.e * np.eye(2), math.e * np.eye(2)]
    v = perspective_sum_residual(log_fn(), As, Bs, lhs_form="sum_fb")
    assert not v.holds
    assert v.residual_min_eigenvalue < -1.0


@settings(max_examples=60, deadline=None)
@given(seeds, dims, counts)
def test_plain_sum_lhs_holds_for_sqrt(seed, n, m):
    # for f = sqrt on expansive families the weaker plain-sum form does hold
    rng = np.random.default_rng(seed)
    As = [rand_expansive(rng, n) for _ in range(m)]
    Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    assert perspective_sum_residual(SQRT, As, Bs, lhs_form="sum_fb").holds


# -- operator Shannon ---------------------------------------------------------------


def test_shannon_frozen_example():
    B1 = np.diag([0.5, 1.5])
    B2 = 2.0 * np.eye(2) - B1
    v = operator_shannon_residual([np.eye(2), np.eye(2)], [B1, B2], power_fn(0.5, offset=-1.0))
    assert v.holds


def test_shannon_requires_f1_zero():
    B1 = np.diag([0.5, 1.5])
    B2 = 2.0 * np.eye(2) - B1
    with pytest.raises(PreconditionError):
        operator_shannon_residual([np.eye(2), np.eye(2)], [B1, B2], power_fn(0.5))


def test_shannon_requires_matching_sums():
    rng = np.random.default_rng(8)
    As = [rand_expansive(rng, 2) for _ in range(2)]
    Bs = [rand_pd(rng, 2, (0.5, 2.0)) for _ in range(2)]
    with pytest.raises(PreconditionError):
        operator_shannon_residual(As, Bs, power_fn(0.5, offset=-1.0))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_shannon_nonpositive_when_sums_match(seed, n, m):
    rng = np.random.default_rng(seed)
    As = [rand_expansive(rng, n) for _ in range(m)]
    total = hermitize(sum(As))
    Bs = rand_split_matching(rng, total, m, (0.5, 2.0))
    v = operator_shannon_residual(As, Bs, power_fn(0.5, offset=-1.0))
    assert v.holds


# -- pooled inverse -------------------------------------------------------------------


def test_pooled_inverse_equality_at_x_equals_a():
    rng = np.random.default_rng(9)
    As = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(3)]
    v = pooled_inverse_residual(As, As)
    assert abs(v.residual_min_eigenvalue) <= 1e-9
    assert v.holds


@settings(max_examples=80, deadline=None)
@given(seeds, dims, counts)
def test_pooled_inverse_holds(seed, n, m):
    rng = np.random.default_rng(seed)
    Xs = [rand_square(rng, n) for _ in range(m)]
    As = [rand_pd(rng, n, (0.2, 3.0)) for _ in range(m)]
    assert pooled_inverse_residual(Xs, As).holds


def test_pooled_inverse_scalar_case_is_cauchy_schwarz():
    # 1x1: (sum x)^2 / (sum a) <= sum x^2/a
    xs = [2.0, -1.0, 3.0]
    asq = [1.0, 2.0, 4.0]
    v = pooled_inverse_residual(
        [np.array([[x]]) for x in xs], [np.array([[a]]) for a in asq]
    )
    lhs = sum(x * x / a for x, a in zip(xs, asq))
    rhs = sum(xs) ** 2 / sum(asq)
    assert v.residual_min_eigenvalue == pytest.approx(lhs - rhs, rel=1e-12)
    assert v.holds


# -- matrix means ----------------------------------------------------------------------


def test_matrix_mean_sqrt_is_geometric_mean():
    A = np.diag([4.0, 1.0])
    B = np.diag([1.0, 9.0])
    G = matrix_mean(SQRT, A, B)
    assert np.allclose(np.diag(G).real, [2.0, 3.0], atol=1e-12)


def test_matrix_mean_identity_function_returns_a():
    rng = np.random.default_rng(10)
    A = rand_pd(rng, 3, (0.5, 2.0))
    B = rand_pd(rng, 3, (0.5, 2.0))
    M = matrix_mean(identity_fn(), A, B)
    assert maxnorm(M - A) <= 1e-9 * max(1.0, maxnorm(A))


def test_matrix_mean_geometric_symmetry():
    # for f = sqrt the mean is symmetric: G(A,B) = G(B,A)
    rng = np.random.default_rng(11)
    A = rand_pd(rng, 3, (0.5, 2.0))
    B = rand_pd(rng, 3, (0.5, 2.0))
    assert maxnorm(matrix_mean(SQRT, A, B) - matrix_mean(SQRT, B, A)) <= 1e-9


def _in_basis(*w):
    U = rand_unitary(np.random.default_rng(3), len(w))
    return (U * np.array(w)) @ U.conj().T


@pytest.mark.parametrize("f", [SQRT, shifted_log_fn(2.0)])
@pytest.mark.parametrize(
    "A, B",
    [
        (_in_basis(0.0, 1.0, 2.0), _in_basis(1.0, 2.0, 3.0)),
        (_in_basis(-1.0, 1.0, 2.0), _in_basis(1.0, 2.0, 3.0)),
        (_in_basis(1.0, 2.0, 3.0), _in_basis(0.0, 1.0, 2.0)),
    ],
    ids=["singular_A", "indefinite_A", "singular_B"],
)
def test_matrix_mean_needs_positive_definite_arguments(f, A, B):
    with pytest.raises(SingularityError, match=r"^matrix not invertible above floor "):
        matrix_mean(f, A, B)


def test_matrix_mean_keeps_each_arguments_own_floor():
    # cond(A) = cond(B) = 1e6, so B^{-1/2} A B^{-1/2} has condition number 1e12
    A, B = _in_basis(1e-6, 1.0), _in_basis(1.0, 1e-6)
    assert maxnorm(matrix_mean(SQRT, A, B) - 1e-3 * np.eye(2)) <= 1e-12


def test_matrix_mean_checks_b_before_a():
    singular, indefinite = _in_basis(0.0, 1.0, 2.0), _in_basis(-1.0, 1.0, 2.0)
    with pytest.raises(DomainError, match=r"^matrix is not PSD \(min eigenvalue -1\.000e\+00 "):
        matrix_mean(SQRT, singular, indefinite)
    with pytest.raises(SingularityError, match=r"\(min eigenvalue 0\.000e\+00\)$"):
        matrix_mean(SQRT, indefinite, singular)
    with pytest.raises(DomainError, match=r"^B is not Hermitian \(anti-Hermitian part 2\.0"):
        matrix_mean(SQRT, [[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]])


def _spread_pd(rng, n):
    """A PD matrix with spectrum log-uniform in (1e-3, 1e3), in a random basis."""
    U = rand_unitary(rng, n)
    return hermitize((U * 10.0 ** rng.uniform(-3.0, 3.0, n)) @ U.conj().T)


def test_perspective_and_mean_agree_with_50_digits_on_spread_spectra():
    import mpmath

    from logsumineq.referee import Referee

    def mp_root(M, power):
        w, U = mpmath.eighe(M)
        return U * mpmath.diag([v**power for v in w]) * U.H

    def rel_err(X, ref):
        ref = np.array(ref.tolist(), dtype=complex)
        return maxnorm(X - ref) / maxnorm(ref)

    rng = np.random.default_rng(1)
    with mpmath.workdps(50):
        for _ in range(5):
            A, B = _spread_pd(rng, 6), _spread_pd(rng, 6)
            mA, mB = mpmath.matrix(A.tolist()), mpmath.matrix(B.tolist())
            sA, sA_inv = mp_root(mA, mpmath.mpf(1) / 2), mp_root(mA, -mpmath.mpf(1) / 2)
            arg = sA_inv * mB * sA_inv
            for f in (SQRT, log_fn()):
                ref = sA * Referee.apply(f, (arg + arg.H) / 2) * sA
                assert rel_err(operator_perspective(f, A, B), ref) <= 1e-10, f.label()
            sB = mp_root(mB, mpmath.mpf(1) / 2)
            arg = sB * mA**-1 * sB
            ref = sB * Referee.apply(SQRT, (arg + arg.H) / 2) ** -1 * sB
            assert rel_err(matrix_mean(SQRT, A, B), ref) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seeds, dims, st.integers(min_value=1, max_value=4))
def test_pooled_mean_holds(seed, n, m):
    rng = np.random.default_rng(seed)
    As = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    assert pooled_mean_residual(SQRT, As, Bs).holds


def test_pooled_mean_scalar_reduction():
    # 1x1 case with f = sqrt: (1/m)(sum sqrt(b))^2 / sum sqrt(b/a) ... reduces to
    # (1/m) (sum sqrt(b_i))^2 [sum f(b_i/a_i)]^{-1} <= sqrt(a b) with pooled a, b
    a = [4.0, 0.25]
    b = [1.0, 1.0]
    v = pooled_mean_residual(SQRT, [np.array([[x]]) for x in a], [np.array([[x]]) for x in b])
    m = 2
    lhs = (sum(math.sqrt(x) for x in b)) ** 2 / (m * sum(math.sqrt(y / x) for x, y in zip(a, b)))
    rhs = math.sqrt(sum(a) * sum(b))
    assert v.residual_min_eigenvalue == pytest.approx(rhs - lhs, rel=1e-12)
    assert v.holds


def test_split_mean_counterexample_is_negative():
    # the second comparison in the pooled-mean chain is false in general;
    # this 1x1 witness is frozen so the failure stays visible and reproducible
    As = [np.array([[4.0]]), np.array([[0.01]])]
    Bs = [np.array([[1.0]]), np.array([[1.0]])]
    v = split_mean_residual(SQRT, As, Bs)
    assert not v.holds
    assert v.residual_min_eigenvalue == pytest.approx(-1.7565272039987212, rel=1e-12)


def test_split_mean_single_family_is_equality():
    rng = np.random.default_rng(12)
    A = [rand_pd(rng, 3, (0.5, 2.0))]
    B = [rand_pd(rng, 3, (0.5, 2.0))]
    v = split_mean_residual(SQRT, A, B)
    assert abs(v.residual_min_eigenvalue) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_split_mean_holds_on_narrow_spectra(seed, n, m):
    # within the default narrow spectrum window no violation has been observed
    rng = np.random.default_rng(seed)
    As = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
    assert split_mean_residual(SQRT, As, Bs).holds


# -- mean monotonicity -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_mean_monotone_in_both_arguments(seed, n):
    rng = np.random.default_rng(seed)
    A1 = rand_pd(rng, n, (0.5, 2.0))
    B1 = rand_pd(rng, n, (0.5, 2.0))
    A2 = hermitize(A1 + rand_psd(rng, n, scale=0.5))
    B2 = hermitize(B1 + rand_pd(rng, n, (0.05, 0.5)))
    assert mean_monotonicity_residual(SQRT, A1, B1, A2, B2).holds


def test_mean_monotonicity_rejects_mismatched_shapes():
    # broadcasting once compared a 1x1 part against a 3x3 whole and returned a verdict
    W = 2.0 * np.eye(3) + 0.1 * np.ones((3, 3))
    with pytest.raises(DimensionError):
        mean_monotonicity_residual(power_fn(0.5), [[0.1]], [[0.1]], W, W)


def test_mean_monotonicity_rejects_unordered_input():
    rng = np.random.default_rng(13)
    A1 = rand_pd(rng, 3, (1.0, 2.0))
    B1 = rand_pd(rng, 3, (0.5, 2.0))
    with pytest.raises(PreconditionError):
        mean_monotonicity_residual(SQRT, A1, B1, 0.5 * A1, B1 + 0.1 * np.eye(3))


# -- one decomposition per matrix -------------------------------------------------


def test_operator_perspective_takes_two_eigensolves(eigh_calls):
    rng = np.random.default_rng(8)
    A, B = rand_pd(rng, 4, (0.5, 2.0)), rand_pd(rng, 4, (0.5, 2.0))
    eigh_calls.clear()
    operator_perspective(log_fn(), A, B)
    assert len(eigh_calls) == 2  # A, then the argument A^{-1/2} B A^{-1/2}


def test_matrix_mean_takes_two_eigensolves(eigh_calls):
    rng = np.random.default_rng(9)
    A, B = rand_pd(rng, 4, (0.5, 2.0)), rand_pd(rng, 4, (0.5, 2.0))
    eigh_calls.clear()
    matrix_mean(SQRT, A, B)
    assert len(eigh_calls) == 2  # B, then A seen in B's eigenbasis; A is never decomposed


def test_mean_kernels_decompose_b_and_the_arguments_not_a(eigh_calls):
    rng = np.random.default_rng(12)
    m, n = [3, 1, 2], 3
    K, T = sum(m), len(m)
    As = np.array([rand_pd(rng, n, (0.5, 2.0)) for _ in range(K)])
    Bs = np.array([rand_pd(rng, n, (0.5, 2.0)) for _ in range(K)])
    part, whole = As[:T], As[:T] + np.eye(n)
    eigh_calls.clear()
    _pooled_mean(SQRT, As, Bs, m)  # [B_i, B]; the arguments; the f-sum
    pooled = [(K + T, n, n), (K + T, n, n), (T, n, n)]
    assert eigh_calls == pooled
    eigh_calls.clear()
    _split_mean(SQRT, As, Bs, m)  # [A_i, B_i, B]; the arguments
    split = [(2 * K + T, n, n), (K + T, n, n)]
    assert eigh_calls == split
    eigh_calls.clear()  # the order gaps beside B_whole and B_part; the arguments
    _mean_monotonicity(SQRT, part, part, whole, whole, 1e-9)
    monotonicity = [(T, 4, n, n), (T, 2, n, n)]
    assert eigh_calls == monotonicity
    # each kernel returns its residuals, and its suite's judge decomposes them: one more call
    for suite, built, calls in [
        ("pooled_mean", (np.array(m), As, Bs), pooled),
        ("split_mean", (np.array(m), As, Bs), split),
        ("mean_monotonicity", (part, part, whole, whole), monotonicity),
    ]:
        eigh_calls.clear()
        SUITES[suite].judge(TrialConfig(suite=suite, n=n), np.full(T, n), *built)
        assert eigh_calls == [*calls, (T, n, n)], suite


@pytest.mark.parametrize("lhs_form", ["perspective_sum", "sum_fb"])
def test_perspective_sum_takes_three_stacked_eigensolves(eigh_calls, lhs_form):
    rng = np.random.default_rng(10)
    As = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(3)]
    Bs = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(3)]
    eigh_calls.clear()
    perspective_sum_residual(SQRT, As, Bs, lhs_form=lhs_form, require_expansive=False)
    # the total beside the members, the perspective argument(s), the residual
    arguments = (4, 3, 3) if lhs_form == "perspective_sum" else (1, 3, 3)
    assert eigh_calls == [(4, 3, 3), arguments, (1, 3, 3)]


def test_perspective_sum_rejects_an_unknown_lhs_form():
    with pytest.raises(DomainError, match=r"^unknown lhs_form 'sum'$"):
        perspective_sum_residual(log_fn(), [2.0 * np.eye(2)], [np.eye(2)], lhs_form="sum")


def test_perspective_sum_stack_equals_one_trial_at_a_time():
    rng = np.random.default_rng(11)
    m, n = [3, 1, 2, 3, 1, 1, 2, 3, 2], 3  # trials of every member count on one member axis
    As = np.array([rand_pd(rng, n, (0.1, 1.0)) for _ in range(sum(m))])
    Bs = np.array([rand_pd(rng, n, (0.5, 2.0)) for _ in range(sum(m))])
    fs = [(SQRT, log_fn(), q_log_fn(0.7))[t % 3] for t in range(len(m))]
    first = np.cumsum(m) - m
    for lhs_form in ("perspective_sum", "sum_fb"):
        stacked = _perspective_sums(fs, As, Bs, m, lhs_form, False, 1e-9)
        w = np.linalg.eigh(stacked).eigenvalues
        for t, k in enumerate(m):
            rows = slice(first[t], first[t] + k)
            single = _perspective_sums(fs[t : t + 1], As[rows], Bs[rows], [k], lhs_form, False, 1e-9)
            assert stacked[t].tobytes() == single[0].tobytes()
            public = perspective_sum_residual(fs[t], As[rows], Bs[rows], lhs_form, False)
            assert public.residual_min_eigenvalue == float(np.min(w[t]))


def test_perspective_sum_stack_reports_first_non_expansive_trial():
    I3 = np.eye(3)
    As = np.array([2.0 * I3, 2.0 * I3, 0.5 * I3, 0.9 * I3, 0.1 * I3, 0.1 * I3])
    with pytest.raises(PreconditionError) as err:
        _perspective_sums([SQRT] * 3, As, As, [2, 2, 2], "perspective_sum", True, 1e-9)
    # trial 1 is the first to fail: sum(A_i) - 2I has eigenvalue -0.6 there
    assert str(err.value) == (
        "family is not expansive: sum(A_i) >= m*I fails (min eigenvalue of the slack -6.000e-01)"
    )


def test_shannon_stack_reports_the_non_expansive_trial():
    rng = np.random.default_rng(14)
    f = power_fn(0.5, offset=-1.0)
    As, Bs = [], []
    for t in range(3):
        family = [rand_expansive(rng, 3) for _ in range(2)]
        if t == 1:
            family = [0.1 * A for A in family]  # sum(A_i) falls far below 2I
        As.append(family)
        Bs.append(rand_split_matching(rng, hermitize(sum(family)), 2, (0.5, 2.0)))
    with pytest.raises(PreconditionError) as one:
        operator_shannon_residual(As[1], Bs[1], f)
    assert str(one.value).startswith("family is not expansive")
    m = [2, 2, 2]
    As, Bs = np.concatenate(As), np.concatenate(Bs)
    with pytest.raises(PreconditionError) as stacked:
        _operator_shannon([f] * 3, As, Bs, m, 1e-9)
    assert str(stacked.value) == str(one.value)
    for t in (0, 2):
        assert operator_shannon_residual(As[2 * t : 2 * t + 2], Bs[2 * t : 2 * t + 2], f).holds


# -- Hermitian inputs at the public edges -----------------------------------------

_N = np.array([[2.0, 1.0], [0.0, 2.0]])  # its Hermitian part is PD, and would pass
_I = np.eye(2)

_NOT_HERMITIAN_CALLS = {
    "perspective_sum_residual A": (
        lambda: perspective_sum_residual(log_fn(), [_N, 2 * _I], [_I, _I]),
        "A_family[0]",
    ),
    "perspective_sum_residual B": (
        lambda: perspective_sum_residual(log_fn(), [2 * _I, 2 * _I], [_I, _N]),
        "B_family[1]",
    ),
    "operator_shannon_residual": (
        lambda: operator_shannon_residual([2 * _I, _N], [2 * _I, _N], log_fn()),
        "A_family[1]",
    ),
    "pooled_inverse_residual": (lambda: pooled_inverse_residual([_I], [_N]), "A_family[0]"),
    "pooled_mean_residual": (lambda: pooled_mean_residual(SQRT, [_N], [_I]), "A_family[0]"),
    "split_mean_residual": (lambda: split_mean_residual(SQRT, [_I], [_N]), "B_family[0]"),
    "operator_perspective": (lambda: operator_perspective(SQRT, 2 * _I, _N), "B"),
    "operator_jensen_residual": (lambda: operator_jensen_residual(SQRT, 0.5 * _I, _N), "X"),
    "mean_monotonicity_residual A_part": (
        lambda: mean_monotonicity_residual(SQRT, _N, _I, 3 * _I, 3 * _I),
        "A_part",
    ),
    "mean_monotonicity_residual B_whole": (
        lambda: mean_monotonicity_residual(SQRT, _I, _I, 3 * _I, _N),
        "B_whole",
    ),
    "loewner_leq A": (lambda: loewner_leq(_N, 3 * _I), "A"),
    "loewner_leq B": (lambda: loewner_leq(_I, _N), "B"),
}


@pytest.mark.parametrize("name", sorted(_NOT_HERMITIAN_CALLS))
def test_non_hermitian_input_is_rejected(name):
    call, what = _NOT_HERMITIAN_CALLS[name]
    with pytest.raises(DomainError, match="^" + re.escape(what) + " is not Hermitian"):
        call()


# -- matched A and B families --------------------------------------------------------

# The public functions that take an A and a B family, called on (As, Bs) with f = sqrt.
_FAMILY_PAIR_CALLS = {
    "perspective_sum_residual": lambda As, Bs: perspective_sum_residual(SQRT, As, Bs),
    "operator_shannon_residual": lambda As, Bs: operator_shannon_residual(As, Bs, SQRT),
    "pooled_mean_residual": lambda As, Bs: pooled_mean_residual(SQRT, As, Bs),
    "split_mean_residual": lambda As, Bs: split_mean_residual(SQRT, As, Bs),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_PAIR_CALLS))
def test_families_of_different_length_are_rejected(name):
    with pytest.raises(DimensionError) as exc:
        _FAMILY_PAIR_CALLS[name]([2 * _I, 2 * _I], [_I])
    assert str(exc.value) == "B_family has length 1, expected A_family's 2"


@pytest.mark.parametrize("name", sorted(_FAMILY_PAIR_CALLS))
def test_families_of_different_dimension_are_rejected(name):
    with pytest.raises(DimensionError) as exc:
        _FAMILY_PAIR_CALLS[name]([2 * _I], [np.eye(3)])
    assert str(exc.value) == "B_family[0] has shape (3, 3), expected A_family[0]'s (2, 2)"


@pytest.mark.parametrize(
    "call, first, second",
    [
        (lambda A, B: operator_perspective(SQRT, A, B), "A", "B"),
        (lambda A, B: matrix_mean(SQRT, A, B), "B", "A"),  # B is checked first
    ],
    ids=["operator_perspective", "matrix_mean"],
)
def test_pair_of_different_shapes_is_a_dimension_error(call, first, second):
    for A, B in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2))):
        shapes = {"A": A.shape, "B": B.shape}
        with pytest.raises(DimensionError) as err:
            call(A, B)
        assert str(err.value) == (
            f"{second} has shape {shapes[second]}, expected {first}'s {shapes[first]}"
        )


def test_an_indefinite_mean_image_is_refused_as_such():
    # log is negative below 1, so on PD families log(B^1/2 A^-1 B^1/2) can be indefinite: a
    # mean refuses it under its own message, not as a matrix below the inverse floor
    rng = np.random.default_rng(0)
    A = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(2)]
    B = [rand_pd(rng, 3, (0.5, 2.0)) for _ in range(2)]
    message = (
        r"^log\(B\^1/2 A\^-1 B\^1/2\) is not positive definite \(min eigenvalue -1\.928e-01\)$"
    )
    refusals = (
        lambda: pooled_mean_residual(log_fn(), A, B),
        lambda: split_mean_residual(log_fn(), A, B),
        lambda: matrix_mean(log_fn(), A[0], B[0]),
    )
    for refused in refusals:
        with pytest.raises(DomainError, match=message):
            refused()
    # sqrt is positive on the same arguments, and the means go through
    assert pooled_mean_residual(power_fn(0.5), A, B).holds
    assert np.isfinite(matrix_mean(power_fn(0.5), A[0], B[0])).all()
