"""Hermitian functional calculus, Loewner comparisons, and the Jacobi solver."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq import matfun
from logsumineq.errors import (
    DimensionError,
    DomainError,
    NumericError,
    PreconditionError,
    SingularityError,
    _holds,
)
from logsumineq.functions import exp_fn, identity_fn, log_fn, power_fn
from logsumineq.generators import rand_contractive_pd, rand_expansive, rand_pd, rand_unitary
from logsumineq.matfun import (
    _decompose,
    _gap_scale,
    _herm,
    _ordered,
    _Segments,
    _verdict,
    apply_function,
    commutator_maxnorm,
    commutes,
    hermitize,
    jacobi_eigh,
    loewner_leq,
    make_commuting_pair,
    maxnorm,
    psd_inverse,
    psd_sqrt,
    spectral_decompose,
)

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rand_hermitian(rng, n, scale=1.0):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitize(scale * G)


# -- spectral decomposition ------------------------------------------------------


def test_spectral_example_plus():
    d = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(d.eigenvalues, [1.0, 3.0])
    assert maxnorm(d.reconstruct() - np.array([[2.0, 1.0], [1.0, 2.0]])) < 1e-12


def test_spectral_example_minus():
    d = spectral_decompose(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(d.eigenvalues, [-1.0, 3.0])


def test_spectral_rejects_nonhermitian():
    with pytest.raises(DomainError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        spectral_decompose(np.ones((2, 3)))


# -- Jacobi second-opinion solver --------------------------------------------------


def test_jacobi_frozen_example():
    w, V = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-13)
    assert maxnorm(V @ np.diag(w) @ V.conj().T - np.array([[2.0, 1.0], [1.0, 2.0]])) < 1e-12


def test_jacobi_diagonal_input_is_fixed_point():
    w, V = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    assert maxnorm(V.conj().T @ V - np.eye(3)) < 1e-13


@settings(max_examples=80, deadline=None)
@given(seeds, dims)
def test_jacobi_agrees_with_lapack(seed, n):
    rng = np.random.default_rng(seed)
    H = rand_hermitian(rng, n)
    w_ref = np.linalg.eigvalsh(H)
    w, V = jacobi_eigh(H)
    scale = max(1.0, float(np.max(np.abs(w_ref))))
    assert np.max(np.abs(w - w_ref)) <= 1e-11 * scale
    assert maxnorm(V @ np.diag(w) @ V.conj().T - H) <= 1e-11 * scale
    assert maxnorm(V.conj().T @ V - np.eye(n)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_jacobi_handles_degenerate_spectra(seed):
    rng = np.random.default_rng(seed)
    U = rand_unitary(rng, 4)
    H = hermitize(U @ np.diag([2.0, 2.0, 2.0, 5.0]) @ U.conj().T)
    w, V = jacobi_eigh(H)
    assert np.allclose(np.sort(w), [2.0, 2.0, 2.0, 5.0], atol=1e-10)
    assert maxnorm(V @ np.diag(w) @ V.conj().T - H) < 1e-10


# -- functional calculus ------------------------------------------------------------


def test_apply_exp_on_diagonal():
    out = apply_function(exp_fn(), np.diag([0.0, np.log(2.0)]))
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-14)


def test_apply_identity_returns_input():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert maxnorm(apply_function(identity_fn(), A) - A) < 1e-13


def test_apply_respects_function_domain():
    # log of an indefinite matrix must fail loudly
    with pytest.raises(DomainError):
        apply_function(log_fn(), np.diag([1.0, -1.0]))


@settings(max_examples=80, deadline=None)
@given(seeds, dims)
def test_exp_log_homomorphism(seed, n):
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.2, 5.0))
    back = apply_function(exp_fn(), apply_function(log_fn(), A))
    assert maxnorm(back - A) <= 1e-9 * max(1.0, maxnorm(A))


@settings(max_examples=80, deadline=None)
@given(seeds, dims)
def test_trace_matches_eigenvalue_sum(seed, n):
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.2, 5.0))
    d = spectral_decompose(A)
    out = apply_function(log_fn(), A)
    assert abs(np.trace(out).real - np.sum(np.log(d.eigenvalues))) <= 1e-10 * max(
        1.0, abs(np.trace(out).real)
    )


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_basis_invariance(seed, n):
    # f(U A U†) = U f(A) U†
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.2, 5.0))
    U = rand_unitary(rng, n)
    lhs = apply_function(log_fn(), hermitize(U @ A @ U.conj().T))
    rhs = U @ apply_function(log_fn(), A) @ U.conj().T
    assert maxnorm(lhs - rhs) <= 1e-8 * max(1.0, maxnorm(rhs))


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_sqrt_and_inverse_commute(seed, n):
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.2, 5.0))
    path1 = psd_inverse(psd_sqrt(A))
    path2 = psd_sqrt(psd_inverse(A))
    assert maxnorm(path1 - path2) <= 1e-8 * max(1.0, maxnorm(path1))


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_log_product_rule_for_commuting(seed, n):
    rng = np.random.default_rng(seed)
    U = rand_unitary(rng, n)
    la = rng.uniform(0.2, 5.0, size=n)
    lb = rng.uniform(0.2, 5.0, size=n)
    A, B = make_commuting_pair(U, la, lb)
    AB = hermitize(A @ B)
    lhs = apply_function(log_fn(), AB)
    rhs = apply_function(log_fn(), A) + apply_function(log_fn(), B)
    assert maxnorm(lhs - rhs) <= 1e-8 * max(1.0, maxnorm(rhs))


# -- Loewner order ---------------------------------------------------------------


def test_loewner_frozen_example():
    B = np.array([[1.0, 2.0], [2.0, 1.0]]) + np.eye(2)
    v = loewner_leq(np.eye(2), B)
    assert not v.holds
    assert v.residual_min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_loewner_accepts_equal_matrices():
    v = loewner_leq(np.eye(3), np.eye(3))
    assert v.holds and abs(v.residual_min_eigenvalue) < 1e-14


def test_loewner_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(30):
        A = rand_pd(rng, 3, (0.2, 3.0))
        B = rand_pd(rng, 3, (0.2, 3.0))
        ab = loewner_leq(A, B)
        ba = loewner_leq(B, A)
        # both can hold only near equality
        if ab.holds and ba.holds:
            assert maxnorm(A - B) <= 1e-7 * max(1.0, maxnorm(A))


def test_loewner_congruence_preservation():
    rng = np.random.default_rng(1)
    for _ in range(30):
        A = rand_pd(rng, 3, (0.2, 3.0))
        B = A + rand_pd(rng, 3, (0.1, 1.0))
        C = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = hermitize(C.conj().T @ A @ C)
        rhs = hermitize(C.conj().T @ B @ C)
        assert loewner_leq(lhs, rhs, tol=1e-8).holds


def test_inverse_antitonicity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        A = rand_pd(rng, 3, (0.3, 2.0))
        B = A + rand_pd(rng, 3, (0.1, 1.0))
        assert loewner_leq(psd_inverse(B), psd_inverse(A), tol=1e-8).holds


# -- commuting pair construction ----------------------------------------------------


def test_make_commuting_pair_commutes():
    rng = np.random.default_rng(3)
    U = rand_unitary(rng, 4)
    A, B = make_commuting_pair(U, [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert commutes(A, B)
    assert np.allclose(np.sort(np.linalg.eigvalsh(A)), [1.0, 2.0, 3.0, 4.0])


def test_make_commuting_pair_rejects_nonunitary():
    with pytest.raises(PreconditionError):
        make_commuting_pair(np.ones((2, 2)), [1.0, 2.0], [1.0, 2.0])


@pytest.mark.parametrize(
    "lambda_a, lambda_b, error, message",
    [
        ([1.0], [1.0, 2.0], DimensionError, "lambda_a must have length 2, got shape (1,)"),
        ([1.0, 2.0], [[1.0, 2.0]], DimensionError, "lambda_b must have length 2, got shape (1, 2)"),
        ([1.0, np.nan], [1.0], DomainError, "lambda_a has non-finite entries"),
        ([1.0, 2.0], [np.inf, 2.0], DomainError, "lambda_b has non-finite entries"),
    ],
    ids=["a-length", "b-length", "a-before-b", "b-finite"],
)
def test_make_commuting_pair_names_the_list_it_refuses(lambda_a, lambda_b, error, message):
    # lambda_a is checked in full, length then entries, before lambda_b
    with pytest.raises(error) as raised:
        make_commuting_pair(np.eye(2), lambda_a, lambda_b)
    assert str(raised.value) == message


@pytest.mark.parametrize("check", [commutes, commutator_maxnorm])
@pytest.mark.parametrize(
    "A, B, error, match",
    [
        (np.eye(2), np.eye(3), DimensionError, r"^B has shape \(3, 3\), expected A's \(2, 2\)$"),
        (np.ones((2, 3)), np.ones((3, 2)), DimensionError, r"^A must be square"),
        (np.eye(2), [[1.0, np.nan], [0.0, 1.0]], DomainError, r"^B has non-finite entries$"),
        (np.ones(3), np.ones(3), DimensionError, r"^A must be square"),
    ],
    ids=["sizes", "non-square", "nan", "vectors"],
)
def test_commutation_refuses_what_is_not_a_pair_of_square_matrices(check, A, B, error, match):
    with pytest.raises(error, match=match):
        check(A, B)


# -- psd inverse / sqrt ---------------------------------------------------------------


def test_psd_inverse_frozen_example():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = psd_inverse(A)
    assert maxnorm(out @ A - np.eye(2)) < 1e-12
    w = np.linalg.eigvalsh(out)
    assert np.allclose(w, [1.0 / 3.0, 1.0], atol=1e-13)


def test_psd_inverse_floor_rejects_near_singular():
    with pytest.raises(SingularityError):
        psd_inverse(np.diag([1.0, 1e-14]))


def test_psd_inverse_explicit_floor():
    out = psd_inverse(np.diag([1.0, 0.5]), floor=0.1)
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-13)
    with pytest.raises(SingularityError):
        psd_inverse(np.diag([1.0, 0.05]), floor=0.1)


def test_psd_inverse_nan_floor_is_not_positive():
    with pytest.raises(SingularityError):
        psd_inverse(np.diag([1.0, 1e-300]), floor=math.nan)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", True])
def test_loewner_leq_rejects_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        loewner_leq(np.eye(2), 0.5 * np.eye(2), tol=tol)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(4)
    A = rand_pd(rng, 4, (0.1, 4.0))
    S = psd_sqrt(A)
    assert maxnorm(S @ S - A) <= 1e-10 * max(1.0, maxnorm(A))


def test_psd_sqrt_clamps_roundoff_but_rejects_negatives():
    assert np.allclose(psd_sqrt(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    with pytest.raises(DomainError):
        psd_sqrt(np.diag([1.0, -0.1]))


# -- decomposition methods -------------------------------------------------------


def test_decomposition_methods_share_the_unitary():
    dec = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    for derived in (dec.map(log_fn()), dec.sqrt(), dec.inverse()):
        assert derived.unitary is dec.unitary


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_chained_methods_match_redecomposition(seed, n):
    # A^{-1/2} read off one decomposition equals inverting a re-decomposed A^{1/2}
    rng = np.random.default_rng(seed)
    A = rand_pd(rng, n, (0.2, 5.0))
    chained = spectral_decompose(A).sqrt().inverse().reconstruct()
    reference = psd_inverse(psd_sqrt(A))
    assert maxnorm(chained - reference) <= 1e-10 * max(1.0, maxnorm(reference))


def test_decomposition_sqrt_rejects_negative_spectrum():
    with pytest.raises(
        DomainError,
        match=r"^matrix is not PSD \(min eigenvalue -1\.000e-01 below clamp -1\.000e-12\)$",
    ):
        spectral_decompose(np.diag([1.0, -0.1])).sqrt()


def test_decomposition_inverse_rejects_below_floor():
    dec = spectral_decompose(np.diag([1.0, 1e-14]))
    with pytest.raises(
        SingularityError,
        match=r"^matrix not invertible above floor 1\.000e-10 \(min eigenvalue 1\.000e-14\)$",
    ):
        dec.inverse()
    with pytest.raises(SingularityError, match=r"above floor 0\.000e\+00"):
        spectral_decompose(np.diag([1.0, 2.0])).inverse(floor=0.0)


def test_decomposition_inverse_floor_reads_unsorted_values():
    # 1/x reverses the order, so the smallest mapped value is the last one
    mapped = spectral_decompose(np.diag([1.0, 2.0])).map(power_fn(-1.0))
    with pytest.raises(SingularityError, match=r"min eigenvalue 5\.000e-01"):
        mapped.inverse(floor=0.75)
    assert np.allclose(mapped.inverse(floor=0.25).reconstruct(), np.diag([1.0, 2.0]))


def test_decomposition_map_errors():
    with pytest.raises(DomainError, match=r"^argument -1\.0 outside domain of log$"):
        spectral_decompose(np.diag([1.0, -1.0])).map(log_fn())
    with np.errstate(over="ignore"), pytest.raises(
        DomainError, match=r"^matrix has non-finite entries$"
    ):
        apply_function(exp_fn(), np.diag([1.0, 1000.0]))


# -- stacks (leading batch axes) ---------------------------------------------------


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes() and np.shape(a) == np.shape(b)


def test_segment_totals_are_each_familys_own_sum_bit_for_bit():
    # ragged families on one member axis, all-one-member families, and a -0.0
    # entry that a zero start turns into +0.0, as sum() does
    rng = np.random.default_rng(2005)
    for case in range(300):
        n = int(rng.integers(1, 9))
        m = rng.integers(1, 17, int(rng.integers(1, 9)))
        if case % 10 == 0:
            m[:] = 1
        shape = (int(m.sum()), n, n)
        X = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(
            -3, 3, shape
        )
        X[0, 0, 0] = X[-1, -1, 0] = complex(-0.0, -0.0)
        totals = _Segments(m).total(X)
        assert totals.shape == (len(m), n, n)
        first = np.cumsum(m) - m
        for t, k in enumerate(m):
            family = X[first[t] : first[t] + k]
            assert totals[t].tobytes() == sum(list(family)).tobytes(), (case, t)
            assert totals[t].tobytes() == _Segments([k]).total(family)[0].tobytes(), (case, t)
        if m[0] == 1:
            assert not np.signbit(totals[0, 0, 0].real) and not np.signbit(totals[0, 0, 0].imag)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stacked_decomposition_is_bitwise_one_matrix_at_a_time(n):
    rng = np.random.default_rng(100 + n)
    H = np.array([[rand_pd(rng, n, (0.2, 5.0)) for _ in range(3)] for _ in range(4)])
    stacked = _decompose(H)
    sqrt, inverse = stacked.sqrt(), stacked.inverse()
    for index in np.ndindex(H.shape[:2]):
        one = _decompose(H[index])
        assert _same_bits(stacked.eigenvalues[index], one.eigenvalues)
        assert _same_bits(stacked.unitary[index], one.unitary)
        assert _same_bits(stacked[index].reconstruct(), one.reconstruct())
        assert _same_bits(sqrt.reconstruct()[index], one.sqrt().reconstruct())
        assert _same_bits(inverse.reconstruct()[index], one.inverse().reconstruct())
        assert _same_bits(stacked.map(log_fn()).eigenvalues[index], one.map(log_fn()).eigenvalues)
        assert _same_bits(_herm(H)[index], _herm(H[index]))
    # the stacked PSD rule judges each residual as its one-residual verdict does
    R = _herm(H - np.eye(n))
    gap, scale = _gap_scale(_decompose(R).eigenvalues)
    holds = _holds(gap, scale, 1e-9)
    for index in np.ndindex(H.shape[:2]):
        one = _verdict(R[index][None], 1e-9)
        assert gap[index] == one.residual_min_eigenvalue
        assert scale[index] == max(1.0, one.residual_norm)
        assert holds[index] == one.holds


def test_stacked_checks_report_the_first_failing_matrix():
    # the message is the one-matrix message of the first failing entry
    stack = _decompose(np.array([np.diag([1.0, 2.0]), np.diag([1.0, -0.1]), np.diag([-3.0, 1.0])]))
    with pytest.raises(
        DomainError,
        match=r"^matrix is not PSD \(min eigenvalue -1\.000e-01 below clamp -1\.000e-12\)$",
    ):
        stack.sqrt()
    stack = _decompose(np.array([np.diag([1.0, 2.0]), np.diag([1.0, 1e-14]), np.diag([0.0, 1.0])]))
    with pytest.raises(
        SingularityError,
        match=r"^matrix not invertible above floor 1\.000e-10 \(min eigenvalue 1\.000e-14\)$",
    ):
        stack.inverse()
    with pytest.raises(SingularityError, match=r"^matrix not invertible above floor 5\.000e-01 "):
        _decompose(np.array([np.diag([1.0, 2.0]), np.diag([0.25, 1.0])])).inverse(floor=0.5)
    with pytest.raises(DomainError, match=r"^argument -3\.0 outside domain of log$"):
        stack = _decompose(np.array([np.diag([1.0, 2.0]), np.diag([-3.0, 1.0])]))
        stack.map(log_fn())


# The threshold of each stacked check: the one-matrix call it must agree with,
# that call's error, and the edge in terms of the largest eigenvalue.
_THRESHOLDS = {
    "inverse": (psd_inverse, SingularityError, lambda top: 1e-10 * top),
    "sqrt": (psd_sqrt, DomainError, lambda top: -matfun.PSD_CLAMP_RTOL * top),
}


@pytest.mark.parametrize("method", sorted(_THRESHOLDS))
@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    n=st.integers(min_value=2, max_value=5),
    offsets=st.lists(
        st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-9.0, max_value=-0.3)),
        min_size=1,
        max_size=5,
    ),
)
def test_stacked_threshold_checks_match_one_matrix_calls(method, seed, n, offsets):
    # Each member's smallest eigenvalue sits at edge * (1 +- delta), so some
    # land on either side of the threshold and, for tiny delta, rounding
    # decides the side.  The stack must agree with the one-matrix calls:
    # every member's bits, or the error of the first member that fails.
    public, error, edge = _THRESHOLDS[method]
    rng = np.random.default_rng(seed)
    members, outcomes = [], []
    for sign, exponent in offsets:
        top = float(rng.uniform(1.0, 50.0))
        w = top * rng.uniform(0.5, 1.0, n)
        w[-1] = top
        w[0] = edge(top) * (1.0 + sign * 10.0**exponent)
        U = rand_unitary(rng, n)
        H = hermitize((U * w) @ U.conj().T)
        members.append(H)
        try:
            outcomes.append(public(H))
        except error as exc:
            outcomes.append(str(exc))
        if 10.0**exponent > 1e-2:  # far enough from the edge for the side to be known
            assert isinstance(outcomes[-1], str) == (sign * edge(top) < 0.0)
    stack = _decompose(np.array(members))
    failures = [o for o in outcomes if isinstance(o, str)]
    if failures:
        with pytest.raises(error) as err:
            getattr(stack, method)()
        assert str(err.value) == failures[0]
    else:
        result = getattr(stack, method)().reconstruct()
        for k, one in enumerate(outcomes):
            assert _same_bits(result[k], one), k


def _scalar_jacobi(H):
    """The cyclic Jacobi sweep in one-matrix scalar arithmetic, the reference for its bits."""
    H = _herm(np.asarray(H, dtype=complex))
    n = H.shape[0]
    V = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(H)))
    while float(np.linalg.norm(H - np.diag(np.diag(H)))) > 1e-14 * scale:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[p, q]
                beta = abs(apq)
                if beta <= 1e-18 * scale:
                    continue
                phi = apq / beta
                tau = (H[q, q].real - H[p, p].real) / (2.0 * beta)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = H[:, p].copy(), H[:, q].copy()
                H[:, p] = c * col_p - s * np.conj(phi) * col_q
                H[:, q] = s * phi * col_p + c * col_q
                row_p, row_q = H[p, :].copy(), H[q, :].copy()
                H[p, :] = c * row_p - s * phi * row_q
                H[q, :] = s * np.conj(phi) * row_p + c * row_q
                H[p, q] = H[q, p] = 0.0
                H[p, p], H[q, q] = H[p, p].real, H[q, q].real
                col_p, col_q = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * col_p - s * np.conj(phi) * col_q
                V[:, q] = s * phi * col_p + c * col_q
    w = np.real(np.diag(H))
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def _jacobi_watch_stack(rng, n):
    """Random members beside the members a stacked sweep must leave undisturbed."""
    members = [rand_hermitian(rng, n, scale) for scale in (1.0, 1e-3, 1e3)]
    # already diagonal: leaves after 0 sweeps while the others sweep
    members.append(np.diag(rng.normal(size=n)).astype(complex))
    members.append(rand_hermitian(rng, n).real)  # real symmetric
    if n > 1:
        # row and column 0 zero off the diagonal: every (0, q) entry stays zero,
        # so that pair is skipped in every sweep while the other members rotate it
        zero = rand_hermitian(rng, n).real
        zero[0, 1:] = zero[1:, 0] = 0.0
        members.append(zero)
        # couplings of 1e-12 against diagonal gaps of order 1: |tau| ~ 1e12, where
        # -|tau| + sqrt(1 + tau^2) is 0, for both signs of tau
        weak = 1e-12 * rand_hermitian(rng, n)
        members.append(weak - np.diag(np.diag(weak)) + np.diag(rng.permutation(n) + 1.0))
    return np.array(members, dtype=complex)


def test_stacked_jacobi_loops_over_the_leading_axes():
    for n in (1, 2, 3, 4, 8):
        rng = np.random.default_rng(7 + n)
        H = _jacobi_watch_stack(rng, n)
        ones = [jacobi_eigh(M) for M in H]
        w, V = jacobi_eigh(H)
        for k, (w1, V1) in enumerate(ones):
            w0, V0 = _scalar_jacobi(H[k])
            assert _same_bits(w1, w0) and _same_bits(V1, V0), (n, k)
            assert _same_bits(w[k], w1), (n, k)
            assert _same_bits(V[k], V1), (n, k)
        # a rank-2 leading shape, each member among other neighbours
        grid = np.array([H[::-1], H])
        w, V = jacobi_eigh(grid)
        stacked = _ordered(*jacobi_eigh(grid))
        for index in np.ndindex(grid.shape[:2]):
            w1, V1 = jacobi_eigh(grid[index])
            assert _same_bits(w[index], w1), (n, index)
            assert _same_bits(V[index], V1), (n, index)
            assert _same_bits(stacked.eigenvalues[index], w1), (n, index)
            assert _same_bits(stacked.unitary[index], V1), (n, index)


def test_jacobi_of_an_empty_stack_is_empty():
    for shape in ((0, 3, 3), (2, 0, 3, 3)):
        w, V = jacobi_eigh(np.zeros(shape))
        assert w.shape == shape[:-1] and V.shape == shape


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stacked_jacobi_where_every_member_turns_every_pair(n):
    # dense random members rotate every (p, q) of every sweep, so the sweep
    # takes its unmasked path; n=1 has no pair to rotate at all
    rng = np.random.default_rng(70 + n)
    H = np.array([rand_hermitian(rng, n, scale) for scale in (1.0, 1.0, 1e-3, 1e3, 1.0, 1.0)])
    w, V = jacobi_eigh(H)
    for k in range(H.shape[0]):
        w0, V0 = _scalar_jacobi(H[k])
        assert _same_bits(w[k], w0), (n, k)
        assert _same_bits(V[k], V0), (n, k)


def test_stacked_jacobi_errors_name_the_first_failing_matrix(monkeypatch):
    good = np.diag([1.0, 2.0])
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    message = r"^jacobi input is not Hermitian \(anti-Hermitian part 1\.000e\+00\)$"
    with pytest.raises(DomainError, match=message):
        jacobi_eigh(skew)
    with pytest.raises(DomainError, match=message):
        jacobi_eigh(np.array([[good, skew], [2.0 * skew, good]]))
    with pytest.raises(DomainError, match=r"^jacobi input has non-finite entries$"):
        jacobi_eigh(np.array([good, np.diag([1.0, np.nan])]))
    with pytest.raises(DimensionError, match=r"^jacobi input must be square with n >= 1, "):
        jacobi_eigh(np.ones(2))

    monkeypatch.setattr(matfun, "_JACOBI_MAX_SWEEPS", 1)
    rng = np.random.default_rng(3)
    slow = [rand_hermitian(rng, 3) for _ in range(2)]
    with pytest.raises(NumericError) as one:
        jacobi_eigh(slow[0])
    assert re.match(
        r"^jacobi did not converge in 1 sweeps \(n=3, offdiag=\S+, maxnorm=\S+\)$",
        str(one.value),
    )
    with pytest.raises(NumericError) as stacked:
        # the diagonal member converges at once; the first unconverged one is named
        jacobi_eigh(np.array([np.diag([1.0, 2.0, 3.0]), *slow]))
    assert str(stacked.value) == str(one.value)


# -- padded stacks: own-first eigenpairs ------------------------------------------


def _padded(As, N, c):
    """Each matrix of As (K, n, n) as the top-left block of N x N, its pad c[k] * I."""
    K, n = As.shape[0], As.shape[-1]
    P = np.zeros((K, N, N), dtype=complex)
    P[:, :n, :n] = As
    P[:, range(n, N), range(n, N)] = np.asarray(c)[:, None]
    return P


def _members(rng, n, per_kind):
    """The harness's kinds of member at size n: PD on the default window, expansive,
    contractive, and PD on a wide window."""
    draws = (
        lambda: rand_pd(rng, n, (0.5, 2.0)),
        lambda: rand_expansive(rng, n),
        lambda: rand_contractive_pd(rng, n),
        lambda: rand_pd(rng, n, (1e-3, 1e3)),
    )
    return np.stack([draw() for draw in draws for _ in range(per_kind)])


def _gram_plus_identity(rng, n, count):
    """G G† + I for complex Gaussian G (count, n, n): a PD kind the harness does not draw."""
    G = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    A = G @ G.conj().swapaxes(-1, -2) + np.eye(n)
    return (A + A.conj().swapaxes(-1, -2)) / 2


def _padded_draws(rng, n, N):
    """The members A (K, n, n) of _members and _gram_plus_identity, padded to N with c = 1 on
    even rows and c tied to one of A's eigenvalues exactly on odd ones, and A's eigenvalues."""
    As = np.concatenate([_members(rng, n, 50), _gram_plus_identity(rng, n, 50)])
    K = len(As)
    w = np.linalg.eigh(As)[0]
    ties = w[np.arange(K), rng.integers(n, size=K)]
    return As, _padded(As, N, np.where(np.arange(K) % 2 == 0, 1.0, ties)), w


# the own eigenvalues and reconstructions of a padded solve match A's within
# _PAD_SOLVE_K n u max(1, |A|); the largest measured ratios are 3.2 (eigh) and 15.8 (jacobi_eigh)
_PAD_SOLVE_K = 64


# a padded stack's decomposition through each eigensolver: LAPACK's, and the confirmation's
_PADDED_SOLVES = {
    "eigh": _decompose,
    "jacobi": lambda P, size: _ordered(*jacobi_eigh(P), size),
}


@pytest.mark.parametrize("N, sizes", [(8, range(1, 8)), (3, (1, 2))])
@pytest.mark.parametrize("solver", sorted(_PADDED_SOLVES))
def test_a_padded_eigensolve_keeps_each_eigenvector_on_one_side(N, sizes, solver):
    # what the padded judge relies on: each eigenvector of A ⊕ cI lies wholly on the own rows or
    # wholly on the pad rows, with an identity pad and with c tied to one of A's eigenvalues, and
    # ordered own-first the own eigenpairs are A's to round-off
    rng = np.random.default_rng(29)
    for n in sizes:
        As, P, w = _padded_draws(rng, n, N)
        dec = _PADDED_SOLVES[solver](P, size=np.full(len(As), n))  # refuses a crossing eigenvector
        U, x = dec.unitary[:, :n, :n], dec.eigenvalues[:, :n]
        assert not dec.unitary[:, n:, :n].any() and not dec.unitary[:, :n, n:].any()
        bound = _PAD_SOLVE_K * n * np.finfo(float).eps * np.maximum(1.0, abs(w).max(axis=-1))
        assert (abs(x - w).max(axis=-1) <= bound).all()
        rebuilt = (U * x[:, None, :]) @ U.conj().swapaxes(-1, -2)
        assert (abs(rebuilt - As).max(axis=(-2, -1)) <= bound).all()


@pytest.mark.parametrize("N, sizes", [(8, range(1, 8)), (3, (1, 2))])
def test_a_padded_eigh_gives_the_harness_members_eigenpairs_bit_for_bit(N, sizes):
    # on the kinds of member the harness draws, one eigh of A ⊕ cI ordered own-first gives A's
    # eigenpairs bit for bit, so a padded judge's first eigensolve, and the values its refusals
    # name, are the unpadded ones.  This is a property of these draws and of LAPACK's eigh, not
    # a rule: on G G† + I it moves at round-off (n=5 in N=8, in 1 of 2700 cases), and the
    # verdicts rely only on the sides (the test above)
    rng = np.random.default_rng(29)
    for n in sizes:
        As = _members(rng, n, 50)
        K = len(As)
        w, U = np.linalg.eigh(As)
        ties = w[np.arange(K), rng.integers(n, size=K)]
        P = _padded(As, N, np.where(np.arange(K) % 2 == 0, 1.0, ties))
        dec = _decompose(P, size=np.full(K, n))
        assert dec.eigenvalues[:, :n].tobytes() == w.tobytes()
        assert np.ascontiguousarray(dec.unitary[:, :n, :n]).tobytes() == U.tobytes()


def test_only_the_padded_matrices_of_a_stack_are_reordered_own_first():
    # a matrix at its full size keeps the solver's eigenpairs, and a padded one gets the
    # own-first pairs of its one-matrix padded solve, whatever else its stack holds
    rng = np.random.default_rng(31)
    N, sizes = 4, np.array([4, 2, 4, 3, 1, 4, 2])
    H = np.concatenate([_padded(_members(rng, int(n), 1), N, np.ones(4)) for n in sizes])
    size = np.repeat(sizes, 4)
    w, U = np.linalg.eigh(H)
    dec = _decompose(H, size=size)
    reordered = 0
    for k, n in enumerate(size.tolist()):
        alone = _decompose(H[k : k + 1], size=size[k : k + 1])
        assert dec.eigenvalues[k].tobytes() == alone.eigenvalues[0].tobytes()
        assert dec.unitary[k].tobytes() == alone.unitary[0].tobytes()
        if n == N:
            assert dec.eigenvalues[k].tobytes() == w[k].tobytes()
            assert dec.unitary[k].tobytes() == U[k].tobytes()
        else:
            reordered += dec.eigenvalues[k].tobytes() != w[k].tobytes()
    assert reordered > 0


@pytest.mark.parametrize("N", [3, 8])
def test_a_padded_jacobi_stack_gives_each_matrix_its_scalar_bits(N):
    # A ⊕ I with own sizes 1..N in one stack: a padded matrix never turns a pair across its pad,
    # so those pairs rotate only the subset that turns them; each matrix gets the one-matrix
    # sweep's bits, alone and stacked
    rng = np.random.default_rng(40 + N)
    H = np.concatenate([_padded(_members(rng, n, 2), N, np.ones(8)) for n in range(1, N + 1)])
    w, V = jacobi_eigh(H)
    for k in range(len(H)):
        w0, V0 = _scalar_jacobi(H[k])
        w1, V1 = jacobi_eigh(H[k])
        assert _same_bits(w1, w0) and _same_bits(V1, V0), k
        assert _same_bits(w[k], w0) and _same_bits(V[k], V0), k


def test_an_eigenvector_across_the_pad_is_refused(monkeypatch):
    # trials 2 and 3 of a stack get one eigenvector rotated across their pad: the first is named
    rng = np.random.default_rng(3)
    P = _padded(_members(rng, 2, 1), 4, np.ones(4))
    real = np.linalg.eigh

    def rotated(H):
        w, U = real(H)
        U = U.copy()
        for t in (2, 3):
            own = int(np.flatnonzero(~U[t, 2:, :].any(axis=0))[0])
            pad = int(np.flatnonzero(~U[t, :2, :].any(axis=0))[0])
            U[t][:, [own, pad]] = U[t][:, [own, pad]] @ np.array([[0.8, -0.6], [0.6, 0.8]])
        return w, U

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    message = r"^eigenvector \d of stacked matrix 2 \(own size 2 of 4\) lies on both sides of"
    with pytest.raises(NumericError, match=message):
        _decompose(P, size=np.full(4, 2))
    _decompose(P)  # unpadded, the guard does not run
