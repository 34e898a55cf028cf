"""Trace inequalities for commuting pairs and the quantum corollaries."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsumineq import traceform
from logsumineq.errors import DimensionError, DomainError, PreconditionError, SupportError
from logsumineq.functions import identity_fn, log_fn, power_fn
from logsumineq.generators import rand_commuting_pair, rand_density, rand_density_pair, rand_unitary
from logsumineq.matfun import (
    _decompose,
    _own,
    apply_function,
    hermitize,
    make_commuting_pair,
    maxnorm,
    spectral_decompose,
)
from logsumineq.scalar import SequencePair, generalized_log_sum_gap, q_log_sum_gap, reverse_log_sum_gap
from logsumineq.traceform import (
    exp_log_trace_gap,
    joint_spectrum,
    q_trace_gap,
    quantum_relative_entropy,
    reverse_trace_gap,
    trace_log_sum_gap,
    von_neumann_entropy,
)

LN2 = math.log(2.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


# -- joint spectrum -----------------------------------------------------------


def test_joint_spectrum_diagonalizes_both():
    rng = np.random.default_rng(0)
    A, B = rand_commuting_pair(rng, 5, (0.1, 4.0), (0.1, 4.0))
    wa, wb, U = joint_spectrum(A, B)
    assert maxnorm(U @ np.diag(wa) @ U.conj().T - A) < 1e-10
    assert maxnorm(U @ np.diag(wb) @ U.conj().T - B) < 1e-10


def test_joint_spectrum_handles_degenerate_a():
    # repeated eigenvalues of A: B alone fixes the basis inside them
    rng = np.random.default_rng(1)
    U = rand_unitary(rng, 4)
    A, B = make_commuting_pair(U, [2.0, 2.0, 2.0, 5.0], [1.0, 3.0, 4.0, 2.0])
    wa, wb, V = joint_spectrum(A, B)
    assert maxnorm(V @ np.diag(wb) @ V.conj().T - B) < 1e-9
    assert np.allclose(np.sort(wb), [1.0, 2.0, 3.0, 4.0], atol=1e-10)


def test_joint_spectrum_rejects_noncommuting():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(PreconditionError):
        joint_spectrum(A, B)


def _split_pair(seed, n, scale_a, t, scale_b):
    """Commuting (A, B) plus their spectra; A has one eigenvalue pair split by t
    times 1e-8 of A's scale, and B differs on that pair."""
    rng = np.random.default_rng(seed)
    U = rand_unitary(rng, n)
    rest = rng.uniform(-scale_a, scale_a, n - 1)
    threshold = 1e-8 * max(1.0, float(np.max(np.abs(rest))))
    wa = np.concatenate([[rest[0] + t * threshold], rest])
    wb = rng.uniform(-scale_b, scale_b, n)
    return wa, wb, *make_commuting_pair(U, wa, wb)


def _check_joint_spectrum(wa, wb, A, B, clustered):
    got_a, got_b, U = joint_spectrum(A, B)
    # B's eigenvalues are distinct, so they fix which constructed pair is which
    got, built = np.argsort(got_b), np.argsort(wb)
    assert np.allclose(got_b[got], wb[built], rtol=0.0, atol=1e-9 * max(1.0, np.max(np.abs(wb))))
    # inside a cluster A's eigenvalues may pair with B's in either order
    slack = (abs(wa[0] - wa[1]) if clustered else 0.0) + 1e-12 * max(1.0, np.max(np.abs(wa)))
    assert np.all(np.abs(got_a[got] - wa[built]) <= slack)
    Bd = U.conj().T @ B @ U
    assert maxnorm(Bd - np.diag(np.diag(Bd))) <= 1e-7 * max(1.0, maxnorm(B))


def _separated(values, scale):
    return values.size < 2 or np.diff(np.sort(values)).min() > 1e-3 * max(1.0, scale)


# log10 of the split over 1e-8 of A's scale: from a thousandth to a thousand times it.
log_splits = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(2, 6), st.floats(0.0, 3.0), log_splits, st.floats(0.0, 3.0))
def test_joint_spectrum_on_both_sides_of_the_cluster_threshold(seed, n, log_a, log_t, log_b):
    wa, wb, A, B = _split_pair(seed, n, 10.0**log_a, 10.0**log_t, 10.0**log_b)
    assume(_separated(wa[1:], 10.0**log_a) and _separated(wb, 10.0**log_b))
    _check_joint_spectrum(wa, wb, A, B, clustered=log_t < 0.0)


def test_joint_spectrum_pair_split_just_above_the_threshold():
    # split by 1.78e-8 of A's scale, where A's own eigenvectors leak 1.76e-7 of B
    wa, wb, A, B = _split_pair(4, 6, 10.0**2.607009469917796, 10.0**0.25, 10.0)
    assert _separated(wa[1:], 10.0**2.607009469917796) and _separated(wb, 10.0)
    _check_joint_spectrum(wa, wb, A, B, clustered=False)


def _offdiagonal(M):
    return maxnorm(M - np.diag(np.diag(M)))


def test_joint_spectrum_pair_the_mix_maps_to_one_value():
    # A + tau B is tau I here, so the mix leaves the basis unpinned; the swapped mix pins it
    U = rand_unitary(np.random.default_rng(0), 2)
    wa, wb = np.array([0.0, 1.0]), np.array([1.0, 1.0 - 1.0 / traceform._TAU])
    A, B = make_commuting_pair(U, wa, wb)
    _check_joint_spectrum(wa, wb, A, B, clustered=False)
    _, _, V = joint_spectrum(A, B)
    assert _offdiagonal(V.conj().T @ A @ V) <= 1e-7


def test_joint_spectrum_accepts_a_near_commuting_pair_that_b_splits():
    # A's pair is split by 5e-8 and B couples it: the basis comes from B's split
    A, B = np.diag([1.0, 1.0 + 5e-8]), np.array([[1.0, 1e-3], [1e-3, 1.0]])
    _, _, U = joint_spectrum(A, B)
    assert _offdiagonal(U.conj().T @ A @ U) <= 1e-7
    assert _offdiagonal(U.conj().T @ B @ U) <= 1e-7


# -- forward trace inequality ----------------------------------------------------


@pytest.mark.parametrize("N", range(1, 17))
def test_trace_over_every_own_slot_is_numpys_trace(N):
    # a public call has every slot own, and takes the masked sum of the diagonal: the bits of
    # np.trace, over the whole stack and for each matrix as a one-matrix stack
    rng = np.random.default_rng(N)
    M = rng.standard_normal((50, N, N)) + 1j * rng.standard_normal((50, N, N))
    M *= 10.0 ** rng.uniform(-8, 8, (50, N, 1))
    own = _own(None, N)
    for stack in (M, *M[:, None]):
        want = np.trace(stack, axis1=-2, axis2=-1).real
        assert traceform._trace(stack, own).tobytes() == want.tobytes()


def test_trace_frozen_gap():
    A = np.diag([1.0, 2.0])
    B = np.diag([2.0, 1.0])
    v = trace_log_sum_gap(log_fn(), identity_fn(), A, B)
    assert v.holds
    assert v.gap == pytest.approx(LN2, rel=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
def test_trace_verdict_rejects_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        trace_log_sum_gap(log_fn(), identity_fn(), np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), tol)


def test_trace_equality_on_proportional():
    A = np.diag([1.0, 2.0])
    v = trace_log_sum_gap(log_fn(), identity_fn(), A, 2.0 * A)
    assert abs(v.gap) <= 1e-10


def test_trace_identical_matrices():
    v = trace_log_sum_gap(log_fn(), identity_fn(), np.eye(3), np.eye(3))
    assert abs(v.gap) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(seeds, dims)
def test_trace_matches_scalar_oracle(seed, n):
    # the trace statement must reduce exactly to the scalar one on joint spectra
    rng = np.random.default_rng(seed)
    A, B = rand_commuting_pair(rng, n, (0.05, 8.0), (0.05, 8.0))
    wa, wb, _ = joint_spectrum(A, B)
    v = trace_log_sum_gap(log_fn(), identity_fn(), A, B)
    o = generalized_log_sum_gap(log_fn(), identity_fn(), SequencePair(tuple(wa), tuple(wb)))
    assert v.gap == pytest.approx(o.gap, rel=1e-9, abs=1e-9)
    assert v.holds


@settings(max_examples=80, deadline=None)
@given(seeds, dims)
def test_trace_basis_invariance(seed, n):
    rng = np.random.default_rng(seed)
    A, B = rand_commuting_pair(rng, n, (0.1, 5.0), (0.1, 5.0))
    W = rand_unitary(rng, n)
    v1 = trace_log_sum_gap(log_fn(), identity_fn(), A, B)
    v2 = trace_log_sum_gap(
        log_fn(),
        identity_fn(),
        hermitize(W @ A @ W.conj().T),
        hermitize(W @ B @ W.conj().T),
    )
    assert v1.gap == pytest.approx(v2.gap, rel=1e-8, abs=1e-10)


def test_trace_rejects_noncommuting():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = np.diag([1.0, 5.0])
    with pytest.raises(PreconditionError):
        trace_log_sum_gap(log_fn(), identity_fn(), A, B)


# -- reverse trace inequality -----------------------------------------------------


def test_reverse_trace_frozen_gap():
    A = np.diag([2.0, 1.0])
    B = np.diag([1.0, 2.0])
    v = reverse_trace_gap(log_fn(), identity_fn(), A, B)
    assert v.holds
    assert v.gap == pytest.approx(LN2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_reverse_trace_matches_scalar_oracle(seed, n):
    rng = np.random.default_rng(seed)
    A, B = rand_commuting_pair(rng, n, (0.05, 8.0), (0.05, 8.0))
    wa, wb, _ = joint_spectrum(A, B)
    v = reverse_trace_gap(log_fn(), identity_fn(), A, B)
    o = reverse_log_sum_gap(log_fn(), identity_fn(), SequencePair(tuple(wa), tuple(wb)))
    assert v.gap == pytest.approx(o.gap, rel=1e-9, abs=1e-9)
    assert v.holds


# -- exponential-log corollary ----------------------------------------------------


def test_exp_log_frozen_example():
    v = exp_log_trace_gap(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
    assert v.lhs == pytest.approx(LN2, rel=1e-12)
    assert v.rhs == pytest.approx(0.0, abs=1e-12)
    assert v.holds


def test_exp_log_requires_positive_definite():
    with pytest.raises(PreconditionError):
        exp_log_trace_gap(np.diag([1.0, 0.0]), np.eye(2))


@settings(max_examples=150, deadline=None)
@given(seeds, dims)
def test_exp_log_holds_on_commuting_pairs(seed, n):
    rng = np.random.default_rng(seed)
    A, B = rand_commuting_pair(rng, n, (0.05, 6.0), (0.05, 6.0))
    assert exp_log_trace_gap(A, B).holds


# -- quantum corollaries ------------------------------------------------------------


def test_relative_entropy_frozen_value():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.5, 0.5])
    assert quantum_relative_entropy(rho, sigma) == pytest.approx(LN2, rel=1e-12)


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(7)
    rho = rand_density(rng, 4)
    assert abs(quantum_relative_entropy(rho, rho)) <= 1e-10


def test_relative_entropy_support_violation():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([1.0, 0.0])
    with pytest.raises(SupportError):
        quantum_relative_entropy(rho, sigma)


def test_relative_entropy_rejects_nondensity():
    with pytest.raises(DomainError):
        quantum_relative_entropy(np.diag([0.7, 0.7]), np.diag([0.5, 0.5]))
    with pytest.raises(DomainError):
        quantum_relative_entropy(np.diag([1.5, -0.5]), np.diag([0.5, 0.5]))


def test_relative_entropy_checks_rho_before_commutation():
    # a non-density rho is a DomainError even when sigma does not commute with it
    sigma = np.array([[0.5, 0.3], [0.3, 0.5]])
    with pytest.raises(DomainError, match=r"^rho must have unit trace"):
        quantum_relative_entropy(np.diag([0.7, 0.7]), sigma)
    with pytest.raises(DomainError, match=r"^rho is not PSD"):
        quantum_relative_entropy(np.diag([1.5, -0.5]), sigma)
    with pytest.raises(PreconditionError, match=r"^matrices do not commute"):
        quantum_relative_entropy(np.diag([0.25, 0.75]), sigma)


def test_relative_entropy_decomposes_each_state_once(eigh_calls):
    rho, sigma = rand_density_pair(np.random.default_rng(3), 4)
    eigh_calls.clear()
    quantum_relative_entropy(rho, sigma)
    # rho and sigma beside their mix (joint_spectrum's basis), in one stacked call
    assert eigh_calls == [(1, 3, 4, 4)]


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=8))
def test_relative_entropy_nonnegative(seed, n):
    rng = np.random.default_rng(seed)
    rho, sigma = rand_density_pair(rng, n)
    assert quantum_relative_entropy(rho, sigma) >= -1e-9


def test_entropy_frozen_value():
    rho = np.diag([0.25, 0.75])
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5623351446188083, rel=1e-13)


def test_entropy_extremes():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    n = 5
    assert von_neumann_entropy(np.eye(n) / n) == pytest.approx(math.log(n), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=8))
def test_entropy_bounds(seed, n):
    rng = np.random.default_rng(seed)
    S = von_neumann_entropy(rand_density(rng, n))
    assert -1e-9 <= S <= math.log(n) + 1e-9


# -- q trace form -------------------------------------------------------------------


def test_q_trace_reduces_to_scalar():
    rng = np.random.default_rng(9)
    A, B = rand_commuting_pair(rng, 4, (0.1, 5.0), (0.1, 5.0))
    wa, wb, _ = joint_spectrum(A, B)
    for q in (0.5, 1.5, 2.5):
        v = q_trace_gap(A, B, q=q, r=1.0)
        o = q_log_sum_gap(SequencePair(tuple(wa), tuple(wb)), q=q, r=1.0)
        assert v.gap == pytest.approx(o.gap, rel=1e-9, abs=1e-10)


def test_q_trace_rejects_q_two():
    with pytest.raises(PreconditionError):
        q_trace_gap(np.eye(2), np.eye(2), q=2.0, r=1.0)


def test_q_trace_rejects_an_order_that_is_not_finite():
    with pytest.raises(DomainError, match=r"^deformation order must be finite, got inf$"):
        q_trace_gap(np.eye(2), np.eye(2), math.inf, 1.0)


@settings(max_examples=100, deadline=None)
@given(seeds, dims, st.sampled_from([0.0, 0.5, 1.5, 2.5, 3.0]))
def test_q_trace_direction(seed, n, q):
    rng = np.random.default_rng(seed)
    A, B = rand_commuting_pair(rng, n, (0.1, 5.0), (0.1, 5.0))
    assert q_trace_gap(A, B, q=q, r=1.0).holds


# -- product-path cross-check -------------------------------------------------------

_INTERIOR = rand_commuting_pair(np.random.default_rng(0), 3, (0.5, 2.0), (0.5, 2.0))
_ZERO_A = (np.diag([0.0, 1.0, 2.0]), np.diag([1.0, 2.0, 3.0]))


@pytest.mark.parametrize(
    "gap, labels",
    [
        (
            lambda A, B: trace_log_sum_gap(log_fn(), identity_fn(), A, B),
            ["trace_log_sum_gap", "trace_log_sum_gap rhs"],
        ),
        (
            lambda A, B: reverse_trace_gap(log_fn(), identity_fn(), A, B),
            ["reverse_trace_gap"],
        ),
        (lambda A, B: q_trace_gap(A, B, 0.5, 1.5), ["q_trace_gap", "q_trace_gap rhs"]),
    ],
    ids=["forward", "reverse", "q"],
)
def test_product_path_cross_checks_run_on_interior_inputs(monkeypatch, eigh_calls, gap, labels):
    seen = []
    real = traceform._cross_check
    monkeypatch.setattr(
        traceform, "_cross_check", lambda label, *args: (seen.append(label), real(label, *args))
    )
    eigh_calls.clear()
    gap(*_INTERIOR)
    assert seen == labels
    # joint spectrum (g(A) reuses it), g(B) (its inverse reuses it), f of the product
    assert len(eigh_calls) == 3


@pytest.mark.parametrize(
    "gap",
    [
        lambda A, B: trace_log_sum_gap(log_fn(), identity_fn(), A, B),
        lambda A, B: q_trace_gap(A, B, 0.5, 1.0),
    ],
    ids=["forward", "q"],
)
def test_product_path_skipped_when_a_ratio_leaves_the_domain(monkeypatch, eigh_calls, gap):
    # a zero eigenvalue of A puts the ratio 0 outside log's and lnq's domain
    seen = []
    monkeypatch.setattr(traceform, "_cross_check", lambda label, *args: seen.append(label))
    eigh_calls.clear()
    assert gap(*_ZERO_A).holds
    assert seen == []
    assert len(eigh_calls) == 1


# -- one entry check per input ------------------------------------------------------

_PAIR_GAPS = {
    "forward": lambda A, B: trace_log_sum_gap(log_fn(), identity_fn(), A, B),
    "reverse": lambda A, B: reverse_trace_gap(log_fn(), identity_fn(), A, B),
    "q": lambda A, B: q_trace_gap(A, B, 0.5, 1.5),
    "exp_log": exp_log_trace_gap,
}


# joint spectrum, g(B) and f of the product for the product-path gaps; exp_log has no product
_PAIR_GAP_EIGHS = {"forward": 3, "reverse": 3, "q": 3, "exp_log": 2}


@pytest.mark.parametrize("name, n", [("forward", 4), ("reverse", 4), ("q", 4), ("exp_log", 2)])
def test_trace_gaps_check_each_input_once(input_checks, eigh_calls, name, n):
    pair = rand_commuting_pair(np.random.default_rng(n), n, (0.5, 2.0), (0.5, 2.0))
    eigh_calls.clear()
    input_checks.update(dict.fromkeys(input_checks, 0))
    _PAIR_GAPS[name](*pair)
    # A then B, each checked square, finite and Hermitian at entry and nowhere after
    assert input_checks == {"_as_square_complex": 2, "_require_hermitian": 2}
    assert len(eigh_calls) == _PAIR_GAP_EIGHS[name]


_NOT_HERMITIAN = np.array([[2.0, 1.0], [0.0, 2.0]])

_PAIR_FUNCTIONS = {
    **_PAIR_GAPS,
    "joint_spectrum": joint_spectrum,
    "relative_entropy": lambda A, B: quantum_relative_entropy(A / 2.0, B / 4.0),
}


# each pair function's parameter names, which its refusals name
_PAIR_NAMES = {**dict.fromkeys(_PAIR_FUNCTIONS, ("A", "B")), "relative_entropy": ("rho", "sigma")}


@pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
def test_non_hermitian_b_is_rejected_like_a(name):
    # B's Hermitian part 2I + [[0, .5], [.5, 0]] commutes with A = I and would pass
    call, (a, b) = _PAIR_FUNCTIONS[name], _PAIR_NAMES[name]
    for A, B, what in ((np.eye(2), _NOT_HERMITIAN, b), (_NOT_HERMITIAN, np.eye(2), a)):
        with pytest.raises(DomainError, match=f"^{what} is not Hermitian"):
            call(A, B)


def _public_product_path(f, g, A, B, reverse=False):
    """The product route through the validating public functions: the reference."""
    gA = apply_function(g, hermitize(A))
    gB = apply_function(g, hermitize(B))
    num, den = (gB, A) if reverse else (gA, B)
    P = hermitize(num @ spectral_decompose(hermitize(den)).map(g).inverse().reconstruct())
    core = float(np.trace(gA @ apply_function(f, P)).real)
    return float(np.trace(gA).real), float(np.trace(gB).real), core


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_product_path_on_the_joint_decomposition_is_the_public_route(seed, reverse):
    n = 1 + seed % 6
    A, B = rand_commuting_pair(np.random.default_rng(seed), n, (0.1, 5.0), (0.1, 5.0))
    Ah, Bh = traceform._one_trial({"A": A, "B": B})
    got = traceform._product_path(
        log_fn(), power_fn(1.5), _decompose(Ah).map(power_fn(1.5)), Bh, reverse
    )
    want = _public_product_path(log_fn(), power_fn(1.5), A, B, reverse)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", sorted(_PAIR_FUNCTIONS))
def test_pair_of_different_shapes_is_a_dimension_error(name):
    call, (a, b) = _PAIR_FUNCTIONS[name], _PAIR_NAMES[name]
    for A, B in ((np.eye(2), np.eye(3)), (np.eye(3), np.eye(2))):
        with pytest.raises(DimensionError) as err:
            call(A, B)
        assert str(err.value) == f"{b} has shape {B.shape}, expected {a}'s {A.shape}"


@pytest.mark.parametrize("name", sorted(_PAIR_GAPS))
def test_referee_recomputes_each_cross_checked_quantity(monkeypatch, name):
    # the 50-digit product path of every cross-checked lhs and rhs, on an undisputed pair
    refereed = []
    real = traceform._cross_check

    def spy(label, primary, product_path, rtol, referee):
        refereed.append((label, float(primary[0]), referee(0)))
        return real(label, primary, product_path, rtol, referee)

    monkeypatch.setattr(traceform, "_cross_check", spy)
    _PAIR_GAPS[name](*_INTERIOR)
    assert len(refereed) == {"forward": 2, "reverse": 1, "q": 2, "exp_log": 1}[name]
    for label, primary, value in refereed:
        assert value == pytest.approx(primary, rel=1e-12, abs=1e-12), label


def test_stacked_joint_spectrum_is_one_eigh_call_bitwise_equal_to_one_pair_calls(eigh_calls):
    # a stack mixing pairs whose A has a repeated eigenvalue with pairs whose A has none
    rng = np.random.default_rng(31)
    pairs = []
    for t in range(8):
        wa = rng.uniform(1.0, 5.0, 4)
        if t % 3 == 0:
            wa[1] = wa[2]  # a repeated eigenvalue of A
        pairs.append(make_commuting_pair(rand_unitary(rng, 4), wa, rng.uniform(1.0, 5.0, 4)))
    A, B = (np.stack([hermitize(M) for M in mats]) for mats in zip(*pairs))
    eigh_calls.clear()
    dec_a, wb = traceform._joint(A, B, _decompose(traceform._mix(A, B)).unitary)
    # one stacked call of the mix, whatever A's spectrum
    assert eigh_calls == [(8, 4, 4)]
    got = (dec_a.eigenvalues, wb, dec_a.unitary)
    for t, (At, Bt) in enumerate(pairs):
        want = joint_spectrum(At, Bt)
        assert all(x[t].tobytes() == y.tobytes() for x, y in zip(got, want)), t
