"""Each decision rule pinned by hand-built instances just inside and just outside it.

A true statement never fails, so a rule made lenient passes every random
run; these instances sit at half and at twice (or a tenth and ten times)
the threshold, and fail when the rule moves by more than that.  The
thresholds are written out here, not imported, so that they move only
when this file does; tests/test_package.py checks that every named
tolerance a check of the package is judged at is written out here, with
its value.
"""

import math

import numpy as np
import pytest

from logsumineq import harness, loewner, matfun, traceform
from logsumineq.errors import (
    DomainError,
    PreconditionError,
    SingularityError,
    SupportError,
    _holds,
)
from logsumineq.functions import identity_fn, log_fn, power_fn
from logsumineq.generators import rand_split_matching
from logsumineq.harness import TrialConfig, counterexample_search, run_suite
from logsumineq.loewner import (
    mean_monotonicity_residual,
    operator_jensen_residual,
    operator_shannon_residual,
    perspective_sum_residual,
)
from logsumineq.matfun import (
    _decompose,
    _gap_scale,
    commutes,
    loewner_leq,
    make_commuting_pair,
    maxnorm,
    psd_inverse,
    psd_sqrt,
    spectral_decompose,
)
from logsumineq.scalar import _verdict
from logsumineq.traceform import (
    exp_log_trace_gap,
    joint_spectrum,
    quantum_relative_entropy,
    reverse_trace_gap,
    von_neumann_entropy,
)

TOL = 1e-9  # the default verdict tolerance
PSD_CLAMP_RTOL = 1e-12
COMMUTE_RTOL = 1e-9
SUM_MATCH_RTOL = 1e-9
HERMITIAN_RTOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
LEAKAGE_RTOL = 1e-7
CONTRACTION_TOL = 1e-12
_F_AT_ANCHOR_TOL = 1e-12
RECHECK_ABS_TOL = 1e-6
INVERSE_FLOOR_RTOL = 1e-10  # SpectralDecomposition.inverse's default floor, relative to max|w|
CROSS_CHECK_RTOL = 1e-9
EXP_LOG_CROSS_RTOL = 1e-8
SUPPORT_ATOL = 1e-14


@pytest.mark.parametrize("factor, holds", [(2.0, False), (0.5, True)])
def test_loewner_verdict_boundary(factor, holds):
    # B - A = diag(-factor tol scale, scale) with scale = its spectral norm
    scale = 10.0
    verdict = loewner_leq(np.zeros((2, 2)), np.diag([-factor * TOL * scale, scale]), tol=TOL)
    assert verdict.residual_min_eigenvalue == -factor * TOL * scale
    assert verdict.holds is holds


@pytest.mark.parametrize("factor, holds", [(2.0, False), (0.5, True)])
def test_scalar_verdict_boundary(factor, holds):
    # the scale is max(1, |lhs|, |rhs|) = 8
    lhs, rhs = 8.0 - factor * TOL * 8.0, 8.0
    verdict = _verdict(lhs, rhs, lhs - rhs, TOL)
    assert verdict.holds is holds


def _check(accepted, call, error, match):
    """call() returns when accepted, and raises error with a message matching match if not."""
    if accepted:
        call()
    else:
        with pytest.raises(error, match=match):
            call()


# Every PSD precondition is the verdict's rule, least eigenvalue >= -tol * max(1, max|w|),
# at its own tolerance: PSD_CLAMP_RTOL for a root's argument, a density and Jensen's X,
# the verdict tolerance for expansivity and the monotonicity order.


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_sqrt_clamp_boundary(factor, accepted):
    # eigenvalues (-factor PSD_CLAMP_RTOL 10, 10), at scale 10
    M = np.diag([-factor * PSD_CLAMP_RTOL * 10.0, 10.0])
    _check(accepted, lambda: psd_sqrt(M), DomainError, r"^matrix is not PSD")


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_density_psd_boundary(factor, accepted):
    # diag(1 + d, -d) with d = factor PSD_CLAMP_RTOL, at scale 1 + d
    d = factor * PSD_CLAMP_RTOL
    rho = np.diag([1.0 + d, -d])
    _check(accepted, lambda: von_neumann_entropy(rho), DomainError, r"^rho is not PSD")


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_jensen_x_psd_boundary(factor, accepted):
    # the strict contraction C = I/2 in the monotone direction needs X PSD; X = diag(1, -d)
    X = np.diag([1.0, -factor * PSD_CLAMP_RTOL])
    _check(
        accepted,
        lambda: operator_jensen_residual(identity_fn(), 0.5 * np.eye(2), X),
        PreconditionError,
        r"^X must be PSD for the monotone direction$",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_expansivity_boundary(factor, accepted):
    # one member: the slack sum(A_i) - m I is diag(-factor TOL 8, 8), at scale 8
    A = np.diag([1.0 - factor * TOL * 8.0, 9.0])
    _check(
        accepted,
        lambda: perspective_sum_residual(log_fn(), [A], [np.eye(2)], require_expansive=True),
        PreconditionError,
        r"^family is not expansive",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_monotonicity_order_boundary(factor, accepted):
    # A_whole - A_part = diag(-factor TOL 8, 8), at scale 8; B_whole = B_part
    A_part, A_whole = np.diag([1.0 + factor * TOL * 8.0, 1.0]), np.diag([1.0, 9.0])
    _check(
        accepted,
        lambda: mean_monotonicity_residual(power_fn(0.5), A_part, np.eye(2), A_whole, np.eye(2)),
        PreconditionError,
        r"^A_part <= A_whole fails",
    )


def _judged(gap, scale, tol=TOL):
    """harness._verdicts' gaps and holds flags for a suite whose judge gives (gap, scale)."""
    draws = [harness._Draw(1, (0.0,))] * len(gap)
    config = TrialConfig(suite="scalar_log_sum", tolerance=tol)
    judge = lambda config, size, _: (np.array(gap), np.array(scale))  # noqa: E731
    suite = harness._Suite(None, harness._as_drawn, judge)
    return harness._verdicts(draws, range(len(gap)), config, suite)


@pytest.mark.parametrize("factor, holds", [(2.0, False), (0.5, True)])
def test_every_check_of_a_record_is_judged(factor, holds):
    # scale 8; trial 0 comes closest in its second check, trial 1 in its third
    low = -factor * TOL * 8.0
    gaps, flags = _judged([[1.0, low, 2.0], [1.0, 2.0, low]], [[8.0], [8.0]])
    assert gaps == [low, low]
    assert flags == [holds, holds]


def test_a_record_reports_its_first_least_check():
    # 0.0 and -0.0 tie, and the first of them is the trial's gap
    gaps, flags = _judged([[0.0, -0.0], [-0.0, 0.0]], 1.0)
    assert [math.copysign(1.0, gap) for gap in gaps] == [1.0, -1.0]
    assert flags == [True, True]


def _fixed(value):
    """A stand-in for an entropy kernel: value(n) for each trial of a stack (T, N, N) of states,
    n its own size (the kernel's last argument, or N when that is None)."""

    def kernel(rho, *rest):
        size = rest[-1]
        sizes = [rho.shape[-1]] * len(rho) if size is None else size.tolist()
        return np.array([value(n) for n in sizes])

    return kernel


@pytest.mark.parametrize("factor, holds", [(2.0, False), (0.5, True)])
@pytest.mark.parametrize(
    "suite, kernel, value",
    [
        ("relative_entropy", "_relative_entropies", lambda n, d: -d),  # D >= 0
        ("entropy_bound", "_entropies", lambda n, d: -d),  # S >= 0
        ("entropy_bound", "_entropies", lambda n, d: math.log(n) + d),  # S <= log n
    ],
    ids=["relative_entropy-D", "entropy_bound-S", "entropy_bound-log_n_minus_S"],
)
def test_scale_one_boundary(monkeypatch, suite, kernel, value, factor, holds):
    # the stubbed check of every trial lies factor tol past its bound, at scale 1
    monkeypatch.setattr(harness, kernel, _fixed(lambda n: value(n, factor * TOL)))
    report = run_suite(TrialConfig(suite=suite, trials=20, seed=3, n=4))
    assert report.worst_gap == pytest.approx(-factor * TOL, rel=1e-6)
    assert report.violations == (0 if holds else 20)


def test_convexity_scale_zero(monkeypatch):
    # a wrong verdict's gap -1 fails even at tolerance 2, an agreeing one's 0 holds
    monkeypatch.setattr(harness, "_curvature_holds", lambda *args: np.ones(len(args[2]), bool))
    cfg = TrialConfig(suite="convexity_check", trials=40, seed=5, tolerance=2.0)
    draws = harness.SUITES["convexity_check"].draws(range(5, 45), cfg)
    wrong = sum(not draw.values[3] for draw in draws)  # the cases expected to fail the grid test
    report = run_suite(cfg)
    assert 0 < wrong < 40
    assert report.violations == wrong
    assert report.worst_gap == -1.0


def _coupled(a, c):
    """(diag(a0, a1), [[1, c], [c, 1]]), whose commutator has maxnorm |a1 - a0| c."""
    return np.diag(a), np.array([[1.0, c], [c, 1.0]])


@pytest.mark.parametrize("factor, accepted", [(10.0, False), (0.1, True)])
def test_commutator_boundary(factor, accepted):
    # the commutator is factor COMMUTE_RTOL, and the bound's scale max(1, |A| |B|) is 1
    A, B = _coupled([0.0, 1.0], factor * COMMUTE_RTOL)
    assert commutes(A, B) is accepted
    if accepted:
        joint_spectrum(A, B)
    else:
        with pytest.raises(PreconditionError, match=r"^matrices do not commute"):
            joint_spectrum(A, B)


def test_leakage_bound_boundary():
    # both pairs commute within COMMUTE_RTOL; B leaks about A's split / (2 tau)
    with pytest.raises(PreconditionError, match=r"^no joint eigenbasis found"):
        joint_spectrum(*_coupled([1.0, 1.0 + 1e-6], 1e-5))
    A, B = _coupled([1.0, 1.0 + 1e-9], 1e-5)
    _, _, U = joint_spectrum(A, B)
    Bd = U.conj().T @ B @ U
    assert maxnorm(Bd - np.diag(np.diag(Bd))) <= LEAKAGE_RTOL


@pytest.mark.parametrize("factor, accepted", [(10.0, False), (0.1, True)])
def test_sum_match_boundary(factor, accepted):
    # sum(A_i) = 4I against sum(B_i) off by factor SUM_MATCH_RTOL * 4 in one entry
    As = [2.0 * np.eye(2), 2.0 * np.eye(2)]
    Bs = [np.diag([1.0, 3.0]), np.diag([3.0 + factor * SUM_MATCH_RTOL * 4.0, 1.0])]
    if accepted:
        operator_shannon_residual(As, Bs, log_fn())
    else:
        with pytest.raises(PreconditionError, match=r"^sum\(A_i\) != sum\(B_i\)"):
            operator_shannon_residual(As, Bs, log_fn())


@pytest.mark.parametrize(
    "recheck, confirmed", [(-2.0 * RECHECK_ABS_TOL, True), (-0.5 * RECHECK_ABS_TOL, False)]
)
def test_search_recheck_boundary(monkeypatch, recheck, confirmed):
    # every candidate's Jacobi eigenvalues read recheck; a finding needs < -RECHECK_ABS_TOL
    real = matfun.jacobi_eigh

    def fake(A):
        w, V = real(A)
        return np.full_like(w, recheck), V

    monkeypatch.setattr(matfun, "jacobi_eigh", fake)
    cfg = TrialConfig(
        suite="perspective_sum",
        trials=100,
        seed=1111,
        n=3,
        m=2,
        family_kind="contractive",
        lhs_form="sum_fb",
    )
    candidates = harness._run(cfg, harness._perspective_sum_verdicts)[2]
    report = counterexample_search(cfg)
    assert candidates
    assert report.violations == (len(candidates) if confirmed else 0)
    assert all(f["recheck_min_eigenvalue"] == recheck for f in report.findings)


# Each bound on an error is _holds(-error, scale, tol); below, d is factor times its tolerance.


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_hermitian_drift_boundary(factor, accepted):
    # the anti-Hermitian part has maxnorm d, at scale max(1, maxnorm) = 1
    M = [[1.0, factor * HERMITIAN_RTOL], [0.0, 1.0]]
    _check(accepted, lambda: spectral_decompose(M), DomainError, r"^A is not Hermitian")


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_unitarity_boundary(factor, accepted):
    # U = diag(1, 1 + d/2): U†U - I has maxnorm d + d²/4, at scale 1
    U = np.diag([1.0, 1.0 + factor * UNITARY_TOL / 2.0])
    _check(
        accepted,
        lambda: make_commuting_pair(U, [1.0, 2.0], [3.0, 4.0]),
        PreconditionError,
        r"^U is not unitary",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_density_trace_boundary(factor, accepted):
    # diag(0.5, 0.5 + d) has trace 1 + d, at scale 1
    rho = np.diag([0.5, 0.5 + factor * DENSITY_TRACE_TOL])
    _check(accepted, lambda: von_neumann_entropy(rho), DomainError, r"^rho must have unit trace")


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_f_at_one_boundary(factor, accepted):
    # f = sqrt - 1 + d has f(1) = d, at scale 1; the sums match and 4I >= 2I
    As = [2.0 * np.eye(2), 2.0 * np.eye(2)]
    Bs = [np.diag([1.0, 3.0]), np.diag([3.0, 1.0])]
    f = power_fn(0.5, offset=-1.0 + factor * _F_AT_ANCHOR_TOL)
    _check(
        accepted,
        lambda: operator_shannon_residual(As, Bs, f),
        PreconditionError,
        r"^f\(1\) must vanish",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
@pytest.mark.parametrize(
    "r, sign, match",
    [
        (0.5, -1.0, r"^monotone direction needs f\(0\) >= 0$"),
        (2.0, 1.0, r"^convex direction needs f\(0\) <= 0$"),
    ],
    ids=["monotone", "convex"],
)
def test_f_at_zero_boundary(r, sign, match, factor, accepted):
    # the strict contraction I/2: f = sqrt - d has f(0) = -d, and f = x² + d has f(0) = d
    f = power_fn(r, offset=sign * factor * _F_AT_ANCHOR_TOL)
    _check(
        accepted,
        lambda: operator_jensen_residual(f, 0.5 * np.eye(2), np.eye(2)),
        PreconditionError,
        match,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_contraction_norm_boundary(factor, accepted):
    # C = (1 + d) diag(1, 1/2) has operator norm 1 + d
    C = (1.0 + factor * CONTRACTION_TOL) * np.diag([1.0, 0.5])
    _check(
        accepted,
        lambda: operator_jensen_residual(power_fn(0.5), C, np.eye(2)),
        PreconditionError,
        r"^contraction has operator norm .* > 1$",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_strict_contraction_boundary(factor, accepted):
    # C = diag(1, 1 - d/2): C†C - I has maxnorm d - d²/4, and only a strict C needs
    # the convex direction's f(0) <= 0, which f = x² + 1 fails
    C = np.diag([1.0, 1.0 - factor * CONTRACTION_TOL / 2.0])
    _check(
        accepted,
        lambda: operator_jensen_residual(power_fn(2.0, offset=1.0), C, np.eye(2)),
        PreconditionError,
        r"^convex direction needs f\(0\) <= 0$",
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_inverse_floor_boundary(factor, accepted):
    # the least eigenvalue INVERSE_FLOOR_RTOL / factor against the default floor, at max|w| = 1
    M = np.diag([1.0, INVERSE_FLOOR_RTOL / factor])
    _check(accepted, lambda: psd_inverse(M), SingularityError, r"^matrix not invertible above")


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_split_matching_total_floor_boundary(factor, accepted):
    # a total's least eigenvalue INVERSE_FLOOR_RTOL / factor, at max|w| = 1
    total = np.diag([1.0, INVERSE_FLOOR_RTOL / factor])
    _check(
        accepted,
        lambda: rand_split_matching(np.random.default_rng(5), total, 2, (0.5, 2.0)),
        DomainError,
        r"^total is not positive definite",
    )


@pytest.mark.parametrize("factor, refereed", [(2.0, True), (0.5, False)])
@pytest.mark.parametrize(
    "gap, rtol",
    [
        (lambda A, B: reverse_trace_gap(log_fn(), identity_fn(), A, B), CROSS_CHECK_RTOL),
        (exp_log_trace_gap, EXP_LOG_CROSS_RTOL),
    ],
    ids=["CROSS_CHECK_RTOL", "EXP_LOG_CROSS_RTOL"],
)
def test_cross_check_boundary(monkeypatch, gap, rtol, factor, refereed):
    # A = B makes the cross-checked value 0, at scale 1; its product-path value is moved to d,
    # and the referee, stubbed to count its calls, agrees with the primary value
    real, calls = traceform._cross_check, []

    def moved(label, primary, product_path, rtol_used, referee):
        real(label, primary, primary + factor * rtol, rtol_used, referee)

    def referee(quantity, *args):
        calls.append(quantity)
        return 0.0

    monkeypatch.setattr(traceform, "_cross_check", moved)
    monkeypatch.setattr(traceform, "_referee", referee)
    A = np.diag([1.0, 0.5])
    gap(A, A)
    assert len(calls) == refereed


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_support_boundary(factor, accepted):
    # rho = diag(1 - d, d) puts weight d where sigma = diag(1, 0) vanishes
    d = factor * SUPPORT_ATOL
    rho, sigma = np.diag([1.0 - d, d]), np.diag([1.0, 0.0])
    _check(
        accepted,
        lambda: quantum_relative_entropy(rho, sigma),
        SupportError,
        r"^rho has weight outside sigma's support",
    )


# -- padded twins: a trial of n=2 judged in a stack padded to 8 --------------------
#
# The harness judges a Loewner trial padded by an identity block to its size class
# (harness._pad); every check reads the trial's own slots or own block.  Each twin below
# judges a boundary pair above padded into 8 x 8 through the private kernel, and must give
# the unpadded verdict, and the unpadded message, which names the trial's own values.

_OWN = np.array([2])  # the own size of the one padded trial


def _padded(*stacks):
    """Each stack of 2 x 2 matrices padded to 8 x 8 as the harness pads a trial."""
    return harness._pad([np.asarray(s, dtype=complex) for s in stacks], 8)


def _twins(accepted, unpadded, padded, error):
    """Both calls return when accepted; else both raise error with one message."""
    if accepted:
        unpadded()
        padded()
        return
    with pytest.raises(error) as one:
        unpadded()
    with pytest.raises(error) as twin:
        padded()
    assert str(twin.value) == str(one.value)


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_expansivity_boundary(factor, accepted):
    A, B = np.diag([1.0 - factor * TOL * 8.0, 9.0]), np.eye(2)
    _twins(
        accepted,
        lambda: perspective_sum_residual(log_fn(), [A], [B], require_expansive=True),
        lambda: loewner._perspective_sums(
            [log_fn()], *_padded([A], [B]), [1], "perspective_sum", True, TOL, size=_OWN
        ),
        PreconditionError,
    )


@pytest.mark.parametrize("factor, accepted", [(10.0, False), (0.1, True)])
def test_padded_sum_match_boundary(factor, accepted):
    As = [2.0 * np.eye(2), 2.0 * np.eye(2)]
    Bs = [np.diag([1.0, 3.0]), np.diag([3.0 + factor * SUM_MATCH_RTOL * 4.0, 1.0])]
    _twins(
        accepted,
        lambda: operator_shannon_residual(As, Bs, log_fn()),
        lambda: loewner._operator_shannon([log_fn()], *_padded(As, Bs), [2], TOL, size=_OWN),
        PreconditionError,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_contraction_norm_boundary(factor, accepted):
    C = (1.0 + factor * CONTRACTION_TOL) * np.diag([1.0, 0.5])
    _twins(
        accepted,
        lambda: operator_jensen_residual(power_fn(0.5), C, np.eye(2)),
        lambda: loewner._operator_jensen(power_fn(0.5), *_padded([C], [np.eye(2)]), size=_OWN),
        PreconditionError,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_strict_contraction_boundary(factor, accepted):
    C, f = np.diag([1.0, 1.0 - factor * CONTRACTION_TOL / 2.0]), power_fn(2.0, offset=1.0)
    _twins(
        accepted,
        lambda: operator_jensen_residual(f, C, np.eye(2)),
        lambda: loewner._operator_jensen(f, *_padded([C], [np.eye(2)]), size=_OWN),
        PreconditionError,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_monotonicity_order_boundary(factor, accepted):
    A_part, A_whole = np.diag([1.0 + factor * TOL * 8.0, 1.0]), np.diag([1.0, 9.0])
    matrices = (A_part, np.eye(2), A_whole, np.eye(2))
    _twins(
        accepted,
        lambda: mean_monotonicity_residual(power_fn(0.5), *matrices),
        lambda: loewner._mean_monotonicity(
            power_fn(0.5), *_padded(*([M] for M in matrices)), TOL, size=_OWN
        ),
        PreconditionError,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_sqrt_clamp_boundary(factor, accepted):
    M = np.diag([-factor * PSD_CLAMP_RTOL * 10.0, 10.0])
    _twins(
        accepted,
        lambda: psd_sqrt(M),
        lambda: _decompose(*_padded([M]), size=_OWN).sqrt(),
        DomainError,
    )


@pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
def test_padded_inverse_floor_boundary(factor, accepted):
    # max|w| = 1/4 below the pad's 1: a floor read off the pad would refuse both
    M = 0.25 * np.diag([1.0, INVERSE_FLOOR_RTOL / factor])
    _twins(
        accepted,
        lambda: psd_inverse(M),
        lambda: _decompose(*_padded([M]), size=_OWN).inverse(),
        SingularityError,
    )


@pytest.mark.parametrize("factor, holds", [(2.0, False), (0.5, True)])
def test_padded_verdict_boundary(factor, holds):
    # a residual diag(-factor TOL, 1/2) at scale 1, its pad at 5: a scale read off the pad
    # would let the trial at factor 2 hold
    R = np.zeros((1, 8, 8), dtype=complex)
    R[0, range(8), range(8)] = [-factor * TOL, 0.5, *[5.0] * 6]
    w = _decompose(R, size=_OWN).eigenvalues
    assert _holds(*_gap_scale(w, _OWN), TOL).tolist() == [holds]
    assert loewner_leq(np.zeros((2, 2)), R[0, :2, :2], tol=TOL).holds is holds
