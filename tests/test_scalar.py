"""Scalar inequalities: frozen gaps, domain policing, directional properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logsumineq.errors import DomainError, NumericError, PreconditionError
from logsumineq.functions import (
    FunctionSpec,
    identity_fn,
    log_fn,
    power_fn,
    q_log_fn,
    rational_fn,
)
from logsumineq import scalar
from logsumineq.generators import rand_commuting_pair
from logsumineq.scalar import (
    SequencePair,
    convexity_check,
    generalized_log_sum_gap,
    q_log_sum_gap,
    ratio_bounds,
    rational_example_gap,
    reverse_log_sum_gap,
)
from logsumineq.traceform import q_trace_gap

LN2 = math.log(2.0)

pos_seq = st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=10)


def pair_of(n_a, n_b):
    return SequencePair(tuple(n_a), tuple(n_b))


# -- SequencePair hygiene --------------------------------------------------------


def test_pair_validation():
    with pytest.raises(DomainError):
        SequencePair((1.0,), (1.0, 2.0))  # length mismatch
    with pytest.raises(DomainError):
        SequencePair((), ())
    with pytest.raises(DomainError):
        SequencePair((np.nan,), (1.0,))
    p = SequencePair((1, 2), (2, 1))
    assert len(p) == 2
    assert p.a == (1.0, 2.0)


# -- ratio bounds ----------------------------------------------------------------


def test_ratio_bounds_identity():
    rb = ratio_bounds(identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]))
    assert rb.m_g == 0.5 and rb.M_g == 2.0


def test_ratio_bounds_square_map():
    # g = x**2 turns the same pair into ratios 1/4 and 4
    rb = ratio_bounds(power_fn(2.0), pair_of([1.0, 2.0], [2.0, 1.0]))
    assert rb.m_g == 0.25 and rb.M_g == 4.0


def test_ratio_bounds_requires_positive_gb():
    with pytest.raises(PreconditionError):
        ratio_bounds(identity_fn(), pair_of([1.0], [0.0]))


def test_ratio_bounds_refuses_a_bound_that_is_not_finite():
    # 1e308 / 1e-308 overflows: a library caller is refused, as eval's output is
    with pytest.raises(NumericError, match=r"^ratio_bounds gave a result that is not finite$"):
        ratio_bounds(identity_fn(), pair_of([1e308, 1e308], [1e-308, 1e-308]))


@pytest.mark.parametrize(
    "gap, message",
    [
        (
            lambda pair: generalized_log_sum_gap(identity_fn(), identity_fn(), pair),
            r"^the sums of g\(a_i\) and g\(b_i\) must be finite, got inf and 2\.0$",
        ),
        (
            lambda pair: q_log_sum_gap(pair, 0.5, 1.0),
            r"^the sums of a_i\*\*r and b_i\*\*r must be finite, got inf and 2\.0$",
        ),
    ],
    ids=["generalized_log_sum_gap", "q_log_sum_gap"],
)
def test_a_sum_that_overflows_is_refused_before_f_sees_it(gap, message):
    # every input lies in the domain, so the sum's overflow is a numeric failure, not a
    # DomainError of f at an infinite argument, and it does not warn first
    with pytest.raises(NumericError, match=message):
        gap(pair_of([1e308, 1e308], [1.0, 1.0]))


@settings(max_examples=200)
@given(pos_seq, pos_seq)
def test_aggregate_ratio_is_mediant_bounded(a, b):
    assume(len(a) == len(b))
    rb = ratio_bounds(identity_fn(), pair_of(a, b))
    agg = sum(a) / sum(b)
    assert rb.m_g - 1e-12 <= agg <= rb.M_g + 1e-12


# -- convexity grid check ---------------------------------------------------------


def test_xlogx_is_convex():
    assert convexity_check("xfx", log_fn(), (0.1, 10.0))


def test_qlog_above_two_xfx_not_convex():
    assert not convexity_check("xfx", q_log_fn(2.5), (0.1, 10.0))


def test_rational_reverse_kernel_concave_on_valid_window():
    # x*f(1/x) for f = x/(x**2+2) is x**2/(1+2 x**2); concave only for x >= 1/sqrt(6)
    assert convexity_check("xf1overx", rational_fn(), (0.45, 10.0))
    assert not convexity_check("xf1overx", rational_fn(), (0.05, 10.0))


def test_xf1overx_rejects_interval_through_zero():
    with pytest.raises(DomainError):
        convexity_check("xf1overx", log_fn(), (-1.0, 1.0))


def test_unknown_kernel_kind():
    with pytest.raises(DomainError):
        convexity_check("fxx", log_fn(), (0.1, 1.0))


@pytest.mark.parametrize("points", [2, 100_001, 10**400], ids=["2", "100001", "10^400"])
def test_grid_points_out_of_range_rejected_before_any_grid(monkeypatch, points):
    monkeypatch.setattr(scalar, "_curvature_holds", lambda *args: pytest.fail("grid built"))
    with pytest.raises(DomainError, match=r"grid_points must be in \[3, 100000\]"):
        convexity_check("xfx", log_fn(), (0.1, 10.0), points)


@pytest.mark.parametrize(
    "interval, points, message",
    [
        ((1.0, 2.0), 3.9, "grid_points must be an integer, got 3.9"),
        ((1.0, 2.0), True, "grid_points must be an integer, got True"),
        ((1.0, 2.0, 9.0), 51, "interval must be two numbers, got (1.0, 2.0, 9.0)"),
        ((1.0,), 51, "interval must be two numbers, got (1.0,)"),
        ("ab", 51, "interval must be two numbers, got 'ab'"),
        (5, 51, "interval must be two numbers, got 5"),
        ((2.0, 2.0), 51, "interval must be finite and non-degenerate"),
    ],
    ids=["float-points", "bool-points", "three-ends", "one-end", "string", "number", "degenerate"],
)
def test_convexity_check_refuses_a_malformed_argument_by_name(
    monkeypatch, interval, points, message
):
    monkeypatch.setattr(scalar, "_curvature_holds", lambda *args: pytest.fail("grid built"))
    with pytest.raises(DomainError) as err:
        convexity_check("xfx", log_fn(), interval, points)
    assert str(err.value) == message


def test_convexity_check_takes_any_integral_grid_size():
    f, interval = q_log_fn(2.5), np.array([0.1, 10.0])
    assert convexity_check("xfx", f, interval, np.int64(51)) is convexity_check(
        "xfx", f, (0.1, 10.0), 51
    )


@settings(max_examples=100)
@given(st.floats(min_value=0.1, max_value=1.9))
def test_power_xfx_convex_for_admissible_exponents(r):
    # x**(r+1) is convex on (0, inf) for r in (0, 2] among others
    assert convexity_check("xfx", power_fn(r), (0.05, 20.0))


# -- forward inequality -----------------------------------------------------------


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, "x", True])
def test_scalar_verdict_rejects_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]), tol)


def test_forward_log_sum_frozen_gap():
    # classical log-sum with a=(1,2), b=(2,1): gap = ln 2
    v = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]))
    assert v.holds
    assert v.gap == pytest.approx(LN2, rel=1e-13)


def test_forward_equality_on_proportional_sequences():
    v = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
    assert abs(v.gap) <= 1e-12


def test_forward_zero_weight_terms_drop_when_allowed():
    # a zero weight contributes nothing when x f(x) -> 0 at 0+
    v0 = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([0.0, 1.0, 2.0], [1.0, 2.0, 1.0]))
    v1 = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]))
    assert v0.lhs == pytest.approx(v1.lhs, rel=1e-14)


def test_forward_zero_weight_rejected_when_divergent():
    # q >= 2 makes x qlog(x) blow up at 0+, so zero weights are illegal
    with pytest.raises(DomainError):
        generalized_log_sum_gap(q_log_fn(2.5), identity_fn(), pair_of([0.0, 1.0], [1.0, 1.0]))


def test_forward_rejects_nonconvex_kernel():
    with pytest.raises(PreconditionError):
        generalized_log_sum_gap(q_log_fn(2.5), identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]))


def test_forward_requires_positive_gb():
    with pytest.raises(PreconditionError):
        generalized_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0], [0.0]))


@settings(max_examples=400)
@given(pos_seq, pos_seq)
def test_forward_holds_for_log(a, b):
    assume(len(a) == len(b))
    v = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of(a, b))
    assert v.holds


@settings(max_examples=200)
@given(pos_seq, pos_seq, st.floats(min_value=0.2, max_value=1.8))
def test_forward_holds_for_powers(a, b, r):
    assume(len(a) == len(b))
    v = generalized_log_sum_gap(power_fn(r), identity_fn(), pair_of(a, b))
    assert v.holds


@settings(max_examples=200)
@given(pos_seq, pos_seq)
def test_forward_with_square_weight_map(a, b):
    assume(len(a) == len(b))
    v = generalized_log_sum_gap(log_fn(), power_fn(2.0), pair_of(a, b))
    assert v.holds


def test_forward_jensen_consistency():
    # identical b sequence reduces the statement to Jensen for x f(x)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.1, 5.0, size=4)
        b = np.full(4, 1.0)
        v = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of(a, b))
        n = 4.0
        jensen = np.sum(a * np.log(a)) - np.sum(a) * np.log(np.sum(a) / n)
        assert v.gap == pytest.approx(jensen, rel=1e-10, abs=1e-12)


# -- reverse inequality ------------------------------------------------------------


def test_reverse_frozen_gap():
    v = reverse_log_sum_gap(log_fn(), identity_fn(), pair_of([2.0, 1.0], [1.0, 2.0]))
    assert v.holds
    assert v.gap == pytest.approx(LN2, rel=1e-13)


def test_reverse_requires_positive_ga():
    with pytest.raises(PreconditionError):
        reverse_log_sum_gap(log_fn(), identity_fn(), pair_of([0.0, 1.0], [1.0, 1.0]))


def test_reverse_evaluates_g_once_per_sequence(monkeypatch):
    evaluated = []
    real = FunctionSpec.__call__

    def counted(self, values):
        if self.family == "identity":
            evaluated.append(np.asarray(values).tolist())
        return real(self, values)

    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    reverse_log_sum_gap(log_fn(), identity_fn(), pair_of([2.0, 1.0], [1.0, 2.0]))
    # once on a, then once on b, each on the own entries (n,) of the kernel's one-pair stack
    assert evaluated == [[2.0, 1.0], [1.0, 2.0]]


def test_reverse_checks_ga_before_gb():
    with pytest.raises(PreconditionError, match=r"^g\(a_i\) must be strictly positive"):
        reverse_log_sum_gap(log_fn(), identity_fn(), pair_of([0.0, 1.0], [0.0, 1.0]))
    with pytest.raises(PreconditionError, match=r"^g\(b_i\) must be strictly positive"):
        reverse_log_sum_gap(log_fn(), identity_fn(), pair_of([1.0, 1.0], [0.0, 1.0]))


def test_reverse_rejects_nonconcave_kernel():
    # x f(1/x) for f = exp is x e**(1/x), convex on (0, inf)
    from logsumineq.functions import exp_fn

    with pytest.raises(PreconditionError):
        reverse_log_sum_gap(exp_fn(), identity_fn(), pair_of([1.0, 2.0], [2.0, 1.0]))


@settings(max_examples=400)
@given(pos_seq, pos_seq)
def test_reverse_holds_for_log(a, b):
    assume(len(a) == len(b))
    v = reverse_log_sum_gap(log_fn(), identity_fn(), pair_of(a, b))
    assert v.holds


@settings(max_examples=200)
@given(pos_seq, pos_seq)
def test_reverse_direction_flip_mirror(a, b):
    # forward on (a, b) with f = log equals reverse on (a, b) with ratios inverted:
    # sum a_i log(a_i/b_i) >= (sum a)(log(sum a / sum b)) vs the <= mirror.
    assume(len(a) == len(b))
    fwd = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of(a, b))
    rev = reverse_log_sum_gap(log_fn(), identity_fn(), pair_of(a, b))
    # lhs_rev = sum a_i log(b_i/a_i) = -lhs_fwd, rhs_rev = -rhs_fwd
    assert rev.lhs == pytest.approx(-fwd.lhs, rel=1e-10, abs=1e-12)
    assert rev.rhs == pytest.approx(-fwd.rhs, rel=1e-10, abs=1e-12)


# -- bounded-domain rational example ------------------------------------------------


def test_rational_example_rejects_canonical_small_pair():
    # entries at 1 sit below the sqrt(2/3) floor where x f(1/x) loses concavity
    with pytest.raises(PreconditionError):
        rational_example_gap(pair_of([1.0, 2.0], [2.0, 1.0]))


def test_rational_example_names_its_entry_floor():
    with pytest.raises(PreconditionError, match=r"^all entries must exceed sqrt\(2/3\)$"):
        rational_example_gap(pair_of([0.5, 1.0], [1.0, 1.0]))


def test_rational_example_rejects_extreme_ratio():
    with pytest.raises(PreconditionError):
        rational_example_gap(pair_of([1.0, 1.0], [10.0, 1.0]))


def test_rational_example_holds_inside_window():
    v = rational_example_gap(pair_of([2.0, 3.0], [3.0, 4.0]))
    assert v.holds and v.gap >= 0.0


@settings(max_examples=300)
@given(
    st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=1, max_size=8),
    st.data(),
)
def test_rational_example_property(a, data):
    ratios = data.draw(
        st.lists(
            st.floats(min_value=0.9, max_value=2.4), min_size=len(a), max_size=len(a)
        )
    )
    b = [x * r for x, r in zip(a, ratios)]
    v = rational_example_gap(pair_of(a, b))
    assert v.holds


# -- q-deformed log-sum ---------------------------------------------------------------


def test_q_log_sum_reduces_to_classical_at_q_one():
    pair = pair_of([1.0, 2.0], [2.0, 1.0])
    vq = q_log_sum_gap(pair, q=1.0, r=1.0)
    vc = generalized_log_sum_gap(log_fn(), identity_fn(), pair)
    assert vq.gap == pytest.approx(vc.gap, abs=1e-12)


def test_q_log_sum_rejects_q_two():
    with pytest.raises(PreconditionError):
        q_log_sum_gap(pair_of([1.0], [1.0]), q=2.0, r=1.0)


def test_q_log_sum_rejects_a_negative_power():
    with pytest.raises(PreconditionError, match=r"^a_i\*\*r must be nonnegative$"):
        q_log_sum_gap(pair_of([-1.0, 1.0], [1.0, 1.0]), 0.5, 1.0)


def test_q_log_sum_rejects_an_order_that_is_not_finite():
    with pytest.raises(DomainError, match=r"^deformation order must be finite, got inf$"):
        q_log_sum_gap(pair_of([1.0, 1.0], [1.0, 1.0]), math.inf, 1.0)


def test_q_log_sum_rejects_zero_b():
    with pytest.raises(PreconditionError):
        q_log_sum_gap(pair_of([1.0], [0.0]), q=0.5, r=1.0)


def test_q_log_sum_zero_a_needs_q_below_two():
    v = q_log_sum_gap(pair_of([0.0, 1.0], [1.0, 1.0]), q=0.5, r=1.0)
    assert v.holds
    with pytest.raises(PreconditionError):
        q_log_sum_gap(pair_of([0.0, 1.0], [1.0, 1.0]), q=2.5, r=1.0)


def test_power_log_identity():
    # with qlog -> ln (q = 1) the r-power statement collapses to
    # lhs = sum r a_i**r (ln a_i - ln b_i)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.2, 5.0, size=3)
        b = rng.uniform(0.2, 5.0, size=3)
        r = rng.uniform(0.5, 2.0)
        v = q_log_sum_gap(pair_of(a, b), q=1.0, r=r)
        expected = float(np.sum(r * a**r * (np.log(a) - np.log(b))))
        assert v.lhs == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=300)
@given(
    st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6),
    st.data(),
    st.floats(min_value=0.5, max_value=2.0),
)
def test_q_log_sum_direction(a, data, r):
    b = data.draw(
        st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=len(a), max_size=len(a))
    )
    for q in (0.0, 0.5, 1.5, 2.5, 3.0):
        v = q_log_sum_gap(pair_of(a, b), q=q, r=r)
        assert v.holds, f"q={q} gap={v.gap}"


def test_q_direction_flip_example():
    # same data, gap stored lhs-rhs below q=2 and rhs-lhs above
    pair = pair_of([1.0, 3.0], [2.0, 1.0])
    below = q_log_sum_gap(pair, q=0.5, r=1.0)
    above = q_log_sum_gap(pair, q=3.0, r=1.0)
    assert below.holds and above.holds
    assert below.gap >= 0.0 and above.gap >= 0.0


# -- stacked kernels ---------------------------------------------------------------


def test_stacked_kernels_give_each_row_its_one_pair_bits():
    # a zero-laden n = 16 stack: each row gets the bits of its T=1 run, and a
    # dropped term adds 0.0 to the row's sum instead of leaving it
    rng = np.random.default_rng(16)
    T, n = 40, 16
    a = rng.uniform(0.1, 10.0, (T, n))
    b = rng.uniform(0.1, 10.0, (T, n))
    a[rng.random(a.shape) < 0.25] = 0.0
    a[0] = 0.0  # a row without an active term
    q, r = rng.uniform(-2.0, 1.9, T), rng.uniform(0.5, 2.0, T)

    stacked = scalar._forward(log_fn(), identity_fn(), a, b)
    padded = 0
    for t in range(T):
        one = generalized_log_sum_gap(log_fn(), identity_fn(), pair_of(a[t], b[t]))
        got = [float(side[t]).hex() for side in stacked]
        assert got == [float(x).hex() for x in (one.lhs, one.rhs, one.gap)], t
        active = a[t] != 0.0
        terms = a[t][active] * np.log(a[t][active] / b[t][active])
        padded += float(stacked[0][t]) != float(np.sum(terms))
    assert padded > 0  # the zeros regroup numpy's pairwise sum of some rows

    stacked = scalar._q_log_sums(a, b, q, r)
    for t in range(T):
        one = q_log_sum_gap(pair_of(a[t], b[t]), q[t], r[t])
        got = [float(side[t]).hex() for side in stacked]
        assert got == [float(x).hex() for x in (one.lhs, one.rhs, one.gap)], t


def test_q_powers_build_one_spec_per_distinct_power(monkeypatch):
    # q_direction takes r = 1 at every order: its rows share one spec, and each
    # row still gets the bits of its own spec's call
    built = []
    real = scalar.power_fn

    def counting(r):
        built.append(r)
        return real(r)

    monkeypatch.setattr(scalar, "power_fn", counting)
    rng = np.random.default_rng(18)
    r = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.7])
    a, b = rng.uniform(0.1, 10.0, (2, len(r), 5))
    p, s, powers = scalar._q_powers(a, b, np.zeros(len(r)), r)
    assert sorted(built) == [0.7, 1.0]
    assert powers == [real(x) for x in r] and powers[0] is powers[4]
    for t, x in enumerate(r):
        assert p[t].tobytes() == real(x)(a[t]).tobytes()
        assert s[t].tobytes() == real(x)(b[t]).tobytes()

    # a q_trace_gap call builds one power spec, which its product path reuses
    families = []
    post_init = FunctionSpec.__post_init__

    def noting(spec):
        families.append(spec.family)
        post_init(spec)

    monkeypatch.setattr(FunctionSpec, "__post_init__", noting)
    A, B = rand_commuting_pair(rng, 3, (0.5, 2.0), (0.5, 2.0))
    assert q_trace_gap(A, B, 0.5, 1.5).holds
    assert families.count("power") == 1
