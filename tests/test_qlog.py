"""Deformed logarithm: frozen values, algebraic identities, limit behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.errors import DomainError, NumericError
from logsumineq.qlog import QLogParams, q_log, q_log_product, q_log_quotient, q_log_reciprocal

# Orders stay clear of the q = 1 substitution window unless a test targets it.
q_values = st.floats(min_value=-2.0, max_value=4.0).filter(lambda q: abs(q - 1.0) > 1e-6)
pos = st.floats(min_value=1e-3, max_value=1e3)


# -- frozen point values -------------------------------------------------------
# Worked by hand from qlog(x) = (x**(1-q) - 1) / (1 - q).


def test_qlog_of_4_at_half():
    # (4**0.5 - 1) / 0.5 = 2, exactly representable
    assert q_log(4.0, QLogParams(0.5)) == 2.0


def test_qlog_of_6_at_half():
    # 2 * (sqrt(6) - 1)
    expected = 2.0 * (math.sqrt(6.0) - 1.0)
    assert q_log(6.0, QLogParams(0.5)) == pytest.approx(expected, rel=1e-15)


def test_qlog_of_1_is_zero_for_all_orders():
    for q in (-2.0, 0.0, 0.5, 1.5, 3.0):
        assert q_log(1.0, QLogParams(q)) == 0.0


def test_quotient_rule_value():
    # qlog(1/4) at q = 0.5: (qlog(1) - qlog(4)) / 4**0.5 = -2/2 = -1
    assert q_log_quotient(1.0, 4.0, QLogParams(0.5)) == pytest.approx(-1.0, abs=1e-15)


def test_reciprocal_rule_value():
    assert q_log_reciprocal(4.0, QLogParams(0.5)) == pytest.approx(-1.0, abs=1e-15)


def test_reciprocal_inside_limit_window_is_natural_log():
    # q within the window evaluates qlog as ln; y**(1-q) stays within 1e-12 of 1
    out = q_log_reciprocal(2.0, QLogParams(1.0 + 1e-12))
    assert out == pytest.approx(-math.log(2.0), rel=1e-11)


def test_limit_window_substitutes_natural_log():
    p = QLogParams(1.0 + 1e-10)
    assert q_log(math.e, p) == pytest.approx(1.0, abs=1e-14)
    assert q_log(2.0, p) == math.log(2.0)


# -- parameter and domain validation ------------------------------------------


def test_rejects_nonpositive_argument():
    with pytest.raises(DomainError):
        q_log(0.0, QLogParams(0.5))
    with pytest.raises(DomainError):
        q_log(-1.0, QLogParams(0.5))
    with pytest.raises(DomainError):
        q_log(np.array([1.0, np.nan]), QLogParams(0.5))


def test_rejects_non_finite_order():
    with pytest.raises(DomainError):
        QLogParams(np.inf)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: q_log(1e300, p),
        lambda p: q_log(np.array([2.0, 1e300]), p),
        lambda p: q_log_product(1e300, 2.0, p),
        lambda p: q_log_quotient(2.0, 1e300, p),
    ],
    ids=["scalar", "array", "product", "quotient"],
)
def test_a_result_that_is_not_finite_is_refused(call):
    # (1e300)**6 overflows: a library caller is refused, as eval's output is
    with pytest.raises(NumericError, match=r"^q_log gave a result that is not finite$"):
        call(QLogParams(-5.0))


@pytest.mark.parametrize(
    "name, call, q",
    [
        ("q_log_product", lambda p: q_log_product(1e150, 1e150, p), -1.0),
        ("q_log_reciprocal", lambda p: q_log_reciprocal(1e-300, p), -1.0),
        ("q_log_quotient", lambda p: q_log_quotient(1.0, 1e-300, p), -1.0),
        ("q_log_reciprocal", lambda p: q_log_reciprocal(1e300, p), 3.0),
    ],
    ids=["product", "reciprocal-small", "quotient", "reciprocal-large"],
)
def test_an_identity_whose_result_is_not_finite_is_refused(name, call, q):
    # each q-logarithm is finite; the product term or the division by y**(1 - q) is not
    with pytest.raises(NumericError, match=f"^{name} gave a result that is not finite$"):
        call(QLogParams(q))


@pytest.mark.parametrize(
    "call",
    [
        lambda p: q_log_product(2.0, -1.0, p),
        lambda p: q_log_quotient(2.0, -1.0, p),
        lambda p: q_log_reciprocal(-1.0, p),
        lambda p: q_log_quotient(2.0, np.array([1.0, 0.0]), p),
        lambda p: q_log_reciprocal(np.inf, p),
    ],
    ids=["product", "quotient", "reciprocal", "quotient-array", "reciprocal-infinite"],
)
def test_an_identity_refuses_y_under_its_name(call):
    with pytest.raises(DomainError, match=r"^y must be (strictly positive|finite)$"):
        call(QLogParams(0.5))


def test_an_identity_refuses_x_before_y():
    with pytest.raises(DomainError, match=r"^x must be strictly positive$"):
        q_log_quotient(-1.0, -1.0, QLogParams(0.5))


def test_array_evaluation_matches_scalar():
    p = QLogParams(1.7)
    xs = np.array([0.25, 1.0, 3.5])
    out = q_log(xs, p)
    assert isinstance(out, np.ndarray)
    for x, o in zip(xs, out):
        assert o == q_log(float(x), p)


# -- identities as properties ---------------------------------------------------


# Identity comparisons are relative to the largest term combined, not to the
# (possibly cancelled) result: the right-hand sides sum terms of magnitude up
# to x**(1-q), and no float computation can certify such a sum more tightly
# than eps times its largest addend.


@settings(max_examples=300)
@given(pos, pos, q_values)
def test_product_rule(x, y, q):
    p = QLogParams(q)
    lx, ly = q_log(x, p), q_log(y, p)
    lhs = q_log(x * y, p)
    rhs = q_log_product(x, y, p)
    scale = max(1.0, abs(lhs), abs(lx), abs(ly), abs((1.0 - q) * lx * ly))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=300)
@given(pos, pos, q_values)
def test_quotient_rule(x, y, q):
    p = QLogParams(q)
    lx, ly = q_log(x, p), q_log(y, p)
    lhs = q_log(x / y, p)
    rhs = q_log_quotient(x, y, p)
    scale = max(1.0, abs(lhs), (abs(lx) + abs(ly)) / y ** (1.0 - q))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=300)
@given(pos, q_values)
def test_reciprocal_rule(y, q):
    p = QLogParams(q)
    lhs = q_log(1.0 / y, p)
    rhs = q_log_reciprocal(y, p)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=300)
@given(pos, q_values)
def test_pseudo_additivity(x, q):
    # 1 + (1-q) qlog(x) = x**(1-q)
    p = QLogParams(q)
    term = (1.0 - q) * q_log(x, p)
    lhs = 1.0 + term
    rhs = x ** (1.0 - q)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs), abs(term))


@settings(max_examples=300)
@given(pos, pos, q_values)
def test_alternative_product_form(x, y, q):
    # qlog(x y) = x**(1-q) qlog(y) + qlog(x)
    p = QLogParams(q)
    t1 = x ** (1.0 - q) * q_log(y, p)
    t2 = q_log(x, p)
    lhs = q_log(x * y, p)
    rhs = t1 + t2
    scale = max(1.0, abs(lhs), abs(t1), abs(t2))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=200)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_continuity_at_q_one(x):
    # just outside the window the closed form stays within 1e-6*(1+|ln x|) of ln(x)
    for q in (1.0 - 1e-7, 1.0 + 1e-7):
        assert abs(q_log(x, QLogParams(q)) - math.log(x)) <= 1e-6 * (1.0 + abs(math.log(x)))


@settings(max_examples=200)
@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=1.01, max_value=100.0), q_values)
def test_strictly_increasing(lo, hi, q):
    p = QLogParams(q)
    assert q_log(lo, p) < q_log(1.0, p) < q_log(hi, p)
