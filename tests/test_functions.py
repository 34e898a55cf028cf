"""FunctionSpec: construction, domains, evaluation, zero-weight convention."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.errors import DomainError
from logsumineq.functions import (
    FunctionSpec,
    _apply_rows,
    exp_fn,
    identity_fn,
    log_fn,
    parse_function,
    power_fn,
    q_log_fn,
    rational_fn,
    shifted_log_fn,
    tabulated_fn,
)


def test_family_validation():
    with pytest.raises(DomainError):
        FunctionSpec("cosh")
    with pytest.raises(DomainError):
        FunctionSpec("power")  # missing exponent
    with pytest.raises(DomainError):
        FunctionSpec("power", param=0.0)
    with pytest.raises(DomainError):
        FunctionSpec("shifted_log", param=-1.0)
    with pytest.raises(DomainError):
        FunctionSpec("tabulated")  # missing grid
    with pytest.raises(DomainError):
        tabulated_fn([0.0, 0.0], [1.0, 2.0])  # non-increasing abscissae
    with pytest.raises(DomainError, match=r"^offset must be finite$"):
        FunctionSpec("log", offset=math.inf)
    with pytest.raises(DomainError, match=r"^tabulated grid must pair at least two nodes$"):
        tabulated_fn([1.0], [2.0])
    with pytest.raises(DomainError, match=r"^tabulated grid must be finite$"):
        tabulated_fn([1, 2], [math.nan, 1])


def test_point_values():
    assert identity_fn()(3.5) == 3.5
    assert log_fn()(math.e) == pytest.approx(1.0, abs=1e-15)
    assert exp_fn()(0.0) == 1.0
    assert power_fn(2.0)(3.0) == 9.0
    assert power_fn(0.5)(4.0) == 2.0
    assert q_log_fn(0.5)(4.0) == 2.0
    assert shifted_log_fn(1.0)(0.0) == 0.0
    assert rational_fn()(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert power_fn(0.5, offset=-1.0)(4.0) == 1.0


def test_tabulated_interpolation():
    f = tabulated_fn([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert f(0.5) == 0.5
    assert f(1.5) == 0.5
    with pytest.raises(DomainError):
        f(2.5)  # outside the grid


def test_domains():
    assert log_fn().domain() == (0.0, np.inf, True)
    assert q_log_fn(1.5).domain() == (0.0, np.inf, True)
    assert shifted_log_fn(2.0).domain() == (-2.0, np.inf, True)
    assert power_fn(2.0).domain() == (-np.inf, np.inf, False)
    assert power_fn(-1.0).domain() == (0.0, np.inf, True)
    assert power_fn(0.5).domain() == (0.0, np.inf, False)
    assert power_fn(-0.5).domain() == (0.0, np.inf, True)
    assert identity_fn().domain() == (-np.inf, np.inf, False)


def test_check_domain_rejects_boundary_when_open():
    with pytest.raises(DomainError):
        log_fn().check_domain(0.0)
    # closed boundary is fine
    assert power_fn(0.5).check_domain(0.0) == 0.0
    with pytest.raises(DomainError):
        log_fn().check_domain(np.array([1.0, np.inf]))


def test_zero_weight_convention():
    # x * f(x) -> 0 at 0+ decides whether zero-weight summands may be dropped
    assert log_fn().zero_weight_term_vanishes()
    assert identity_fn().zero_weight_term_vanishes()
    assert q_log_fn(1.5).zero_weight_term_vanishes()
    assert not q_log_fn(2.0).zero_weight_term_vanishes()
    assert not q_log_fn(3.0).zero_weight_term_vanishes()
    assert power_fn(-0.5).zero_weight_term_vanishes()
    assert not power_fn(-1.0).zero_weight_term_vanishes()
    assert tabulated_fn([0.0, 1.0], [0.0, 1.0]).zero_weight_term_vanishes()
    assert not tabulated_fn([0.5, 1.0], [0.0, 1.0]).zero_weight_term_vanishes()


def test_labels():
    assert log_fn().label() == "log"
    assert power_fn(0.5).label() == "power(0.5)"
    assert power_fn(0.5, offset=-1.0).label() == "power(0.5)-1"
    assert q_log_fn(1.5).label() == "q_log(1.5)"


def test_parse_function():
    assert parse_function("log") == log_fn()
    assert parse_function("power", 2.0) == power_fn(2.0)
    assert parse_function(" Q_LOG ", 0.5) == FunctionSpec("q_log", param=0.5)
    with pytest.raises(DomainError):
        parse_function("power")
    with pytest.raises(DomainError):
        parse_function("sinh")


def test_specs_are_hashable_and_frozen():
    f = power_fn(0.5)
    assert hash(f) == hash(power_fn(0.5))
    with pytest.raises(AttributeError):
        f.param = 2.0


@settings(max_examples=200)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_qlog_spec_agrees_with_qlog_module(x):
    from logsumineq.qlog import QLogParams, q_log

    for q in (0.3, 1.5, 2.5):
        assert q_log_fn(q)(x) == q_log(x, QLogParams(q))


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8))
def test_vectorized_matches_scalar_loop(values):
    f = shifted_log_fn(0.5)
    arr = np.asarray(values)
    out = f(arr)
    for v, o in zip(values, out):
        assert o == f(float(v))


_MIXED_ROWS = [
    power_fn(0.5),
    power_fn(2.0),
    power_fn(1.3),
    power_fn(1.7),
    q_log_fn(0.4),
    q_log_fn(1.6),
    log_fn(),
    power_fn(0.5, offset=-1.0),
]


# Each spec over a run of rows, as a flat member axis repeats a trial's f over its members.
_REPEATED_ROWS = [f for f in _MIXED_ROWS for _ in range(9)] + _MIXED_ROWS[::-1]


def test_rows_of_mixed_specs_get_the_bits_of_their_own_calls():
    # mixed; repeated; one spec on every row; two equal spec objects, one group
    one, equal = [_MIXED_ROWS[2]] * 70, [_MIXED_ROWS[2], power_fn(1.3)] * 9
    for rows in (_MIXED_ROWS, _REPEATED_ROWS, one, equal):
        X = np.random.default_rng(3).uniform(0.05, 20.0, (len(rows), 7))
        out = _apply_rows(rows, X)
        for t, f in enumerate(rows):
            assert out[t].tobytes() == f(X[t]).tobytes(), f.label()


def test_rows_take_each_distinct_specs_domain_once(monkeypatch):
    calls = []
    real = FunctionSpec.domain

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FunctionSpec, "domain", counted)
    X = np.random.default_rng(3).uniform(0.05, 20.0, (len(_REPEATED_ROWS), 7))
    _apply_rows(_REPEATED_ROWS, X)
    assert calls == _MIXED_ROWS
    calls.clear()
    _apply_rows([log_fn()] + [_MIXED_ROWS[2]] * 40, X[:41])
    assert [f.label() for f in calls] == ["log", "power(1.3)"]


def test_rows_of_mixed_specs_raise_the_first_failing_rows_message():
    X = np.random.default_rng(3).uniform(0.05, 20.0, (len(_MIXED_ROWS), 7))
    X[2, 1] = X[0, 3] = -1.0  # power(1.3) and power(0.5) fall in different groups
    X[6, 0] = np.nan
    with pytest.raises(DomainError) as one_row:
        _MIXED_ROWS[0](X[0])
    with pytest.raises(DomainError) as err:
        _apply_rows(_MIXED_ROWS, X)
    assert str(err.value) == str(one_row.value) == "argument -1.0 outside domain of power(0.5)"
