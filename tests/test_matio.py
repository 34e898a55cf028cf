"""JSON matrix exchange format round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.errors import DimensionError, DomainError
from logsumineq.matio import dump_matrix, load_matrix, matrix_from_obj, matrix_to_obj


def test_round_trip_real():
    A = np.array([[1.0, 2.5], [2.5, -3.0]])
    out = load_matrix(dump_matrix(A))
    assert np.array_equal(out, A.astype(complex))


def test_round_trip_complex_exact():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = load_matrix(dump_matrix(A))
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(out, A)


def test_obj_structure():
    obj = matrix_to_obj(np.eye(2))
    assert obj["n"] == 2
    assert obj["re"] == [[1.0, 0.0], [0.0, 1.0]]
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_dump_is_valid_json():
    doc = json.loads(dump_matrix(np.array([[1e-300, 1e300], [0.125, 3.0]])))
    assert doc["n"] == 2


def test_from_obj_validation():
    with pytest.raises(DimensionError):
        matrix_from_obj({"n": 2, "re": [[1.0]], "im": [[0.0]]})  # shape mismatch
    with pytest.raises(DomainError):
        matrix_from_obj({"n": 1, "re": [[1.0]]})  # missing im
    with pytest.raises(DomainError):
        matrix_from_obj({"n": 1, "re": [[float("nan")]], "im": [[0.0]]})
    for n in (True, "1", 1.0, 0):  # n is a JSON integer >= 1
        with pytest.raises(DomainError, match="^n must be an integer >= 1"):
            matrix_from_obj({"n": n, "re": [[1.0]], "im": [[0.0]]})
    for entry in (True, "1", None, [1.0]):  # an entry is a JSON int or float
        with pytest.raises(DomainError, match="^must be a number"):
            matrix_from_obj({"n": 1, "re": [[1.0]], "im": [[entry]]})
    with pytest.raises(DimensionError):
        matrix_from_obj({"n": 1, "re": [1.0], "im": [[0.0]]})  # a row that is not a list


@pytest.mark.parametrize(
    "M, error, message",
    [
        ([[np.nan]], DomainError, "matrix has non-finite entries"),
        ([[np.inf]], DomainError, "matrix has non-finite entries"),
        ([[1.0, complex(0.0, np.inf)], [0.0, 1.0]], DomainError, "matrix has non-finite entries"),
        (np.zeros((0, 0)), DimensionError, "matrix must be square with n >= 1"),
        (np.ones((2, 3)), DimensionError, "matrix must be square with n >= 1"),
    ],
    ids=["nan", "inf", "imaginary-inf", "n=0", "non-square"],
)
@pytest.mark.parametrize("write", [matrix_to_obj, dump_matrix])
def test_what_the_format_cannot_carry_is_not_written(write, M, error, message):
    # matrix_from_obj refuses each of these documents, so neither writer makes one
    with pytest.raises(error, match=f"^{message}"):
        write(M)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_round_trip_property(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=10.0 ** rng.integers(-8, 9), size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(load_matrix(dump_matrix(A)), A)
