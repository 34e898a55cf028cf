"""Matrix exchange format.

A matrix travels as a JSON object {"n": int, "re": n x n reals, "im": n x n
reals}; n is a JSON integer >= 1 and every entry a finite JSON number.
Values are serialized with 17 significant digits, which round-trips IEEE
doubles exactly; bit-exact text round-trip is not promised.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionError, DomainError, _number
from .matfun import _as_square_complex

__all__ = ["matrix_to_obj", "matrix_from_obj", "dump_matrix", "load_matrix"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def matrix_to_obj(M) -> dict:
    """Exchange dict for a square complex matrix (parse of dump_matrix output).

    The format carries neither a non-finite entry (a DomainError here) nor a shape other than
    (n, n) with n >= 1 (a DimensionError), so no document it writes is one that
    matrix_from_obj refuses.
    """
    A = _as_square_complex(M, "matrix")
    return {
        "n": A.shape[0],
        "re": [[float(_fmt(v)) for v in row] for row in A.real],
        "im": [[float(_fmt(v)) for v in row] for row in A.imag],
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"n", "re", "im"} <= set(obj):
        raise DomainError("matrix object must have fields n, re, im")
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    parts = obj["re"], obj["im"]
    for part in parts:
        if not (isinstance(part, list) and len(part) == n) or any(
            not isinstance(row, list) or len(row) != n for row in part
        ):
            raise DimensionError(f"re/im must be {n}x{n} lists")
    re, im = (np.array([[_number(v) for v in row] for row in part]) for part in parts)
    return re + 1j * im


def dump_matrix(M) -> str:
    """Serialize one matrix, re/im entries written with 17 significant digits."""
    obj = matrix_to_obj(M)

    def rows(part: list) -> str:
        return ",\n    ".join("[" + ", ".join(_fmt(v) for v in row) + "]" for row in part)

    return (
        "{\n"
        f'  "n": {obj["n"]},\n'
        f'  "re": [\n    {rows(obj["re"])}\n  ],\n'
        f'  "im": [\n    {rows(obj["im"])}\n  ]\n'
        "}\n"
    )


def load_matrix(text: str) -> np.ndarray:
    return matrix_from_obj(json.loads(text))
