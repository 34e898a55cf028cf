"""The one entry check: every public matrix argument, of a function or of an eval op,
is refused by the same rule, under its parameter's name.

Each case breaks one matrix argument of an otherwise valid call: it is not an array of
numbers (a non-numeric entry, a ragged row, a mapping), not square, not finite, not
Hermitian (where Hermitian is required) or of another shape than the first matrix
checked; a family is not a sequence, is empty or is of another length than the first
family.
The function raises the rule's error with a message that starts with the argument's
name (a family member's is name[k]); eval exits 2 with the same message, or, for what
the exchange format cannot carry, with the refusal of its field.
"""

import inspect
import json

import numpy as np
import pytest

from logsumineq import cli, loewner, matfun, traceform
from logsumineq.errors import DimensionError, DomainError
from logsumineq.matio import matrix_from_obj

# The public matrix functions that no eval op runs.
_FUNCTIONS = {
    fn.__name__: fn
    for fn in (
        matfun.commutes,
        matfun.commutator_maxnorm,
        loewner.operator_perspective,
        traceform.joint_spectrum,
    )
}
_CALLS = {**_FUNCTIONS, **cli.EVAL_OPS}


def _parameters(op):
    """The op's parameters in order, read from its function's signature as eval reads them."""
    return list(inspect.signature(_CALLS[op]).parameters.values())


# Arguments checked square and finite only; every other matrix must be Hermitian too.
_SQUARE = {"M", "U", "contraction", "X_family"}
_SQUARE_IN = {"commutes": {"A", "B"}, "commutator_maxnorm": {"A", "B"}}
_B_FIRST = {"matrix_mean"}  # B is checked before A

# Valid values of the other arguments, read by eval's own field parser.
_OTHER = {
    "f": {"family": "power", "param": 0.5},
    "g": {"family": "identity"},
    "q": 0.5,
    "r": 1.0,
    "lambda_a": [1.0, 2.0],
    "lambda_b": [2.0, 1.0],
}

_VALID = 2.0 * np.eye(2)
_BAD = {
    "non-square": np.ones((2, 3)),
    "non-finite": np.array([[2.0, np.nan], [np.nan, 2.0]]),
    "non-Hermitian": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "shape": 2.0 * np.eye(3),
}
# Values that are not an array of numbers at all, which only a Python call can pass.
_NOT_ARRAYS = {
    "non-numeric": [[2.0, "a"], ["a", 2.0]],
    "ragged": [[2.0, 0.0], [2.0]],
    "mapping": {"a": 1},
}
_BAD.update(_NOT_ARRAYS)


def _kind(field):
    parse = cli._FIELDS[field]
    return "matrix" if parse is matrix_from_obj else "family" if parse is cli._family else None


def _matrices(op):
    """The op's matrix and family parameters in the order they are checked."""
    names = [p.name for p in _parameters(op) if _kind(p.name)]
    return names[::-1] if op in _B_FIRST else names


def _cases():
    for op in sorted(_CALLS):
        matrices = _matrices(op)
        if not matrices:
            continue
        first = f"{matrices[0]}[0]" if _kind(matrices[0]) == "family" else matrices[0]
        for field in matrices:
            family = _kind(field) == "family"
            square = field in _SQUARE | _SQUARE_IN.get(op, set())
            # a family's member [1], which is never the first matrix checked
            name = f"{field}[1]" if family else field
            yield op, field, "non-square", DimensionError, f"{name} must be square"
            yield op, field, "non-finite", DomainError, f"{name} has non-finite entries"
            for case in _NOT_ARRAYS:
                yield op, field, case, DomainError, f"{name} must be an array of numbers"
            if not square:
                yield op, field, "non-Hermitian", DomainError, f"{name} is not Hermitian"
            if name != first:
                yield op, field, "shape", DimensionError, (
                    f"{name} has shape (3, 3), expected {first}'s (2, 2)"
                )
            if family:
                sequence = f"{field} must be a sequence of matrices"
                yield op, field, "not-a-sequence", DomainError, sequence
                empty = f"{field} must contain at least one matrix"
                yield op, field, "empty", DimensionError, empty
                if field != matrices[0]:
                    yield op, field, "length", DimensionError, (
                        f"{field} has length 3, expected {matrices[0]}'s 2"
                    )


_CASES = list(_cases())


def _arguments(op, field, case):
    """The op's arguments with field broken by case: (the Python values, the eval document)."""
    parameters = _parameters(op)
    values = {}
    for name in (p.name for p in parameters):
        if _kind(name) == "matrix":
            values[name] = _VALID
        elif _kind(name) == "family":
            values[name] = [_VALID, _VALID]
    if case == "not-a-sequence":
        values[field] = 3
    elif case == "empty":
        values[field] = []
    elif case == "length":
        values[field] = [_VALID] * 3
    elif _kind(field) == "family":
        values[field] = [_VALID, _BAD[case]]
    else:
        values[field] = _BAD[case]
    doc = {p.name: _OTHER[p.name] for p in parameters if p.name in _OTHER}
    for name, value in values.items():
        if isinstance(value, int):
            doc[name] = value
        else:
            doc[name] = [_obj(M) for M in value] if _kind(name) == "family" else _obj(value)
    args = [values[p.name] if p.name in values else cli._field(doc, p) for p in parameters]
    return args, doc


def _obj(M):
    """M in the exchange format, whatever its shape and entries; a value that is not an
    array as it is."""
    if not isinstance(M, np.ndarray):
        return M
    return {"n": M.shape[0], "re": M.real.tolist(), "im": np.zeros_like(M.real).tolist()}


def test_every_public_matrix_function_and_eval_op_is_covered():
    public = {
        name
        for module in (matfun, loewner, traceform)
        for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    }
    # maxnorm checks nothing, jacobi_eigh takes a stack under its own name, and
    # operator_class_flags and require_operator_class take no matrix
    unchecked = {"maxnorm", "jacobi_eigh", "operator_class_flags", "require_operator_class"}
    covered = {op for op, *_ in _CASES}
    assert public - unchecked <= covered
    assert {op for op in cli.EVAL_OPS if _matrices(op)} <= covered


@pytest.mark.parametrize(
    "op, field, case, error, message",
    _CASES,
    ids=[f"{op}-{field}-{case}" for op, field, case, *_ in _CASES],
)
def test_each_matrix_argument_is_refused_under_its_name(
    tmp_path, capsys, op, field, case, error, message
):
    args, doc = _arguments(op, field, case)
    with pytest.raises(error) as raised:
        _CALLS[op](*args)
    assert str(raised.value).startswith(message)
    if op not in cli.EVAL_OPS:
        return
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["eval", "--op", op, "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    if case in ("non-square", "non-finite", "not-a-sequence", *_NOT_ARRAYS):  # the format's parser
        assert err.startswith(f"error: field {field!r} is malformed")
    else:
        assert err == f"error: {raised.value}\n"
