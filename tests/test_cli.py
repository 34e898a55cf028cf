"""CLI surface: subcommands, exit codes, JSON output, determinism."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logsumineq import cli, loewner, matfun, qlog, scalar, traceform
from logsumineq.functions import identity_fn, log_fn, power_fn
from logsumineq.matio import matrix_to_obj


_SRC = str(Path(__file__).resolve().parents[1] / "src")
# the package on the child's path, installed or not
_PATH = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
_ENV = {**os.environ, "PYTHONPATH": _PATH}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "logsumineq", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=_ENV,
    )


def test_check_clean_suite_exits_zero():
    proc = run_cli("check", "--suite", "scalar_log_sum", "--trials", "200", "--seed", "42")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["violations"] == 0
    assert doc["trials"] == 200


def test_check_unknown_suite_exits_two():
    proc = run_cli("check", "--suite", "bogus")
    assert proc.returncode == 2


def test_check_bad_config_exits_two():
    proc = run_cli("check", "--suite", "scalar_log_sum", "--dim", "0")
    assert proc.returncode == 2


def test_check_report_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "check", "--suite", "entropy_bound", "--trials", "50", "--seed", "3",
        "--report", str(out),
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text()) == json.loads(proc.stdout)


def test_check_deterministic_modulo_wall_time():
    args = ("check", "--suite", "q_log_sum", "--trials", "300", "--seed", "11")
    d1 = json.loads(run_cli(*args).stdout)
    d2 = json.loads(run_cli(*args).stdout)
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2


def test_search_exits_zero_even_with_findings():
    # sum_fb form over contractive families does produce findings; still exit 0
    proc = run_cli(
        "search", "--mode", "contractive", "--trials", "2000", "--seed", "2",
        "--dim", "3", "--m", "2", "--lhs-form", "sum_fb",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "contractive_search"
    assert doc["violations"] == len(doc["findings"])


def test_search_requires_mode():
    proc = run_cli("search", "--trials", "10")
    assert proc.returncode == 2


def test_eval_scalar_op(tmp_path):
    doc = {"f": {"family": "log"}, "g": {"family": "identity"}, "pair": {"a": [1, 2], "b": [2, 1]}}
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("eval", "--op", "generalized_log_sum_gap", "--input", str(p))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["holds"] is True
    assert out["gap"] == pytest.approx(np.log(2.0), rel=1e-12)


def test_eval_matrix_op(tmp_path):
    doc = {
        "A": matrix_to_obj(np.diag([1.0, 2.0]).astype(complex)),
        "B": matrix_to_obj(np.diag([2.0, 1.0]).astype(complex)),
        "f": {"family": "log"},
        "g": {"family": "identity"},
    }
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("eval", "--op", "trace_log_sum_gap", "--input", str(p))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["gap"] == pytest.approx(np.log(2.0), rel=1e-12)


def test_eval_failing_verdict_exits_one(tmp_path):
    # frozen split-mean counterexample: runs fine, verdict is negative
    one = lambda x: matrix_to_obj(np.array([[x]], dtype=complex))
    doc = {
        "f": {"family": "power", "param": 0.5},
        "A_family": [one(4.0), one(0.01)],
        "B_family": [one(1.0), one(1.0)],
    }
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("eval", "--op", "split_mean_residual", "--input", str(p))
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["holds"] is False
    assert out["residual_min_eigenvalue"] == pytest.approx(-1.7565272039987212, rel=1e-10)


def test_eval_domain_error_exits_two(tmp_path):
    doc = {"x": -1.0, "q": 0.5}
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("eval", "--op", "q_log", "--input", str(p))
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize(
    "op", ["trace_log_sum_gap", "exp_log_trace_gap", "q_trace_gap", "reverse_trace_gap"]
)
def test_eval_non_hermitian_b_exits_two(tmp_path, capsys, op):
    doc = {**EVAL_FIXTURES[op][0], "B": _m(np.array([[2.0, 1.0], [0.0, 2.0]]))}
    code, out, err = _eval(tmp_path, capsys, op, doc)
    assert (code, out) == (2, "")
    assert err.startswith("error: B is not Hermitian")


@pytest.mark.parametrize(
    "op, field, what",
    [
        ("perspective_sum_residual", "A_family", "A_family[0]"),
        ("split_mean_residual", "B_family", "B_family[0]"),
        ("operator_jensen_residual", "X", "X"),
        ("loewner_leq", "B", "B"),
    ],
)
def test_eval_loewner_non_hermitian_input_exits_two(tmp_path, capsys, op, field, what):
    bad = _m(np.array([[2.0, 1.0], [0.0, 2.0]]))
    doc = dict(EVAL_FIXTURES[op][0])
    doc[field] = [bad, *doc[field][1:]] if field.endswith("_family") else bad
    code, out, err = _eval(tmp_path, capsys, op, doc)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} is not Hermitian")


def test_eval_unknown_op_exits_two(tmp_path):
    p = tmp_path / "in.json"
    p.write_text("{}")
    proc = run_cli("eval", "--op", "not_an_op", "--input", str(p))
    assert proc.returncode == 2
    available = ", ".join(sorted(EVAL_FIXTURES))
    assert proc.stderr == f"error: unknown op 'not_an_op'; available: {available}\n"


def test_eval_unknown_lhs_form_exits_two(tmp_path, capsys):
    doc = {**EVAL_FIXTURES["perspective_sum_residual"][0], "lhs_form": "sum"}
    assert _eval(tmp_path, capsys, "perspective_sum_residual", doc) == (
        2,
        "",
        "error: unknown lhs_form 'sum'\n",
    )


def test_eval_missing_input_file_exits_two():
    proc = run_cli("eval", "--op", "q_log", "--input", "/nonexistent/x.json")
    assert proc.returncode == 2


def test_eval_malformed_json_exits_two(tmp_path):
    p = tmp_path / "in.json"
    p.write_text("{not json")
    proc = run_cli("eval", "--op", "q_log", "--input", str(p))
    assert proc.returncode == 2


def test_eval_matrix_output_round_trips(tmp_path):
    doc = {"A": matrix_to_obj(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))}
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("eval", "--op", "psd_sqrt", "--input", str(p))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    S = np.asarray(out["re"]) + 1j * np.asarray(out["im"])
    assert np.allclose(S @ S, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


# -- eval: every op, fixture document against a direct library call -------------


def _mat(rows):
    return np.array(rows, dtype=complex)


# A and B commute (both are a*I + b*[[0,1],[1,0]]); every family sums to >= 2I.
_A = _mat([[2.0, 1.0], [1.0, 2.0]])
_B = _mat([[3.0, -1.0], [-1.0, 3.0]])
_D = _mat([[1.0, 0.0], [0.0, 2.0]])
_E = _mat([[2.0, 0.0], [0.0, 1.0]])
_B1 = _mat([[2.0, 0.5], [0.5, 2.0]])
_B2 = _A + _D - _B1  # so that B1 + B2 = A + D
_RHO = _mat([[0.5, 0.25], [0.25, 0.5]])
_SIGMA = _mat([[0.5, 0.0], [0.0, 0.5]])
_C = _mat([[0.5, 0.1], [0.0, 0.3]])
_M = _mat([[1.0, 2.0 + 1.0j], [0.0, 3.0]])
_SWAP = _mat([[0.0, 1.0], [1.0, 0.0]])
_X1 = _mat([[1.0, 2.0], [0.0, 1.0]])

_LOG = {"family": "log"}
_ID = {"family": "identity"}
_SQRT = {"family": "power", "param": 0.5}
_PAIR = {"a": [1.0, 2.0], "b": [2.0, 1.0]}
_QP = qlog.QLogParams(0.5)


_m = matrix_to_obj


# op -> (input document, the same call made directly, first field an empty document lacks)
EVAL_FIXTURES = {
    "q_log": ({"x": 2.0, "q": 0.5}, lambda: qlog.q_log(2.0, _QP), "x"),
    "q_log_product": (
        {"x": 2.0, "y": 3.0, "q": 0.5},
        lambda: qlog.q_log_product(2.0, 3.0, _QP),
        "x",
    ),
    "q_log_quotient": (
        {"x": 2.0, "y": 3.0, "q": 0.5},
        lambda: qlog.q_log_quotient(2.0, 3.0, _QP),
        "x",
    ),
    "q_log_reciprocal": ({"y": 3.0, "q": 0.5}, lambda: qlog.q_log_reciprocal(3.0, _QP), "y"),
    "ratio_bounds": (
        {"g": {"family": "power", "param": 2.0}, "pair": _PAIR},
        lambda: scalar.ratio_bounds(power_fn(2.0), scalar.SequencePair((1.0, 2.0), (2.0, 1.0))),
        "g",
    ),
    "convexity_check": (
        {"h_kind": "xfx", "f": _LOG, "interval": [0.5, 4.0], "grid_points": 51},
        lambda: scalar.convexity_check("xfx", log_fn(), (0.5, 4.0), 51),
        "h_kind",
    ),
    "generalized_log_sum_gap": (
        {"f": _LOG, "g": _ID, "pair": _PAIR},
        lambda: scalar.generalized_log_sum_gap(
            log_fn(), identity_fn(), scalar.SequencePair((1.0, 2.0), (2.0, 1.0))
        ),
        "f",
    ),
    "reverse_log_sum_gap": (
        {"f": _LOG, "g": _ID, "pair": _PAIR, "tol": 1e-7},
        lambda: scalar.reverse_log_sum_gap(
            log_fn(), identity_fn(), scalar.SequencePair((1.0, 2.0), (2.0, 1.0)), 1e-7
        ),
        "f",
    ),
    "rational_example_gap": (
        {"pair": {"a": [1.0, 2.0], "b": [1.5, 2.5]}},
        lambda: scalar.rational_example_gap(scalar.SequencePair((1.0, 2.0), (1.5, 2.5))),
        "pair",
    ),
    "q_log_sum_gap": (
        {"pair": _PAIR, "q": 0.5, "r": 1.5},
        lambda: scalar.q_log_sum_gap(scalar.SequencePair((1.0, 2.0), (2.0, 1.0)), 0.5, 1.5),
        "pair",
    ),
    "hermitize": ({"M": _m(_M)}, lambda: matfun.hermitize(_M), "M"),
    "spectral_decompose": ({"A": _m(_A)}, lambda: matfun.spectral_decompose(_A), "A"),
    "apply_function": (
        {"f": _SQRT, "A": _m(_A)},
        lambda: matfun.apply_function(power_fn(0.5), _A),
        "f",
    ),
    "loewner_leq": ({"A": _m(_D), "B": _m(_B)}, lambda: matfun.loewner_leq(_D, _B), "A"),
    "make_commuting_pair": (
        {"U": _m(_SWAP), "lambda_a": [1.0, 2.0], "lambda_b": [3.0, 4.0]},
        lambda: matfun.make_commuting_pair(_SWAP, [1.0, 2.0], [3.0, 4.0]),
        "U",
    ),
    "psd_inverse": (
        {"A": _m(_A), "floor": 1e-6},
        lambda: matfun.psd_inverse(_A, 1e-6),
        "A",
    ),
    "psd_sqrt": ({"A": _m(_A)}, lambda: matfun.psd_sqrt(_A), "A"),
    "trace_log_sum_gap": (
        {"f": _LOG, "g": _ID, "A": _m(_A), "B": _m(_B)},
        lambda: traceform.trace_log_sum_gap(log_fn(), identity_fn(), _A, _B),
        "f",
    ),
    "exp_log_trace_gap": (
        {"A": _m(_A), "B": _m(_B)},
        lambda: traceform.exp_log_trace_gap(_A, _B),
        "A",
    ),
    "quantum_relative_entropy": (
        {"rho": _m(_RHO), "sigma": _m(_SIGMA)},
        lambda: traceform.quantum_relative_entropy(_RHO, _SIGMA),
        "rho",
    ),
    "von_neumann_entropy": ({"rho": _m(_RHO)}, lambda: traceform.von_neumann_entropy(_RHO), "rho"),
    "q_trace_gap": (
        {"A": _m(_A), "B": _m(_B), "q": 0.5, "r": 1.5},
        lambda: traceform.q_trace_gap(_A, _B, 0.5, 1.5),
        "A",
    ),
    "reverse_trace_gap": (
        {"f": _LOG, "g": _ID, "A": _m(_A), "B": _m(_B)},
        lambda: traceform.reverse_trace_gap(log_fn(), identity_fn(), _A, _B),
        "f",
    ),
    "operator_jensen_residual": (
        {"f": _SQRT, "contraction": _m(_C), "X": _m(_A)},
        lambda: loewner.operator_jensen_residual(power_fn(0.5), _C, _A),
        "f",
    ),
    "perspective_sum_residual": (
        {
            "f": _LOG,
            "A_family": [_m(_A), _m(_D)],
            "B_family": [_m(_B), _m(_E)],
            "lhs_form": "sum_fb",
            "require_expansive": False,
        },
        lambda: loewner.perspective_sum_residual(
            log_fn(), [_A, _D], [_B, _E], lhs_form="sum_fb", require_expansive=False
        ),
        "f",
    ),
    "perspective_identity_gap": (
        {"f": _LOG, "A": _m(_D), "B": _m(_A)},
        lambda: loewner.perspective_identity_gap(log_fn(), _D, _A),
        "f",
    ),
    "operator_shannon_residual": (
        {"A_family": [_m(_A), _m(_D)], "B_family": [_m(_B1), _m(_B2)], "f": _LOG},
        lambda: loewner.operator_shannon_residual([_A, _D], [_B1, _B2], log_fn()),
        "A_family",
    ),
    "pooled_inverse_residual": (
        {"X_family": [_m(_X1), _m(_SWAP)], "A_family": [_m(_A), _m(_B)]},
        lambda: loewner.pooled_inverse_residual([_X1, _SWAP], [_A, _B]),
        "X_family",
    ),
    "matrix_mean": (
        {"f": _SQRT, "A": _m(_D), "B": _m(_A)},
        lambda: loewner.matrix_mean(power_fn(0.5), _D, _A),
        "f",
    ),
    "pooled_mean_residual": (
        {"f": _SQRT, "A_family": [_m(_A), _m(_D)], "B_family": [_m(_B), _m(_E)]},
        lambda: loewner.pooled_mean_residual(power_fn(0.5), [_A, _D], [_B, _E]),
        "f",
    ),
    "split_mean_residual": (
        {"f": _SQRT, "A_family": [_m(_A), _m(_D)], "B_family": [_m(_B), _m(_E)]},
        lambda: loewner.split_mean_residual(power_fn(0.5), [_A, _D], [_B, _E]),
        "f",
    ),
    "mean_monotonicity_residual": (
        {
            "f": _SQRT,
            "A_part": _m(_A),
            "B_part": _m(_B),
            "A_whole": _m(_A + np.eye(2)),
            "B_whole": _m(_B + 0.5 * np.eye(2)),
        },
        lambda: loewner.mean_monotonicity_residual(
            power_fn(0.5), _A, _B, _A + np.eye(2), _B + 0.5 * np.eye(2)
        ),
        "f",
    ),
}


def _eval(tmp_path, capsys, op, doc):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    code = cli.main(["eval", "--op", op, "--input", str(p)])
    out, err = capsys.readouterr()
    return code, out, err


def test_every_eval_op_has_a_fixture():
    assert sorted(EVAL_FIXTURES) == sorted(cli.EVAL_OPS)


@pytest.mark.parametrize("op", sorted(cli.EVAL_OPS))
def test_eval_op_matches_direct_call(tmp_path, capsys, op):
    doc, direct, _ = EVAL_FIXTURES[op]
    code, out, err = _eval(tmp_path, capsys, op, doc)
    rendered = cli._render(direct())
    assert (out, err) == (json.dumps(rendered, indent=2, sort_keys=True) + "\n", "")
    assert code == (1 if rendered.get("holds") is False else 0)


def _parameters(op):
    return inspect.signature(cli.EVAL_OPS[op]).parameters.values()


_OPTIONAL = sorted(
    op for op in cli.EVAL_OPS if any(p.default is not p.empty for p in _parameters(op))
)


@pytest.mark.parametrize("op", _OPTIONAL)
def test_eval_of_the_required_fields_alone_matches_a_call_of_the_required_arguments(
    tmp_path, capsys, op
):
    # every optional field takes the default of the function itself, not a second copy
    required = [p for p in _parameters(op) if p.default is p.empty]
    doc = {p.name: EVAL_FIXTURES[op][0][p.name] for p in required}
    code, out, err = _eval(tmp_path, capsys, op, doc)
    rendered = cli._render(cli.EVAL_OPS[op](*(cli._field(doc, p) for p in required)))
    assert (out, err) == (json.dumps(rendered, indent=2, sort_keys=True) + "\n", "")
    assert code == (1 if rendered.get("holds") is False else 0)


@pytest.mark.parametrize("op", sorted(cli.EVAL_OPS))
def test_eval_empty_document_names_first_field(tmp_path, capsys, op):
    first = EVAL_FIXTURES[op][2]
    assert _eval(tmp_path, capsys, op, {}) == (
        2,
        "",
        f"error: input document is missing field {first!r}\n",
    )


# Malformed values of every eval field, mostly of the wrong JSON type: a number
# field takes neither a list, a bool, a string, an integer beyond float range
# nor NaN or an infinity, and grid_points takes JSON integers only.
_NOT_NUMBERS = [[1.0], True, "1", 10**400, float("nan"), float("inf"), -float("inf")]
# a matrix's n is a JSON integer, and its entries are numbers as above
_NOT_MATRICES = [
    5,
    {"n": 2.9, "re": [["2", True], [True, "3.5"]], "im": [[0, 0], [0, 0]]},
    {"n": True, "re": [[2.0]], "im": [[0.0]]},
    {"n": 2, "re": [["2", True], [True, "3.5"]], "im": [[0, 0], [0, 0]]},
]
_WRONG_TYPED = {
    **dict.fromkeys(("x", "y", "q", "r", "tol", "floor"), _NOT_NUMBERS),
    "grid_points": [[1.0], True, "1", 3.9],
    "f": [5, {"family": "power", "param": "0.5"}],
    "g": [5, {"family": "identity", "offset": True}],
    "pair": [5, {"a": [True, 2.0], "b": [1.0, 2.0]}],
    "interval": [5, [True, 2.0], [1, 2, 3], [1.0]],  # exactly two numbers
    **dict.fromkeys(("lambda_a", "lambda_b"), [5, ["1", "2"]]),
    **dict.fromkeys(("h_kind", "lhs_form"), [5]),
    **dict.fromkeys(("M", "A", "B", "U", "X", "contraction", "rho", "sigma"), _NOT_MATRICES),
    **dict.fromkeys(("A_part", "B_part", "A_whole", "B_whole"), _NOT_MATRICES),
    **dict.fromkeys(("A_family", "B_family", "X_family"), [5]),
    "require_expansive": ["false"],
}


@pytest.mark.parametrize("name", sorted(cli._FIELDS))
def test_eval_wrong_typed_field_exits_two_naming_it(tmp_path, capsys, name):
    op = next(op for op in cli.EVAL_OPS if name in inspect.signature(cli.EVAL_OPS[op]).parameters)
    for value in _WRONG_TYPED[name]:
        doc = {**EVAL_FIXTURES[op][0], name: value}
        code, out, err = _eval(tmp_path, capsys, op, doc)
        assert (code, out) == (2, ""), value
        assert err.startswith(f"error: field {name!r} is malformed: "), value


@pytest.mark.parametrize(
    "op, field, value",
    [("loewner_leq", "tolerance", 0.9), ("spectral_decompose", "solver", "jacobi")],
)
def test_eval_refuses_a_field_its_op_does_not_take(tmp_path, capsys, op, field, value):
    # a misspelled optional field (tol is loewner_leq's) is refused, not dropped for a default
    doc = {**EVAL_FIXTURES[op][0], field: value}
    assert _eval(tmp_path, capsys, op, doc) == (
        2,
        "",
        f"error: op {op!r} takes no field {field!r}\n",
    )


@pytest.mark.parametrize("points", [100_001, 10**400], ids=["100001", "10^400"])
def test_eval_grid_points_beyond_range_exits_two(tmp_path, capsys, points):
    doc = {**EVAL_FIXTURES["convexity_check"][0], "grid_points": points}
    assert _eval(tmp_path, capsys, "convexity_check", doc) == (
        2,
        "",
        "error: grid_points must be in [3, 100000]\n",
    )


def test_eval_grid_points_defaults_to_the_scalar_layers_constant():
    # written once, in scalar: eval's default is convexity_check's own default object, and
    # that is the constant read by name, not a second literal (a small int is one object
    # however it is written, so the source is read too)
    doc = dict(EVAL_FIXTURES["convexity_check"][0])
    doc.pop("grid_points", None)
    parameter = inspect.signature(scalar.convexity_check).parameters["grid_points"]
    assert cli._field(doc, parameter) is scalar.DEFAULT_GRID_POINTS
    definition = ast.parse(inspect.getsource(scalar.convexity_check)).body[0]
    assert [ast.unparse(d) for d in definition.args.defaults] == ["DEFAULT_GRID_POINTS"]
    assert "DEFAULT_GRID_POINTS" not in Path(cli.__file__).read_text()


# Inputs whose sums overflow: generalized_log_sum_gap's and q_log_sum_gap's sums, refused
# before f sees them, reverse_log_sum_gap's sum(a) (rhs = inf * 0), ratio_bounds' ratios
# a_i / b_i, q_log's x^(1-q), q_log_product's product term and the division by y^(1-q) of
# q_log_quotient and q_log_reciprocal.  A sum, side, bound or value that is not finite is a
# numeric failure, not a violation, and never a NaN or an infinity in eval's output, which
# strict JSON cannot hold; the message names the sums or the verdict's sides, or else the op.
# None warns first: under pytest's filterwarnings = error a warning would escape.
_IDENTITY = {"family": "identity"}
_OVERFLOWS = {
    "generalized_log_sum_gap": (
        {"f": _IDENTITY, "g": _IDENTITY, "pair": {"a": [1e308, 1e308], "b": [1.0, 1.0]}},
        "the sums of g(a_i) and g(b_i) must be finite, got inf and 2.0",
    ),
    "q_log_sum_gap": (
        {"pair": {"a": [1e308, 1e308], "b": [1.0, 1.0]}, "q": 0.5, "r": 1.0},
        "the sums of a_i**r and b_i**r must be finite, got inf and 2.0",
    ),
    "reverse_log_sum_gap": (
        {"f": _IDENTITY, "g": _IDENTITY, "pair": {"a": [1e308, 1e308], "b": [1.0, 1.0]}},
        "the verdict is not finite: lhs 1.9999999999999998, rhs nan, gap nan",
    ),
    "ratio_bounds": (
        {"g": _IDENTITY, "pair": {"a": [1e308, 1e308], "b": [1e-308, 1e-308]}},
        "ratio_bounds gave a result that is not finite",
    ),
    "q_log": ({"x": 1e300, "q": -5}, "q_log gave a result that is not finite"),
    "q_log_product": (
        {"x": 1e150, "y": 1e150, "q": -1.0},
        "q_log_product gave a result that is not finite",
    ),
    "q_log_quotient": (
        {"x": 1.0, "y": 1e-300, "q": -1.0},
        "q_log_quotient gave a result that is not finite",
    ),
    "q_log_reciprocal": (
        {"y": 1e-300, "q": -1.0},
        "q_log_reciprocal gave a result that is not finite",
    ),
}


@pytest.mark.parametrize("op", sorted(_OVERFLOWS))
def test_eval_result_that_is_not_finite_exits_three(tmp_path, capsys, op):
    doc, message = _OVERFLOWS[op]
    assert _eval(tmp_path, capsys, op, doc) == (3, "", f"numeric failure: {message}\n")


@pytest.mark.parametrize("op", ["q_log", "q_log_product", "q_log_quotient", "q_log_reciprocal"])
def test_eval_q_log_refuses_a_result_that_is_not_finite_without_warning(tmp_path, capsys, op):
    # under pytest's filterwarnings = error: a warning would escape as an exception
    doc, message = _OVERFLOWS[op]
    assert _eval(tmp_path, capsys, op, doc) == (3, "", f"numeric failure: {message}\n")


def test_eval_q_log_identity_names_y_when_it_refuses_y(tmp_path, capsys):
    assert _eval(tmp_path, capsys, "q_log_reciprocal", {"y": -1, "q": 0.5}) == (
        2,
        "",
        "error: y must be strictly positive\n",
    )


def test_eval_non_object_document_exits_two(tmp_path, capsys):
    assert _eval(tmp_path, capsys, "q_log", [2.0, 0.5]) == (
        2,
        "",
        "error: input document must be a JSON object\n",
    )


# -- check --suite all ------------------------------------------------------------


def _check(capsys, *args):
    code = cli.main(["check", *args])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


def test_check_all_equals_single_suite_checks(tmp_path, capsys):
    # a wide spectrum window at n = 1 gives split_mean violations
    common = ("--trials", "30", "--seed", "5", "--dim", "1")
    common += ("--spectrum-lo", "0.01", "--spectrum-hi", "4")
    out = tmp_path / "all.json"
    code, reports = _check(capsys, "--suite", "all", *common, "--report", str(out))
    assert json.loads(out.read_text()) == reports
    assert [r["suite"] for r in reports] == sorted(cli.SUITES)
    codes = []
    for report in reports:
        single_code, single = _check(capsys, "--suite", report["suite"], *common)
        codes.append(single_code)
        report.pop("wall_time")
        single.pop("wall_time")
        assert report == single
    assert 1 in codes
    assert code == max(codes) == 1
