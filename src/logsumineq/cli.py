"""Command line front-end.

    logsumineq check  --suite scalar_log_sum --trials 10000 --seed 42
    logsumineq check  --suite all --trials 2000 --seed 42
    logsumineq search --mode contractive --trials 100000 --seed 7 --dim 3 --m 2
    logsumineq eval   --op trace_log_sum_gap --input instance.json

Exit codes: 0 no violations, 1 violations found, 2 usage or config error,
3 numeric failure (e.g. eigensolver non-convergence).

eval reads one JSON document whose matrix-valued entries use the exchange
format {"n": int, "re": [[...]], "im": [[...]]}; scalar function arguments
are {"family": name, "param": x, "offset": y}; sequence pairs are
{"a": [...], "b": [...]}; families are lists of exchange matrices.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import harness, loewner, matfun, scalar, traceform
from .errors import DomainError, NumericError, _number
from .functions import FunctionSpec
from .harness import SUITES, TrialConfig, counterexample_search, report_to_json, run_suite
from .matio import matrix_from_obj, matrix_to_obj
from .qlog import QLogParams, q_log, q_log_product, q_log_quotient, q_log_reciprocal
from .scalar import InequalityVerdict, RatioBounds, SequencePair

__all__ = ["main"]


# -- eval input parsing ------------------------------------------------------

_REQUIRED = object()


def _fn(obj) -> FunctionSpec:
    if not isinstance(obj, dict) or "family" not in obj:
        raise DomainError("must be an object with a 'family' name")
    grid = obj.get("grid")
    if grid is not None:
        grid = (tuple(map(_number, grid[0])), tuple(map(_number, grid[1])))
    return FunctionSpec(
        family=str(obj["family"]),
        param=None if obj.get("param") is None else _number(obj["param"]),
        offset=_number(obj.get("offset", 0.0)),
        grid=grid,
        limit_window=_number(obj.get("limit_window", 1e-9)),
    )


def _pair(obj) -> SequencePair:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise DomainError("must be an object with lists 'a' and 'b'")
    return SequencePair(tuple(map(_number, obj["a"])), tuple(map(_number, obj["b"])))


def _family(objs) -> list[np.ndarray]:
    if not isinstance(objs, list) or not objs:
        raise DomainError("must be a non-empty list of matrices")
    return [matrix_from_obj(o) for o in objs]


def _floats(values) -> list[float]:
    return [_number(v) for v in values]


def _interval(obj) -> tuple[float, float]:
    return (_number(obj[0]), _number(obj[1]))


def _exactly(kind: type, what: str):
    """Parser that accepts only values of JSON type kind, exactly: no coercion, no bool as int."""

    def parse(value):
        if type(value) is not kind:
            raise DomainError(f"must be {what}, got {value!r}")
        return value

    return parse


_string = _exactly(str, "a string")

# Each eval argument is parsed by its field name, whatever the op: name ->
# (parser of the JSON value, default when the field is absent or null).
_FIELDS = {
    **dict.fromkeys(("x", "y", "q", "r"), (_number, _REQUIRED)),
    **dict.fromkeys(("f", "g"), (_fn, _REQUIRED)),
    **dict.fromkeys(
        ("M", "A", "B", "U", "X", "contraction", "rho", "sigma")
        + ("A_part", "B_part", "A_whole", "B_whole"),
        (matrix_from_obj, _REQUIRED),
    ),
    **dict.fromkeys(("A_family", "B_family", "X_family"), (_family, _REQUIRED)),
    **dict.fromkeys(("lambda_a", "lambda_b"), (_floats, _REQUIRED)),
    "pair": (_pair, _REQUIRED),
    "h_kind": (_string, _REQUIRED),
    "interval": (_interval, _REQUIRED),
    "limit_window": (_number, 1e-9),
    "tol": (_number, 1e-9),
    "grid_points": (_exactly(int, "an integer"), 101),
    "solver": (_string, "eigh"),
    "floor": (_number, None),
    "lhs_form": (_string, "perspective_sum"),
    "require_expansive": (_exactly(bool, "true or false"), True),
}


def _field(doc: dict, name: str):
    """The eval argument name, read from doc; a malformed value is a DomainError naming it."""
    parse, default = _FIELDS[name]
    value = doc.get(name)
    if value is None:
        if default is _REQUIRED:
            raise DomainError(f"input document is missing field {name!r}")
        return default
    try:
        return parse(value)
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise DomainError(f"field {name!r} is malformed: {exc}") from exc


def _q(fn):
    """fn, whose last argument is a QLogParams, taking the fields q and limit_window instead."""
    return lambda *args: fn(*args[:-2], QLogParams(*args[-2:]))


# op -> (function, the fields passed as its positional arguments, in order)
EVAL_OPS = {
    "q_log": (_q(q_log), ("x", "q", "limit_window")),
    "q_log_product": (_q(q_log_product), ("x", "y", "q", "limit_window")),
    "q_log_quotient": (_q(q_log_quotient), ("x", "y", "q", "limit_window")),
    "q_log_reciprocal": (_q(q_log_reciprocal), ("y", "q", "limit_window")),
    "ratio_bounds": (scalar.ratio_bounds, ("g", "pair")),
    "convexity_check": (scalar.convexity_check, ("h_kind", "f", "interval", "grid_points")),
    "generalized_log_sum_gap": (scalar.generalized_log_sum_gap, ("f", "g", "pair", "tol")),
    "reverse_log_sum_gap": (scalar.reverse_log_sum_gap, ("f", "g", "pair", "tol")),
    "rational_example_gap": (scalar.rational_example_gap, ("pair", "tol")),
    "q_log_sum_gap": (scalar.q_log_sum_gap, ("pair", "q", "r", "tol")),
    "hermitize": (matfun.hermitize, ("M",)),
    "spectral_decompose": (matfun.spectral_decompose, ("A", "solver")),
    "apply_function": (matfun.apply_function, ("f", "A")),
    "loewner_leq": (matfun.loewner_leq, ("A", "B", "tol")),
    "make_commuting_pair": (matfun.make_commuting_pair, ("U", "lambda_a", "lambda_b")),
    "psd_inverse": (matfun.psd_inverse, ("A", "floor")),
    "psd_sqrt": (matfun.psd_sqrt, ("A",)),
    "trace_log_sum_gap": (traceform.trace_log_sum_gap, ("f", "g", "A", "B", "tol")),
    "exp_log_trace_gap": (traceform.exp_log_trace_gap, ("A", "B", "tol")),
    "quantum_relative_entropy": (traceform.quantum_relative_entropy, ("rho", "sigma")),
    "von_neumann_entropy": (traceform.von_neumann_entropy, ("rho",)),
    "q_trace_gap": (traceform.q_trace_gap, ("A", "B", "q", "r", "tol")),
    "reverse_trace_gap": (traceform.reverse_trace_gap, ("f", "g", "A", "B", "tol")),
    "operator_jensen_residual": (
        loewner.operator_jensen_residual,
        ("f", "contraction", "X", "tol"),
    ),
    "perspective_sum_residual": (
        loewner.perspective_sum_residual,
        ("f", "A_family", "B_family", "lhs_form", "require_expansive", "tol"),
    ),
    "perspective_identity_gap": (loewner.perspective_identity_gap, ("f", "A", "B")),
    "operator_shannon_residual": (
        loewner.operator_shannon_residual,
        ("A_family", "B_family", "f", "tol"),
    ),
    "pooled_inverse_residual": (loewner.pooled_inverse_residual, ("X_family", "A_family", "tol")),
    "matrix_mean": (loewner.matrix_mean, ("f", "A", "B")),
    "pooled_mean_residual": (loewner.pooled_mean_residual, ("f", "A_family", "B_family", "tol")),
    "split_mean_residual": (loewner.split_mean_residual, ("f", "A_family", "B_family", "tol")),
    "mean_monotonicity_residual": (
        loewner.mean_monotonicity_residual,
        ("f", "A_part", "B_part", "A_whole", "B_whole", "tol"),
    ),
}


def _render(result):
    if isinstance(result, (InequalityVerdict, matfun.LoewnerVerdict, RatioBounds)):
        return asdict(result)
    if isinstance(result, matfun.SpectralDecomposition):
        return {
            "eigenvalues": [float(v) for v in result.eigenvalues],
            "unitary": matrix_to_obj(result.unitary),
        }
    if isinstance(result, np.ndarray):
        return matrix_to_obj(result)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], np.ndarray):
        return {"A": matrix_to_obj(result[0]), "B": matrix_to_obj(result[1])}
    if isinstance(result, (bool, np.bool_)):
        return {"value": bool(result)}
    if isinstance(result, (int, float, np.floating)):
        return {"value": float(result)}
    raise NumericError(f"cannot render result of type {type(result).__name__}")


# -- subcommands -------------------------------------------------------------


def _emit(text: str, path: str | None) -> None:
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config(args, **fields) -> TrialConfig:
    """The TrialConfig of the options common to check and search, plus the command's fields."""
    return TrialConfig(
        trials=args.trials,
        seed=args.seed,
        n=args.dim,
        m=args.m,
        tolerance=args.tol,
        spectrum_range=(args.spectrum_lo, args.spectrum_hi),
        **fields,
    )


def _cmd_check(args) -> int:
    config = _config(args, suite=args.suite, family_kind=args.generator)
    if args.suite == "all":
        reports = [run_suite(replace(config, suite=name)) for name in sorted(SUITES)]
        text = json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"
    else:
        reports = [run_suite(config)]
        text = report_to_json(reports[0])
    _emit(text, args.report)
    return 1 if any(r.violations for r in reports) else 0


def _cmd_search(args) -> int:
    config = _config(
        args, suite="perspective_sum", family_kind="contractive", lhs_form=args.lhs_form
    )
    _emit(report_to_json(counterexample_search(config)), args.report)
    # Findings are data, not failures: with lhs_form=perspective_sum the search
    # stress-tests a theorem, with sum_fb it finds the pinned false statement.
    return 0


def _cmd_eval(args) -> int:
    if args.op not in EVAL_OPS:
        raise DomainError(f"unknown op {args.op!r}; available: {', '.join(sorted(EVAL_OPS))}")
    with open(args.input, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("input document must be a JSON object")
    fn, fields = EVAL_OPS[args.op]
    rendered = _render(fn(*(_field(doc, name) for name in fields)))
    sys.stdout.write(json.dumps(rendered, indent=2, sort_keys=True) + "\n")
    if "holds" in rendered and not rendered["holds"]:
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsumineq",
        description="Verify scalar, trace-form, and operator-order log-sum inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_trials, default_dim, default_m):
        p.add_argument("--trials", type=int, default=default_trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dim", type=int, default=default_dim)
        p.add_argument("--m", type=int, default=default_m)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--spectrum-lo", type=float, default=0.5)
        p.add_argument("--spectrum-hi", type=float, default=2.0)
        p.add_argument("--report", type=str, default=None, help="also write the JSON report here")

    p_check = sub.add_parser("check", help="run a registered verification suite")
    p_check.add_argument("--suite", required=True, choices=[*sorted(SUITES), "all"])
    common(p_check, 1000, 4, 2)
    p_check.add_argument(
        "--generator",
        choices=harness.FAMILY_KINDS,
        default="expansive",
        help="the A family's kind; only the perspective_sum suite reads it",
    )
    p_check.set_defaults(fn=_cmd_check)

    p_search = sub.add_parser("search", help="contractive counterexample search (no pass/fail)")
    p_search.add_argument("--mode", required=True, choices=["contractive"])
    common(p_search, 10000, 3, 2)
    p_search.add_argument("--lhs-form", choices=harness.LHS_FORMS, default="perspective_sum")
    p_search.set_defaults(fn=_cmd_search)

    p_eval = sub.add_parser("eval", help="evaluate one operation on a JSON input document")
    p_eval.add_argument("--op", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except (DomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
