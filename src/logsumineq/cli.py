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
{"a": [...], "b": [...]}; families are lists of exchange matrices. An op is
its library function: its fields are the function's parameters, in order, and
an absent or null optional field takes the function's own default.  A field
that is not one of its parameters is refused.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import harness, loewner, matfun, scalar, traceform
from .errors import DEFAULT_TOLERANCE, DomainError, NumericError, _number
from .functions import FunctionSpec
from .harness import SUITES, TrialConfig, counterexample_search, report_to_json, run_suite
from .matio import matrix_from_obj, matrix_to_obj
from .qlog import QLogParams, q_log, q_log_product, q_log_quotient, q_log_reciprocal
from .scalar import InequalityVerdict, RatioBounds, SequencePair

__all__ = ["main"]


# -- eval input parsing ------------------------------------------------------


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
    )


def _pair(obj) -> SequencePair:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise DomainError("must be an object with lists 'a' and 'b'")
    return SequencePair(tuple(map(_number, obj["a"])), tuple(map(_number, obj["b"])))


def _family(objs) -> list[np.ndarray]:
    if not isinstance(objs, list):
        raise DomainError("must be a list of matrices")
    return [matrix_from_obj(o) for o in objs]


def _floats(values) -> list[float]:
    return [_number(v) for v in values]


def _interval(obj) -> tuple[float, float]:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise DomainError(f"must be a list of two numbers, got {obj!r:.40}")
    return (_number(obj[0]), _number(obj[1]))


def _exactly(kind: type, what: str):
    """Parser that accepts only values of JSON type kind, exactly: no coercion, no bool as int."""

    def parse(value):
        if type(value) is not kind:
            raise DomainError(f"must be {what}, got {value!r}")
        return value

    return parse


# Each eval field is parsed by its name, whatever the op: name -> parser of its JSON value.
_FIELDS = {
    **dict.fromkeys(("x", "y", "q", "r", "tol", "floor"), _number),
    **dict.fromkeys(("f", "g"), _fn),
    **dict.fromkeys(
        ("M", "A", "B", "U", "X", "contraction", "rho", "sigma")
        + ("A_part", "B_part", "A_whole", "B_whole"),
        matrix_from_obj,
    ),
    **dict.fromkeys(("A_family", "B_family", "X_family"), _family),
    **dict.fromkeys(("lambda_a", "lambda_b"), _floats),
    **dict.fromkeys(("h_kind", "lhs_form"), _exactly(str, "a string")),
    "pair": _pair,
    "interval": _interval,
    "grid_points": _exactly(int, "an integer"),
    "require_expansive": _exactly(bool, "true or false"),
}


def _field(doc: dict, parameter: inspect.Parameter):
    """doc's field named parameter.name, parsed; absent or null, the parameter's default."""
    name = parameter.name
    value = doc.get(name)
    if value is None:
        if parameter.default is parameter.empty:
            raise DomainError(f"input document is missing field {name!r}")
        return parameter.default
    try:
        return _FIELDS[name](value)
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise DomainError(f"field {name!r} is malformed: {exc}") from exc


def _q(fn):
    """fn, whose last parameter is a QLogParams, taking its order as the field q instead."""

    @functools.wraps(fn)
    def call(*args):
        return fn(*args[:-1], QLogParams(args[-1]))

    *head, params = inspect.signature(fn).parameters.values()
    call.__signature__ = inspect.Signature([*head, params.replace(name="q")])
    return call


# op -> its library function, whose parameters, in order, are the op's fields
EVAL_OPS = {
    fn.__name__: fn
    for fn in (
        *map(_q, (q_log, q_log_product, q_log_quotient, q_log_reciprocal)),
        scalar.ratio_bounds,
        scalar.convexity_check,
        scalar.generalized_log_sum_gap,
        scalar.reverse_log_sum_gap,
        scalar.rational_example_gap,
        scalar.q_log_sum_gap,
        matfun.hermitize,
        matfun.spectral_decompose,
        matfun.apply_function,
        matfun.loewner_leq,
        matfun.make_commuting_pair,
        matfun.psd_inverse,
        matfun.psd_sqrt,
        traceform.trace_log_sum_gap,
        traceform.exp_log_trace_gap,
        traceform.quantum_relative_entropy,
        traceform.von_neumann_entropy,
        traceform.q_trace_gap,
        traceform.reverse_trace_gap,
        loewner.operator_jensen_residual,
        loewner.perspective_sum_residual,
        loewner.perspective_identity_gap,
        loewner.operator_shannon_residual,
        loewner.pooled_inverse_residual,
        loewner.matrix_mean,
        loewner.pooled_mean_residual,
        loewner.split_mean_residual,
        loewner.mean_monotonicity_residual,
    )
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
    fn = EVAL_OPS[args.op]
    parameters = inspect.signature(fn).parameters
    for name in doc:
        if name not in parameters:
            raise DomainError(f"op {args.op!r} takes no field {name!r}")
    rendered = _render(fn(*(_field(doc, p) for p in parameters.values())))
    try:
        text = json.dumps(rendered, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity, which strict JSON cannot hold
        raise NumericError(f"{args.op} gave a result that is not finite") from exc
    sys.stdout.write(text + "\n")
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
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--spectrum-lo", type=float, default=harness.DEFAULT_SPECTRUM_RANGE[0])
        p.add_argument("--spectrum-hi", type=float, default=harness.DEFAULT_SPECTRUM_RANGE[1])
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
