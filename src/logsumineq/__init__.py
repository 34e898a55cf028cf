"""Generalized log-sum inequalities: scalar, trace-form, and operator-order.

The package verifies one family of results at three levels of generality:

* scalar sums weighted by an arbitrary positive map, with the classical
  log-sum inequality and its q-deformed relatives as special cases,
* trace inequalities for commuting self-adjoint matrices, including the
  quantum relative entropy corollaries,
* genuine operator (Loewner) order statements built from the operator
  perspective, operator Jensen inequality, and matrix means.

``harness`` wires every checkable statement into seeded randomized suites;
``cli`` exposes them as ``logsumineq check | search | eval``.
"""

from .errors import (
    DimensionError,
    DomainError,
    NumericError,
    PreconditionError,
    SingularityError,
    SupportError,
)
from .functions import (
    FunctionSpec,
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
from .harness import SUITES, SuiteReport, TrialConfig, counterexample_search, report_to_json, run_suite
from .loewner import (
    matrix_mean,
    mean_monotonicity_residual,
    operator_class_flags,
    operator_jensen_residual,
    operator_perspective,
    operator_shannon_residual,
    perspective_identity_gap,
    perspective_sum_residual,
    pooled_inverse_residual,
    pooled_mean_residual,
    split_mean_residual,
)
from .matfun import (
    LoewnerVerdict,
    SpectralDecomposition,
    apply_function,
    commutes,
    hermitize,
    jacobi_eigh,
    loewner_leq,
    make_commuting_pair,
    maxnorm,
    psd_inverse,
    psd_sqrt,
    spectral_decompose,
)
from .matio import dump_matrix, load_matrix, matrix_from_obj, matrix_to_obj
from .qlog import QLogParams, q_log, q_log_product, q_log_quotient, q_log_reciprocal
from .scalar import (
    InequalityVerdict,
    RatioBounds,
    SequencePair,
    convexity_check,
    generalized_log_sum_gap,
    q_log_sum_gap,
    ratio_bounds,
    rational_example_gap,
    reverse_log_sum_gap,
)
from .traceform import (
    exp_log_trace_gap,
    joint_spectrum,
    q_trace_gap,
    quantum_relative_entropy,
    reverse_trace_gap,
    trace_log_sum_gap,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DomainError",
    "FunctionSpec",
    "InequalityVerdict",
    "LoewnerVerdict",
    "NumericError",
    "PreconditionError",
    "QLogParams",
    "RatioBounds",
    "SUITES",
    "SequencePair",
    "SingularityError",
    "SpectralDecomposition",
    "SuiteReport",
    "SupportError",
    "TrialConfig",
    "apply_function",
    "commutes",
    "convexity_check",
    "counterexample_search",
    "dump_matrix",
    "exp_fn",
    "exp_log_trace_gap",
    "generalized_log_sum_gap",
    "hermitize",
    "identity_fn",
    "jacobi_eigh",
    "joint_spectrum",
    "load_matrix",
    "loewner_leq",
    "log_fn",
    "make_commuting_pair",
    "matrix_from_obj",
    "matrix_mean",
    "matrix_to_obj",
    "maxnorm",
    "mean_monotonicity_residual",
    "operator_class_flags",
    "operator_jensen_residual",
    "operator_perspective",
    "operator_shannon_residual",
    "parse_function",
    "perspective_identity_gap",
    "perspective_sum_residual",
    "pooled_inverse_residual",
    "pooled_mean_residual",
    "power_fn",
    "psd_inverse",
    "psd_sqrt",
    "q_log",
    "q_log_fn",
    "q_log_product",
    "q_log_quotient",
    "q_log_reciprocal",
    "q_log_sum_gap",
    "q_trace_gap",
    "quantum_relative_entropy",
    "ratio_bounds",
    "rational_example_gap",
    "rational_fn",
    "report_to_json",
    "reverse_log_sum_gap",
    "reverse_trace_gap",
    "run_suite",
    "shifted_log_fn",
    "spectral_decompose",
    "split_mean_residual",
    "tabulated_fn",
    "trace_log_sum_gap",
    "von_neumann_entropy",
]
