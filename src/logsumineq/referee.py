"""The 50-digit referee of the trace layer's cross-checks, run as a child interpreter.

    python -m logsumineq.referee < dispute

traceform._referee writes one disputed cross-check to this program's stdin
as a pickle of (quantity, A, B, f, g, q): the name of a Referee method, the
pair's float64 matrices and its functions and order.  The program evaluates
that quantity by the product-path formula with mpmath at 50 digits and
prints it as a float.  mpmath is imported here only, so the verifier's own
process never holds it.
"""

from __future__ import annotations

import bisect
import pickle
import sys

import mpmath

from .functions import FunctionSpec, log_fn
from .qlog import _LIMIT_WINDOW

DIGITS = 50
_LOG = log_fn()


def _value(f: FunctionSpec, x):
    """f(x) in mpmath for a real mpmath number x."""
    p = None if f.param is None else mpmath.mpf(f.param)
    if f.family == "identity":
        y = x
    elif f.family == "log":
        y = mpmath.log(x)
    elif f.family == "exp":
        y = mpmath.exp(x)
    elif f.family == "power":
        y = x**p
    elif f.family == "q_log":
        y = mpmath.log(x)
        if abs(1 - p) > _LIMIT_WINDOW:
            y = mpmath.expm1((1 - p) * y) / (1 - p)
    elif f.family == "shifted_log":
        y = mpmath.log(p + x)
    elif f.family == "rational":
        y = x / (x * x + 2)
    else:  # tabulated: np.interp's linear interpolation
        xs, ys = f.grid
        k = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
        slope = (mpmath.mpf(ys[k + 1]) - ys[k]) / (mpmath.mpf(xs[k + 1]) - xs[k])
        y = ys[k] + slope * (x - xs[k])
    return y + f.offset


class Referee:
    """The cross-checked quantities of one pair, by the product-path formulas, in mpmath."""

    def __init__(self, A, B, f: FunctionSpec | None, g: FunctionSpec | None, q) -> None:
        self.A, self.B = mpmath.matrix(A.tolist()), mpmath.matrix(B.tolist())
        self.f, self.g, self.q = f, g, q

    @staticmethod
    def apply(f: FunctionSpec, x):
        """f at a real number x, or f(x) for a Hermitian matrix x."""
        if not isinstance(x, mpmath.matrix):
            return _value(f, x)
        w, U = mpmath.eighe(x)
        return U * mpmath.diag([_value(f, v) for v in w]) * U.H

    @staticmethod
    def trace(M):
        return mpmath.re(mpmath.fsum(M[i, i] for i in range(M.rows)))

    def product_path(self, reverse: bool = False):
        """traceform._product_path's three traces."""
        gA, gB = self.apply(self.g, self.A), self.apply(self.g, self.B)
        num, den = (gB, gA) if reverse else (gA, gB)
        P = num * den**-1
        core = self.trace(gA * self.apply(self.f, (P + P.H) / 2))
        return self.trace(gA), self.trace(gB), core

    def forward_lhs(self):
        return self.product_path()[2]

    def forward_rhs(self):
        tr_ga, tr_gb, _ = self.product_path()
        return tr_ga * self.apply(self.f, tr_ga / tr_gb)

    def reverse_lhs(self):
        return self.product_path(reverse=True)[2]

    def q_lhs(self):
        _, tr_gb, core = self.product_path()
        return tr_gb ** (1 - mpmath.mpf(self.q)) * core

    def q_rhs(self):
        tr_ga, tr_gb, _ = self.product_path()
        return tr_ga * (self.apply(self.f, tr_ga) - self.apply(self.f, tr_gb))

    def exp_log_lhs(self):
        A, B = self.A, self.B
        return self.trace(A * self.apply(_LOG, A)) - self.trace(A * self.apply(_LOG, B))


def main() -> None:
    quantity, A, B, f, g, q = pickle.load(sys.stdin.buffer)
    with mpmath.workdps(DIGITS):
        print(repr(float(mpmath.re(getattr(Referee(A, B, f, g, q), quantity)()))))


if __name__ == "__main__":
    main()
