"""Acceptance gate: one test per release criterion, each at its stated tolerance.

Every test prints a single PASS line on success; a failure shows up as the
usual pytest FAILED line for that criterion.  Tolerance constants are written
out literally so the gate is auditable without chasing indirection.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from logsumineq.functions import identity_fn, log_fn, power_fn
from logsumineq.generators import (
    rand_contraction,
    rand_density,
    rand_density_pair,
    rand_expansive,
    rand_pd,
    rand_psd,
    rand_split_matching,
    rand_unitary,
)
from logsumineq.harness import TrialConfig, counterexample_search
from logsumineq.loewner import (
    mean_monotonicity_residual,
    operator_jensen_residual,
    operator_shannon_residual,
    perspective_sum_residual,
    pooled_inverse_residual,
    pooled_mean_residual,
    split_mean_residual,
)
from logsumineq.matfun import hermitize, make_commuting_pair
from logsumineq.qlog import QLogParams, q_log, q_log_product, q_log_quotient, q_log_reciprocal
from logsumineq.scalar import (
    SequencePair,
    generalized_log_sum_gap,
    q_log_sum_gap,
    reverse_log_sum_gap,
)
from logsumineq.traceform import (
    q_trace_gap,
    quantum_relative_entropy,
    reverse_trace_gap,
    trace_log_sum_gap,
    von_neumann_entropy,
)


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_scalar_log_sum_suite():
    # 10,000 random instances, n <= 16, entries in (0, 10], f = log, g = identity:
    # zero violations at relative tolerance 1e-9; 1,000 forced equality cases stay
    # within 1e-9 * scale of zero.
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        a = 10.0 * (1.0 - rng.random(n))
        b = 10.0 * (1.0 - rng.random(n))
        v = generalized_log_sum_gap(log_fn(), identity_fn(), SequencePair(tuple(a), tuple(b)))
        violations += 0 if v.holds else 1
    assert violations == 0

    equality_bad = 0
    for _ in range(1_000):
        n = int(rng.integers(1, 17))
        b = 10.0 * (1.0 - rng.random(n))
        c = float(rng.uniform(0.1, 5.0))
        a = c * b
        v = generalized_log_sum_gap(log_fn(), identity_fn(), SequencePair(tuple(a), tuple(b)))
        scale = max(1.0, abs(v.lhs), abs(v.rhs))
        equality_bad += 0 if abs(v.gap) <= 1e-9 * scale else 1
    assert equality_bad == 0
    _report("[criterion 01] PASS scalar log-sum: 10000 random + 1000 equality instances clean")


def test_criterion_02_q_log_identity_suite():
    # 10,000 random (x, y, q), q in [-2, 4] excluding |q-1| <= 1e-6: product,
    # quotient, reciprocal, and pseudo-additivity identities hold to 1e-12
    # relative to the largest term each identity combines.
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 10_000:
        q = float(rng.uniform(-2.0, 4.0))
        if abs(q - 1.0) <= 1e-6:
            continue
        checked += 1
        x = float(10.0 * (1.0 - rng.random()))
        y = float(10.0 * (1.0 - rng.random()))
        p = QLogParams(q)
        lx, ly = q_log(x, p), q_log(y, p)

        lhs = q_log(x * y, p)
        rhs = q_log_product(x, y, p)
        scale = max(1.0, abs(lhs), abs(lx), abs(ly), abs((1.0 - q) * lx * ly))
        assert abs(lhs - rhs) <= 1e-12 * scale, (x, y, q, "product")

        lhs = q_log(x / y, p)
        rhs = q_log_quotient(x, y, p)
        scale = max(1.0, abs(lhs), (abs(lx) + abs(ly)) / y ** (1.0 - q))
        assert abs(lhs - rhs) <= 1e-12 * scale, (x, y, q, "quotient")

        lhs = q_log(1.0 / y, p)
        rhs = q_log_reciprocal(y, p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs)), (y, q, "reciprocal")

        term = (1.0 - q) * lx
        assert abs((1.0 + term) - x ** (1.0 - q)) <= 1e-12 * max(
            1.0, abs(x ** (1.0 - q)), abs(term)
        ), (x, q, "pseudo-additivity")
    _report("[criterion 02] PASS q-log identities: 10000 draws, all four identities at 1e-12")


def test_criterion_03_q_direction_suite():
    # 2,000 random positive pairs, forward direction at q in {0, 0.5, 1.5} and
    # reversed direction at q in {2.5, 3}: zero violations either way.
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(2_000):
        n = int(rng.integers(1, 9))
        pair = SequencePair(
            tuple(10.0 * (1.0 - rng.random(n))), tuple(10.0 * (1.0 - rng.random(n)))
        )
        for q in (0.0, 0.5, 1.5, 2.5, 3.0):
            v = q_log_sum_gap(pair, q=q, r=1.0)
            violations += 0 if v.holds else 1
    assert violations == 0
    _report("[criterion 03] PASS q-direction: 2000 pairs x 5 orders, both directions clean")


def test_criterion_04_trace_form_oracle_equivalence():
    # 2,000 random commuting pairs (n <= 8): the trace-form gaps agree with the
    # scalar-module values computed on the generating spectra to 1e-9 relative,
    # and no inequality violations occur.  The generating spectra are known by
    # construction, so the comparison never reuses the module's eigensolver.
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(2_000):
        n = int(rng.integers(1, 9))
        U = rand_unitary(rng, n)
        la = 10.0 * (1.0 - rng.random(n))
        lb = 10.0 * (1.0 - rng.random(n))
        A, B = make_commuting_pair(U, la, lb)
        pair = SequencePair(tuple(la), tuple(lb))

        v = trace_log_sum_gap(log_fn(), identity_fn(), A, B)
        o = generalized_log_sum_gap(log_fn(), identity_fn(), pair)
        assert abs(v.gap - o.gap) <= 1e-9 * max(1.0, abs(v.gap), abs(o.gap))
        violations += 0 if v.holds else 1

        q = float(rng.choice([0.5, 1.5, 2.5]))
        vq = q_trace_gap(A, B, q=q, r=1.0)
        oq = q_log_sum_gap(pair, q=q, r=1.0)
        assert abs(vq.gap - oq.gap) <= 1e-9 * max(1.0, abs(vq.gap), abs(oq.gap))
        violations += 0 if vq.holds else 1

        vr = reverse_trace_gap(log_fn(), identity_fn(), A, B)
        orev = reverse_log_sum_gap(log_fn(), identity_fn(), pair)
        assert abs(vr.gap - orev.gap) <= 1e-9 * max(1.0, abs(vr.gap), abs(orev.gap))
        violations += 0 if vr.holds else 1
    assert violations == 0
    _report("[criterion 04] PASS trace-form oracle equivalence: 2000 commuting pairs, 3 gaps each")


def test_criterion_05_quantum_corollaries():
    # 2,000 commuting density pairs: relative entropy >= -1e-9 and |D| <= 1e-10
    # at rho = sigma; 2,000 densities: entropy within [-1e-9, ln n + 1e-9].
    rng = np.random.default_rng(505)
    for _ in range(2_000):
        n = int(rng.integers(1, 9))
        rho, sigma = rand_density_pair(rng, n)
        assert quantum_relative_entropy(rho, sigma) >= -1e-9
        assert abs(quantum_relative_entropy(rho, rho)) <= 1e-10
    for _ in range(2_000):
        n = int(rng.integers(1, 9))
        S = von_neumann_entropy(rand_density(rng, n))
        assert -1e-9 <= S <= math.log(n) + 1e-9
    _report("[criterion 05] PASS quantum corollaries: 2000 entropy pairs + 2000 entropy bounds")


def test_criterion_06_operator_jensen_suite():
    # 2,000 random contractions with PSD arguments (n <= 6), f = power(1/2):
    # residual minimum eigenvalue >= -1e-8 * scale.
    rng = np.random.default_rng(606)
    f = power_fn(0.5)
    for _ in range(2_000):
        n = int(rng.integers(1, 7))
        C = rand_contraction(rng, n)
        X = rand_psd(rng, n, scale=2.0)
        v = operator_jensen_residual(f, C, X, tol=1e-8)
        assert v.holds, v
    _report("[criterion 06] PASS operator Jensen: 2000 contraction/PSD draws at 1e-8")


def test_criterion_07_perspective_sum_suite():
    # 500 random expansive families (m <= 4, n <= 6) for f = log on spectra
    # bounded away from zero and f = power(1/2): zero violations; the m = 1
    # case is an equality within 1e-10.
    rng = np.random.default_rng(707)
    for f in (log_fn(), power_fn(0.5)):
        for _ in range(500):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            As = [rand_expansive(rng, n) for _ in range(m)]
            Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
            v = perspective_sum_residual(f, As, Bs)
            assert v.holds, (f.label(), m, n, v)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        v = perspective_sum_residual(
            power_fn(0.5), [rand_expansive(rng, n)], [rand_pd(rng, n, (0.5, 2.0))]
        )
        assert abs(v.residual_min_eigenvalue) <= 1e-10
        assert v.residual_norm <= 1e-10
    _report("[criterion 07] PASS perspective sums: 500 families x 2 functions + m=1 equalities")


def test_criterion_08_operator_shannon_suite():
    # 500 random families with matching sums and expansive A parts, f(1) = 0:
    # the aggregate is negative semidefinite within tolerance.
    rng = np.random.default_rng(808)
    f = power_fn(0.5, offset=-1.0)
    for _ in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        As = [rand_expansive(rng, n) for _ in range(m)]
        total = hermitize(sum(As))
        Bs = rand_split_matching(rng, total, m, (0.5, 2.0))
        v = operator_shannon_residual(As, Bs, f)
        assert v.holds, (m, n, v)
    _report("[criterion 08] PASS operator Shannon: 500 sum-matched families NSD")


def test_criterion_09_pooled_and_split_mean_suites():
    # 1,000 random PD families each (m <= 4, n <= 4, f = power(1/2)) for the
    # pooled inverse, pooled mean, split mean, and mean monotonicity residuals:
    # zero violations at the default spectrum window; 1x1 reductions match the
    # directly coded scalar formulas to 1e-12.
    rng = np.random.default_rng(909)
    f = power_fn(0.5)

    for _ in range(1_000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        Xs = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(m)]
        As = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
        assert pooled_inverse_residual(Xs, As).holds

    for _ in range(1_000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        As = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
        Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
        assert pooled_mean_residual(f, As, Bs).holds

    for _ in range(1_000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        As = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
        Bs = [rand_pd(rng, n, (0.5, 2.0)) for _ in range(m)]
        assert split_mean_residual(f, As, Bs).holds

    for _ in range(1_000):
        n = int(rng.integers(1, 5))
        A1 = rand_pd(rng, n, (0.5, 2.0))
        B1 = rand_pd(rng, n, (0.5, 2.0))
        A2 = hermitize(A1 + rand_psd(rng, n, scale=0.5))
        B2 = hermitize(B1 + rand_pd(rng, n, (0.05, 0.5)))
        assert mean_monotonicity_residual(f, A1, B1, A2, B2).holds

    # 1x1 reductions against scalar formulas written out longhand
    for _ in range(2_000):
        m = int(rng.integers(1, 5))
        a = rng.uniform(0.5, 2.0, size=m)
        b = rng.uniform(0.5, 2.0, size=m)
        As = [np.array([[x]], dtype=complex) for x in a]
        Bs = [np.array([[x]], dtype=complex) for x in b]

        pooled = pooled_mean_residual(f, As, Bs).residual_min_eigenvalue
        lhs = (np.sum(np.sqrt(b))) ** 2 / (m * np.sum(np.sqrt(b / a)))
        rhs = math.sqrt(float(np.sum(a)) * float(np.sum(b)))
        assert abs(pooled - (rhs - lhs)) <= 1e-12 * max(1.0, abs(pooled))

        split = split_mean_residual(f, As, Bs).residual_min_eigenvalue
        lhs2 = float(np.sum(a * b / np.sqrt(b / a)))
        rhs2 = (np.sum(np.sqrt(a))) ** 2 / m * math.sqrt(float(np.sum(a)) * float(np.sum(b)))
        assert abs(split - (rhs2 - lhs2)) <= 1e-12 * max(1.0, abs(split))
    _report("[criterion 09] PASS pooled/split means: 4 x 1000 families + 2000 scalar reductions")


def test_criterion_10_cli_determinism(tmp_path):
    # identical CLI invocations produce byte-identical reports modulo wall_time
    args = [
        sys.executable, "-m", "logsumineq", "check",
        "--suite", "trace_log_sum", "--trials", "200", "--seed", "77",
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out1 = subprocess.run(args, capture_output=True, text=True, timeout=600, env=env)
    out2 = subprocess.run(args, capture_output=True, text=True, timeout=600, env=env)
    assert out1.returncode == 0 and out2.returncode == 0
    d1, d2 = json.loads(out1.stdout), json.loads(out2.stdout)
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert json.dumps(d1, indent=2, sort_keys=True) == json.dumps(d2, indent=2, sort_keys=True)
    _report("[criterion 10] PASS determinism: CLI reports byte-identical modulo wall_time")


def test_criterion_11_contractive_search_mode():
    # 10^5 search trials complete without numeric failure and emit a well-formed
    # findings report; the inequality outcome itself carries no pass/fail here.
    cfg = TrialConfig(
        suite="perspective_sum", trials=100_000, seed=1111, n=3, m=2,
        family_kind="contractive",
    )
    rep = counterexample_search(cfg)
    assert rep.trials == 100_000
    assert rep.violations == len(rep.findings)
    assert math.isfinite(rep.worst_gap)
    for finding in rep.findings:
        assert set(finding) == {
            "trial_index", "seed", "n", "m", "f", "lhs_form",
            "first_min_eigenvalue", "recheck_min_eigenvalue",
        }
        assert math.isfinite(finding["recheck_min_eigenvalue"])
    _report(
        "[criterion 11] PASS contractive search: 100000 trials, "
        f"{len(rep.findings)} findings, worst residual {rep.worst_gap:+.3e} (informational)"
    )
