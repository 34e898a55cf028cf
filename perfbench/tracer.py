"""In-memory span tracing of the verifier's layers, from outside the package.

While `Tracer.installed()` is active, every public function of the layer
modules (functions defined there whose names do not start with ``_``) and
``numpy.linalg.eigh``, ``qr`` and ``svd`` are replaced by wrappers that record
a span: name, start, end and parent span.  A function object is rebound in
every ``logsumineq`` module attribute that holds it, because modules such as
``loewner`` import ``matfun`` names directly.  Everything is restored on exit.

Spans stay in memory until the traced pass ends.  A span's self time is its
duration minus the durations of its child spans.  Layer names follow the
package's modules; ``lapack`` is the wrapped numpy.linalg calls and
``harness`` is the benchmark's own span around each harness call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("matfun", "loewner", "generators", "traceform", "scalar", "qlog")
LAPACK = ("eigh", "qr", "svd")
# Names the per-layer metrics read; any that a later version lacks is
# reported as absent and its metrics as 0.
EXPECTED = (
    "lapack.eigh",
    "lapack.qr",
    "matfun.spectral_decompose",
    "matfun.apply_function",
    "matfun.psd_sqrt",
    "matfun.psd_inverse",
    "matfun.jacobi_eigh",
    "loewner.operator_perspective",
    "loewner.matrix_mean",
    "traceform.joint_spectrum",
    "scalar.convexity_check",
)


class Tracer:
    """Columnar span store plus the verdict counts of the loewner layer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_root: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._stack: list[int] = []
        self.verdicts = 0
        self.trivial_verdicts = 0
        self.jacobi_verdicts = 0
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        parent = self._stack[-1] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_root.append(self.span_root[parent] if parent >= 0 else idx)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _note_verdict(self, result, kwargs) -> None:
        min_eig = getattr(result, "residual_min_eigenvalue", None)
        if min_eig is None:
            return
        self.verdicts += 1
        self.trivial_verdicts += min_eig == 0.0
        self.jacobi_verdicts += kwargs.get("solver") == "jacobi"

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        note = self._note_verdict if name.startswith("loewner.") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(result, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions for the duration of the block."""
        targets: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"logsumineq.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for attr in LAPACK:
            obj = getattr(np.linalg, attr, None)
            if obj is not None:
                targets[id(obj)] = (f"lapack.{attr}", obj)
        found = {name for name, _ in targets.values()}
        self.absent = [name for name in EXPECTED if name not in found]
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "logsumineq" or key.startswith("logsumineq.")
        ] + [np.linalg]
        patched = []
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    entry = targets.get(id(obj))
                    if entry is not None and entry[1] is obj:
                        setattr(mod, attr, wrappers[id(obj)])
                        patched.append((mod, attr, obj))
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)

    def aggregate(self, scale: dict[int, float] | None = None) -> dict[str, dict]:
        """Per span name: calls, inclusive and self time in µs.

        `scale` maps a root span index to the factor its call's times are
        multiplied by (the drift normalization); 1 where absent.
        """
        scale = scale or {}
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            k = scale.get(self.span_root[i], 1.0) * 1e-3
            row = out.setdefault(name, {"calls": 0, "us": 0.0, "self_us": 0.0, "outer_us": 0.0})
            row["calls"] += 1
            row["us"] += dur[i] * k
            row["self_us"] += (dur[i] - child[i]) * k
            p = self.span_parent[i]
            if p < 0 or _layer(self.names[self.span_name[p]]) != _layer(name):
                row["outer_us"] += dur[i] * k
        return out

    def spans(self) -> dict:
        """All spans, columnar, for the detail file; starts are relative to the first."""
        t0 = self.span_start[0] if self.span_start else 0
        return {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "start_ns": [t - t0 for t in self.span_start],
            "dur_ns": [e - t for t, e in zip(self.span_start, self.span_end)],
        }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(
    agg: dict[str, dict],
    tracer: Tracer,
    trials: int,
    findings: int,
    overhead_share: float,
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from spans of `trials` trials."""

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def per_call(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "us") / calls if calls else 0.0

    def layer_sum(layer: str, key: str) -> float:
        return sum(row[key] for name, row in agg.items() if _layer(name) == layer)

    rechecks = tracer.jacobi_verdicts
    values = {
        "lapack.eigh.calls_per_trial": get("lapack.eigh", "calls") / trials,
        "lapack.eigh.us_per_trial": get("lapack.eigh", "us") / trials,
        "lapack.qr.calls_per_trial": get("lapack.qr", "calls") / trials,
        "matfun.spectral_decompose.calls_per_trial": get("matfun.spectral_decompose", "calls")
        / trials,
        "matfun.spectral_decompose.us_per_call": per_call("matfun.spectral_decompose"),
        "matfun.apply_function.us_per_call": per_call("matfun.apply_function"),
        "matfun.psd_sqrt.calls_per_trial": get("matfun.psd_sqrt", "calls") / trials,
        "matfun.psd_inverse.calls_per_trial": get("matfun.psd_inverse", "calls") / trials,
        "matfun.self_us_per_trial": layer_sum("matfun", "self_us") / trials,
        "matfun.jacobi_eigh.calls_per_trial": get("matfun.jacobi_eigh", "calls") / trials,
        "matfun.jacobi_eigh.us_per_trial": get("matfun.jacobi_eigh", "us") / trials,
        "search.recheck_share": rechecks / trials,
        "search.confirm_share": findings / rechecks if rechecks else 0.0,
        "loewner.operator_perspective.calls_per_trial": get(
            "loewner.operator_perspective", "calls"
        )
        / trials,
        "loewner.operator_perspective.us_per_call": per_call("loewner.operator_perspective"),
        "loewner.matrix_mean.calls_per_trial": get("loewner.matrix_mean", "calls") / trials,
        "loewner.self_us_per_trial": layer_sum("loewner", "self_us") / trials,
        "loewner.trivial_verdict_share": (
            tracer.trivial_verdicts / tracer.verdicts if tracer.verdicts else 0.0
        ),
        "generators.calls_per_trial": layer_sum("generators", "calls") / trials,
        "generators.us_per_trial": layer_sum("generators", "outer_us") / trials,
        "traceform.joint_spectrum.us_per_call": per_call("traceform.joint_spectrum"),
        "traceform.self_us_per_trial": layer_sum("traceform", "self_us") / trials,
        "scalar.convexity_check.calls_per_trial": get("scalar.convexity_check", "calls") / trials,
        "scalar.self_us_per_trial": layer_sum("scalar", "self_us") / trials,
        "qlog.us_per_trial": layer_sum("qlog", "outer_us") / trials,
        "harness.self_us_per_trial": layer_sum("harness", "self_us") / trials,
        "trace.overhead_share": overhead_share,
    }
    return {name: float(value) for name, value in values.items()}
