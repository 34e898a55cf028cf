"""The package's hygiene, read from the source: what it exports, what each module imports,
and where each check's tolerance is pinned."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import logsumineq

SRC = Path(logsumineq.__file__).parent
BOUNDARIES = Path(__file__).with_name("test_boundaries.py")
ROOT = Path(__file__).resolve().parents[1]
_NOQA = re.compile(r"#\s*noqa: F401\s*\S")  # a marker followed by its reason


def _imports(tree: ast.Module):
    """(name bound, line) of every top-level import except __future__ features."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_package_exports_every_public_name_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {name for name, _ in _imports(tree) if not name.startswith("_")}
    assert len(logsumineq.__all__) == len(set(logsumineq.__all__))
    assert set(logsumineq.__all__) == imported


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            for elt in node.value.elts
        }
        for name, line in _imports(tree):
            if name not in used | exported and not _NOQA.search(lines[line - 1]):
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []


def _tolerances(tree: ast.Module):
    """(line, node) of every _holds(gap, scale, tol) call's last argument and tolerance= keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "_holds":
                yield node.lineno, node.args[-1]
            yield from ((node.lineno, kw.value) for kw in node.keywords if kw.arg == "tolerance")


def _named_tolerances(tree: ast.Module):
    """(line, name) of every module-level constant whose name ends in _TOL, _RTOL or _ATOL."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.endswith(("_TOL", "_RTOL", "_ATOL")):
                    yield node.lineno, target.id


def test_every_named_tolerance_is_written_out_in_the_boundary_tests():
    # a check's tolerance is a name, a call or an attribute, never a literal; a module
    # constant among them, and every module constant named as a tolerance (which may reach
    # _holds through an argument), is assigned, with its value, at the top of test_boundaries.py
    written = {
        target.id: node.value.value
        for node in ast.parse(BOUNDARIES.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    literal, unpinned, constants = [], [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"logsumineq.{path.stem}")
        names = list(_named_tolerances(tree))
        for line, tol in _tolerances(tree):
            if not isinstance(tol, (ast.Name, ast.Call, ast.Attribute)):
                literal.append(f"{path.name}:{line}")
            elif isinstance(tol, ast.Name) and tol.id.lstrip("_").isupper():
                constants += 1
                names.append((line, tol.id))
        for line, name in names:
            value = getattr(module, name)
            if written.get(name) != value:
                unpinned.append(f"{path.name}:{line} {name} = {value!r}")
    assert literal == [] and unpinned == []
    assert constants >= 10


def _benchmark_runs(doc):
    """Every run of the benchmark in a trajectory document, at any depth: a mapping that names
    its workload and summarizes its pairs.  A run of another command names no workload."""
    if isinstance(doc, dict):
        if "workload" in doc and "summary" in doc:
            yield doc
        for value in doc.values():
            yield from _benchmark_runs(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _benchmark_runs(value)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_a_trajectory_file_claims_a_benchmark_metric_over_ten_pairs(path):
    # a BENCH_*.json file claims an end-to-end metric of BENCHMARK.json on one of its
    # workloads, its benchmark runs summarize only such metrics, and it ran the claimed
    # workload on one seed in at least ten pairs
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    doc = json.loads(path.read_text())
    claim = doc["claim"]
    assert claim["workload"] in workloads and claim["metric"] in metrics
    runs = list(_benchmark_runs(doc))
    assert runs and all(run["workload"] in workloads for run in runs)
    assert all(set(run["summary"]) <= metrics for run in runs)
    claimed = [run for run in runs if run["workload"] == claim["workload"]]
    assert any(len(run["pairs"]) >= 10 and "seed" in run for run in claimed)
