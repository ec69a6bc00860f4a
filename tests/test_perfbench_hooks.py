"""The names the benchmark's span tracer patches and its workloads call
still exist in ssag.

perfbench/spans.py wraps functions and methods by name, and
perfbench/workloads.py calls the package by name; renaming or deleting one
of them breaks only the benchmark run, which the tier-1 suite does not
execute.  These checks install the tracer and resolve every workload call
site.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import ssag
from ssag.optimizers import SPECS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import spans  # noqa: E402  (perfbench/spans.py)
from run import SSAG_STEP_EDGES  # noqa: E402  (perfbench/run.py)


def _dotted(node):
    """The dotted name of an attribute chain on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolves(dotted):
    """Whether a dotted name rooted at ssag names a module or an attribute."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:  # a submodule that nothing has imported yet
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_workload_call_sites_resolve():
    # every ssag.<...> chain and every `from ssag... import` in the workloads
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names if alias.name.split(".")[0] == "ssag")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ssag":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and (_dotted(node) or "").split(".")[0] == "ssag":
            names.add(_dotted(node))
    assert {"ssag.run", "ssag.bench.emit_csv", "ssag.optimizers.RunConfig"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []


def test_tracer_installs_and_restores():
    tracer = spans.Tracer()
    with tracer.installed():
        installed = spans.installed_wrappers()
    assert "ssag.optimizers.make_state" in installed
    assert "ssag.optimizers.recompute_sum" in installed
    assert "ssag.optimizers.svrg_outer" in installed
    assert spans.installed_wrappers() == []


def test_step_functions_match_the_registry():
    assert spans.STEP_FUNCTIONS == {kind: spec.step for kind, spec in SPECS.items()}


def test_ssag_step_edges_gradient_and_update_once_per_step_draws_never(random_problem):
    # the benchmark's step accounting sums the self times of these edges; a
    # step that bypasses the gradient or the update edge would leave its time
    # unaccounted.  A step takes its draws from the stream's chunk of step
    # draws, so the two draw edges see no call.
    obj = random_problem(kind="logistic", N=12, p=3)
    config = ssag.RunConfig(kind="ssag", steps=25, h=0.1, cadence=10)
    tracer = spans.Tracer()
    with tracer.installed():
        ssag.run(config, obj)
    calls = {part: [tracer.totals(*edge)[0] for edge in edges]
             for part, edges in SSAG_STEP_EDGES.items()}
    assert calls == {"class draw": [0], "within-class draw": [0],
                     "class-batch gradient": [config.steps] * 2,
                     "update and guard": [config.steps]}


#: (the gradient span a kind's step calls directly, calls per step)
STEP_GRADIENTS = {"ssag": ("objectives.grad_class_batch", 1),
                  "svrg": ("objectives.grad_batch", 2)}


@pytest.mark.parametrize("kind", list(SPECS))
def test_tracer_keeps_each_kind_trajectory_and_step_count(random_problem, kind):
    # perfbench's trace_neutral check and its per-layer counts hold only if
    # a traced step takes the bits of an untraced one, goes through its named
    # step function once per step and calls its gradient through the object
    obj = random_problem(kind="logistic", N=12, p=12)
    config = ssag.RunConfig(kind=kind, steps=40, h=0.1, cadence=10)
    untraced = ssag.run(config, obj)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = ssag.run(config, obj)
    assert traced.content_hash() == untraced.content_hash()
    step_calls = {other: tracer.totals(f"optimizers.step.{other}")[0] for other in SPECS}
    assert step_calls == {other: config.steps if other == kind else 0 for other in SPECS}
    gradient, per_step = STEP_GRADIENTS.get(kind, ("objectives.grad_batch", 1))
    assert tracer.totals(gradient, f"optimizers.step.{kind}")[0] == per_step * config.steps


def test_full_data_calls_count_every_row(random_problem):
    # the full-data kernels read the matrix in place, yet still count N rows
    obj = random_problem(kind="logistic", N=12, p=3)
    N, p = obj.dataset.n_samples, obj.dataset.n_features
    W = np.zeros(p)
    tracer = spans.Tracer()
    with tracer.installed():
        obj.grad_full(W)
        assert tracer.counters == {"objectives.grad_batch.rows": N,
                                   "objectives.bytes_read": N * p * 8}
        obj.loss_full(W)
        assert tracer.counters == {"objectives.grad_batch.rows": N,
                                   "objectives.bytes_read": 2 * N * p * 8}
        ssag.gradient_population_stats(obj, W)
        assert tracer.counters == {"objectives.grad_batch.rows": N,
                                   "objectives.bytes_read": 3 * N * p * 8}
    assert tracer.totals("core.gradient_population_stats")[0] == 1


def test_reference_optimum_makes_few_full_gradient_calls(envelope_problem):
    # the gradient-descent polish took 15 903 grad_full calls on this problem
    obj, const, _ = envelope_problem
    tracer = spans.Tracer()
    with tracer.installed():
        ssag.reference_optimum(obj, constants=const)
    assert tracer.totals("theory.reference_optimum")[0] == 1
    assert 1 <= tracer.totals("objectives.grad_full", "theory.reference_optimum")[0] <= 30
