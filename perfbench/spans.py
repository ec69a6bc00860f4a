"""Span tracer that times calls into the ssag layers from outside.

`Tracer.installed()` replaces each traced function by a timing wrapper in
every ssag namespace that holds it (the package, its modules, and the
objective classes for methods), and puts the originals back on exit.  A
wrapper records the span's name, start, end and parent.  Spans are folded
into one aggregate per (name, parent) edge, so memory stays bounded however
many steps run.  Self time is a span's duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from pathlib import Path
from time import perf_counter

import ssag

#: Modules whose namespaces are searched for references to a traced function.
MODULES = ("ssag", "ssag.core", "ssag.sampling", "ssag.objectives", "ssag.optimizers",
           "ssag.records", "ssag.theory", "ssag.ingest", "ssag.bench")

#: Step functions, by optimizer kind.
STEP_FUNCTIONS = {"ssag": "ssag_step", "sag": "sag_step", "saga": "saga_step",
                  "svrg": "svrg_outer", "fgd": "fgd_step", "sgd": "sgd_step",
                  "minibatch": "minibatch_step"}

#: Objective methods timed on the classes that define them.
OBJECTIVE_METHODS = ("grad_class_batch", "grad_batch", "grad_full", "loss_full",
                     "grad_samples")


def _rows(indices) -> int:
    return int(getattr(indices, "size", 1))


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _bytes_read(obj, rows: int) -> int:
    """Feature bytes a kernel touches, computed as rows * p * 8."""
    return rows * obj.dataset.n_features * 8


def _function_targets():
    """(home module, attribute, span name, counter hook) per traced function.

    A hook receives the call's arguments and result and returns counter
    increments.
    """
    targets = [
        ("ssag.sampling", "sample_class", "sampling.sample_class", None),
        ("ssag.sampling", "sample_within_class", "sampling.sample_within_class", None),
        ("ssag.sampling", "sample_uniform", "sampling.sample_uniform", None),
        ("ssag.optimizers", "recompute_sum", "optimizers.recompute_sum", None),
        ("ssag.optimizers", "run", "optimizers.run", None),
        ("ssag.optimizers", "make_state", "optimizers.make_state", None),
        ("ssag.objectives", "accuracy", "objectives.accuracy",
         lambda a, r: {"objectives.bytes_read": _bytes_read(a[0], a[2].n_samples)}),
        ("ssag.core", "gradient_population_stats", "core.gradient_population_stats", None),
        ("ssag.core", "squared_distance", "core.squared_distance", None),
        ("ssag.core", "estimate_constants", "core.estimate_constants", None),
        ("ssag.theory", "reference_optimum", "theory.reference_optimum", None),
        ("ssag.theory", "theorem2_inputs_for", "theory.theorem2_inputs_for", None),
        ("ssag.theory", "theorem2_bound", "theory.theorem2_bound", None),
        ("ssag.theory", "check_envelope", "theory.check_envelope", None),
        ("ssag.records", "aggregate", "records.aggregate", None),
        ("ssag.ingest", "read_idx", "ingest.read_idx",
         lambda a, r: {"ingest.read_idx.bytes": _file_bytes(a[0], a[1])}),
        ("ssag.ingest", "gen_synthetic", "ingest.gen_synthetic", None),
        ("ssag.bench", "build_dataset", "bench.build_dataset", None),
        ("ssag.bench", "emit_csv", "bench.emit_csv",
         lambda a, r: {"bench.emit_csv.bytes": _file_bytes(*r)}),
        ("ssag.bench", "emit_summary_csv", "bench.emit_summary_csv", None),
        ("ssag.bench", "emit_plot", "bench.emit_plot", None),
    ]
    targets += [("ssag.optimizers", fn, f"optimizers.step.{kind}", None)
                for kind, fn in STEP_FUNCTIONS.items()]
    return targets


def _method_hook(cls, method):
    """Counter hook for an objective method, or None."""
    if method == "grad_batch":
        return lambda a, r: {"objectives.grad_batch.rows": _rows(a[2]),
                             "objectives.bytes_read": _bytes_read(a[0], _rows(a[2]))}
    if method == "loss_full":
        return lambda a, r: {"objectives.bytes_read":
                             _bytes_read(a[0], a[0].dataset.n_samples)}
    if method == "grad_samples" and issubclass(cls, ssag.objectives._LinearObjective):
        # the MLP computes grad_samples through grad_batch, which counts itself
        return lambda a, r: {"objectives.bytes_read": _bytes_read(a[0], _rows(a[2]))}
    return None


class Tracer:
    """Collects spans from wrapped ssag functions while installed."""

    def __init__(self):
        self.edges: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.n_spans = 0
        self._stack: list[list] = []  # open spans: [name, start, child_s]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                key = (name, parent[0] if parent is not None else None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[2]
                self.n_spans += 1
            if hook is not None:
                for counter, amount in hook(args, result).items():
                    self.counters[counter] = self.counters.get(counter, 0) + amount
            return result

        wrapper.perfbench_span = name
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name, hook in _function_targets():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for cls in vars(ssag.objectives).values():
            if not (isinstance(cls, type) and issubclass(cls, ssag.objectives.Objective)):
                continue
            for method in OBJECTIVE_METHODS:
                fn = cls.__dict__.get(method)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                self._patch(cls, method,
                            self._wrap(fn, f"objectives.{method}", _method_hook(cls, method)))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- read-out ---------------------------------------------------------

    def totals(self, name: str, parent: str | None = "*") -> tuple[int, float, float]:
        """(calls, total_s, self_s) of a span name, under one parent or all."""
        calls, total, self_s = 0, 0.0, 0.0
        for (n, p), (c, t, s) in self.edges.items():
            if n == name and (parent == "*" or p == parent):
                calls, total, self_s = calls + c, total + t, self_s + s
        return calls, total, self_s

    def dump(self) -> dict:
        return {
            "n_spans": self.n_spans,
            "edges": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.edges.items(), key=str)],
            "counters": dict(self.counters),
        }


def installed_wrappers() -> list[str]:
    """Names in the ssag namespaces that currently hold a tracing wrapper."""
    found = []
    for m in MODULES:
        for attr, value in vars(importlib.import_module(m)).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{m}.{attr}")
    for cls in vars(ssag.objectives).values():
        if isinstance(cls, type):
            found += [f"{cls.__name__}.{k}" for k, v in vars(cls).items()
                      if hasattr(v, "perfbench_span")]
    return found
