"""Benchmark of the ssag package: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

    python3 perfbench/run.py --workload ssag-envelope --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when a check fails.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: BLAS threads; one keeps timings steady on a small shared machine.
BLAS_THREADS = 1
#: Seconds one repetition of each workload took on the reference machine (see
#: README.md).  A run makes round(--seconds / REP_SECONDS) repetitions, so
#: every version of the code is measured over the same number of them.
REP_SECONDS = {"ssag-envelope": 5.0, "large-n-compare": 7.0, "mlp-glyph": 3.5}
#: A run makes at least this many repetitions.
MIN_REPS = 3
#: A traced run alternates untraced and traced executions, half as many pairs
#: as an untraced run makes repetitions, and at least this many.
MIN_TRACE_PAIRS = 2

WORKLOAD_NAMES = ("ssag-envelope", "large-n-compare", "mlp-glyph")
KINDS = ("fgd", "sgd", "minibatch", "sag", "saga", "svrg", "ssag")

END_TO_END = {"total_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB", "pass_frac": "frac"}

#: Spans reported as calls and self microseconds per call.
PER_CALL = ("sampling.sample_class", "sampling.sample_within_class",
            "sampling.sample_uniform", "objectives.grad_class_batch",
            "objectives.grad_batch", "objectives.grad_full", "objectives.loss_full",
            "objectives.grad_samples", "objectives.accuracy",
            *(f"optimizers.step.{k}" for k in KINDS), "optimizers.recompute_sum",
            "core.gradient_population_stats", "core.squared_distance",
            "theory.theorem2_bound")
#: Spans reported as self seconds per workload execution.
SELF_SECONDS = ("optimizers.run", "core.estimate_constants", "theory.reference_optimum",
                "theory.theorem2_inputs_for", "theory.check_envelope", "records.aggregate",
                "ingest.read_idx", "ingest.gen_synthetic", "bench.build_dataset",
                "bench.emit_csv", "bench.emit_summary_csv", "bench.emit_plot")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in PER_CALL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us"] = "us"
    units["objectives.grad_full.incl_us"] = "us"
    units["objectives.grad_batch.rows"] = "count"
    units["objectives.bytes_read"] = "bytes_computed"
    units["optimizers.make_state.us"] = "us"
    for name in SELF_SECONDS:
        units[f"{name}.s"] = "s"
    units["theory.reference_optimum.incl_s"] = "s"
    units["theory.reference_optimum.grad_full_calls"] = "count"
    units["ingest.read_idx.bytes"] = "bytes"
    units["bench.emit_csv.bytes"] = "bytes"
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "frac"
    units["trace.step_residual_us"] = "us"
    return units


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test; timings are meaningless")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _git_revision() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    for path in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def _layer_metrics(tracer, untraced, traced) -> dict[str, float]:
    """Per-layer metrics of one traced execution, against one untraced."""
    m = {}
    for name in PER_CALL:
        calls, _, self_s = tracer.totals(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.us"] = self_s / calls * 1e6 if calls else 0.0
    # grad_full and reference_optimum do their work in child spans, so their
    # inclusive times are what isolates the full-data kernel and the polish
    calls, total_s, _ = tracer.totals("objectives.grad_full")
    m["objectives.grad_full.incl_us"] = total_s / calls * 1e6 if calls else 0.0
    m["objectives.grad_batch.rows"] = tracer.counters.get("objectives.grad_batch.rows", 0)
    m["objectives.bytes_read"] = tracer.counters.get("objectives.bytes_read", 0)
    calls, _, self_s = tracer.totals("optimizers.make_state")
    m["optimizers.make_state.us"] = self_s / calls * 1e6 if calls else 0.0
    for name in SELF_SECONDS:
        m[f"{name}.s"] = tracer.totals(name)[2]
    m["theory.reference_optimum.incl_s"] = tracer.totals("theory.reference_optimum")[1]
    m["theory.reference_optimum.grad_full_calls"] = (
        tracer.totals("objectives.grad_full", "theory.reference_optimum")[0])
    m["ingest.read_idx.bytes"] = tracer.counters.get("ingest.read_idx.bytes", 0)
    m["bench.emit_csv.bytes"] = tracer.counters.get("bench.emit_csv.bytes", 0)
    m["trace.spans"] = tracer.n_spans
    m["trace.overhead_frac"] = traced.run_s / untraced.run_s - 1.0
    m["trace.step_residual_us"] = 0.0
    return m


#: Spans that make up one SSAG step, as (name, parent) edges.
SSAG_STEP_EDGES = {
    "class draw": [("sampling.sample_class", "optimizers.step.ssag")],
    "within-class draw": [("sampling.sample_within_class", "optimizers.step.ssag")],
    "class-batch gradient": [("objectives.grad_class_batch", "optimizers.step.ssag"),
                             ("objectives.grad_batch", "objectives.grad_class_batch")],
    "update and guard": [("optimizers.step.ssag", "optimizers.run")],
}


def _step_accounting(tracer, untraced, overhead_frac: float) -> tuple[dict, float, bool]:
    """Per-step self times of an SSAG step against the untraced time per step.

    Returns the layer table in microseconds, the residual (untraced per-step
    time minus the traced per-step self times) and whether the residual lies
    within the tracing overhead.
    """
    steps = tracer.totals("optimizers.step.ssag", "optimizers.run")[0]
    table = {part: sum(tracer.totals(*edge)[2] for edge in edges) / steps * 1e6
             for part, edges in SSAG_STEP_EDGES.items()}
    untraced_us = untraced.run_s / untraced.steps * 1e6
    residual = untraced_us - sum(table.values())
    table["untraced step"] = untraced_us
    return table, residual, abs(residual) <= max(overhead_frac, 0.0) * untraced_us


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    import resource

    import hostspeed
    import spans
    import workloads

    workload_cls = workloads.WORKLOADS[name]
    out_dir = HERE / "out" / (f"tiny-{name}" if tiny else name)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_reps = max(MIN_REPS, round(seconds / REP_SECONDS[name]))
    if trace:
        n_reps = max(MIN_TRACE_PAIRS, n_reps // 2)
    untraced, probes, traced, tracers = [], [], [], []
    for _ in range(n_reps):
        if spans.installed_wrappers():
            raise RuntimeError("untraced execution found tracing wrappers installed")
        probes.append(hostspeed.Probe())
        untraced.append(workload_cls(seed, tiny, out_dir).execute(probes[-1]))
        if trace:
            tracers.append(spans.Tracer())
            with tracers[-1].installed():
                traced.append(workload_cls(seed, tiny, out_dir).execute())
    reps = untraced + traced
    digests = {r.digest for r in reps}
    checks = {check: all(r.checks[check] for r in reps) for check in reps[0].checks}
    checks["deterministic"] = len({(r.digest, r.steps) for r in untraced}) == 1
    if trace:
        checks["trace_neutral"] = len(digests) == 1
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    report = {"workload": name, "seed": seed, "records_digest": sorted(digests),
              "reps": [_rep_report(r, p) for r, p in zip(untraced, probes)],
              "traced_reps": [_rep_report(r) for r in traced]}
    if trace:
        # the fastest execution of each kind had the least interference
        fast = min(range(len(traced)), key=lambda i: traced[i].run_s)
        tracer, fast_traced = tracers[fast], traced[fast]
        fast_untraced = min(untraced, key=lambda r: r.run_s)
        metrics = _layer_metrics(tracer, fast_untraced, fast_traced)
        if name == "ssag-envelope":
            table, residual, ok = _step_accounting(tracer, fast_untraced,
                                                   metrics["trace.overhead_frac"])
            metrics["trace.step_residual_us"] = residual
            checks["step_accounting"] = ok
            report["ssag_step_us"] = table
        units = per_layer_units()
        (out_dir / "spans.json").write_text(json.dumps(tracer.dump(), indent=1))
    else:
        # wall times scaled to reference host speed (hostspeed.py)
        slowdown = [p.slowdown() for p in probes]
        metrics = {
            "total_s": statistics.median(r.total_s / f for r, f in zip(untraced, slowdown)),
            "setup_s": statistics.median(r.setup_s / f for r, f in zip(untraced, slowdown)),
            "steps_per_s": untraced[0].steps / statistics.median(
                r.run_s / f for r, f in zip(untraced, slowdown)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    report["checks"] = checks
    correct = failed == 0 and all(checks.values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    report["result"] = result
    return result, report, out_dir


def _rep_report(rep, probe=None) -> dict:
    out = {**vars(rep), "total_s": rep.total_s}
    if probe is not None:
        out["host"] = {"burst_s": statistics.median(probe.burst_s),
                       "bursts": len(probe.burst_s), "slowdown": probe.slowdown()}
    return out


def _print_report(report: dict) -> None:
    name = report["workload"]
    for rep_no, rep in enumerate(report["reps"]):
        print(f"{name}: rep {rep_no}: setup {rep['setup_s']:.3f} s, run {rep['run_s']:.3f} s, "
              f"total {rep['total_s']:.3f} s, host slowdown {rep['host']['slowdown']:.3f}, "
              f"{rep['steps']} steps, "
              f"{rep['failed']}/{rep['attempted']} runs failed, {rep['info']}")
    print(f"{name}: records digest {' '.join(report['records_digest'])}")
    for check, ok in report["checks"].items():
        print(f"{name}: check {check}: {'pass' if ok else 'FAIL'}")
    if "ssag_step_us" in report:
        print(f"{name}: traced SSAG step, self us per step: "
              + ", ".join(f"{k} {v:.1f}" for k, v in report["ssag_step_us"].items()))
    for key, metric in report["result"]["metrics"].items():
        print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is the workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "ssag" / "__init__.py").is_file():
        print(f"error: the ssag package is missing under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    result, report, out_dir = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.tiny)
    report["provenance"] = provenance(args.seed)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"provenance": report["provenance"]}))
    _print_report(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
