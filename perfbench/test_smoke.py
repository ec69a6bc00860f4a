"""Smoke test of the benchmark: each workload at a tiny size, untraced and
traced.  It checks that every metric is reported with the name and unit that
BENCHMARK.json gives, and that every workload check ran.  It asserts no
timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Every workload the benchmark implements, including mlp-glyph, which
#: BENCHMARK.json leaves out, with the checks it must run.
WORKLOAD_CHECKS = {
    "ssag-envelope": {"no_divergence", "envelope"},
    "large-n-compare": {"no_divergence_and_loss_decreased"},
    "mlp-glyph": {"finite_losses", "test_accuracy"},
}
WORKLOADS = list(WORKLOAD_CHECKS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3",
                           "--seconds", "0", "--tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _units(spec_section):
    return {m["name"]: m["unit"] for m in SPEC[spec_section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_runs_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == _units("per_layer" if trace else "end_to_end")

    report_path = HERE / "out" / f"tiny-{workload}" / f"result-trace{trace}.json"
    report = json.loads(report_path.read_text())
    expected = WORKLOAD_CHECKS[workload] | {"deterministic"}
    if trace:
        expected |= {"trace_neutral"}
        if workload == "ssag-envelope":
            expected |= {"step_accounting"}
    assert set(report["checks"]) == expected
    assert set(report["provenance"]) >= {"nproc", "python", "numpy", "scipy", "blas",
                                         "blas_threads", "git_revision", "seed"}


def test_all_runs_every_workload():
    proc = _bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS
                                      for m in _units("end_to_end")}


def test_benchmark_json_names_implemented_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
