"""The committed benchmark results (`BENCH_<tag>.json` at the repository root)
report what the benchmark declares.

Each file holds the provenance of one `perfbench/run.py --workload all` run,
its merged metrics line and each workload's records digest.  A speed claim
cites these files, so each must report every end-to-end metric that
BENCHMARK.json lists, for every workload it lists, in the declared unit.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_reports_every_end_to_end_metric(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"python", "numpy", "nproc", "git_revision"} <= set(bench["provenance"])
    metrics = bench["result"]["metrics"]
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for metric in SPEC["end_to_end"]:
            entry = metrics[f"{name}.{metric['name']}"]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert re.fullmatch("[0-9a-f]{64}", bench["records_digest"][name])
