"""tools/step_costs.py: its sign-test interval against an exact binomial
oracle, its verdicts on recorded per-block times, its in-process harness on
file copies of this repository's package, and its state digest."""

import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ssag.optimizers import SPECS, State

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "tools"), str(REPO / "perfbench")]
# tools/step_costs.py and perfbench/workloads.py
import step_costs  # noqa: E402
from step_costs import _state_digest, sign_interval, summary_line  # noqa: E402
from workloads import LargeNCompare  # noqa: E402


def _coverage(n: int, k: int) -> Fraction:
    """The exact chance that [x_(k), x_(n + 1 - k)] holds the median of n
    draws, 1 - 2 P(B <= k - 1) for B ~ binomial(n, 1/2); 1 for k = 0, the
    whole line."""
    return 1 - 2 * Fraction(sum(math.comb(n, i) for i in range(k)), 2**n)


def test_sign_interval_is_the_tightest_with_95_percent_coverage():
    for n in range(1, 61):
        k = max(k for k in range(n // 2 + 1) if _coverage(n, k) >= Fraction(95, 100))
        # the values given in reverse order: the interval reads them sorted
        low, median, high = sign_interval([float(v) for v in range(n)][::-1])
        assert median == (n - 1) / 2
        assert (low, high) == ((k - 1, n - k) if k else (-math.inf, math.inf)), n
        assert _coverage(n, k) >= Fraction(95, 100) > _coverage(n, k + 1)
    # the first n with a finite interval, and the textbook ranks at 20 and 60
    assert sign_interval(range(5))[0] == -math.inf and sign_interval(range(6))[0] == 0
    assert sign_interval(range(20))[::2] == (5, 14) and sign_interval(range(60))[::2] == (21, 38)


def test_a_leg_apart_from_the_control_reads_better_and_no_control_no_verdict():
    # 20 blocks: the interval runs from the 6th to the 15th smallest ratio
    parent = [1e-3 * (1 + i / 100) for i in range(20)]
    times = {"parent": parent, "change": [0.9 * t for t in parent],
             "control": [t * (1.001 if i % 2 else 0.999) for i, t in enumerate(parent)]}
    assert summary_line("p = 5 sgd", times, 1000) == (
        "p = 5 sgd        parent    1.095 us  change -10.00% [-10.00%, -10.00%]  "
        "control -0.00% [-0.10%, +0.10%]  better")
    del times["control"]
    assert summary_line("p = 5 sgd", times, 1000).endswith("change -10.00% [-10.00%, -10.00%]")


#: Microseconds per p = 5 SSAG step in 48 consecutive blocks of 1000 steps,
#: recorded by step_costs.py's timing loop on a 2-core x86-64 host (numpy
#: 2.4) in one process, the blocks cycling through the six orders of the
#: sides.  "aa" is three exports of one tree; in "extra" the change's
#: ssag_step makes one more ufunc call.
RECORDED = {
    "aa": {
        "parent": [4.836, 5.191, 4.858, 4.605, 8.522, 4.733, 4.795, 5.089, 4.816, 4.676, 7.318,
                   4.739, 4.713, 4.929, 4.707, 4.740, 4.721, 4.975, 4.999, 4.542, 5.508, 4.708,
                   4.881, 5.012, 4.824, 4.947, 4.822, 4.707, 4.765, 8.451, 6.304, 4.699, 4.725,
                   5.326, 5.510, 4.933, 4.667, 4.676, 4.705, 5.464, 4.783, 5.349, 5.020, 8.373,
                   4.932, 4.669, 4.780, 4.638],
        "change": [4.977, 4.540, 4.732, 4.788, 4.683, 4.646, 4.922, 5.154, 4.772, 4.740, 4.848,
                   4.671, 4.674, 5.341, 10.545, 4.870, 7.913, 4.914, 4.669, 4.634, 4.731, 4.691,
                   5.982, 4.886, 4.774, 5.768, 6.305, 4.812, 4.800, 5.288, 4.956, 4.642, 4.524,
                   4.776, 4.990, 4.752, 5.113, 4.832, 4.659, 4.919, 4.815, 4.877, 5.417, 4.737,
                   4.831, 5.456, 4.750, 4.884],
        "control": [5.017, 4.759, 5.559, 4.900, 8.123, 4.875, 5.098, 7.750, 4.888, 4.716, 4.927,
                    4.980, 4.824, 4.865, 4.893, 5.039, 4.790, 8.216, 4.820, 5.174, 4.886, 4.906,
                    4.885, 6.329, 5.021, 6.144, 4.927, 4.849, 5.047, 5.009, 5.018, 5.302, 4.841,
                    4.660, 4.972, 5.216, 6.683, 4.882, 4.897, 4.918, 5.560, 5.023, 8.631, 4.832,
                    5.231, 4.922, 4.827, 4.880],
    },
    "extra": {
        "parent": [5.524, 4.843, 4.757, 8.294, 8.466, 7.778, 8.301, 7.723, 5.693, 4.813, 4.734,
                   4.730, 4.822, 4.698, 5.069, 5.060, 5.056, 4.788, 4.861, 5.281, 4.981, 4.697,
                   4.756, 4.712, 5.362, 5.078, 4.723, 5.981, 5.351, 4.717, 4.904, 4.802, 5.709,
                   5.129, 4.749, 4.879, 5.018, 4.766, 4.871, 4.784, 5.294, 5.111, 4.689, 5.104,
                   4.785, 4.822, 5.884, 8.346],
        "change": [5.315, 5.079, 5.718, 7.342, 8.309, 8.767, 8.202, 5.266, 5.462, 5.157, 6.668,
                   5.364, 5.074, 5.125, 5.019, 4.967, 5.470, 5.509, 5.623, 5.173, 5.066, 5.228,
                   5.110, 5.308, 5.030, 5.107, 5.025, 5.201, 6.738, 5.247, 5.232, 5.375, 5.011,
                   4.995, 5.068, 5.007, 6.210, 5.287, 6.209, 5.095, 5.043, 5.040, 5.069, 5.491,
                   5.014, 5.063, 6.311, 8.948],
        "control": [4.803, 4.776, 4.635, 7.861, 7.835, 8.033, 8.150, 5.529, 4.764, 4.601, 4.756,
                    6.828, 4.769, 4.716, 4.750, 4.833, 4.779, 5.081, 5.064, 4.910, 6.151, 7.438,
                    4.989, 4.697, 5.034, 4.647, 4.732, 5.501, 5.762, 4.739, 4.817, 4.811, 4.643,
                    4.750, 4.619, 4.734, 4.627, 4.682, 4.678, 4.860, 6.275, 4.716, 4.671, 5.159,
                    4.689, 4.603, 4.568, 8.353],
    },
}


def _replay(name):
    return {side: [us * 1e-3 for us in times] for side, times in RECORDED[name].items()}


@pytest.mark.parametrize("blocks, legs", [
    (5, "change +100.00% [-100.00%, +inf%]  control +0.00% [-100.00%, +inf%]  no verdict"),
    (6, "change +100.00% [+100.00%, +100.00%]  control +0.00% [+0.00%, +0.00%]  worse")])
def test_below_6_blocks_a_change_twice_as_slow_reads_no_verdict(blocks, legs):
    # below 6 blocks the sign-test interval is the whole line, which misses
    # no other interval; from 6 on it runs from the smallest ratio to the largest
    times = {"parent": [1e-3] * blocks, "change": [2e-3] * blocks, "control": [1e-3] * blocks}
    assert summary_line("p = 5 sgd", times, 1000).endswith(f"us  {legs}")


def test_recorded_a_a_blocks_read_inside():
    # neither interval holds the other's median, and the control's misses 0:
    # only the overlap of the two says that this is noise
    assert summary_line("p = 5 ssag", _replay("aa"), 1000) == (
        "p = 5 ssag       parent    4.823 us  change -0.87% [-2.05%, +2.03%]  "
        "control +3.85% [+1.46%, +5.42%]  inside")


def test_recorded_blocks_of_one_more_ufunc_read_worse():
    assert summary_line("p = 5 ssag", _replay("extra"), 1000).endswith(
        "  change +6.59% [+1.71%, +8.10%]  control -1.91% [-4.54%, +0.08%]  worse")


def _export(tmp_path, name, init="", optimizers=""):
    """A file copy of this repository's package under ``tmp_path / name``,
    as a `git archive` export holds it, with ``init`` and ``optimizers``
    appended to those two modules."""
    package = tmp_path / name / "src" / "ssag"
    shutil.copytree(REPO / "src" / "ssag", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, text in (("__init__.py", init), ("optimizers.py", optimizers)):
        with open(package / module, "a", encoding="utf-8") as fh:
            fh.write(text)
    return package.parents[1]


def _argv(**roots):
    return [arg for side, root in roots.items() for arg in (f"--{side}", str(root))]


def test_the_harness_times_each_drawing_kind_on_both_geometries(tmp_path, capsys):
    # large-n-compare's kinds, less FGD, whose step draws nothing
    assert SPECS["fgd"].source(None, 1) is None
    assert step_costs.KINDS == tuple(kind for kind in LargeNCompare.KINDS if kind[0] != "fgd")
    roots = {side: _export(tmp_path, side) for side in ("parent", "change")}
    assert step_costs.main([*_argv(**roots), "--blocks", "2", "--steps", "3"]) == 0
    # each tree is its own package, loaded from its own files
    for side, root in roots.items():
        assert Path(sys.modules[f"ssag_{side}"].__file__).is_relative_to(root)
    assert sys.modules["ssag_parent"].Dataset is not sys.modules["ssag_change"].Dataset
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 blocks x 3 steps, seed 1, sides parent, change"
    assert [line[:16].rstrip() for line in out[1:]] == [
        f"{geometry} {kind}" for geometry in ("p = 5", "p = 20") for kind, _ in step_costs.KINDS]
    # without a control: the shift and its interval, whole at 2 blocks, and
    # no verdict; equal final states print nothing more
    assert all(line.split("  ")[-1].endswith("[-100.00%, +inf%]") for line in out[1:])
    # each block goes through the tree's segment_stepper: at p = 5, SSAG's
    # is the float segment
    tree = sys.modules["ssag_change"]
    advance = {cell: side[0] for cell, side in
               step_costs.cells(tree, list(step_costs.problems(1)), 3, 1).items()}
    assert [cell for cell, f in advance.items() if f is tree.optimizers._ssag_short_rows] == [
        "p = 5 ssag"]


NUDGE = """

_ssag_step = ssag_step


def ssag_step(state, obj, j, idx):
    _ssag_step(state, obj, j, idx)
    state.W[0] += 1.0
"""


def test_a_differing_digest_names_its_cell_and_fails(tmp_path, capsys):
    roots = {"parent": _export(tmp_path, "parent"),
             "change": _export(tmp_path, "change", optimizers=NUDGE),
             "control": _export(tmp_path, "control")}
    assert step_costs.main([*_argv(**roots), "--blocks", "2", "--steps", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("sides parent, change, control")
    # 2 blocks give each leg the whole line as its interval: no verdict
    assert len(out) == 15 and all(line.endswith("  no verdict") for line in out[1:7] + out[8:14])
    # each DIFFERS line follows its own cell's line
    assert (out[6][:11], out[7]) == ("p = 5 ssag ", "final state DIFFERS: p = 5 ssag")
    assert (out[13][:12], out[14]) == ("p = 20 ssag ", "final state DIFFERS: p = 20 ssag")


@pytest.mark.parametrize("module, name, owner", [
    ("init", "make_state", "ssag_change"),
    ("optimizers", "segment_stepper", "ssag_change.optimizers")])
def test_a_tree_without_make_state_is_refused_by_that_name(tmp_path, module, name, owner):
    # segment_stepper is what times each block: a tree before it is for
    # bench_pairs.py, as is one without make_state
    roots = {"parent": _export(tmp_path, "parent"),
             "change": _export(tmp_path, "change", **{module: f"\ndel {name}\n"})}
    with pytest.raises(SystemExit, match=rf"change: module '{owner}' has no attribute "
                       rf"'{name}'; compare it with tools/bench_pairs\.py"):
        step_costs.main(_argv(**roots))


def test_state_digest_covers_the_table_and_its_sum():
    def state():
        return State(W=np.array([0.5, -1.0]), h=0.1, table=np.array([[1.0, 2.0], [3.0, 4.0]]))

    states = [state() for _ in range(4)]
    states[1].table[1, 0] = 3.5  # one slot differs, the sum does not
    states[2].table_sum[1] = 6.5  # only the running sum differs
    states[3].W[0] = 0.25
    digests = [_state_digest(s) for s in states]
    assert len(set(digests)) == 4
    assert _state_digest(state()) == digests[0]
