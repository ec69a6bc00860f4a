"""tools/step_costs.py: its child's cells, its state digest, and its report
through the summary of tools/bench_pairs.py on fixed and recorded numbers,
with and without an A/A leg."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ssag.optimizers import SPECS, State

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "tools"), str(REPO / "perfbench")]
# tools/step_costs.py, tools/bench_pairs.py and perfbench/workloads.py
import step_costs  # noqa: E402
from bench_pairs import Run, format_summary, summarize  # noqa: E402
from step_costs import _state_digest  # noqa: E402
from workloads import LargeNCompare  # noqa: E402


def _child(ssag_us, sgd_us, digest="abc"):
    """One child's output: two kinds on one geometry."""
    return {"p = 5 ssag": [ssag_us, digest], "p = 5 sgd": [sgd_us, "def"]}


def _main(monkeypatch, tmp_path, outputs, *argv):
    """`step_costs.main` on a checkout per side of ``outputs``, whose
    children print their lists of child outputs in turn."""
    for side in outputs:
        (tmp_path / side).mkdir()

    def child_stdout(cmd, checkout, ok=(0,)):
        return "a child's log line\n" + json.dumps(outputs[checkout.name].pop(0)) + "\n"

    monkeypatch.setattr(step_costs, "child_stdout", child_stdout)
    return step_costs.main([arg for side in outputs for arg in (f"--{side}", str(tmp_path / side))]
                           + list(argv))


def test_a_child_times_each_drawing_kind_of_large_n_compare():
    # a real child on this checkout's sources: every kind of large-n-compare
    # whose step takes a draw, in its order, on both geometries, and the same
    # final states when run again
    run = step_costs.run_child(REPO, steps=2, repeats=1, seed=1)
    kinds = [kind for kind, _ in LargeNCompare.KINDS if kind != "fgd"]
    assert SPECS["fgd"].source(None, 1) is None
    assert list(run.metrics) == [f"{geometry} {kind}" for geometry in ("p = 5", "p = 20")
                                 for kind in kinds]
    assert all(us > 0 for us in run.metrics.values()) and run.correct
    assert len(set(run.digests)) == len(run.metrics)
    assert step_costs.run_child(REPO, steps=2, repeats=1, seed=1).digests == run.digests


def test_medians_and_shift_through_the_shared_summary(monkeypatch, capsys, tmp_path):
    # each child's time is its fastest repeat; a side's figure is their median
    outputs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6), _child(6.7, 4.3)],
               "change": [_child(5.9, 4.5), _child(6.1, 4.0), _child(5.8, 4.2)]}
    assert _main(monkeypatch, tmp_path, outputs, "--rounds", "3") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 0 parent: p = 5 ssag 6.500, p = 5 sgd 4.400"
    ssag = next(line for line in out if line.startswith("p = 5 ssag "))
    # median 6.5 against 5.9, IQR 6.6 - 6.4; the change won all three rounds
    assert ssag.split()[4:] == ["us", "6.5", "0.2", "5.9", "-9.23%", "3/3", "lower"]
    assert not any(line.startswith(("verdict", "final state")) for line in out)
    assert out[-2].startswith("records digests: same in every run")


def test_a_differing_digest_names_its_cell_and_fails(monkeypatch, capsys, tmp_path):
    outputs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6), _child(6.6, 4.5)],
               "change": [_child(5.9, 4.5), _child(6.1, 4.0, digest="abd"), _child(6.0, 4.2)]}
    assert _main(monkeypatch, tmp_path, outputs, "--rounds", "3") == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("final state")] == [
        "final state DIFFERS: p = 5 ssag"]
    assert "records digests: DIFFER between runs: abc abd def" in out


def test_ten_rounds_by_default(monkeypatch, capsys, tmp_path):
    outputs = {side: [_child(6.0 + r / 10, 4.0) for r in range(10)]
               for side in ("parent", "change")}
    assert _main(monkeypatch, tmp_path, outputs) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[19] == "pair 9 parent: p = 5 ssag 6.900, p = 5 sgd 4.000"
    assert out[20].startswith("10 rounds x 3 repeats")


#: Microseconds per p = 5 step of three kinds, each round's fastest of three
#: repeats of 20 000 steps, recorded by ``step_costs.py --rounds 5 --control``
#: on three exports of one tree (2-core x86-64, numpy 2.4), in round order.
RECORDED = {"parent": {"ssag": [3.620, 2.732, 2.734, 2.698, 2.938],
                       "sag": [2.728, 2.624, 2.573, 2.552, 2.754],
                       "sgd": [2.033, 2.025, 2.008, 1.960, 2.018]},
            "change": {"ssag": [2.773, 2.750, 3.145, 2.755, 2.750],
                       "sag": [2.678, 2.591, 3.142, 2.567, 2.532],
                       "sgd": [2.128, 1.980, 2.118, 2.013, 2.014]},
            "control": {"ssag": [2.705, 2.769, 2.765, 2.686, 2.771],
                        "sag": [2.503, 2.583, 2.599, 2.547, 2.571],
                        "sgd": [1.997, 2.060, 2.000, 2.062, 2.002]}}


def _replayed(slower=1.10):
    """RECORDED as each side's child outputs, with a fourth kind that is the
    parent's SSAG on the parent and control sides, and ``slower`` times it
    in every round on the change's."""
    kinds = {side: {**times, "slower ssag": times["ssag"]} for side, times in RECORDED.items()}
    kinds["change"]["slower ssag"] = [slower * us for us in RECORDED["parent"]["ssag"]]
    return {side: [{f"p = 5 {kind}": [us[r], "abc"] for kind, us in times.items()}
                   for r in range(5)] for side, times in kinds.items()}


def test_recorded_rounds_read_inside_and_a_slower_kind_worse():
    runs = {side: [Run({cell: us for cell, (us, _) in child.items()},
                       tuple(digest for _, digest in child.values()), True) for child in children]
            for side, children in _replayed().items()}
    cells = [{"name": cell, "unit": "us", "better": "lower"} for cell in runs["parent"][0].metrics]
    rows = {row["name"]: row for row in summarize(cells, runs)}
    for kind in ("ssag", "sag", "sgd"):
        assert (rows[f"p = 5 {kind}"]["verdict"], rows[f"p = 5 {kind}"]["bound"]) == (
            "inside A/A band", None)
    slower = rows["p = 5 slower ssag"]
    assert (slower["verdict"], slower["bound"]) == ("worse", "the parent's Q3")
    assert slower["change_shift"] == pytest.approx(0.10)
    assert rows["p = 5 ssag"]["aa_shift"] == 2.765 / 2.734 - 1
    lines = format_summary(list(rows.values()), runs).splitlines()
    # the name column widens to the longest cell, the 17 characters of
    # "p = 5 slower ssag"
    assert lines[0].startswith(f"{'metric':<17} unit ")
    assert lines[1].startswith(f"{'p = 5 ssag':<17} us ")
    # parent Q1 2.732 and Q3 2.938; the control beat the parent in rounds 0,
    # 3 and 4, and its per-round ratios less 1 have quartiles -5.68 % and 1.13 %
    assert lines[1].split()[4:] == ["us", "2.734", "0.206", "2.755", "+0.77%", "2/5", "+1.13%",
                                    "6.82%", "3/5", "lower"]
    inside = [f"verdict p = 5 {kind}: inside A/A band" for kind in ("ssag", "sag", "sgd")]
    assert lines[5:9] == [*inside, "verdict p = 5 slower ssag: worse, past the parent's Q3"]


def test_main_runs_the_control_leg(monkeypatch, capsys, tmp_path):
    assert _main(monkeypatch, tmp_path, _replayed(), "--rounds", "5") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("pair 0 parent: p = 5 ssag 3.620, p = 5 sag 2.728, p = 5 sgd 2.033, "
                      "p = 5 slower ssag 3.620")
    assert [line.split(":")[0] for line in out[3:6]] == [
        "pair 1 control", "pair 1 change", "pair 1 parent"]
    assert "verdict p = 5 slower ssag: worse, past the parent's Q3" in out
    assert out[-1] == "runs with a failed check: 0"


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
