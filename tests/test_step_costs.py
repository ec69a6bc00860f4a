"""The summary of tools/step_costs.py on fixed and recorded numbers, its A/A
leg, and its state digest."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ssag.optimizers import State

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
# tools/step_costs.py
import step_costs  # noqa: E402
from step_costs import _state_digest, format_summary, summarize  # noqa: E402


def _child(ssag_us, sgd_us, digest="abc"):
    """One child's output: two kinds on one geometry."""
    return {"p = 5": {"ssag": [ssag_us, digest], "sgd": [sgd_us, "def"]}}


def test_median_round_per_side_and_ratio():
    # each child's time is its fastest repeat; a side's figure is their median
    runs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6), _child(6.7, 4.3)],
            "change": [_child(5.9, 4.5), _child(6.1, 4.0), _child(5.8, 4.2)]}
    ssag, sgd = summarize(runs)
    assert (ssag["geometry"], ssag["kind"]) == ("p = 5", "ssag")
    assert (ssag["parent_us"], ssag["change_us"]) == (6.5, 5.9)
    assert ssag["ratio"] == 5.9 / 6.5
    assert (sgd["parent_us"], sgd["change_us"]) == (4.4, 4.2)
    assert ssag["same_w"] and sgd["same_w"]
    assert "verdict" not in ssag


def test_one_differing_digest_marks_the_kind():
    runs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6), _child(6.6, 4.5)],
            "change": [_child(5.9, 4.5), _child(6.1, 4.0, digest="abd"), _child(6.0, 4.2)]}
    ssag, sgd = summarize(runs)
    assert not ssag["same_w"] and sgd["same_w"]
    lines = format_summary([ssag, sgd]).splitlines()
    assert lines[1].split() == ["p", "=", "5", "ssag", "6.50", "6.00", "0.923", "DIFFER"]
    assert lines[2].split()[-1] == "same"


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
    kinds = {side: {**times, "slower": times["ssag"]} for side, times in RECORDED.items()}
    kinds["change"]["slower"] = [slower * us for us in RECORDED["parent"]["ssag"]]
    return {side: [{"p = 5": {kind: [us[r], "abc"] for kind, us in times.items()}}
                   for r in range(5)] for side, times in kinds.items()}


def test_recorded_rounds_read_inside_and_a_slower_kind_worse():
    rows = {row["kind"]: row for row in summarize(_replayed())}
    for kind in ("ssag", "sag", "sgd"):
        assert (rows[kind]["verdict"], rows[kind]["bound"]) == ("inside A/A band", None)
    assert (rows["slower"]["verdict"], rows["slower"]["bound"]) == ("worse", "the parent's Q3")
    assert rows["slower"]["ratio"] == pytest.approx(1.10)
    assert rows["ssag"]["aa_ratio"] == 2.765 / 2.734
    lines = format_summary(list(rows.values())).splitlines()
    assert lines[0].split()[-3:] == ["state", "A/A", "verdict"]
    assert lines[1].endswith("same  1.011 inside A/A band")
    assert lines[4].endswith("worse, past the parent's Q3")


def test_main_runs_the_control_leg(monkeypatch, capsys, tmp_path):
    replayed = _replayed()
    for side in replayed:
        (tmp_path / side).mkdir()
    monkeypatch.setattr(step_costs, "run_child",
                        lambda checkout, steps, repeats, seed: replayed[checkout.name].pop(0))
    argv = [arg for side in replayed for arg in (f"--{side}", str(tmp_path / side))]
    assert step_costs.main([*argv, "--rounds", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 0 parent: p = 5: ssag 3.620 sag 2.728 sgd 2.033 slower 3.620"
    assert out[-1].endswith("worse, past the parent's Q3")



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
