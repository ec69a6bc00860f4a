"""The summary of tools/step_costs.py on fixed numbers, and its state digest."""

import sys
from pathlib import Path

import numpy as np

from ssag.optimizers import State

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
# tools/step_costs.py
from step_costs import _state_digest, format_summary, summarize  # noqa: E402


def _child(ssag_us, sgd_us, digest="abc"):
    """One child's output: two kinds on one geometry."""
    return {"p = 5": {"ssag": [ssag_us, digest], "sgd": [sgd_us, "def"]}}


def test_fastest_run_per_side_and_ratio():
    runs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6), _child(6.7, 4.3)],
            "change": [_child(5.9, 4.5), _child(6.1, 4.0), _child(5.8, 4.2)]}
    ssag, sgd = summarize(runs)
    assert (ssag["geometry"], ssag["kind"]) == ("p = 5", "ssag")
    assert (ssag["parent_us"], ssag["change_us"]) == (6.3, 5.8)
    assert ssag["ratio"] == 5.8 / 6.3
    assert (sgd["parent_us"], sgd["change_us"]) == (4.3, 4.0)
    assert ssag["same_w"] and sgd["same_w"]


def test_one_differing_digest_marks_the_kind():
    runs = {"parent": [_child(6.5, 4.4), _child(6.3, 4.6)],
            "change": [_child(5.9, 4.5), _child(6.1, 4.0, digest="abd")]}
    ssag, sgd = summarize(runs)
    assert not ssag["same_w"] and sgd["same_w"]
    lines = format_summary([ssag, sgd]).splitlines()
    assert lines[1].split() == ["p", "=", "5", "ssag", "6.30", "5.90", "0.937", "DIFFER"]
    assert lines[2].split()[-1] == "same"



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
