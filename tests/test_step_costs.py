"""The summary of tools/step_costs.py on fixed numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from step_costs import format_summary, summarize  # noqa: E402  (tools/step_costs.py)


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
