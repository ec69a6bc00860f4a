"""The statistics of tools/bench_pairs.py on fixed numbers."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402  (tools/bench_pairs.py)
from bench_pairs import Run, quartiles, same_digests, summarize, wins  # noqa: E402

END_TO_END = [{"name": "steps_per_s", "unit": "1/s", "better": "higher"},
              {"name": "total_s", "unit": "s", "better": "lower"}]


def _runs(values, digest="abc"):
    return [Run({"steps_per_s": v, "total_s": 100.0 / v}, (digest,), True) for v in values]


def test_quartiles_inclusive():
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("better, expected", [("higher", 2), ("lower", 1)])
def test_wins_count_strict_improvements_only(better, expected):
    # rounds: change ahead, tie, change behind, change ahead
    assert wins([10, 10, 10, 10], [11, 10, 9, 12], better) == expected


def test_wins_rejects_an_unknown_direction_and_unpaired_rounds():
    with pytest.raises(ValueError):
        wins([1], [2], "faster")
    with pytest.raises(ValueError):
        wins([1, 2], [2], "higher")


def test_summarize_medians_spread_and_wins():
    runs = {"parent": _runs([100, 102, 98, 101, 99]),
            "change": _runs([101, 102, 97, 103, 99])}
    speed, total = summarize(END_TO_END, runs)
    assert (speed["parent_median"], speed["change_median"]) == (100, 101)
    assert speed["parent_iqr"] == 101 - 99
    # change ahead in rounds 0 and 3, tied in 1 and 4, behind in 2
    assert (speed["change_wins"], speed["pairs"]) == (2, 5)
    # total_s = 100 / steps_per_s: lower is better, so the same rounds win
    assert total["change_wins"] == 2
    assert total["parent_median"] == pytest.approx(1.0)


def test_same_digests():
    assert same_digests({"parent": _runs([1, 2]), "change": _runs([3])})
    assert not same_digests({"parent": _runs([1, 2]), "change": _runs([3], digest="abd")})


def test_parse_output():
    stdout = "\n".join([
        '{"provenance": {}}',
        "ssag-envelope: rep 0: setup 0.1 s",
        "ssag-envelope: records digest 3730fcbb 0badf00d",
        '{"correct": true, "attempted": 9, "failed": 0, "metrics": '
        '{"steps_per_s": {"value": 105300.0, "unit": "1/s"}}}'])
    run = bench_pairs.parse_output(stdout, "ssag-envelope")
    assert run == Run({"steps_per_s": 105300.0}, ("3730fcbb", "0badf00d"), True)
    with pytest.raises(ValueError, match="no result"):
        bench_pairs.parse_output("ssag-envelope: records digest x\n", "ssag-envelope")


def test_host_slowdown_is_read_and_summarized():
    # each rep line carries the host probe's slowdown; the run keeps their
    # median, and the summary prints each side's median of those
    stdout = "\n".join([
        *(f"ssag-envelope: rep {i}: setup 0.1 s, run 2.0 s, total 2.1 s, host slowdown {f}, "
          "9 steps, 0/9 runs failed, {}" for i, f in enumerate(("1.250", "0.900", "2.000"))),
        "large-n-compare: rep 0: setup 0.1 s, run 2.0 s, total 2.1 s, host slowdown 9.000, x",
        "ssag-envelope: records digest abc",
        '{"correct": true, "metrics": {"steps_per_s": {"value": 1.0, "unit": "1/s"}}}'])
    assert bench_pairs.parse_output(stdout, "ssag-envelope").slowdown == 1.25
    runs = {"parent": [Run({"steps_per_s": 1.0, "total_s": 1.0}, ("abc",), True, f)
                       for f in (1.0, 2.0, 1.5)],
            "change": [Run({"steps_per_s": 1.0, "total_s": 1.0}, ("abc",), True, f)
                       for f in (0.5, 0.75, 0.6)]}
    lines = bench_pairs.format_summary(summarize(END_TO_END, runs), runs).splitlines()
    assert lines[-1] == "host slowdown median: parent 1.500, change 0.600"
    # runs without a probe print no such line
    assert math.isnan(_runs([1])[0].slowdown)
    runs = {"parent": _runs([1, 2]), "change": _runs([3, 4])}
    assert "slowdown" not in bench_pairs.format_summary(summarize(END_TO_END, runs), runs)


def test_round_order_takes_each_permutation_in_turn():
    # two sides alternate; with three, each side runs first, second and last
    assert [bench_pairs.round_order(("p", "c"), r) for r in range(3)] == [
        ("p", "c"), ("c", "p"), ("p", "c")]
    orders = [bench_pairs.round_order(("p", "c", "x"), r) for r in range(7)]
    assert orders == [("p", "c", "x"), ("p", "x", "c"), ("c", "p", "x"), ("c", "x", "p"),
                      ("x", "p", "c"), ("x", "c", "p"), ("p", "c", "x")]
    assert all({order[i] for order in orders} == {"p", "c", "x"} for i in range(3))


def _checkout(path):
    """``path`` as a checkout directory: one that holds ``src/ssag/__init__.py``."""
    (path / "src" / "ssag").mkdir(parents=True)
    (path / "src" / "ssag" / "__init__.py").touch()
    return path


@pytest.mark.parametrize("side", ["--parent", "--change"])
@pytest.mark.parametrize("refused, message", [
    ("work", "git archive"), ("missing", "is not a checkout"), ("empty", "is not a checkout")])
def test_pair_parser_refuses_a_git_work_tree(tmp_path, capsys, side, refused, message):
    # a git work tree, a missing directory and an empty one, each a usage error
    work_tree, export = _checkout(tmp_path / "work"), _checkout(tmp_path / "export")
    (work_tree / ".git").mkdir()
    (tmp_path / "empty").mkdir()
    argv = {"--parent": export, "--change": export}
    argv[side] = tmp_path / refused
    with pytest.raises(SystemExit) as exited:
        bench_pairs.pair_parser("pairs").parse_args(
            [arg for flag, path in argv.items() for arg in (flag, str(path))])
    assert exited.value.code == 2
    assert message in capsys.readouterr().err
    args = bench_pairs.pair_parser("pairs").parse_args(
        ["--parent", str(export), "--change", str(export)])
    assert (args.parent, args.change) == (export, export)


def test_summarize_with_a_control_leg():
    parent = _runs([100, 102, 98, 101, 99])
    change = _runs([110, 112, 108, 111, 109])
    # the control, the parent's code again, reads 1 % above, at, 2 % below,
    # at and 1 % above the parent in the five rounds
    control = _runs([101, 102, 96.04, 101, 99.99])
    speed, total = summarize(END_TO_END, {"parent": parent, "change": change,
                                          "control": control})
    assert speed["change_shift"] == pytest.approx(0.10)
    assert speed["aa_shift"] == pytest.approx(101 / 100 - 1)
    # the per-round ratios less 1 are 0.01, 0, -0.02, 0, 0.01: IQR 0.01 - 0
    assert speed["aa_spread"] == pytest.approx(0.01)
    assert (speed["change_wins"], speed["aa_wins"]) == (5, 2)
    assert (total["change_wins"], total["aa_wins"]) == (5, 2)
    assert total["aa_shift"] == pytest.approx(100 / 101 - 1)
    # without a control leg the rows carry no A/A figures
    plain = summarize(END_TO_END, {"parent": parent, "change": change})[0]
    assert "aa_shift" not in plain and plain["change_shift"] == speed["change_shift"]


def test_format_summary_prints_the_shifts_next_to_each_other():
    runs = {"parent": _runs([100, 100]), "change": _runs([105, 105]),
            "control": _runs([100, 101])}
    lines = bench_pairs.format_summary(summarize(END_TO_END, runs), runs).splitlines()
    assert lines[0].split()[-9:] == ["shift", "change", "wins", "A/A", "shift", "A/A", "spread",
                                     "A/A", "wins"]
    speed = lines[1].split()
    assert speed[0] == "steps_per_s" and speed[5:] == ["+5.00%", "2/2", "+0.50%", "0.50%",
                                                       "1/2", "higher"]
    assert lines[-2] == "records digests: same in every run: abc"
    del runs["control"]
    lines = bench_pairs.format_summary(summarize(END_TO_END, runs), runs).splitlines()
    assert "A/A" not in lines[0] and lines[1].split()[5:] == ["+5.00%", "2/2", "higher"]


@pytest.mark.parametrize("control_digest, code", [("abc", 0), ("abd", 1)])
def test_main_runs_the_control_leg(tmp_path, monkeypatch, capsys, control_digest, code):
    checkouts = {side: _checkout(tmp_path / side) for side in ("parent", "change", "control")}
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    speeds = {"parent": iter([100, 100]), "change": iter([104, 106]),
              "control": iter([99, 101])}

    def stub(checkout, workload, seed, seconds):
        assert (workload, seed, seconds) == ("ssag-envelope", 1, 2.0)
        speed = next(speeds[checkout.name])
        digest = control_digest if checkout.name == "control" else "abc"
        return Run({"steps_per_s": speed, "total_s": 100.0 / speed}, (digest,), True)

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    argv = [arg for side, path in checkouts.items() for arg in (f"--{side}", str(path))]
    assert bench_pairs.main([*argv, "--workload", "ssag-envelope", "--seed", "1",
                             "--seconds", "2", "--pairs", "2"]) == code
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:6]] == [
        "pair 0 parent", "pair 0 change", "pair 0 control",
        "pair 1 parent", "pair 1 control", "pair 1 change"]
    speed = next(line.split() for line in out if line.startswith("steps_per_s"))
    assert speed[5:] == ["+5.00%", "2/2", "+0.00%", "1.00%", "1/2", "higher"]


@pytest.mark.parametrize("change_median, better, expected", [
    (2.0, "higher", ("inside A/A band", None)), (1.0, "higher", ("inside A/A band", None)),
    (3.0, "lower", ("inside A/A band", None)),
    (3.5, "higher", ("better", "the control's Q3")), (3.5, "lower", ("worse", "the control's Q3")),
    (0.5, "higher", ("worse", "the parent's Q1")), (0.5, "lower", ("better", "the parent's Q1")),
    (math.nan, "higher", ("no verdict", None))])
def test_verdict_against_the_a_a_band(change_median, better, expected):
    # parent IQR [1, 2] and control IQR [1.5, 3]: the pooled band is [1, 3],
    # ends included, and a median outside it names the quartile it passed
    legs = {"parent": (1.0, 2.0), "control": (1.5, 3.0)}
    assert bench_pairs.verdict(change_median, legs, better) == expected


def test_a_median_between_the_parent_and_the_control_reads_inside():
    # layout alone, in the shape of a large-n-compare comparison: the change
    # reads 0.43 % and 0.25 % below the parent on setup_s and peak_rss_mb, and
    # the control, the parent's code again, lower still (0.89 % and 0.71 %),
    # each leg with a tight IQR.  A change median between the two legs is no
    # code effect, where the shift-minus-A/A-shift rule read both worse.
    metrics = [{"name": "setup_s", "unit": "s", "better": "lower"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    jitter = (1.0, 1.0002, 1.0, 0.9998, 1.0)

    def runs(setup, rss):
        return [Run({"setup_s": setup * j, "peak_rss_mb": rss * j}, ("abc",), True)
                for j in jitter]

    legs = {"parent": runs(27.4, 49.40), "change": runs(27.4 * (1 - 0.0043), 49.40 * (1 - 0.0025)),
            "control": runs(27.4 * (1 - 0.0089), 49.40 * (1 - 0.0071))}
    rows = summarize(metrics, legs)
    assert [row["verdict"] for row in rows] == ["inside A/A band"] * 2
    for row in rows:
        # the old rule: a gap above the A/A spread, upwards on a metric
        # where lower is better
        assert row["change_shift"] - row["aa_shift"] > row["aa_spread"]


def test_a_six_percent_slower_change_still_reads_worse():
    runs = {"parent": _runs([100, 101, 99, 100, 102]), "change": _runs([94, 95, 93, 94, 96]),
            "control": _runs([100.5, 99, 101, 100, 99.5])}
    speed, total = summarize(END_TO_END, runs)
    assert speed["change_shift"] == pytest.approx(-0.06)
    assert (speed["verdict"], speed["bound"]) == ("worse", "the control's Q1")
    assert (total["verdict"], total["bound"]) == ("worse", "the control's Q3")


def test_summarize_and_format_give_each_metric_a_verdict():
    # steps_per_s: change +5 % against an A/A shift of +0.5 % and spread
    # 0.5 %; total_s falls with it, so both read better
    runs = {"parent": _runs([100, 100]), "change": _runs([105, 105]),
            "control": _runs([100, 101])}
    rows = summarize(END_TO_END, runs)
    assert [row["verdict"] for row in rows] == ["better", "better"]
    lines = bench_pairs.format_summary(rows, runs).splitlines()
    assert lines[3:5] == ["verdict steps_per_s: better, past the control's Q3",
                          "verdict total_s: better, past the control's Q1"]
    # a slower change reads worse on both; one inside the band reads so
    runs["change"] = _runs([95, 95])
    assert [row["verdict"] for row in summarize(END_TO_END, runs)] == ["worse", "worse"]
    runs["change"] = _runs([100.5, 100.5])
    assert [row["verdict"] for row in summarize(END_TO_END, runs)] == [
        "inside A/A band", "inside A/A band"]
    # without a control leg there is no band, so no verdict
    del runs["control"]
    rows = summarize(END_TO_END, runs)
    assert "verdict" not in rows[0]
    assert not any(line.startswith("verdict") for line in
                   bench_pairs.format_summary(rows, runs).splitlines())
