"""The statistics of tools/bench_pairs.py on fixed numbers."""

import json
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


def test_alternate_swaps_the_first_side_each_round(capsys):
    order = []
    checkouts = bench_pairs.pair_parser("pairs").parse_args(["--parent", "p", "--change", "c"])
    runs = bench_pairs.alternate(checkouts, 3, lambda checkout: order.append(checkout.name)
                                 or len(order), str)
    assert order == ["p", "c", "c", "p", "p", "c"]
    assert runs == {"parent": [1, 4, 5], "change": [2, 3, 6]}
    assert capsys.readouterr().out.splitlines()[:2] == ["pair 0 parent: 1", "pair 0 change: 2"]


@pytest.mark.parametrize("side", ["--parent", "--change"])
def test_pair_parser_refuses_a_git_work_tree(tmp_path, capsys, side):
    work_tree, export = tmp_path / "work", tmp_path / "export"
    (work_tree / ".git").mkdir(parents=True)
    export.mkdir()
    argv = {"--parent": export, "--change": export}
    argv[side] = work_tree
    with pytest.raises(SystemExit):
        bench_pairs.pair_parser("pairs").parse_args(
            [arg for flag, path in argv.items() for arg in (flag, str(path))])
    assert "git archive" in capsys.readouterr().err
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


def test_alternate_reverses_all_three_sides_each_round(capsys):
    order = []
    args = bench_pairs.pair_parser("pairs").parse_args(["--parent", "p", "--change", "c"])
    args.control = Path("x")
    runs = bench_pairs.alternate(args, 3, lambda checkout: order.append(checkout.name)
                                 or len(order), str)
    assert order == ["p", "c", "x", "x", "c", "p", "p", "c", "x"]
    assert runs == {"parent": [1, 6, 7], "change": [2, 5, 8], "control": [3, 4, 9]}


@pytest.mark.parametrize("control_digest, code", [("abc", 0), ("abd", 1)])
def test_main_runs_the_control_leg(tmp_path, monkeypatch, capsys, control_digest, code):
    checkouts = {}
    for side in ("parent", "change", "control"):
        checkouts[side] = tmp_path / side
        checkouts[side].mkdir()
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
        "pair 1 control", "pair 1 change", "pair 1 parent"]
    speed = next(line.split() for line in out if line.startswith("steps_per_s"))
    assert speed[5:] == ["+5.00%", "2/2", "+0.00%", "1.00%", "1/2", "higher"]
