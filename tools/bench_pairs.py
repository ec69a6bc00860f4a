"""Alternating pairs of benchmark runs from two checkouts of the repository.

    python3 tools/bench_pairs.py --parent DIR --change DIR [--control DIR] \\
        --workload ssag-envelope --seed 1 --seconds 45 --pairs 10

Each round runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one run after the other, in the order `round_order`
gives: parent and change alternate, and with a control each side runs first,
second and last in turn.  For every end-to-end metric that the change's
BENCHMARK.json lists, the summary gives both medians, the parent's
interquartile range, the change's shift (its median over the parent's, less
1) and the rounds the change won in the metric's ``better`` direction; a tie
counts for neither side.  It also says whether every run on every side
printed the same records digests; the exit code is 1 when they differ or a
run failed a check.

``--control`` is a second export of the parent, an A/A leg: the same code
run in the same rounds, so whatever separates it from the parent is noise or
position, such as memory layout, not code.  The summary then adds each
metric's A/A shift, spread (the interquartile range of the per-round
control/parent ratios) and wins, and a `verdict` against the pooled band of
the parent's and the control's quartiles: the two legs are samples of the
same code, so a change's median inside that band tells nothing.
``tools/step_costs.py`` judges per-step costs by paired per-block ratios
instead: this tool's separate end-to-end runs have no paired blocks, and its
pooled band read noise as a verdict on per-step costs at 10 rounds.  Each run
and the summary also print perfbench's ``host slowdown``, its probe of the
host's speed, which can swing about 2x within one comparison.

Each checkout is a ``git archive`` export; each run is waited for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SIDES = ("parent", "change")
#: The optional A/A leg, a second export of the parent.
CONTROL = "control"


@dataclass(frozen=True)
class Run:
    """What one benchmark run printed: its end-to-end metrics, its records
    digests, whether all its checks passed and the median host slowdown of
    its reps (NaN for a run without a host probe)."""

    metrics: dict[str, float]
    digests: tuple[str, ...]
    correct: bool
    slowdown: float = math.nan


def parse_output(stdout: str, workload: str) -> Run:
    """The `Run` in the standard output of ``perfbench/run.py --workload W``:
    the JSON result on its last line, the ``W: records digest`` line and the
    ``host slowdown`` of each ``W: rep N:`` line."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError(f"{workload}: the run printed no result line")
    result = json.loads(lines[-1])
    prefix = f"{workload}: records digest "
    digests = tuple(d for line in lines if line.startswith(prefix)
                    for d in line[len(prefix):].split())
    marker = ", host slowdown "
    slowdowns = [float(line.split(marker, 1)[1].split(",", 1)[0]) for line in lines
                 if line.startswith(f"{workload}: rep ") and marker in line]
    return Run({key: metric["value"] for key, metric in result["metrics"].items()},
               digests, bool(result["correct"]),
               statistics.median(slowdowns) if slowdowns else math.nan)


def quartiles(values) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``, by
    `statistics.quantiles`' inclusive method; all three are the value itself
    for a single value."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better: str) -> int:
    """Rounds in which the change's value beats the parent's of the same round
    in the ``better`` direction ("lower" or "higher"); ties count for neither."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def shift(base: float, value: float) -> float:
    """``value / base - 1``; NaN for a zero base."""
    return value / base - 1 if base else math.nan


def verdict(change_median: float, legs: dict[str, tuple[float, float]],
            better: str) -> tuple[str, str | None]:
    """The change's verdict against the pooled band of ``legs``, each leg's
    (first quartile, third quartile): ``inside A/A band`` when the median lies
    between the lowest first quartile and the highest third quartile, ends
    included, else ``better`` or ``worse`` in the ``better`` direction, with
    the quartile that bounds it (``the control's Q3``); ``no verdict`` when
    a value is NaN."""
    if math.isnan(change_median) or any(math.isnan(q) for iqr in legs.values() for q in iqr):
        return "no verdict", None
    low = min(legs, key=lambda leg: legs[leg][0])
    high = max(legs, key=lambda leg: legs[leg][1])
    if legs[low][0] <= change_median <= legs[high][1]:
        return "inside A/A band", None
    above = change_median > legs[high][1]
    bound = f"the {high}'s Q3" if above else f"the {low}'s Q1"
    return ("better" if above == (better == "higher") else "worse"), bound


def summarize(end_to_end, runs: dict[str, list[Run]]) -> list[dict]:
    """One row per metric of ``end_to_end`` (BENCHMARK.json's entries): both
    medians, the parent's interquartile range and the change's shift and
    wins; with a control leg in ``runs``, also its A/A shift, spread and
    wins and the change's `verdict` and its bound."""
    rows = []
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        parent, change = ([run.metrics[name] for run in runs[side]] for side in SIDES)
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        row = {"name": name, "unit": spec["unit"], "better": better,
               "parent_median": parent_median, "parent_iqr": q3 - q1,
               "change_median": change_median, "change_shift": shift(parent_median, change_median),
               "change_wins": wins(parent, change, better), "pairs": len(parent)}
        if CONTROL in runs:
            control = [run.metrics[name] for run in runs[CONTROL]]
            c1, control_median, c3 = quartiles(control)
            r1, _, r3 = quartiles([shift(p, c) for p, c in zip(parent, control, strict=True)])
            row.update(aa_shift=shift(parent_median, control_median),
                       aa_spread=r3 - r1, aa_wins=wins(parent, control, better))
            row["verdict"], row["bound"] = verdict(
                change_median, {"parent": (q1, q3), CONTROL: (c1, c3)}, better)
        rows.append(row)
    return rows


def same_digests(runs: dict[str, list[Run]]) -> bool:
    """Whether every run on every side printed the same records digests."""
    return len({run.digests for side_runs in runs.values() for run in side_runs}) == 1


def format_summary(rows, runs) -> str:
    """The summary table of `summarize`'s ``rows``, then each row's verdict
    when ``runs`` has a control leg, the records digests and the failed runs."""
    control = CONTROL in runs
    lines = [f"{'metric':<12} {'unit':<5} {'parent median':>14} {'parent IQR':>11} "
             f"{'change median':>14} {'change shift':>13} {'change wins':>12}"
             + (f" {'A/A shift':>10} {'A/A spread':>11} {'A/A wins':>9}" if control else "")]
    for row in rows:
        lines.append(f"{row['name']:<12} {row['unit']:<5} {row['parent_median']:>14.6g} "
                     f"{row['parent_iqr']:>11.4g} {row['change_median']:>14.6g} "
                     f"{row['change_shift']:>+13.2%} {row['change_wins']:>5}/{row['pairs']:<6}"
                     + (f" {row['aa_shift']:>+10.2%} {row['aa_spread']:>11.2%} "
                        f"{row['aa_wins']:>6}/{row['pairs']}" if control else "")
                     + f" {row['better']}")
    if control:
        lines += [f"verdict {row['name']}: {row['verdict']}"
                  + (f", past {row['bound']}" if row["bound"] else "") for row in rows]
    everything = [run for side_runs in runs.values() for run in side_runs]
    digests = sorted({d for run in everything for d in run.digests})
    same = "same in every run" if same_digests(runs) else "DIFFER between runs"
    lines.append(f"records digests: {same}: {' '.join(digests)}")
    lines.append(f"runs with a failed check: {sum(not run.correct for run in everything)}")
    if not all(math.isnan(run.slowdown) for run in everything):
        lines.append("host slowdown median: " + ", ".join(
            f"{side} {statistics.median(run.slowdown for run in side_runs):.3f}"
            for side, side_runs in runs.items()))
    return "\n".join(lines)


def export_dir(value: str) -> Path:
    """A checkout directory, one that holds ``src/ssag/__init__.py`` and no
    ``.git``.  A git work tree read 0.3-0.4 MB more ``peak_rss_mb`` than an
    export of the same files, so both sides of a comparison are exports."""
    path = Path(value)
    if (path / ".git").exists():
        raise argparse.ArgumentTypeError(
            f"{path} holds .git; compare exports made with "
            f"`git archive REV | tar -x -C DIR`, not a git work tree")
    if not (path / "src" / "ssag" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} is not a checkout: it holds no "
                                         f"src/ssag/__init__.py")
    return path


def pair_parser(description: str) -> argparse.ArgumentParser:
    """A parser that takes the two checkouts, ``--parent DIR --change DIR``,
    and the optional A/A leg, ``--control DIR``, each a directory without
    ``.git`` (`export_dir`)."""
    p = argparse.ArgumentParser(description=description)
    for side in SIDES:
        p.add_argument(f"--{side}", type=export_dir, required=True,
                       help=f"the {side} checkout, a `git archive` export")
    p.add_argument(f"--{CONTROL}", type=export_dir,
                   help="a second export of the parent, run as an A/A leg")
    return p


def round_order(sides, round_no: int) -> tuple:
    """The order of ``sides`` in round ``round_no``: their permutations, one
    per round, in turn.  Two sides alternate; with three, each side runs
    first, second and last in turn."""
    orders = list(itertools.permutations(sides))
    return orders[round_no % len(orders)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced benchmark run in ``checkout``, waited for; a run whose
    checks failed exits 1 and still counts.  On any other exit code its
    standard error is passed on and RuntimeError raised."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: the run exited {proc.returncode}")
    return parse_output(proc.stdout, workload)


def main(argv=None) -> int:
    p = pair_parser(__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {side: [] for side in SIDES + ((CONTROL,) if args.control else ())}
    for round_no in range(args.pairs):
        for side in round_order(runs, round_no):
            run = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(run)
            print(f"pair {round_no} {side}: "
                  + ", ".join(f"{m['name']} {run.metrics[m['name']]:.6g}" for m in end_to_end)
                  + f", host slowdown {run.slowdown:.3f}, digests {' '.join(run.digests)}",
                  flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run")
    print(format_summary(summarize(end_to_end, runs), runs))
    correct = all(run.correct for side_runs in runs.values() for run in side_runs)
    return 0 if same_digests(runs) and correct else 1


if __name__ == "__main__":
    sys.exit(main())
