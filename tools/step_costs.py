"""Microseconds per optimizer step, for each kind, in two checkouts.

    python3 tools/step_costs.py --parent DIR --change DIR [--control DIR] \
        --rounds 5 --steps 20000

Each round starts one child process per checkout, one after the other, by
`bench_pairs.alternate`: parent, change (and control) in even rounds and the
reverse order in odd rounds.  A child imports ``ssag`` from its checkout's
``src`` and builds the problems of both benchmark workloads by their own
set-up in its checkout's ``perfbench/workloads.py``: ssag-envelope's
(N = 200, p = 5) and large-n-compare's (N = 20 000, p = 20), at workload
seed ``--seed``.  For each kind that takes a per-step draw, it takes
``--steps`` draws from ``RngStream.take`` first, then times the kind's step
function over them from a fresh `make_state`, ``--repeats`` times, and keeps
the fastest, with a digest of the final state: its W, gradient table and
running sum.  The first step of each timing is SVRG's first snapshot.  FGD
is left out: its step is one full-data pass.

The summary gives, per geometry and kind, each side's median over the
rounds of a round's fastest repeat, the change's median over the parent's,
and whether the final state had the same bits in every run on every side.
``--control`` is a second export of the parent, an A/A leg as in
`bench_pairs`: the summary then adds the control's median over the parent's
and the change's `bench_pairs.verdict` against the pooled parent and control
quartiles, so that one rule judges both tools.  The exit code is 1 when some
state differs.  Each child is waited for, so nothing is left running.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from bench_pairs import (CONTROL, alternate, child_stdout, export_dir, pair_parser,
                         quartiles, verdict)

#: (kind, batch n) timed in each geometry, as large-n-compare runs them
KINDS = (("ssag", 1), ("sag", 1), ("sgd", 1), ("saga", 1), ("svrg", 1), ("minibatch", 10))


def _state_digest(state) -> str:
    """Hex digest of a state's W, gradient table and running sum."""
    digest = hashlib.sha256()
    for array in (state.W, state.table, state.table_sum):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _child(steps: int, repeats: int, seed: int) -> dict:
    """{geometry: {kind: [us per step, `_state_digest` of the final state]}}
    in this process, with ``ssag`` and perfbench's ``workloads`` imported
    from ``sys.path``."""
    import time

    import ssag
    from ssag import optimizers
    from ssag.optimizers import SPECS, RunConfig
    from workloads import LargeNCompare, SsagEnvelope

    result = {}
    for name, workload in (("p = 5", SsagEnvelope), ("p = 20", LargeNCompare)):
        # the objective and certified constants of the workload's set-up,
        # which writes nothing to its output directory
        obj, run_kwargs = workload(seed, tiny=False, out_dir=None).setup()
        constants = run_kwargs["constants"]
        result[name] = {}
        for kind, n in KINDS:
            config = RunConfig(kind=kind, steps=steps, n=n, seed=seed)
            strata, indices = ssag.RngStream(seed).take(*SPECS[kind].source(obj.dataset, n), steps)
            strata = strata.tolist()
            step = getattr(optimizers, SPECS[kind].step)
            best = float("inf")
            for _ in range(repeats):
                state = optimizers.make_state(config, obj, constants)
                t0 = time.perf_counter()
                for s in range(steps):
                    step(state, obj, strata[s], indices[s])
                best = min(best, time.perf_counter() - t0)
            result[name][kind] = [best / steps * 1e6, _state_digest(state)]
    return result


def summarize(runs: dict[str, list[dict]]) -> list[dict]:
    """One row per geometry and kind: each side's median of its rounds'
    times, the change's ratio to the parent's, and whether every run on
    every side ended on the same state digest; with a control leg in
    ``runs``, also the control's ratio to the parent's and the change's
    `verdict` (lower is better) and its bound."""
    rows = []
    for geometry, kinds in runs["parent"][0].items():
        for kind in kinds:
            cells = {side: [run[geometry][kind] for run in side_runs]
                     for side, side_runs in runs.items()}
            q = {side: quartiles(us for us, _ in cell) for side, cell in cells.items()}
            digests = {digest for cell in cells.values() for _, digest in cell}
            row = {"geometry": geometry, "kind": kind, "parent_us": q["parent"][1],
                   "change_us": q["change"][1], "ratio": q["change"][1] / q["parent"][1],
                   "same_w": len(digests) == 1}
            if CONTROL in runs:
                row["aa_ratio"] = q[CONTROL][1] / q["parent"][1]
                row["verdict"], row["bound"] = verdict(
                    row["change_us"], {leg: (q[leg][0], q[leg][2]) for leg in ("parent", CONTROL)},
                    "lower")
            rows.append(row)
    return rows


def format_summary(rows) -> str:
    control = "verdict" in rows[0]
    lines = [f"{'geometry':<9} {'kind':<10} {'parent us':>10} {'change us':>10} "
             f"{'change/parent':>14} {'state':>7}" + (f" {'A/A':>6} verdict" if control else "")]
    for row in rows:
        line = (f"{row['geometry']:<9} {row['kind']:<10} {row['parent_us']:>10.2f} "
                f"{row['change_us']:>10.2f} {row['ratio']:>14.3f} "
                f"{'same' if row['same_w'] else 'DIFFER':>7}")
        if control:
            line += f" {row['aa_ratio']:>6.3f} {row['verdict']}"
            line += f", past {row['bound']}" if row["bound"] else ""
        lines.append(line)
    return "\n".join(lines)


def describe(result: dict) -> str:
    """One child's microseconds per step, as its progress line."""
    return "; ".join(f"{geometry}: " + " ".join(f"{kind} {us:.3f}" for kind, (us, _)
                                                 in kinds.items())
                     for geometry, kinds in result.items())


def run_child(checkout: Path, steps: int, repeats: int, seed: int) -> dict:
    """One timing child on ``checkout``'s sources, waited for."""
    code = (f"import sys, json; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(checkout / 'perfbench')!r}, {str(Path(__file__).resolve().parent)!r}]; "
            f"import step_costs; "
            f"print(json.dumps(step_costs._child({steps}, {repeats}, {seed})))")
    return json.loads(child_stdout([sys.executable, "-c", code], checkout).strip()
                      .splitlines()[-1])


def main(argv=None) -> int:
    p = pair_parser(__doc__.splitlines()[0])
    p.add_argument(f"--{CONTROL}", type=export_dir,
                   help="a second export of the parent, run as an A/A leg")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if min(args.rounds, args.steps, args.repeats) < 1:
        p.error("--rounds, --steps and --repeats must be >= 1")
    runs = alternate(
        args, args.rounds,
        lambda checkout: run_child(checkout.resolve(), args.steps, args.repeats, args.seed),
        describe)
    rows = summarize(runs)
    print(f"{args.rounds} rounds x {args.repeats} repeats of {args.steps} steps, seed {args.seed}")
    print(format_summary(rows))
    return 0 if all(row["same_w"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
