"""Microseconds per optimizer step, for each kind, in two checkouts.

    python3 tools/step_costs.py --parent DIR --change DIR [--control DIR] \
        --rounds 10 --steps 20000

Each round starts one child process per checkout, one after the other, by
`bench_pairs.alternate`: parent, change (and control) in even rounds and the
reverse order in odd rounds.  A child imports ``ssag`` from its checkout's
``src`` and builds the problems of both benchmark workloads by their own
set-up in its checkout's ``perfbench/workloads.py``: ssag-envelope's
(N = 200, p = 5) and large-n-compare's (N = 20 000, p = 20), at workload
seed ``--seed``.  It times the kinds of large-n-compare's ``KINDS`` that
take a per-step draw, with their batch sizes; FGD, whose step is one
full-data pass, takes none and is left out.  For each kind it takes
``--steps`` draws from ``RngStream.take`` first, then times the kind's step
function over them from a fresh `make_state`, ``--repeats`` times, and keeps
the fastest, with a digest of the final state: its W, gradient table and
running sum.  The first step of each timing is SVRG's first snapshot.

Each child's result is a `bench_pairs.Run`: one metric per geometry and
kind, named like ``p = 5 ssag`` in microseconds per step, lower being
better, and the final-state digests in the same order.  The summary is
`bench_pairs`' own, one rule for both tools: per cell, both medians over the
rounds, the parent's interquartile range, the change's shift and wins and,
with ``--control`` (an A/A leg, a second export of the parent), the A/A
shift, spread and wins and the change's verdict against the pooled parent
and control quartiles.  Rounds default to 10, as ``bench_pairs.py
--pairs`` does: at 5, three exports of one tree read 3 of 12 cells outside
the A/A band.  A ``final state DIFFERS: <cell>`` line names each cell whose
digest is not the same in every run on every side, and the exit code is 1
when there is one.  Each child is waited for, so nothing is left running.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from bench_pairs import Run, alternate, child_stdout, format_summary, pair_parser, summarize


def _state_digest(state) -> str:
    """Hex digest of a state's W, gradient table and running sum."""
    digest = hashlib.sha256()
    for array in (state.W, state.table, state.table_sum):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _child(steps: int, repeats: int, seed: int) -> dict:
    """{cell: [us per step, `_state_digest` of the final state]} in this
    process, with ``ssag`` and perfbench's ``workloads`` imported from
    ``sys.path``."""
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
        for kind, n in LargeNCompare.KINDS:
            source = SPECS[kind].source(obj.dataset, n)
            if source is None:
                continue
            config = RunConfig(kind=kind, steps=steps, n=n, seed=seed)
            strata, indices = ssag.RngStream(seed).take(*source, steps)
            strata = strata.tolist()
            step = getattr(optimizers, SPECS[kind].step)
            best = float("inf")
            for _ in range(repeats):
                state = optimizers.make_state(config, obj, constants)
                t0 = time.perf_counter()
                for s in range(steps):
                    step(state, obj, strata[s], indices[s])
                best = min(best, time.perf_counter() - t0)
            result[f"{name} {kind}"] = [best / steps * 1e6, _state_digest(state)]
    return result


def run_child(checkout: Path, steps: int, repeats: int, seed: int) -> Run:
    """One timing child on ``checkout``'s sources, waited for, as a `Run`."""
    code = (f"import sys, json; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(checkout / 'perfbench')!r}, {str(Path(__file__).resolve().parent)!r}]; "
            f"import step_costs; "
            f"print(json.dumps(step_costs._child({steps}, {repeats}, {seed})))")
    cells = json.loads(child_stdout([sys.executable, "-c", code], checkout).strip()
                       .splitlines()[-1])
    return Run({cell: us for cell, (us, _) in cells.items()},
               tuple(digest for _, digest in cells.values()), True)


def main(argv=None) -> int:
    p = pair_parser(__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if min(args.rounds, args.steps, args.repeats) < 1:
        p.error("--rounds, --steps and --repeats must be >= 1")
    runs = alternate(
        args, args.rounds,
        lambda checkout: run_child(checkout.resolve(), args.steps, args.repeats, args.seed),
        lambda run: ", ".join(f"{cell} {us:.3f}" for cell, us in run.metrics.items()))
    cells = list(runs["parent"][0].metrics)
    print(f"{args.rounds} rounds x {args.repeats} repeats of {args.steps} steps, seed {args.seed}")
    print(format_summary(summarize([{"name": cell, "unit": "us", "better": "lower"}
                                    for cell in cells], runs), runs))
    everything = [run for side_runs in runs.values() for run in side_runs]
    differ = [cell for i, cell in enumerate(cells)
              if len({run.digests[i] for run in everything}) > 1]
    for cell in differ:
        print(f"final state DIFFERS: {cell}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
