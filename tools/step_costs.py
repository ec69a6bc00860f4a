"""Per-step costs of two or three trees, all timed in one process.

    python3 tools/step_costs.py --parent DIR --change DIR [--control DIR] \\
        --blocks 100 --steps 1000 --seed 1

Each tree's ``src/ssag`` is imported as its own package (``ssag_parent``, ...)
and builds ssag-envelope's and large-n-compare's problems from one set of
arrays through its own API; a tree that lacks a name the harness calls, such
as ``optimizers.segment_stepper``, is refused by that name, for
``bench_pairs.py`` to compare.  Each cell, a geometry and a kind of `KINDS`,
runs ``--blocks`` blocks of ``--steps`` steps per side, each block through
the function that the tree's ``run`` calls for a segment, the sides in
`bench_pairs.round_order`, and prints each leg's median per-block ratio to
the parent with its 95 % sign-test interval; the change reads ``better`` or
``worse`` only when its interval misses the ``--control`` leg's, and ``no
verdict`` below 6 blocks, where the interval is the whole line.
``bench_pairs.py`` keeps a pooled quartile band, as its end-to-end runs have
no paired blocks, though that band read noise as a verdict on per-step costs
at 10 rounds.  Two exports of one tree differ by about 0.5-1 % per cell in
one process, about the width of an interval at 100 blocks, so a cell that no
side changed can read a verdict: re-run a single verdict before citing it.  A
cell whose sides' final states differ is named in a ``final state DIFFERS``
line, and the exit code is 1.  The trees share numpy's global state, the
allocator and the caches: changes to those are for perfbench.
"""

import functools
import hashlib
import importlib.util
import math
import statistics
import sys
import time

import numpy as np

from bench_pairs import CONTROL, SIDES, pair_parser, round_order

#: large-n-compare's kinds whose step takes a draw (all but FGD), with their batch sizes
KINDS = (("sgd", 1), ("minibatch", 10), ("sag", 1), ("saga", 1), ("svrg", 1), ("ssag", 1))


def load(name, root):
    """The package in ``root / "src/ssag"``, imported afresh as the module ``name``."""
    for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[key]
    src = root / "src" / "ssag"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    sys.modules[name] = tree = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree)
    return tree


def problems(seed):
    """(geometry, features, labels, lam) of each problem, as `ssag.gen_synthetic` makes it."""
    envelope, large = np.zeros((2, 5)), np.zeros((2, 20))
    envelope[:, 0], envelope[1, 1], large[:, 0] = (-18.0, 22.0), 4.0, (-1.0, 1.0)
    for geometry, means, per_class, stddev, lam in (("p = 5", envelope, 100, 0.02, 0.1),
                                                    ("p = 20", large, 10_000, 0.1, 0.02)):
        labels = np.repeat([0, 1], per_class)
        noise = np.random.default_rng(seed).standard_normal((labels.size, means.shape[1]))
        yield geometry, means[labels] + stddev * noise, labels, lam


def cells(tree, shared, steps, seed):
    """{cell: (advance, state, objective, draw)} as ``tree`` builds them:
    ``advance(state, obj, strata, indices)`` takes a block's steps through the
    function that ``run`` calls for a segment, and ``draw()`` takes the cell's
    next ``steps`` draws from its own `RngStream`."""
    out = {}
    for geometry, features, labels, lam in shared:
        obj = tree.LogisticRegression(tree.Dataset.from_class_labels(features, labels), lam=lam)
        constants = tree.estimate_constants(obj)
        for kind, n in KINDS:
            spec = tree.optimizers.SPECS[kind]
            config = tree.RunConfig(kind=kind, steps=steps, n=n, seed=seed)
            draw = functools.partial(tree.RngStream(seed).take, *spec.source(obj.dataset, n), steps)
            advance = tree.optimizers.segment_stepper(getattr(tree.optimizers, spec.step), obj, n)
            out[f"{geometry} {kind}"] = (advance, tree.make_state(config, obj, constants), obj,
                                         draw)
    return out


def time_blocks(sides, blocks, steps):
    """Each side's seconds per block of its cell in ``sides``, its draws taken
    first.  Each block takes its order from `round_order`, every order in
    turn: with three sides, a rotation lets a drift within a block move the
    two legs' ratios apart."""
    times = {side: [] for side in sides}
    for block in range(blocks):
        for side in round_order(sides, block):
            advance, state, obj, draw = sides[side]
            strata, indices = draw()
            strata = strata.tolist()
            t0 = time.perf_counter()
            advance(state, obj, strata, indices)
            times[side].append(time.perf_counter() - t0)
    return times


def sign_interval(values):
    """(low, median, high): the k-th smallest and largest of ``values`` for the
    largest k with binomial(n, 1/2) coverage 1 - 2 P(B < k) >= 95 %."""
    x, n = sorted(values), len(values)
    k, below = 0, 0  # below = 2**n P(B < k)
    while 1 - 2 * (below + math.comb(n, k)) / 2**n >= 0.95:
        below, k = below + math.comb(n, k), k + 1
    return (x[k - 1] if k else -math.inf), statistics.median(x), (x[n - k] if k else math.inf)


def summary_line(cell, times, steps):
    """The parent's us per step, then each leg and, with a control, the
    verdict: ``no verdict`` when either leg's interval is unbounded."""
    legs = {side: sign_interval([math.log(t / p) for t, p in zip(ts, times["parent"], strict=True)])
            for side, ts in times.items() if side != "parent"}
    parts = [f"{cell:<16} parent {statistics.median(times['parent']) / steps * 1e6:8.3f} us"]
    parts += [f"{side} {math.expm1(mid):+.2%} [{math.expm1(low):+.2%}, {math.expm1(high):+.2%}]"
              for side, (low, mid, high) in legs.items()]
    if CONTROL in legs:
        (low, _, high), (c_low, _, c_high) = legs["change"], legs[CONTROL]
        parts.append("no verdict" if math.inf in (high, c_high) else "better" if high < c_low
                     else "worse" if low > c_high else "inside")
    return "  ".join(parts)


def _state_digest(state) -> str:
    """Hex digest of a state's W, gradient table and running sum."""
    arrays = (state.W, state.table, state.table_sum)
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def main(argv=None) -> int:
    p = pair_parser(__doc__.splitlines()[0])
    p.add_argument("--blocks", type=int, default=100)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if min(args.blocks, args.steps) < 1:
        p.error("--blocks and --steps must be >= 1")
    shared, trees = list(problems(args.seed)), {}
    for side in (*SIDES, CONTROL) if args.control else SIDES:
        root = getattr(args, side).resolve()
        try:
            trees[side] = cells(load(f"ssag_{side}", root), shared, args.steps, args.seed)
        except AttributeError as exc:
            raise SystemExit(f"{root}: {exc}; compare it with tools/bench_pairs.py") from None
    print(f"{args.blocks} blocks x {args.steps} steps, seed {args.seed}, sides {', '.join(trees)}")
    differ = False
    for cell in trees["parent"]:
        sides = {side: side_cells[cell] for side, side_cells in trees.items()}
        times = time_blocks(sides, args.blocks, args.steps)
        print(summary_line(cell, times, args.steps), flush=True)
        if len({_state_digest(state) for _, state, _, _ in sides.values()}) > 1:
            differ = True
            print(f"final state DIFFERS: {cell}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
