"""The seven optimizers (FGD, SGD, mini-batch SGD, SAG, SVRG, SAGA, and SSAG):
one registry of per-kind specs (`SPECS`) over four step kernels and one
`State`.  SSAG and SAG share the table-averaged step (SAG is SSAG over N
singleton strata), SAGA steps on the same gradient table, FGD, SGD and
mini-batch SGD share the mini-batch step, and SVRG advances one inner step
at a time.  A kind's spec decides how many table slots its state keeps; the
running sum of the slots is recomputed exactly every `SUM_RECOMPUTE_EVERY`
steps to cap floating drift.

Note on stratified sampling: each SSAG step refreshes the drawn class's slot
with the mean gradient of a fresh within-class batch and moves along the mean
of the C slots.  Under class imbalance that direction targets the
class-balanced gradient, not the sample-weighted full gradient; the update is
implemented literally as specified.

A step writes only buffers its `State` owns, W included, and returns nothing.
SSAG, SAG and SAGA park ``table_sum - slot`` in a scratch row and have the
kernel write the new gradient straight into the drawn slot; the other kinds'
kernels write into a scratch row.  The roundings keep the plain formulas'
order, so every trajectory keeps its bits, and a step whose kernel raises
leaves W, the table, its sum and the step count as they were.  The update
formulas are whole-row ufunc calls, which broadcast over a leading seed axis
as written.  No step checks that W stays finite.  Every kind's next W is
W - d, or its soft threshold, so a non-finite entry stays so, and `run`
checks W once at the end of each segment of steps between its boundaries.

A step's cost is its numpy dispatch, so the steps call each ufunc through a
module-level name with its output passed positionally, and read a repeated
attribute into a local once: ``multiply(a, b, o)`` takes 224 ns at p = 20
where ``np.multiply(a, b, out=o)`` takes 278 (numpy 2.4, 2-core x86-64).
SSAG's whole state at n = 1 on rows shorter than `core.SHORT_ROW` is a few
dozen floats, so `run` steps such a segment in `_ssag_short_rows` on Python
floats, with the same bits: the SSAG update is written twice, in ufuncs and
in floats.  perfbench's tracer (``perfbench/spans.py``) counts calls by name,
and wrapping a name sends a run through the per-step loop (`segment_stepper`),
so a traced run sees the kind's step function once per step, SSAG's
`Objective.grad_class_batch` then `grad_batch` once each per step, and
`loss_full` and `squared_distance` per record.
"""

from __future__ import annotations

import bisect
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy import add, divide, multiply, negative, subtract

from .core import (Dataset, all_finite, estimate_constants, is_int, is_real, operand,
                   squared_distance)
from .errors import ConfigError, UnsupportedObjectiveError
from .objectives import Objective, _LinearObjective, accuracy, not_in_class
from .records import RunRecord
from .sampling import RngStream

#: A recorded loss above this value marks the run as diverged.
DIVERGENCE_LOSS_LIMIT = 1e12
#: The running sum of the gradient table is recomputed exactly every this many steps.
SUM_RECOMPUTE_EVERY = 10_000
#: A run takes its draws from the stream in blocks of at most this many indices.
_BLOCK_INDICES = 1 << 14


class State:
    """The memory of one run, the same fields for every optimizer kind.

    ``table`` holds one gradient slot per stratum: C rows for SSAG, N for SAG
    and SAGA, none for the memoryless kinds (an empty table by default);
    ``table_sum`` starts as its exact sum, and slot refreshes and
    `recompute_sum` write it in place.  ``m`` (SVRG's resolved refresh period)
    and ``prox_l1`` are the run's settings, read only by the kinds that use
    them; SVRG's step sets ``snapshot`` and ``snapshot_grad``.  A step's
    batch reaches it through its draw (`OptimizerSpec.source`) and a kind's
    evaluations are `OptimizerSpec.evals`, so the state keeps neither.

    The steps' operands are made here: ``W``, a float copy of the W passed
    in, which each step overwrites with the next iterate; ``h`` and
    ``h / slots`` as 0-d arrays (``slots`` is the table's row count, N for
    SAGA); and three scratch rows of W's shape.  So ``h`` and ``table`` are
    read-only: assigning either raises AttributeError.  The slots stay
    writable; the steps read the table as ``_table``.
    """

    def __init__(self, W: np.ndarray, h: float, table: np.ndarray | None = None,
                 m: int | None = None, prox_l1: float | None = None):
        self.W, self.m, self.prox_l1, self.steps = np.array(W, float), m, prox_l1, 0
        self._table = table = np.zeros((0, W.size)) if table is None else table
        self.table_sum = table.sum(axis=0)
        self.snapshot = self.snapshot_grad = None
        slots = table.shape[0]
        self._h = operand(h)
        self._h_per_slot = operand(h / max(slots, 1))
        self._slots = operand(slots)
        self._scratch = tuple(np.empty((3, *self.W.shape)))  # three rows, as views

    @property
    def h(self) -> float:
        return self._h.item()

    @property
    def table(self) -> np.ndarray:
        return self._table


def recompute_sum(state: State) -> None:
    """Overwrite the running sum in place with the exact table sum (zeros if empty)."""
    add.reduce(state._table, 0, None, state.table_sum)


def _table_average_step(state: State, slot: np.ndarray) -> None:
    """SSAG's and SAG's tail: finish a slot refresh, the sum rounded as
    ``table_sum - old + new`` from the first scratch row, and write
    W - (h/slots) * sum of all slots over W, the product in the second."""
    table_sum, W = state.table_sum, state.W
    add(state._scratch[0], slot, table_sum)
    subtract(W, multiply(table_sum, state._h_per_slot, state._scratch[1]), W)
    state.steps += 1


def ssag_step(state: State, obj: Objective, j: int, idx: np.ndarray) -> None:
    """One SSAG update: refresh one class slot, move along the slot mean.

    Takes the step's draw, class j and n of its samples drawn without
    replacement, writes their mean gradient into slot j, and steps
    W <- W - (h/C) * sum of all slots.  Like every step, it does not check
    that W stays finite.
    """
    slot = state._table[j]
    subtract(state.table_sum, slot, state._scratch[0])
    obj.grad_class_batch(state.W, j, idx, slot)
    _table_average_step(state, slot)


#: the functions that `_ssag_short_rows` stands in for, as defined, whatever
#: names are bound to them when a run starts
_SSAG_STEP, _GRAD_BATCH, _GRAD_CLASS_BATCH = (ssag_step, _LinearObjective.grad_batch,
                                              Objective.grad_class_batch)


def _ssag_short_rows(state: State, obj: Objective, strata: list, indices: np.ndarray) -> None:
    """`ssag_step` over a segment's draws at n = 1, on Python floats.

    W, the table and its sum are read once and written back at the end or,
    if a step raises, as they stood before it.  Each step checks its draw's
    class as `Objective.grad_class_batch` does, takes the gradient from
    `grad_batch`'s short-row formula (`_LinearObjective._row_grad`), and
    rounds the update as `ssag_step`'s ufuncs do: the sum as
    ``(sum - old) + new``, then W - sum * (h/C).
    """
    W, table, table_sum = state.W, state._table, state.table_sum
    ws, slots, total = W.tolist(), table.tolist(), table_sum.tolist()
    h_per_slot, row_grad = state._h_per_slot.item(), obj._row_grad
    features, class_of = obj.dataset.features, obj.dataset.class_of
    N, dims, done = class_of.size, range(len(ws)), 0
    try:
        for j, i in zip(strata, indices[:, 0].tolist()):
            if not 0 <= i < N or class_of.item(i) != j:
                raise not_in_class([i], j)
            g, old = row_grad(i, features[i].tolist(), ws), slots[j]
            slots[j] = g
            # one loop over the entries: two list comprehensions cost twice as much
            for k in dims:
                s = total[k] = (total[k] - old[k]) + g[k]
                ws[k] -= s * h_per_slot
            done += 1
    finally:
        W[...], table[...], table_sum[...] = ws, slots, total
        state.steps += done


def segment_stepper(step: Callable, obj: Objective, n: int) -> Callable:
    """The function ``(state, obj, strata, indices)`` that takes a segment's
    steps for `run`, given the run's step function, objective and batch size.

    `_ssag_short_rows` when the step is this module's own `ssag_step`, n is
    1, and ``obj`` is a ridge or logistic model with rows shorter than
    `core.SHORT_ROW` whose ``grad_batch`` and ``grad_class_batch`` are the
    package's own; otherwise a loop that calls ``step`` once per draw.
    """
    if (step is _SSAG_STEP and n == 1
            and getattr(obj.grad_batch, "__func__", None) is _GRAD_BATCH
            and getattr(obj.grad_class_batch, "__func__", None) is _GRAD_CLASS_BATCH
            and obj._short_rows):
        return _ssag_short_rows

    def per_step(state, obj, strata, indices):
        for j, idx in zip(strata, indices):
            step(state, obj, j, idx)

    return per_step


def sag_step(state: State, obj: Objective, j: int, idx: np.ndarray) -> None:
    """One SAG update: SSAG over the N singleton strata {i}.

    The draw of one sample i from the population is the stratum draw, since
    the draw inside a one-element cell consumes no generator state.  It does
    not check that W stays finite.
    """
    slot = state._table[idx.item()]
    subtract(state.table_sum, slot, state._scratch[0])
    obj.grad_batch(state.W, idx, slot)
    _table_average_step(state, slot)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Coordinate-wise soft-thresholding, the L1 prox map."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def saga_step(state: State, obj: Objective, j: int, idx: np.ndarray) -> None:
    """One SAGA update with optional L1 prox, on the drawn sample i.

    The candidate uses the pre-update slot value and table mean:
    W - h * (G_i(W) - phi_i + sum/N).  The slot is refreshed as SAG's is, with
    -phi_i kept in a scratch row: G_i(W) + (-phi_i) rounds as G_i(W) - phi_i,
    signed zeros included.  The table has N rows, so N is the slot count, and
    the mean sum/N goes in the third scratch row.  The L1 prox writes into W.
    """
    W, table_sum, slot = state.W, state.table_sum, state._table[idx.item()]
    rest, d, mean = state._scratch
    subtract(table_sum, slot, rest)
    negative(slot, d)
    obj.grad_batch(W, idx, slot)
    add(slot, d, d)
    divide(table_sum, state._slots, mean)
    multiply(add(d, mean, d), state._h, d)
    subtract(W, d, W)
    add(rest, slot, table_sum)
    if state.prox_l1 is not None:
        W[...] = soft_threshold(W, state.h * state.prox_l1)
    state.steps += 1


def svrg_outer(state: State, obj: Objective, j: int, idx: np.ndarray) -> None:
    """One SVRG inner step W <- W - h * (G_i(W) - G_i(snapshot) + snapshot_grad)
    on the drawn sample i.

    At every multiple of m steps, starting at step 0, the snapshot first
    moves to the current iterate and its full gradient is recomputed, unless
    the iterate is not finite: `grad_full` refuses it, and W stays so anyway.
    ValueError if the state has no m or the first snapshot's W is not finite.
    """
    try:
        refresh = state.steps % state.m == 0
    except (TypeError, ZeroDivisionError):
        raise ValueError(f"SVRG needs the state's refresh period m, got {state.m!r}") from None
    if refresh:
        if all_finite(state.W):
            state.snapshot = state.W.copy()
            state.snapshot_grad = obj.grad_full(state.snapshot)
        elif state.snapshot is None:
            raise ValueError("SVRG's first snapshot needs a finite W")
    g, g_snapshot = state._scratch[:2]
    W = state.W
    obj.grad_batch(W, idx, g)
    obj.grad_batch(state.snapshot, idx, g_snapshot)
    subtract(g, g_snapshot, g)
    add(g, state.snapshot_grad, g)
    subtract(W, multiply(g, state._h, g), W)
    state.steps += 1


def minibatch_step(state: State, obj: Objective, j: int, idx: np.ndarray) -> None:
    """One mini-batch update W <- W - h * mean gradient of the samples ``idx``,
    n drawn uniformly without replacement.

    n = N reduces to fgd_step and n = 1 to sgd_step, step for step: both are
    this function.  FGD steps on ``idx = dataset.rows``, which the kernel
    reads in place; a full batch takes no draw.  It does not check that W
    stays finite.
    """
    W = state.W
    g = obj.grad_batch(W, idx, state._scratch[0])
    subtract(W, multiply(g, state._h, g), W)
    state.steps += 1


#: A full-gradient step (on ``dataset.rows``) and an SGD step (on one
#: uniformly drawn sample) are mini-batch steps.
fgd_step = sgd_step = minibatch_step


def _inner_length(m: int | None, n_samples: int) -> int:
    """SVRG's snapshot refresh period: m if set, else 2N."""
    return m if m is not None else 2 * n_samples


def _svrg_evals(N: int, n: int, m: int | None, k: int) -> int:
    """A snapshot's N at steps 0, m, 2m, ... below k, and two per step."""
    return N * -(-k // _inner_length(m, N)) + 2 * k


@dataclass(frozen=True)
class OptimizerSpec:
    """Everything that differs between optimizer kinds.

    ``step`` names the kind's step function in this module; `run` looks the
    name up when it starts, so replacing the module attribute replaces the
    step.  ``source(dataset, n)`` gives the ``(source, n)`` of the step's
    `RngStream.take` draws, or None for a full batch, which steps on
    ``dataset.rows`` without a draw.  ``default_h(L, dataset)`` is the
    theoretical step size, ``evals(N, n, m, k)`` the exact gradient
    evaluations of the first k steps, ``slots(dataset)`` the row count of
    the state's gradient table, and ``settings`` the `RunConfig` settings
    the step reads besides ``h``.  ``batch_limit(dataset)`` gives the largest
    batch ``n`` the kind can draw and the name of what bounds it, or is None
    if the kind ignores ``n``.  ``envelope`` is the theorem whose envelope
    `ssag verify-bound` checks for this kind (2 for the stratified method, 1
    for the uniform-batch kinds), or None.
    """

    step: str
    source: Callable[[Dataset, int], tuple[Dataset | int, int] | None]
    default_h: Callable[[float, Dataset], float]
    evals: Callable[[int, int, int | None, int], int]
    slots: Callable[[Dataset], int]
    settings: tuple[str, ...]
    batch_limit: Callable[[Dataset], tuple[int, str]] | None = None
    envelope: int | None = None


def _one_sample(ds: Dataset, n: int) -> tuple[int, int]:
    return ds.n_samples, 1


SPECS = {
    "fgd": OptimizerSpec("fgd_step", lambda ds, n: None, lambda L, ds: 1.0 / L,
                         lambda N, n, m, k: k * N, lambda ds: 0, (), envelope=1),
    "sgd": OptimizerSpec("sgd_step", _one_sample, lambda L, ds: 1.0 / L,
                         lambda N, n, m, k: k, lambda ds: 0, (), envelope=1),
    "minibatch": OptimizerSpec("minibatch_step",
                               lambda ds, n: (ds.n_samples, n) if n < ds.n_samples else None,
                               lambda L, ds: 1.0 / L, lambda N, n, m, k: k * n,
                               lambda ds: 0, ("n",),
                               lambda ds: (ds.n_samples, "the sample count"), 1),
    "sag": OptimizerSpec("sag_step", _one_sample, lambda L, ds: 1.0 / (16.0 * L),
                         lambda N, n, m, k: k, lambda ds: ds.n_samples, ()),
    "svrg": OptimizerSpec("svrg_outer", _one_sample, lambda L, ds: 1.0 / (3.0 * L),
                          _svrg_evals, lambda ds: 0, ("m",)),
    "saga": OptimizerSpec("saga_step", _one_sample, lambda L, ds: 1.0 / (3.0 * L),
                          lambda N, n, m, k: k, lambda ds: ds.n_samples, ("prox_l1",)),
    "ssag": OptimizerSpec("ssag_step", lambda ds, n: (ds, n),
                          lambda L, ds: 1.0 / (2.0 * ds.n_classes * L),
                          lambda N, n, m, k: k * n, lambda ds: ds.n_classes, ("n",),
                          lambda ds: (int(ds.class_counts.min()), "the smallest class"), 2),
}

#: The `RunConfig` settings that some kind reads besides ``h``, in order of first use.
SETTINGS = tuple(dict.fromkeys(key for spec in SPECS.values() for key in spec.settings))


def _spec(kind: str) -> OptimizerSpec:
    try:
        return SPECS[kind]
    except KeyError:
        raise ConfigError(f"unknown optimizer kind {kind!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single optimizer run.

    ``h = None`` resolves to the kind's theoretical default step size
    (`resolve_step_size`), computed from certified convexity constants; an
    explicit h must be finite and >= 0 (h = 0 freezes the iterate).  Settings
    the kind does not read (`OptimizerSpec.settings`) keep their defaults.
    """

    kind: str
    steps: int
    h: float | None = None
    n: int = 1
    m: int | None = None
    prox_l1: float | None = None
    seed: int = 0
    cadence: int = 1
    record_variance: bool = False

    def __post_init__(self):
        reads = _spec(self.kind).settings
        for key, low, noun in (("steps", 0, "the step budget"), ("seed", 0, "the generator seed"),
                               ("cadence", 1, "the metric cadence"), ("n", 1, "the batch size"),
                               ("m", 1, "SVRG's inner-loop length")):
            value = getattr(self, key)
            if not (is_int(value) and value >= low or key == "m" and value is None):
                raise ConfigError(f"{key} must be an integer >= {low} ({noun}), got {value!r}")
        for key, noun in (("h", "step size h"), ("prox_l1", "l1 weight prox_l1")):
            value = getattr(self, key)
            if value is not None and not (is_real(value) and value >= 0):
                raise ConfigError(f"{noun} must be a finite number >= 0, got {value!r}")
        ignored = sorted(key for key in SETTINGS
                         if key not in reads and getattr(self, key) != getattr(RunConfig, key))
        if ignored:
            raise ConfigError(f"optimizer kind {self.kind!r} ignores the settings {ignored}; "
                              f"it reads {['h', *reads]}, others must keep their defaults")


def resolve_step_size(config: RunConfig, obj: Objective, constants=None) -> float:
    """The run's step size: ``config.h``, else the kind's theoretical default
    from certified constants (estimated when not passed)."""
    if config.h is not None:
        return float(config.h)
    try:
        constants = constants if constants is not None else estimate_constants(obj)
    except UnsupportedObjectiveError as exc:
        raise ConfigError(
            f"no automatic step size for objective kind {obj.kind!r}; "
            "set h explicitly") from exc
    return SPECS[config.kind].default_h(constants.L, obj.dataset)


def make_state(config: RunConfig, obj: Objective, constants=None) -> State:
    """Initial optimizer state for a run (table zeroed, W from the objective).

    ConfigError if ``config.n`` exceeds the kind's batch limit.
    """
    spec, ds = SPECS[config.kind], obj.dataset
    if spec.batch_limit is not None:
        limit, bound = spec.batch_limit(ds)
        if config.n > limit:
            raise ConfigError(f"batch size {config.n} exceeds {bound} ({limit} samples)")
    W0 = obj.init_params(seed=config.seed)
    return State(W=W0, h=resolve_step_size(config, obj, constants),
                 table=np.zeros((spec.slots(ds), W0.size)),
                 m=_inner_length(config.m, ds.n_samples), prox_l1=config.prox_l1)


def steps_for_passes(kind: str, passes: float, n_samples: int, n: int = 1,
                     m: int | None = None) -> int:
    """Step count whose exact gradient evaluations are nearest the given data
    passes; a tie goes to the even count, as `round` rounds.  ConfigError
    unless ``passes`` is a finite number >= 0 whose product with
    ``n_samples`` is below 2**63, the longest range `bisect` searches."""
    if not (is_real(passes) and passes >= 0 and passes * n_samples < sys.maxsize):
        raise ConfigError(f"passes must be a finite number >= 0 whose product with the "
                          f"{n_samples} samples is below 2**63, got {passes!r}")

    def evals(k):
        return _spec(kind).evals(n_samples, n, m, k)

    # twice the request, so that comparing it with the sum of two integer
    # counts (twice their midpoint) is exact
    target = 2 * passes * n_samples
    # the first k whose count reaches the request; every step costs at least
    # one evaluation, so k <= ceil(passes * N)
    k = bisect.bisect_left(range(math.ceil(passes * n_samples) + 1), target,
                           key=lambda k: 2 * evals(k))
    if k == 0:
        return 0
    midpoint = evals(k - 1) + evals(k)
    return k - 1 if target < midpoint or (target == midpoint and k % 2) else k


def run(config: RunConfig, obj: Objective, *, constants=None,
        w_star: np.ndarray | None = None, test_dataset=None) -> RunRecord:
    """Execute one seeded run and record metrics at the configured cadence.

    Records a row at step 0, whenever the step counter crosses a cadence
    multiple, and at the final step.  A recorded loss above
    DIVERGENCE_LOSS_LIMIT truncates the record and flags it diverged, as
    does an iterate that is not finite at the end of a segment of steps
    (see the module note); the record then ends at the row before.  The
    trajectory is fully deterministic given the seed.  A row's ``grad_evals``
    is the kind's `OptimizerSpec.evals` at its step.

    The steps between two boundaries (a record, the end of a block of draws
    and a recompute) are one segment, taken by `segment_stepper`'s function:
    one step call per draw, unless the float kernel applies.  A step or
    objective kernel replaced by name sees every step.
    """
    rng = RngStream(config.seed)
    spec, ds = SPECS[config.kind], obj.dataset
    N, source = ds.n_samples, spec.source(ds, config.n)
    advance = segment_stepper(globals()[spec.step], obj, config.n)
    state = make_state(config, obj, constants)
    rows = []
    t0 = time.perf_counter()

    def snapshot() -> bool:
        loss = obj.loss_full(state.W)
        dist = squared_distance(state.W, w_star) if w_star is not None else float("nan")
        acc = accuracy(obj, state.W, test_dataset) if test_dataset is not None else float("nan")
        # gradient_population_stats' population variance; a linear model sums
        # it from the residuals of the loss's margin pass instead, one block of
        # rows at a time, so no snapshot builds an N x p matrix
        sigma_sq = (obj.population_variance(state.W) if config.record_variance
                    else float("nan"))
        evals = spec.evals(N, config.n, config.m, state.steps)
        rows.append((state.steps, evals / N, loss, acc, dist, evals,
                     (time.perf_counter() - t0) * 1e3, sigma_sq))
        return math.isfinite(loss) and loss <= DIVERGENCE_LOSS_LIMIT

    alive = snapshot()
    next_record = config.cadence
    every = SUM_RECOMPUTE_EVERY
    start = end = 0  # the steps whose draws the block holds
    # steps past a non-finite W warn of overflow and invalid values; one
    # errstate for the loop costs less than one per segment (at cadence 1, a step)
    with np.errstate(over="ignore", invalid="ignore"):
        while alive and state.steps < config.steps:
            if state.steps == end:
                start, end = end, min(end + max(1, _BLOCK_INDICES // config.n), config.steps)
                if source is None:
                    strata, indices = [0] * (end - start), [ds.rows] * (end - start)
                else:
                    strata, indices = rng.take(*source, end - start)
                    strata = strata.tolist()
            # step without a check up to the next boundary: a record, the end
            # of the block of draws (the budget's end among them) or a recompute
            stop = min(next_record, end, (state.steps // every + 1) * every)
            a, b = state.steps - start, stop - start
            advance(state, obj, strata[a:b], indices[a:b])
            # before the recompute and the snapshot, whose loss_full refuses it
            alive = all_finite(state.W)
            if not alive:
                break
            if state.steps % every == 0:
                recompute_sum(state)
            if state.steps >= next_record or state.steps >= config.steps:
                alive = snapshot()
                next_record = (state.steps // config.cadence + 1) * config.cadence
    return RunRecord.from_rows(rows, seed=config.seed, diverged=not alive)


def run_seeds(config: RunConfig, obj: Objective, seeds, **run_kwargs) -> list[RunRecord]:
    """One `run` per seed, in the given order, with the rest of ``config``
    and the keyword arguments of `run` shared."""
    return [run(replace(config, seed=seed), obj, **run_kwargs) for seed in seeds]
