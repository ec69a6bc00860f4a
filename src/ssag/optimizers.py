"""The seven optimizers (FGD, SGD, mini-batch SGD, SAG, SVRG, SAGA, and SSAG):
one registry of per-kind specs (`SPECS`) over four step kernels and one
`State`.  SSAG and SAG share the table-averaged step (SAG is SSAG over N
singleton strata), SAGA steps on the same gradient table, FGD, SGD and
mini-batch SGD share the uniform-batch step, and SVRG advances one inner step
at a time.  A kind's spec decides how many table slots its state keeps; the
running sum of the slots is recomputed exactly every ``sum_recompute_every``
steps to cap floating drift.

Note on stratified sampling: each SSAG step refreshes the drawn class's slot
with the mean gradient of a fresh within-class batch and moves along the mean
of the C slots.  Under class imbalance that direction targets the
class-balanced gradient, not the sample-weighted full gradient; the update is
implemented literally as specified.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .core import Dataset, estimate_constants, gradient_population_stats, squared_distance
from .errors import ConfigError, DivergenceError, UnsupportedObjectiveError
from .objectives import Objective, accuracy
from .records import RunRecord
from .sampling import RngStream, sample_class, sample_uniform, sample_within_class

#: A recorded loss above this value marks the run as diverged.
DIVERGENCE_LOSS_LIMIT = 1e12


@dataclass
class State:
    """The memory of one run, the same fields for every optimizer kind.

    ``table`` holds one gradient slot per stratum: C rows for SSAG, N for SAG
    and SAGA, none for the memoryless kinds (an empty table by default);
    ``table_sum`` defaults to its exact sum.
    ``snapshot`` and ``snapshot_grad`` are SVRG's; ``n``, ``m`` (SVRG's
    resolved refresh period), ``prox_l1`` and ``schedule`` are the run's
    settings, read only by the kinds that use them.
    """

    W: np.ndarray
    h: float
    table: np.ndarray | None = None      # (slots, p), zero-initialized
    table_sum: np.ndarray | None = None  # (p,), running sum of the slots
    snapshot: np.ndarray | None = None
    snapshot_grad: np.ndarray | None = None
    n: int = 1
    m: int | None = None
    prox_l1: float | None = None
    schedule: str = "constant"  # "constant" or "inv_k"
    steps: int = 0
    grad_evals: int = 0

    def __post_init__(self):
        if self.table is None:
            self.table = np.zeros((0, self.W.size))
        if self.table_sum is None:
            self.table_sum = self.table.sum(axis=0)


def _commit(state: State, W: np.ndarray, evals: int) -> State:
    """Accept the next iterate and count it; DivergenceError if not finite."""
    prev = state.W
    state.W = W
    state.steps += 1
    state.grad_evals += evals
    if not np.isfinite(W).all():
        raise DivergenceError("optimizer produced a non-finite iterate",
                              last_finite=prev, steps=state.steps)
    return state


def recompute_sum(state: State) -> State:
    """Replace the cached running sum with the exact table sum (zeros if empty)."""
    state.table_sum = state.table.sum(axis=0)
    return state


def _refresh_slot(state: State, j: int, phi: np.ndarray) -> None:
    state.table_sum = state.table_sum - state.table[j] + phi
    state.table[j] = phi


def _table_average_step(state: State, j: int, phi: np.ndarray, evals: int) -> State:
    """Write phi into slot j, then step W <- W - (h/slots) * sum of all slots."""
    _refresh_slot(state, j, phi)
    return _commit(state, state.W - (state.h / state.table.shape[0]) * state.table_sum, evals)


def ssag_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One SSAG update: refresh one class slot, move along the slot mean.

    Draws class j uniformly, draws n within-class samples without
    replacement, writes their mean gradient into slot j, and steps
    W <- W - (h/C) * sum of all slots.
    """
    ds = obj.dataset
    j = sample_class(rng, ds.n_classes)
    idx = sample_within_class(rng, ds, j, state.n)
    return _table_average_step(state, j, obj.grad_class_batch(state.W, j, idx), idx.size)


def sag_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One SAG update: SSAG over the N singleton strata {i}.

    The stratum draw picks sample i.  A draw from a one-element cell returns
    that element without consuming generator state, so it is skipped, and
    no cell arrays are built.
    """
    i = sample_class(rng, obj.dataset.n_samples)
    return _table_average_step(state, i, obj.grad_batch(state.W, np.array([i])), 1)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Coordinate-wise soft-thresholding, the L1 prox map."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def saga_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One SAGA update with optional L1 prox.

    The candidate uses the pre-update slot value and table mean:
    W - h * (G_i(W) - phi_i + sum/N); the slot is refreshed afterwards.
    """
    N = obj.dataset.n_samples
    i = sample_class(rng, N)
    g = obj.grad_batch(state.W, np.array([i]))
    W = state.W - state.h * (g - state.table[i] + state.table_sum / N)
    _refresh_slot(state, i, g)
    if state.prox_l1 is not None:
        W = soft_threshold(W, state.h * state.prox_l1)
    return _commit(state, W, 1)


def svrg_outer(state: State, obj: Objective, rng: RngStream) -> State:
    """One SVRG inner step W <- W - h * (G_i(W) - G_i(snapshot) + snapshot_grad).

    At every multiple of m steps, starting at step 0, the snapshot first
    moves to the current iterate and its full gradient is recomputed.
    """
    N = obj.dataset.n_samples
    if state.steps % state.m == 0:
        state.snapshot = state.W.copy()
        state.snapshot_grad = obj.grad_full(state.snapshot)
        state.grad_evals += N
    idx = sample_uniform(rng, N, 1)
    direction = (obj.grad_batch(state.W, idx) - obj.grad_batch(state.snapshot, idx)
                 + state.snapshot_grad)
    return _commit(state, state.W - state.h * direction, 2)


def _uniform_batch_step(state: State, obj: Objective, rng: RngStream,
                        n: int) -> State:
    """W <- W - h_k * mean gradient of n samples drawn uniformly without replacement.

    n = N takes ``dataset.rows`` without a draw, as `sample_uniform` would,
    so the kernel reads the rows in place.
    """
    ds = obj.dataset
    idx = ds.rows if n == ds.n_samples else sample_uniform(rng, ds.n_samples, n)
    h = state.h / (state.steps + 1) if state.schedule == "inv_k" else state.h
    return _commit(state, state.W - h * obj.grad_batch(state.W, idx), idx.size)


def fgd_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One full-gradient step W <- W - h_k * grad_full(W).

    This is the uniform-batch step with n = N; the exhaustive draw consumes
    no generator state.
    """
    return _uniform_batch_step(state, obj, rng, obj.dataset.n_samples)


def sgd_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One SGD update along a single uniformly drawn sample gradient."""
    return _uniform_batch_step(state, obj, rng, 1)


def minibatch_step(state: State, obj: Objective, rng: RngStream) -> State:
    """One mini-batch update along the mean gradient of n uniform samples.

    n = N reduces to fgd_step and n = 1 to sgd_step, step for step.
    """
    return _uniform_batch_step(state, obj, rng, state.n)


def _inner_length(m: int | None, n_samples: int) -> int:
    """SVRG's snapshot refresh period: m if set, else 2N."""
    return m if m is not None else 2 * n_samples


def _svrg_evals(N: int, n: int, m: int | None) -> float:
    m = _inner_length(m, N)
    return (N + 2.0 * m) / m


@dataclass(frozen=True)
class OptimizerSpec:
    """Everything that differs between optimizer kinds.

    ``step`` names the kind's step function in this module; `run` looks the
    name up when it starts, so replacing the module attribute replaces the
    step.  ``default_h(L, dataset)`` is the theoretical step size,
    ``evals_per_step(N, n, m)`` the mean gradient evaluations per step,
    ``slots(dataset)`` the row count of the state's gradient table, and
    ``settings`` the `RunConfig` settings the step reads besides ``h``.
    ``batch_limit(dataset)`` gives the largest batch ``n`` the kind can draw
    and the name of what bounds it, or is None if the kind ignores ``n``.
    ``envelope`` is the theorem whose envelope `ssag verify-bound` checks
    for this kind (2 for the stratified method, 1 for the uniform-batch
    kinds), or None.
    """

    step: str
    default_h: Callable[[float, Dataset], float]
    evals_per_step: Callable[[int, int, int | None], float]
    slots: Callable[[Dataset], int]
    settings: tuple[str, ...]
    batch_limit: Callable[[Dataset], tuple[int, str]] | None = None
    envelope: int | None = None


SPECS = {
    "fgd": OptimizerSpec("fgd_step", lambda L, ds: 1.0 / L, lambda N, n, m: N,
                         lambda ds: 0, ("schedule",), envelope=1),
    "sgd": OptimizerSpec("sgd_step", lambda L, ds: 1.0 / L, lambda N, n, m: 1,
                         lambda ds: 0, ("schedule",), envelope=1),
    "minibatch": OptimizerSpec("minibatch_step", lambda L, ds: 1.0 / L, lambda N, n, m: n,
                               lambda ds: 0, ("n", "schedule"),
                               lambda ds: (ds.n_samples, "the sample count"), 1),
    "sag": OptimizerSpec("sag_step", lambda L, ds: 1.0 / (16.0 * L), lambda N, n, m: 1,
                         lambda ds: ds.n_samples, ()),
    "svrg": OptimizerSpec("svrg_outer", lambda L, ds: 1.0 / (3.0 * L), _svrg_evals,
                          lambda ds: 0, ("m",)),
    "saga": OptimizerSpec("saga_step", lambda L, ds: 1.0 / (3.0 * L), lambda N, n, m: 1,
                          lambda ds: ds.n_samples, ("prox_l1",)),
    "ssag": OptimizerSpec("ssag_step", lambda L, ds: 1.0 / (2.0 * ds.n_classes * L),
                          lambda N, n, m: n, lambda ds: ds.n_classes, ("n",),
                          lambda ds: (int(ds.class_counts.min()), "the smallest class"), 2),
}

OPTIMIZER_KINDS = tuple(SPECS)

#: Required and optional keys of the optimizer section of an experiment
#: config, per kind, besides ``kind``.
OPTIMIZER_KEYS = {kind: ((), ("h", "n", "m", "prox_l1", "schedule")) for kind in SPECS}


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
    explicit h must be finite and >= 0 (h = 0 freezes the iterate).
    """

    kind: str
    steps: int
    h: float | None = None
    n: int = 1
    m: int | None = None
    prox_l1: float | None = None
    schedule: str = "constant"
    seed: int = 0
    cadence: int = 1
    record_variance: bool = False
    sum_recompute_every: int = 10_000

    def __post_init__(self):
        _spec(self.kind)
        if self.h is not None and not 0.0 <= self.h < np.inf:
            raise ConfigError(f"step size h must be finite and >= 0, got {self.h}")
        l1 = self.prox_l1
        if l1 is not None and (isinstance(l1, bool) or not isinstance(l1, Real)
                               or not 0 <= l1 < np.inf):
            raise ConfigError(f"l1 weight prox_l1 must be a finite number >= 0, got {l1!r}")
        if self.steps < 0:
            raise ConfigError("step budget must be >= 0")
        if self.cadence < 1:
            raise ConfigError("metric cadence must be >= 1")
        if self.n < 1:
            raise ConfigError("batch size must be >= 1")
        if self.m is not None and self.m < 1:
            raise ConfigError("SVRG inner-loop length m must be >= 1")
        if self.schedule not in ("constant", "inv_k"):
            raise ConfigError(f"unknown step-size schedule {self.schedule!r}")
        if self.sum_recompute_every < 1:
            raise ConfigError("running-sum recompute period must be >= 1")

    def fingerprint(self) -> str:
        payload = ";".join(f"{k}={getattr(self, k)!r}" for k in sorted(self.__dataclass_fields__))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


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
                 table=np.zeros((spec.slots(ds), W0.size)), n=config.n,
                 m=_inner_length(config.m, ds.n_samples), prox_l1=config.prox_l1,
                 schedule=config.schedule)


def steps_for_passes(kind: str, passes: float, n_samples: int, n: int = 1,
                     m: int | None = None) -> int:
    """Step count whose gradient evaluations amount to the given data passes."""
    per_step = _spec(kind).evals_per_step(n_samples, n, m)
    return max(int(round(passes * n_samples / per_step)), 0)


def run(config: RunConfig, obj: Objective, *, constants=None,
        w_star: np.ndarray | None = None, test_dataset=None,
        config_hash: str | None = None) -> RunRecord:
    """Execute one seeded run and record metrics at the configured cadence.

    Records a row at step 0, whenever the step counter crosses a cadence
    multiple, and at the final step.  Loss above DIVERGENCE_LOSS_LIMIT or a
    non-finite iterate truncates the record and flags it diverged.  The
    trajectory is fully deterministic given the seed.
    """
    rng = RngStream(config.seed)
    step = globals()[SPECS[config.kind].step]
    state = make_state(config, obj, constants)
    rows = []
    t0 = time.perf_counter()

    def snapshot() -> bool:
        loss = obj.loss_full(state.W)
        dist = squared_distance(state.W, w_star) if w_star is not None else float("nan")
        acc = accuracy(obj, state.W, test_dataset) if test_dataset is not None else float("nan")
        sigma_sq = (gradient_population_stats(obj, state.W).population_variance
                    if config.record_variance else float("nan"))
        rows.append((state.steps, state.grad_evals / obj.dataset.n_samples, loss,
                     acc, dist, state.grad_evals, (time.perf_counter() - t0) * 1e3, sigma_sq))
        return bool(np.isfinite(loss)) and loss <= DIVERGENCE_LOSS_LIMIT

    alive = snapshot()
    next_record = config.cadence
    while alive and state.steps < config.steps:
        try:
            step(state, obj, rng)
        except DivergenceError:
            alive = False
            break
        if state.steps % config.sum_recompute_every == 0:
            recompute_sum(state)
        if state.steps >= next_record or state.steps >= config.steps:
            alive = snapshot()
            next_record = (state.steps // config.cadence + 1) * config.cadence
    return RunRecord.from_rows(rows, seed=config.seed, diverged=not alive,
                               config_hash=config_hash if config_hash is not None
                               else config.fingerprint())
