"""Closed-form evaluators for the convergence analysis.

Covers the convergence-variance inequality (the optimality-gap envelope
lam + rho^k (gap - lam) with its variance-induced floor lam), the stratified
method's squared-distance envelope and iteration-complexity bound, the rate
constants of the compared methods, and the finite-population variance
identity, plus helpers that measure the required inputs on a concrete
problem and check recorded trajectories against an envelope.

The gap envelope treats the floor term as iteration-indexed (constant under a
constant step size), not as a constant raised to the k-th power; the floor of
constant-step SGD does not decay, which is exactly what the inequality is
meant to express.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConvexityConstants, estimate_constants,
                   gradient_population_stats, squared_distance)
from .errors import OutOfRegimeError, SsagError, UndefinedBoundError
from .objectives import Objective
from .records import Aggregate


@dataclass(frozen=True)
class CviInputs:
    """Inputs of the convergence-variance inequality.

    Requires 0 <= mu <= L (`ConvexityConstants`), 0 < h < 2/L and the
    sampling ranges of `finite_population_variance`.
    """

    h: float
    L: float
    mu: float
    f: float
    n: int
    sigma_sq: float

    def __post_init__(self):
        ConvexityConstants(self.L, self.mu)
        if not (0.0 < self.h < 2.0 / self.L):
            raise OutOfRegimeError(f"step size {self.h} outside (0, 2/L) = (0, {2.0 / self.L})")
        _check_sampling(self.sigma_sq, self.f, self.n)


def cvi_lambda(inp: CviInputs) -> float:
    """Variance floor lam = h L (1-f) sigma^2 / (2 mu (2 - h mu) n).

    Zero when f = 1 (census sampling) or the variance vanishes.  Undefined
    when mu = 0 or h mu = 2.
    """
    if inp.mu == 0.0:
        raise UndefinedBoundError("variance floor undefined for mu = 0")
    if inp.h * inp.mu == 2.0:
        raise UndefinedBoundError("variance floor undefined for h*mu = 2")
    return (inp.h * inp.L * finite_population_variance(inp.sigma_sq, inp.f, inp.n)
            / (2.0 * inp.mu * (2.0 - inp.h * inp.mu)))


def cvi_rho(h: float, L: float, mu: float) -> float:
    """Per-step gap contraction rho = h^2 mu L - 2 h mu + 1, < 1 on (0, 2/L)."""
    if not ConvexityConstants(L, mu).strongly_convex:
        raise ValueError("need mu > 0")
    if not (0.0 < h < 2.0 / L):
        raise OutOfRegimeError(f"step size {h} outside (0, 2/L) = (0, {2.0 / L})")
    return h * h * mu * L - 2.0 * h * mu + 1.0


def cvi_envelope(k: int, lam: float, rho: float, initial_gap: float) -> float:
    """Gap envelope lam + rho^k (initial_gap - lam) after k steps."""
    if not (0.0 <= rho < 1.0):
        raise OutOfRegimeError(f"rho = {rho} outside [0, 1)")
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    return lam + rho ** k * (initial_gap - lam)


@dataclass(frozen=True, eq=False)
class Theorem2Inputs:
    """Inputs of the stratified method's squared-distance envelope.

    ``f`` and ``n`` may be scalars (the single shared sampling ratio and
    batch size, as the bound is written) or length-C arrays f_c = n/N_c,
    n_c, the per-stratum ratios that `theorem2_inputs_for` measures;
    broadcasting handles both.

    The envelope decays geometrically to zero, while the stratified iterate
    retains a resampling noise floor proportional to the within-class
    gradient variance at the optimum; empirical checks can therefore only
    hold over horizons where that variance is small relative to the
    envelope (near-redundant classes), which balanced low-spread data
    provides.
    """

    mu: float
    L: float
    C: int
    f: float | np.ndarray
    n: int | np.ndarray
    sigma_c_sq: np.ndarray
    dist0_sq: float

    def __post_init__(self):
        if not ConvexityConstants(self.L, self.mu).strongly_convex:
            raise ValueError("need mu > 0")
        if self.C < 1:
            raise ValueError("class count must be >= 1")
        sig = np.asarray(self.sigma_c_sq, dtype=np.float64)
        if sig.ndim != 1 or sig.size != self.C:
            raise ValueError("need one per-class variance per class")
        _check_sampling(sig, self.f, self.n)
        if not self.dist0_sq >= 0.0:
            raise ValueError(f"initial squared distance must be >= 0, got {self.dist0_sq}")
        object.__setattr__(self, "sigma_c_sq", sig)

    @property
    def rate(self) -> float:
        """Geometric rate factor 1 - mu/(8CL), in (0, 1)."""
        return ssag_rate(self.mu, self.L, self.C)

    @property
    def variance_term(self) -> float:
        """(9/4) sum_c ((1 - f_c)/n_c) sigma_c^2 at the optimum."""
        return float(2.25 * np.sum(finite_population_variance(self.sigma_c_sq, self.f, self.n)))

    @property
    def bracket(self) -> float:
        """Variance term plus 3 * initial squared distance."""
        return self.variance_term + 3.0 * self.dist0_sq


def theorem2_bound(k: int, inp: Theorem2Inputs) -> float:
    """Squared-distance envelope rate^k * bracket after k steps."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    return inp.rate ** k * inp.bracket


def ssag_rate(mu: float, L: float, C: int) -> float:
    """Rate factor 1 - mu/(8CL) of the stratified average-gradient method."""
    return 1.0 - mu / (8.0 * C * L)


def sag_rate(mu: float, L: float, N: int) -> float:
    """Rate factor 1 - mu/(8NL) of the per-sample average-gradient method:
    the stratified rate over N singleton strata."""
    return ssag_rate(mu, L, N)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Iteration counts to reach a target accuracy epsilon.

    ``iterations`` uses the full envelope bracket (variance term plus the
    3*distance term) for internal consistency; ``literal_iterations`` is the
    published variance-only form, None when the variance term is zero and
    its logarithm is undefined.
    """

    iterations: int
    literal_iterations: int | None


def ssag_complexity(epsilon: float, inp: Theorem2Inputs) -> ComplexityEstimate:
    """Iterations k with rate^k * bracket <= epsilon, ceiling-rounded."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    log_rate = math.log(inp.rate)

    def count(bracket: float) -> int:
        if epsilon >= bracket:
            return 0
        return math.ceil(math.log(epsilon / bracket) / log_rate)

    var_term = inp.variance_term
    return ComplexityEstimate(iterations=count(inp.bracket),
                              literal_iterations=count(var_term) if var_term > 0.0 else None)


def _check_sampling(sigma_sq, f, n) -> None:
    """The one check of sampling inputs, each a scalar or one value per
    stratum: ValueError unless 0 < f <= 1, n >= 1 and sigma_sq >= 0
    everywhere; NaN fails."""
    if not np.all((0.0 < f) & (f <= 1.0)):
        raise ValueError(f"sampling ratio f must lie in (0, 1], got {f}")
    if not np.all(n >= 1):
        raise ValueError(f"sample size n must be >= 1, got {n}")
    if not np.all(sigma_sq >= 0.0):
        raise ValueError(f"population variance must be >= 0, got {sigma_sq}")


def finite_population_variance(sigma_sq, f, n):
    """Variance (1-f)/n * sigma^2 of a without-replacement sample mean: a
    float for scalar inputs, one value per stratum for per-stratum inputs."""
    _check_sampling(sigma_sq, f, n)
    return (1.0 - f) / n * sigma_sq


#: A point passes when value <= bound * (1 + ENVELOPE_SLACK), a slack for the Monte-Carlo error
#: of a mean over >= MIN_SEEDS seeds; a check passes when MIN_PASS_FRACTION of its points do.
ENVELOPE_SLACK = 0.05
MIN_SEEDS = 20
MIN_PASS_FRACTION = 0.99


@dataclass(frozen=True, eq=False)
class Envelope:
    """A seed-mean metric over ``n_seeds`` seeds and its envelope on the
    recorded steps ``k``; the envelope calls clamp the bounds at ``floor``, the
    metric's float64 resolution, and ``params`` names the envelope constants.
    SsagError when ``k`` holds no recorded step."""

    k: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    n_seeds: int
    slack: float = ENVELOPE_SLACK
    floor: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.size(self.k):
            raise SsagError("the envelope holds no recorded step to check")

    @property
    def passed(self) -> np.ndarray:
        """Per recorded step: value <= bound * (1 + slack)."""
        return self.values <= self.bounds * (1.0 + self.slack)

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(self.passed))

    @property
    def first_failure(self) -> int | None:
        """The first recorded iteration whose value exceeds its bound, or None."""
        failing = np.flatnonzero(~self.passed)
        return int(self.k[failing[0]]) if failing.size else None

    def summary(self) -> str:
        passed = self.passed
        return (f"{int(np.sum(passed))}/{passed.size} recorded iterations "
                f"within bound * (1 + {self.slack}) over {self.n_seeds} seeds "
                f"(pass fraction {self.pass_fraction:.4f})")

    def check(self) -> Envelope:
        """This envelope; SsagError unless it averages over at least `MIN_SEEDS`
        seeds and no value is missing (NaN)."""
        if self.n_seeds < MIN_SEEDS:
            raise SsagError(f"need seed-averaged metrics over >= {MIN_SEEDS} seeds, "
                            f"got {self.n_seeds}")
        if np.any(np.isnan(self.values)):
            raise SsagError("record lacks the required metric (NaN entries present)")
        return self


def check_envelope(k: np.ndarray, mean_values: np.ndarray, bounds: np.ndarray, *,
                   n_seeds: int, slack: float = ENVELOPE_SLACK) -> Envelope:
    """The `Envelope` of a seed-averaged metric against per-iteration bound
    values, checked for `MIN_SEEDS` seeds, a recorded step and no missing value."""
    k = np.asarray(k)
    mean_values = np.asarray(mean_values, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    if not (k.shape == mean_values.shape == bounds.shape):
        raise ValueError("k, values, and bounds must have matching shapes")
    return Envelope(k, mean_values, bounds, n_seeds, slack).check()


def reference_optimum(obj: Objective, *,
                      constants: ConvexityConstants | None = None) -> np.ndarray:
    """High-precision minimizer used as the distance oracle W*, as the
    objective's kind finds it (`_optimum`) with ``constants`` (estimated when
    None and needed); UnsupportedObjectiveError for other kinds."""
    return obj._optimum(constants)


def theorem2_inputs_for(obj: Objective, n: int, w0: np.ndarray, *,
                        constants: ConvexityConstants | None = None,
                        w_star: np.ndarray | None = None) -> Theorem2Inputs:
    """Measure the envelope inputs on a concrete problem.

    Per-class gradient variances are taken at the reference optimum, and the
    sampling ratios are the exact per-stratum f_c = n/N_c; on balanced classes
    each equals the shared ratio nC/N bit for bit, both being the correctly
    rounded quotient of the same rational number.
    """
    ds = obj.dataset
    constants = constants if constants is not None else estimate_constants(obj)
    if w_star is None:
        w_star = reference_optimum(obj, constants=constants)
    stats = gradient_population_stats(obj, w_star)
    return Theorem2Inputs(mu=constants.mu, L=constants.L, C=ds.n_classes,
                          f=n / ds.class_counts, n=n, sigma_c_sq=stats.per_class_variance,
                          dist0_sq=squared_distance(w0, w_star))


def theorem2_envelope(obj: Objective, agg: Aggregate, constants: ConvexityConstants,
                      w_star: np.ndarray, *, n: int, w0: np.ndarray) -> Envelope:
    """Theorem 2 for the stratified method with batch size n started at w0:
    the squared distance to W* against rate^k * bracket."""
    inp = theorem2_inputs_for(obj, n=n, w0=w0, constants=constants, w_star=w_star)
    bounds = np.array([theorem2_bound(int(k), inp) for k in agg.k])
    # squared distances cannot be measured below the float64 resolution
    # of the iterate itself; clamp the envelope there
    floor = 16.0 * obj.dim * (np.finfo(float).eps * (1.0 + float(np.linalg.norm(w_star)))) ** 2
    return Envelope(agg.k, agg.mean["dist_sq"], np.maximum(bounds, floor), agg.n_seeds,
                    floor=floor, params={"inputs": inp, "rate": inp.rate, "bracket": inp.bracket})


def theorem1_envelope(obj: Objective, agg: Aggregate, constants: ConvexityConstants,
                      w_star: np.ndarray, *, h: float, n: int) -> Envelope:
    """Theorem 1 for a uniform-batch method with step size h and n samples
    per step: the optimality gap against lam + rho^(k - k0) (gap0 - lam),
    anchored at the first recorded step after k = 0, with the variance floor
    lam taken from the last recorded gradient variance."""
    f = n / obj.dataset.n_samples
    sigma_sq = float(agg.mean["sigma_sq"][-1]) if f < 1.0 else 0.0
    lam = cvi_lambda(CviInputs(h=h, L=constants.L, mu=constants.mu, f=f, n=n,
                               sigma_sq=sigma_sq))
    rho = cvi_rho(h, constants.L, constants.mu)
    j_star = obj.loss_full(w_star)
    gaps = agg.mean["loss"] - j_star
    anchor = 1 if agg.k.size > 1 else 0
    bounds = np.array([cvi_envelope(int(k - agg.k[anchor]), lam, rho, float(gaps[anchor]))
                       for k in agg.k[anchor:]])
    # gaps are differences of O(|J*|) losses: clamp the envelope at the
    # float64 resolution of that subtraction
    floor = 8.0 * np.finfo(float).eps * max(1.0, abs(j_star))
    return Envelope(agg.k[anchor:], gaps[anchor:], np.maximum(bounds, floor), agg.n_seeds,
                    floor=floor, params={"f": f, "sigma_sq": sigma_sq, "lam": lam, "rho": rho,
                                         "j_star": j_star, "anchor": anchor})


def fit_decay_rate(k: np.ndarray, values: np.ndarray, *,
                   k_min: int = 0, k_max: float = np.inf) -> float:
    """Least-squares slope of ln(value) against k over a window.

    Returns the per-step log-decay rate (negative for decaying series).
    Non-positive and non-finite values are dropped; the window must keep at
    least two points.
    """
    k = np.asarray(k, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = (np.isfinite(values) & (values > 0.0) & (k >= k_min) & (k <= k_max))
    if np.sum(keep) < 2:
        raise ValueError("need at least two positive values inside the fit window")
    slope, _ = np.polyfit(k[keep], np.log(values[keep]), 1)
    return float(slope)
