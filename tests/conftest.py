"""Shared fixtures and independent test oracles."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import ssag


def central_diff_grad(f, W, step=1e-6):
    """Central finite-difference gradient: the independent oracle for
    analytic gradients."""
    g = np.zeros_like(W)
    for i in range(W.size):
        e = np.zeros_like(W)
        e[i] = step
        g[i] = (f(W + e) - f(W - e)) / (2.0 * step)
    return g


def grad_rel_error(analytic, numeric):
    """Norm of the difference, normalized by max(1, norm of analytic)."""
    return float(np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic)))


def fsum_population_variance(obj, W):
    """sum_i ||G_i - mean||^2 / (N - 1) over the `grad_sample` rows, 0 for one
    sample; the mean and the sum of squares are each summed exactly by
    math.fsum and rounded once."""
    N = obj.dataset.n_samples
    if N == 1:
        return 0.0
    G = [obj.grad_sample(W, i).tolist() for i in range(N)]
    mean = [math.fsum(column) / N for column in zip(*G)]
    return math.fsum((g - m) ** 2 for row in G for g, m in zip(row, mean)) / (N - 1)


def peak_alloc_bytes(fn, *args, **kwargs):
    """The most bytes that the allocations of one call ``fn(*args, **kwargs)``
    held at once, numpy's array buffers included, as tracemalloc counts them.
    What was allocated before the call does not count."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def subset_mean_gradients(obj, W, n):
    """Mean gradient of every size-n subset, by exhaustive enumeration."""
    N = obj.dataset.n_samples
    G = obj.grad_samples(W, np.arange(N))
    return np.array([G[list(s)].mean(axis=0) for s in combinations(range(N), n)])


def enumeration_mean_and_variance(obj, W, n):
    """Exact mean vector and scalar variance of the size-n subset mean.

    Variance is aggregated over coordinates (sum of per-coordinate
    variances), matching the package convention.
    """
    means = subset_mean_gradients(obj, W, n)
    grand = means.mean(axis=0)
    dev = means - grand
    return grand, float(np.sum(dev * dev) / means.shape[0])


# Reference optimizers, written out directly from their update rules.  The
# equivalence tests compare the package's step kernels against these, so a
# kernel shared between optimizer kinds is never checked against itself.
# Each draws from its own PCG64 generator seeded like ssag.RngStream, so a
# shared seed gives the same index stream.


def reference_sag(obj, h, seed, W0=None):
    """Per-sample average gradient (SAG): N table slots; each step draws one
    sample i uniformly, replaces slot i by G_i(W), and steps
    W <- W - (h/N) * sum of the slots.  Yields the iterate after each step."""
    N = obj.dataset.n_samples
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    table = np.zeros((N, W.size))
    total = np.zeros(W.size)
    while True:
        i = int(gen.integers(N))
        g = obj.grad_batch(W, np.array([i]))
        total = total - table[i] + g
        table[i] = g
        W = W - (h / N) * total
        yield W


def reference_fgd(obj, h, steps, W0=None, grad_tol=None):
    """Full-gradient descent W <- W - h * grad_full(W), after `steps` steps,
    or at the first iterate whose gradient norm is <= grad_tol if given."""
    W = obj.init_params() if W0 is None else W0
    for _ in range(steps):
        g = obj.grad_full(W)
        if grad_tol is not None and np.linalg.norm(g) <= grad_tol:
            break
        W = W - h * g
    return W


def reference_sgd(obj, h, steps, seed, W0=None):
    """Plain SGD along one uniformly drawn sample gradient per step, after
    `steps` steps."""
    N = obj.dataset.n_samples
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    for _ in range(steps):
        W = W - h * obj.grad_batch(W, np.array([int(gen.integers(N))]))
    return W


# Trajectory oracles: each runs `steps` steps from W0 (the objective's
# default start if None), one at a time, on per-sample gradients
# (`grad_samples` on fresh index arrays) and the one-call-per-draw oracles
# below.  Each returns the iterates after 0..steps steps, (steps + 1, p), and
# the gradient evaluations spent by then, (steps + 1,), counted as the loop
# spends them.


def _sample_mean_gradient(obj, W, idx):
    return obj.grad_samples(W, np.asarray(idx, dtype=np.int64)).mean(axis=0)


def reference_ssag(obj, h, steps, seed, n=1, W0=None):
    """SSAG: C table slots; each step draws class j and n of its samples,
    replaces slot j by their mean gradient, and steps
    W <- W - (h/C) * sum of the slots."""
    ds = obj.dataset
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    table = np.zeros((ds.n_classes, W.size))
    iterates, evals = [W], [0]
    for _ in range(steps):
        j, idx = reference_class_batch(gen, ds, n)
        table[j] = _sample_mean_gradient(obj, W, idx)
        W = W - (h / ds.n_classes) * table.sum(axis=0)
        iterates.append(W)
        evals.append(evals[-1] + len(idx))
    return np.array(iterates), np.array(evals)


def reference_minibatch(obj, h, steps, seed, n=1, W0=None):
    """Mini-batch SGD: W <- W - h * mean gradient of n samples drawn
    uniformly without replacement."""
    N = obj.dataset.n_samples
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    iterates, evals = [W], [0]
    for _ in range(steps):
        idx = reference_uniform_batch(gen, N, n)
        W = W - h * _sample_mean_gradient(obj, W, idx)
        iterates.append(W)
        evals.append(evals[-1] + len(idx))
    return np.array(iterates), np.array(evals)


def reference_saga(obj, h, steps, seed, prox_l1=None, W0=None):
    """SAGA: N table slots; each step draws sample i, moves to
    W - h * (G_i(W) - slot_i + mean of the slots) with the slots as they were
    before the step, then replaces slot i by G_i(W).  With an l1 weight the
    move is followed by soft-thresholding at h * prox_l1."""
    N = obj.dataset.n_samples
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    table = np.zeros((N, W.size))
    iterates, evals = [W], [0]
    for _ in range(steps):
        (i,) = reference_uniform_batch(gen, N, 1)
        g = _sample_mean_gradient(obj, W, [i])
        V = W - h * (g - table[i] + table.mean(axis=0))
        table[i] = g
        if prox_l1 is not None:
            V = np.sign(V) * np.maximum(np.abs(V) - h * prox_l1, 0.0)
        W = V
        iterates.append(W)
        evals.append(evals[-1] + 1)
    return np.array(iterates), np.array(evals)


def reference_svrg(obj, h, steps, seed, m, W0=None):
    """SVRG, one inner step per step: at steps 0, m, 2m, ... the snapshot
    moves to W and its full gradient mu is taken (N evaluations); each step
    draws sample i and steps W <- W - h * (G_i(W) - G_i(snapshot) + mu)
    (2 evaluations)."""
    N = obj.dataset.n_samples
    gen = np.random.Generator(np.random.PCG64(seed))
    W = obj.init_params() if W0 is None else W0
    iterates, evals = [W], [0]
    for k in range(steps):
        spent = 2
        if k % m == 0:
            snapshot, mu = W, _sample_mean_gradient(obj, W, np.arange(N))
            spent += N
        (i,) = reference_uniform_batch(gen, N, 1)
        W = W - h * (_sample_mean_gradient(obj, W, [i])
                     - _sample_mean_gradient(obj, snapshot, [i]) + mu)
        iterates.append(W)
        evals.append(evals[-1] + spent)
    return np.array(iterates), np.array(evals)


class EvaluationCounter:
    """Gradient evaluations counted at the kernel, outside `SPECS`.

    Wraps an objective's ``grad_batch``, which ``grad_full`` and
    ``grad_class_batch`` call, to add up ``indices.size`` over its calls,
    and its ``loss_full``, which `run` calls once per recorded row, to note
    the running total.  Linear objectives only: the MLP's ``grad_samples``
    calls ``grad_batch`` too.
    """

    def __init__(self, obj):
        self.total, self.at_loss = 0, []
        grad_batch, loss_full = obj.grad_batch, obj.loss_full

        def counted(W, indices, out=None):
            self.total += indices.size
            return grad_batch(W, indices, out=out)

        def noted(W):
            self.at_loss.append(self.total)
            return loss_full(W)

        obj.grad_batch, obj.loss_full = counted, noted


def reference_class_batch(gen, dataset, n):
    """One stratified step's draw from a plain np.random.Generator, one call
    per draw: the class j from `integers` (none for one class), then the
    batch from class j's cell with `integers` for one index or `choice`
    without replacement for more (none for the whole cell)."""
    C = dataset.n_classes
    j = int(gen.integers(C)) if C > 1 else 0
    cell = dataset.partition[j]
    if n == cell.size:
        return j, cell.copy()
    if n == 1:
        return j, cell[[int(gen.integers(cell.size))]]
    return j, gen.choice(cell, size=n, replace=False)


def reference_uniform_batch(gen, n_population, n):
    """One uniform step's draw of n of N indices from a plain
    np.random.Generator: `integers` for one, `choice` without replacement
    for more, no draw for all N."""
    if n == n_population:
        return np.arange(n_population)
    if n == 1:
        return np.array([int(gen.integers(n_population))])
    return gen.choice(n_population, size=n, replace=False)


def reference_ridge_optimum(obj):
    """Ridge's minimizer as the least-squares solution of the stacked system
    [X / sqrt(N); sqrt(lam) I] w = [y / sqrt(N); 0], whose normal equations
    are (X'X/N + lam I) w = X'y/N; solved by an SVD, not a Cholesky factor."""
    ds = obj.dataset
    scale = 1.0 / np.sqrt(ds.n_samples)
    A = np.vstack([ds.features * scale, np.sqrt(obj.lam) * np.eye(ds.n_features)])
    b = np.concatenate([np.asarray(ds.labels, dtype=np.float64) * scale,
                        np.zeros(ds.n_features)])
    return np.linalg.lstsq(A, b, rcond=None)[0]


OBJECTIVE_KINDS = ("ridge", "logistic", "quadratic", "mlp")


def any_kind_problem(kind, N, p, C, seed, lam=0.1, fortran=False):
    """A random small objective of any kind on N rows and p columns.

    Ridge gets real targets, logistic two classes, the MLP one hidden layer
    of 3; rows are dealt round-robin into min(C, N) classes and shuffled.
    Columns have scales in [0.1, 3]; ``fortran`` hands the features over in
    column-major order.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, p)) * rng.uniform(0.1, 3.0, size=p)
    labels = rng.permutation(np.arange(N) % min(2 if kind == "logistic" else C, N))
    targets = rng.normal(size=N) if kind == "ridge" else labels
    ds = ssag.Dataset(np.asfortranarray(X) if fortran else X, targets,
                      ssag.partition_by_class(labels))
    spec = {"kind": kind, "lam": lam, **({"hidden": [3]} if kind == "mlp" else {})}
    return ssag.make_objective(spec, ds)


@pytest.fixture
def line_ridge():
    """Two points on the line y = x: unregularized optimum W* = (1)."""
    ds = ssag.Dataset.regression(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    return ssag.RidgeRegression(ds, lam=0.0)


@pytest.fixture
def two_class_logistic():
    """Small separable 2-class problem with a regularizer."""
    X = np.array([[1.0, 0.5], [2.0, -0.5], [-1.0, 0.3], [-2.0, -0.2],
                  [1.5, 1.0], [-1.5, -1.0]])
    y = np.array([1, 1, 0, 0, 1, 0])
    return ssag.LogisticRegression(ssag.Dataset.from_class_labels(X, y), lam=0.1)


@pytest.fixture
def random_problem():
    """Factory for random classification datasets and objectives."""

    def make(kind="logistic", N=12, p=3, C=2, lam=0.1, seed=0, stddev=1.0):
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=2.0, size=(C, p))
        counts = [N // C] * C
        counts[0] += N - sum(counts)
        ds = ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=tuple(counts), stddev=stddev, seed=seed + 1))
        return ssag.make_objective({"kind": kind, "lam": lam}, ds)

    return make


def make_envelope_problem():
    """The strongly convex 2-class logistic instance used by the
    envelope-verification tests: N = 200, p = 5, lam = 0.1.

    The class geometry is asymmetric (so the population gradient variance at
    the optimum is nonzero, giving SGD a genuine variance floor) and the
    within-class spread is small (the stratified method's resampling noise
    floor stays far below the distance envelope over the tested horizon).
    """
    means = np.zeros((2, 5))
    means[0, 0] = -18.0
    means[1, 0] = 22.0
    means[1, 1] = 4.0
    ds = ssag.gen_synthetic(ssag.SyntheticSpec(
        means=means, counts=(100, 100), stddev=0.02, seed=11))
    obj = ssag.LogisticRegression(ds, lam=0.1)
    const = ssag.estimate_constants(obj)
    w_star = ssag.reference_optimum(obj, constants=const)
    return obj, const, w_star


@pytest.fixture(scope="session")
def envelope_problem():
    return make_envelope_problem()
