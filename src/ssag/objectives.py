"""Pluggable finite-sum objectives J(W) = (1/N) sum_i J_i(W).

Each objective is bound to a dataset at construction and exposes per-sample,
batch-mean, and full gradients plus per-sample losses.  The per-sample loss
kernel of the linear models computes margins with a batch-size-invariant
reduction, so ``loss_full`` equals the pairwise sum of ``loss_sample`` values
bit for bit.  A one-row gradient of a linear model reads its row in place and
needs no BLAS call; it equals the batch kernel's result for that row bit for
bit, signed zeros included.  A row shorter than ``core.SHORT_ROW`` (8)
features is computed on Python floats (`_LinearObjective._row_grad`, which an
SSAG segment on such rows calls too), its margin summed in numpy's pairwise
order, which below 8 terms is one left-to-right loop.  Batch gradients of
more rows use BLAS and agree across code paths to 1e-12 relative error.  Full-data calls pass
``dataset.rows``, which the kernels recognise: they read the feature matrix
and targets in place instead of gathering N rows, and give the same bits as a
call with a fresh arange(N).  A linear model keeps the margins of its last
full-data W, so the loss, the gradient and the per-sample gradients at one W
share one pass over the feature matrix.

``grad_batch`` and ``grad_class_batch`` take numpy's ``out=``: given a float64
array of shape (dim,) that does not overlap W, they write the gradient into
it and return it, with the bits of the allocating call.  They write only
after every check has passed, so a call that raises leaves ``out`` as it was;
an optimizer can hand over a table slot or a scratch row.  Every scalar
operand of the one-row kernel (the residual, lam and the 0.0 that clears a
-0.0) is a 0-d float64 array, which a ufunc takes at less cost than a Python
float; lam's is made once per objective (`core.operand`).

``grad_samples`` gives the per-sample gradient rows: one ``grad_batch`` per
row, unless a kind has a one-pass kernel, as the linear and quadratic do.
``population_variance`` is sum_i ||G_i - mean||^2 / (N - 1); by default
`core.gradient_population_stats`' variance, which never holds the (N, dim)
matrix.  A linear model needs no gradient rows: lam W cancels in G_i - mean,
so it sums ||r_i x_i - X'r/N||^2 over the residuals r of the margin memo.
Every blocked pass (those two, a full-data pass's margins and the logistic
Hessian) walks `core.row_blocks`, so its transient memory is one block of
`core.BLOCK_BYTES`, not N x p.  Every full-data call, `hessian_full` and
`accuracy` included, checks W with `core.as_params`, and every sample index
passes `core.as_indices`' rule, so every kind takes and rejects the same inputs.

The logistic link is `sigmoid`, the array link written on numpy's ``exp``,
and `_sigmoid_float` is its Python-float twin with the same bits, so the
one-row kernel, which calls the twin, matches the batch kernel.  The
package needs numpy alone at run time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from numpy import add, copysign, divide, exp, greater_equal, maximum, multiply

from . import core
from .core import (SHORT_ROW, ConvexityConstants, Dataset, as_indices, as_params,
                   gradient_population_stats, is_int, is_real, operand, row_blocks)
from .errors import (
    DimensionMismatchError,
    LabelError,
    SingularSystemError,
    SsagError,
    StratumViolationError,
    UnsupportedObjectiveError,
)

#: The dtype of an index array that `grad_class_batch` takes without a
#: conversion; an index array of any other dtype is converted to it.
_INDEX = np.dtype(np.int64)

#: Gradient-norm target and iteration cap of the logistic reference optimum.
OPTIMUM_GRAD_TOL = 1e-10
OPTIMUM_MAX_ITER = 100

_ZERO, _ONE, _MINUS_ONE = operand(0.0), operand(1.0), operand(-1.0)


def not_in_class(indices: list, class_j: int) -> StratumViolationError:
    """The error of a class batch whose ``indices`` are not all members of class j."""
    return StratumViolationError(f"indices {indices} are not all members of class {class_j}")


def _sigmoid_float(m: float) -> float:
    """`sigmoid` of a Python float, as a Python float, with the array call's
    bits: the one-row kernel's link."""
    e = float(exp(-abs(m)))
    return (1.0 if m >= 0 else e) / (1.0 + e)


def sigmoid(m: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-m)) of an array of one or more
    dimensions, as a float64 array whatever its dtype: (1 or e) / (1 + e)
    with e = exp(-|m|), so that nothing overflows and no floating-point
    warning is raised: +inf gives 1, -inf gives 0 and NaN gives NaN.

    `_sigmoid_float` is its Python-float twin with the same bits: both take
    numpy's ``exp``, whose bits do not depend on the call's shape or stride
    (``math.exp`` differs from it in the last bit of some values).
    """
    e = copysign(m, _MINUS_ONE)  # -|m|
    exp(e, e)
    # (1 or e) as max(e, m >= 0) since e <= 1, and 1 + e in place of e: six
    # ufunc calls and two temporaries, each scalar operand a 0-d array
    numerator = maximum(e, greater_equal(m, _ZERO))
    return divide(numerator, add(e, _ONE, e), numerator)


class Objective(ABC):
    """A finite-sum objective bound to a dataset.

    Subclasses implement two kernels, per-sample losses and the mean gradient
    over an index set; ``grad_samples`` has a per-row default.
    Classifiers also implement `scores_matrix`, from which `accuracy` takes
    the class of highest score.  Convex kinds also implement `_constants`
    and `_optimum`, which `core.estimate_constants` and
    `theory.reference_optimum` return.  No result depends on the calls made
    before it, and the operations may be called concurrently: the one state,
    kept by a linear model, is the margins of its last full-data W, held as
    one immutable (key, margins) pair.
    """

    kind: str = "abstract"

    def __init__(self, dataset: Dataset, lam: float = 0.0):
        if not (is_real(lam) and lam >= 0):
            raise ValueError(f"regularizer weight lam must be a finite number >= 0, got {lam!r}")
        self.dataset = dataset
        #: lam as a read-only 0-d array, the kernels' operand, and as a float
        self._lam = operand(lam)
        self._lam_float = float(self._lam)

    @property
    def lam(self) -> float:
        """The regularizer weight, fixed at construction."""
        return self._lam_float

    # -- kernels ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the flat parameter vector; one weight per feature."""
        return self.dataset.n_features

    @abstractmethod
    def loss_values(self, W: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-sample losses J_i(W) for the given sample indices."""

    @abstractmethod
    def grad_batch(self, W: np.ndarray, indices: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Arithmetic mean of per-sample gradients over the given indices,
        written into ``out`` when given (the module docstring's contract)."""

    def grad_samples(self, W: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-sample gradient rows, shape (len(indices), dim): by default
        one `grad_batch` per row."""
        indices = self._check_rows(indices)
        out = np.empty((indices.size, self.dim))
        for r, i in enumerate(indices):
            self.grad_batch(W, np.array([i]), out=out[r])
        return out

    def scores_matrix(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Class scores for a batch of inputs, shape (n, C); classifiers only."""
        raise UnsupportedObjectiveError(f"objective kind {self.kind!r} does not classify")

    def _constants(self) -> ConvexityConstants:
        """Certified smoothness L and strong-convexity modulus mu; convex kinds only."""
        raise UnsupportedObjectiveError(
            f"cannot certify convexity constants for objective kind {self.kind!r}")

    def _optimum(self, constants: ConvexityConstants | None) -> np.ndarray:
        """High-precision minimizer W*, given L and mu or None; convex kinds only."""
        raise UnsupportedObjectiveError(f"no reference optimum for objective kind {self.kind!r}")

    # -- derived surface -------------------------------------------------

    def _reg_term(self, W: np.ndarray) -> float:
        """The regularizer 0.5 * lam * ||W||^2 inside every per-sample loss."""
        return 0.5 * self._lam_float * float(add.reduce(W * W, None))

    def _take(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``values[indices]``, or ``values`` itself for the full-data ``dataset.rows``."""
        return values if indices is self.dataset.rows else values[indices]

    def _check_index(self, i: int) -> int:
        k, N = as_indices(i), self.dataset.n_samples
        if k is None or k.ndim or not 0 <= k < N:
            raise IndexError(f"sample index {i} is not an integer in [0, {N})")
        return int(k)

    def _check_rows(self, indices) -> np.ndarray:
        """``indices`` as a 1-D int64 array for ``grad_samples``, an int64 array,
        ``dataset.rows`` included, as it is; IndexError unless it is 1-D and each
        is an integer in [0, N), not a bool nor, as numpy indexes, a float."""
        rows, N = as_indices(indices), self.dataset.n_samples
        if rows is None or rows.ndim != 1 or rows.size and (
                np.asarray(indices).dtype.kind == "f" or not 0 <= rows.min() <= rows.max() < N):
            raise IndexError(f"sample indices {indices!r} are not all integers in [0, {N}) "
                             "in one dimension")
        return rows

    def loss_sample(self, W: np.ndarray, i: int) -> float:
        """Loss of sample i, including the regularization term."""
        W = as_params(W, self.dim)
        i = self._check_index(i)
        return float(self.loss_values(W, np.array([i]))[0])

    def loss_full(self, W: np.ndarray) -> float:
        """Mean per-sample loss; reduction is numpy pairwise summation."""
        W = as_params(W, self.dim)
        return float(add.reduce(self.loss_values(W, self.dataset.rows), None)
                     / self.dataset.n_samples)

    def population_variance(self, W: np.ndarray) -> float:
        """sum_i ||G_i - mean||^2 / (N - 1) over the N per-sample gradients at
        W, 0 for one sample: the variance that `gradient_population_stats`
        reports, from its blocked pass over ``grad_samples``."""
        return gradient_population_stats(self, W).population_variance

    def grad_sample(self, W: np.ndarray, i: int) -> np.ndarray:
        """Exact analytic gradient of loss_sample."""
        W = as_params(W, self.dim)
        i = self._check_index(i)
        return self.grad_batch(W, np.array([i]))

    def grad_full(self, W: np.ndarray) -> np.ndarray:
        """Mean gradient over the whole dataset at W, which `core.as_params`
        checks as it does ``loss_full``'s."""
        return self.grad_batch(as_params(W, self.dim), self.dataset.rows)

    def grad_class_batch(self, W: np.ndarray, class_j: int, indices: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Mean gradient over a batch drawn from class j's partition cell,
        written into ``out`` when given; StratumViolationError, with ``out``
        untouched, unless every index is an integer in [0, N) of class j.  A
        batch of any shape is taken as the 1-D batch of its entries."""
        if type(indices) is np.ndarray and indices.dtype is _INDEX and indices.shape == (1,):
            # one int64 index in a 1-D array, as an SSAG step at n = 1 draws it:
            # np.asarray would return it as it is, so only the range and membership
            # tests are left (a negative index would wrap around class_of)
            i, class_of = indices.item(), self.dataset.class_of
            if not 0 <= i < class_of.size or class_of.item(i) != class_j:
                raise not_in_class(indices.tolist(), class_j)
            return self.grad_batch(W, indices, out)
        given, indices = indices, as_indices(indices)
        if indices is None:
            raise StratumViolationError(f"indices {given!r} are not all integers")
        if indices.size < 1:
            raise StratumViolationError("class batch must contain at least one index")
        class_of = self.dataset.class_of
        if not (((indices >= 0) & (indices < class_of.size)).all()
                and (class_of[indices] == class_j).all()):
            raise not_in_class(indices.tolist(), class_j)
        return self.grad_batch(W, indices.reshape(-1), out)

    def init_params(self, seed: int = 0) -> np.ndarray:
        """Initial parameter vector; zeros unless a subclass overrides."""
        return np.zeros(self.dim)


def _margins(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Margins of the feature rows X.

    Elementwise product + per-row pairwise sum (the reduction ``np.sum``
    runs): identical results for any batch size, unlike BLAS matvec kernels.
    Since each row is reduced on its own, a matrix of more than one block is
    reduced block by block into one output vector with the same bits.
    """
    if X.nbytes <= core.BLOCK_BYTES:
        return np.add.reduce(X * W, axis=1)
    out = np.empty(X.shape[0])
    for block in row_blocks(X.shape[0], X.shape[1] * X.itemsize):
        np.add.reduce(X[block] * W, axis=1, out=out[block])
    return out


class _LinearObjective(Objective):
    """A loss of the margin m_i = x_i'W with gradient (link(m_i) - y_i) x_i + lam W.

    Ridge (identity ``_link``) and logistic regression (`sigmoid`) share the
    gradient kernels and the convexity constants, and define their own
    losses.  ``_link_float`` is the link's Python-float twin, which the
    one-row kernel calls.  ``_slope_bounds`` bounds the link's slope from
    below and above.
    """

    def __init__(self, dataset: Dataset, lam: float = 0.0):
        super().__init__(dataset, lam)
        self._targets = np.asarray(dataset.labels, dtype=np.float64)
        self._short_rows = dataset.n_features < SHORT_ROW
        #: (key of the last full-data W, its read-only margins); replaced whole
        self._full_margins = (None, None)

    def _margins_of(self, W: np.ndarray, indices: np.ndarray):
        """The feature rows and their margins.

        The full-data ``dataset.rows`` reuses the margins of the last
        full-data W when W has its dtype, shape and bytes; one assignment
        swaps the (key, margins) pair, so a concurrent reader sees a whole
        pair, old or new.
        """
        X = self._take(self.dataset.features, indices)
        if indices is not self.dataset.rows:
            return X, _margins(X, W)
        key = (W.dtype, W.shape, W.tobytes())
        memo = self._full_margins
        if memo[0] != key:
            margins = _margins(X, W)
            margins.flags.writeable = False
            memo = self._full_margins = (key, margins)
        return X, memo[1]

    def _residuals(self, W: np.ndarray, indices: np.ndarray):
        """The feature rows and their residuals link(margin) - target."""
        X, margins = self._margins_of(W, indices)
        return X, self._link(margins) - self._take(self._targets, indices)

    def grad_batch(self, W, indices, out=None):
        ds = self.dataset
        if indices.size == 1 and indices is not ds.rows:
            # one row, read in place: r * x is the matmul's one product, and
            # + 0.0 turns a -0.0 product into the +0.0 its accumulation gives
            i = indices.item()
            x = ds.features[i]
            if not self._short_rows:
                # the margin lands in the 0-d r, which then holds the
                # residual; the link takes it as a Python float
                t = multiply(x, W)
                r = add.reduce(t, 0, None, np.empty(()))
                r[()] = self._link_float(float(r)) - self._targets.item(i)
                out = multiply(x, r, out)
                add(out, _ZERO, out)
                return add(out, multiply(W, self._lam, t), out)
            g = self._row_grad(i, x.tolist(), W.tolist())
            if out is None:
                return np.array(g)
            out[...] = g
            return out
        X, resid = self._residuals(W, indices)
        return add((X.T @ resid) / indices.size, multiply(self._lam, W), out)

    def _row_grad(self, i: int, xs: list, ws: list) -> list:
        """The one-row formula on Python floats, for a row shorter than
        SHORT_ROW: the gradient of sample i, whose row is ``xs``, at the W
        whose entries are ``ws``.  The margin loop starts at +0.0 and adds
        left to right, as numpy's pairwise sum does below 8 terms; built-in
        sum() would not do: from Python 3.12 it compensates a float sum."""
        m = 0.0
        for a, b in zip(xs, ws):
            m += a * b
        r, lam = self._link_float(m) - self._targets.item(i), self._lam_float
        return [(r * a + 0.0) + lam * b for a, b in zip(xs, ws)]

    def grad_samples(self, W, indices):
        X, resid = self._residuals(W, self._check_rows(indices))
        G = resid[:, None] * X
        G += self._lam * W
        return G

    def population_variance(self, W):
        """sum_i ||r_i x_i - m||^2 / (N - 1) with m = X'r/N, since lam W cancels
        in G_i - mean; summed over row blocks in order, so no N x p matrix is
        built."""
        X, resid = self._residuals(as_params(W, self.dim), self.dataset.rows)
        N = X.shape[0]
        if N == 1:
            return 0.0
        m, total = (X.T @ resid) / N, 0.0
        for block in row_blocks(N, X.shape[1] * X.itemsize):
            D = resid[block, None] * X[block]
            D -= m
            total += float(np.sum(np.multiply(D, D, out=D)))
        return total / (N - 1)

    def _constants(self):
        """L = upper lmax(X'X/N) + lam and mu = lower lmin(X'X/N) + lam, with
        [lower, upper] the link's slope bounds.  lmax and lmin come from one
        symmetric eigensolve and are clamped at 0, since X'X/N is positive
        semi-definite; L is clamped at the smallest positive float."""
        X = self.dataset.features
        eigs = np.linalg.eigvalsh((X.T @ X) / self.dataset.n_samples)
        lmax, lmin = max(float(eigs[-1]), 0.0), max(float(eigs[0]), 0.0)
        lower, upper = self._slope_bounds
        return ConvexityConstants(L=max(upper * lmax + self.lam, np.finfo(float).tiny),
                                  mu=lower * lmin + self.lam)


class RidgeRegression(_LinearObjective):
    """Squared-error loss with L2 regularization on real-valued targets."""

    kind = "ridge"
    _link = _link_float = staticmethod(lambda m: m)
    _slope_bounds = (1.0, 1.0)

    def loss_values(self, W, indices):
        r = self._residuals(W, indices)[1]
        return 0.5 * r * r + self._reg_term(W)

    def _optimum(self, constants):
        """Exact minimizer (X'X/N + lam I)^-1 X'y/N, verified by a residual check
        at 1e-10; a system that fails the Cholesky factorization, as an
        unregularized rank-deficient one does, is rejected."""
        X, N = self.dataset.features, self.dataset.n_samples
        A = (X.T @ X) / N + self.lam * np.eye(self.dim)
        rhs = (X.T @ self._targets) / N
        try:
            np.linalg.cholesky(A)  # the positive-definite check
            w = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"normal equations are singular: {exc}") from exc
        resid = float(np.linalg.norm(A @ w - rhs))
        if not np.isfinite(resid) or resid > 1e-10 * max(1.0, float(np.linalg.norm(rhs))):
            raise SingularSystemError(f"closed-form solve failed the residual check ({resid:.3e})")
        return w


class LogisticRegression(_LinearObjective):
    """Binary cross-entropy with L2 regularization; labels in {0, 1}."""

    kind = "logistic"
    _link = staticmethod(sigmoid)
    _link_float = staticmethod(_sigmoid_float)
    #: the slope s(1 - s) of s = sigmoid(m) lies in (0, 1/4]
    _slope_bounds = (0.0, 0.25)

    def __init__(self, dataset: Dataset, lam: float = 0.0):
        super().__init__(dataset, lam)
        if not np.all(np.isin(np.asarray(dataset.labels), (0, 1))):
            raise LabelError("logistic regression requires labels in {0, 1}")

    def loss_values(self, W, indices):
        m = self._margins_of(W, indices)[1]
        return np.logaddexp(0.0, m) - self._take(self._targets, indices) * m + self._reg_term(W)

    def hessian_full(self, W: np.ndarray) -> np.ndarray:
        """Full-data Hessian X'diag(s(1 - s))X / N + lam I, s = sigmoid(X W).

        Sums X_b'diag(s_b(1 - s_b))X_b over row blocks X_b of the feature
        matrix, read in place, so its transient memory is one block.
        """
        W, X, H = as_params(W, self.dim), self.dataset.features, np.zeros((self.dim, self.dim))
        for block in row_blocks(X.shape[0], self.dim * 8):
            Xb = X[block]
            s = sigmoid(Xb @ W)
            H += Xb.T @ (Xb * (s * (1.0 - s))[:, None])
        H /= self.dataset.n_samples
        H.flat[::self.dim + 1] += self.lam
        return H

    def _optimum(self, constants):
        """Newton with line search from zero to gradient norm <= OPTIMUM_GRAD_TOL.

        Each iteration solves H d = g and halves the step from 1
        until the loss falls by at least a quarter of the predicted decrease
        t g'd, or the gradient norm is within the tolerance: near W* the
        rounding of the loss exceeds the decrease it should show.
        """
        constants = constants if constants is not None else self._constants()
        if not constants.strongly_convex:
            raise SsagError("cannot polish an optimum without strong convexity (mu = 0)")
        W = np.zeros(self.dim)
        loss, g = self.loss_full(W), self.grad_full(W)
        for _ in range(OPTIMUM_MAX_ITER):
            if math.sqrt(g @ g) <= OPTIMUM_GRAD_TOL:
                return W
            d = np.linalg.solve(self.hessian_full(W), g)
            t, slope = 1.0, float(g @ d)
            while True:
                trial = W - t * d
                trial_loss, trial_g = self.loss_full(trial), self.grad_full(trial)
                if (trial_loss <= loss - 0.25 * t * slope
                        or math.sqrt(trial_g @ trial_g) <= OPTIMUM_GRAD_TOL):
                    break
                t *= 0.5
            W, loss, g = trial, trial_loss, trial_g
        raise SsagError(f"optimum polish did not reach gradient norm {OPTIMUM_GRAD_TOL} "
                        f"within {OPTIMUM_MAX_ITER} iterations")

    def scores_matrix(self, W, X):
        """Class probabilities (1 - p, p), p = sigmoid(x'W), shape (n, 2)."""
        p1 = sigmoid(_margins(np.asarray(X, dtype=np.float64), W))
        return np.column_stack((1.0 - p1, p1))


class MeanQuadratic(Objective):
    """J_i(W) = 0.5 ||W - x_i||^2: a strongly convex test objective."""

    kind = "quadratic"

    def loss_values(self, W, indices):
        d = W - self._take(self.dataset.features, indices)
        return 0.5 * np.sum(d * d, axis=1) + self._reg_term(W)

    def grad_batch(self, W, indices, out=None):
        return np.add(W - self._take(self.dataset.features, indices).mean(axis=0),
                      self._lam * W, out=out)

    def grad_samples(self, W, indices):
        return (W - self._take(self.dataset.features, self._check_rows(indices))) + self._lam * W

    def _constants(self):
        """L = mu = 1 + lam exactly."""
        return ConvexityConstants(L=1.0 + self.lam, mu=1.0 + self.lam)

    def _optimum(self, constants):
        """The unique minimizer mean(X) / (1 + lam)."""
        return self.dataset.features.mean(axis=0) / (1.0 + self.lam)


class Mlp(Objective):
    """Multi-layer perceptron with sigmoid hidden units and softmax output.

    Parameters are flattened layer by layer (weight matrix, then bias).
    Softmax cross-entropy is computed in log-sum-exp form.  Weights start
    uniform in [-r, r] with r = sqrt(6 / (fan_in + fan_out)), biases at 0.
    """

    kind = "mlp"

    def __init__(self, dataset: Dataset, hidden: tuple[int, ...] = (120,),
                 lam: float = 0.0):
        super().__init__(dataset, lam)
        y = np.asarray(dataset.labels)
        if not np.all(np.isin(y, np.arange(dataset.n_classes))):
            raise LabelError("mlp requires integer class labels in [0, C)")
        self._targets = y.astype(np.int64)
        self.sizes = (dataset.n_features, *hidden, dataset.n_classes)
        if not all(is_int(s) and s >= 1 for s in self.sizes):
            raise ValueError(f"layer widths must be integers >= 1, got {self.sizes}")
        #: start offset of each layer's (weight, bias) block, then the dimension
        self._starts = [0]
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            self._starts.append(self._starts[-1] + fan_out * (fan_in + 1))

    @property
    def dim(self) -> int:
        return self._starts[-1]

    def init_params(self, seed: int = 0) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(seed))
        W = np.zeros(self.dim)
        for weight, _ in self._layers(W):
            r = np.sqrt(6.0 / sum(weight.shape))  # fan_out + fan_in
            weight[...] = rng.uniform(-r, r, size=weight.shape)
        return W

    def _layers(self, W: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views into W per layer, writeable when W is."""
        return [(W[s:s + o * i].reshape(o, i), W[s + o * i:s + o * (i + 1)])
                for s, i, o in zip(self._starts, self.sizes[:-1], self.sizes[1:])]

    def _forward(self, W: np.ndarray, X: np.ndarray):
        """Returns layer activations (inputs first) and the output logits."""
        layers = self._layers(W)
        acts = [X]
        a = X
        for (Wl, bl) in layers[:-1]:
            a = sigmoid(a @ Wl.T + bl)
            acts.append(a)
        Wl, bl = layers[-1]
        logits = a @ Wl.T + bl
        return acts, logits

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        m = logits.max(axis=1, keepdims=True)
        return logits - m - np.log(np.sum(np.exp(logits - m), axis=1, keepdims=True))

    def loss_values(self, W, indices):
        _, logits = self._forward(W, self._take(self.dataset.features, indices))
        log_p = self._log_softmax(logits)
        ce = -log_p[np.arange(indices.size), self._targets[indices]]
        return ce + self._reg_term(W)

    def grad_batch(self, W, indices, out=None):
        n = indices.size
        acts, logits = self._forward(W, self._take(self.dataset.features, indices))
        probs = np.exp(self._log_softmax(logits))
        delta = probs
        delta[np.arange(n), self._targets[indices]] -= 1.0
        delta /= n
        layers = self._layers(W)
        # lam W first, then each layer straight into ``out`` when given: the
        # only W-sized temporary is lam W, and lam W + g has the bits of g + lam W
        reg = multiply(W, self._lam)
        grad = np.empty(self.dim) if out is None else out
        for k, (g_weight, g_bias) in reversed(list(enumerate(self._layers(grad)))):
            np.matmul(delta.T, acts[k], out=g_weight)
            np.add.reduce(delta, 0, out=g_bias)
            if k > 0:
                a = acts[k]
                delta = (delta @ layers[k][0]) * a * (1.0 - a)
        return add(reg, grad, grad)

    def scores_matrix(self, W, X):
        """Softmax class scores for a batch of inputs, shape (n, C)."""
        _, logits = self._forward(W, np.asarray(X, dtype=np.float64))
        return np.exp(self._log_softmax(logits))


def accuracy(objective: Objective, W: np.ndarray, dataset: Dataset) -> float:
    """Fraction of `dataset` whose label is the class of highest score;
    DimensionMismatchError unless its features are the objective's width."""
    W = as_params(W, objective.dim)
    if dataset.n_features != objective.dataset.n_features:
        raise DimensionMismatchError(
            f"held-out features have width {dataset.n_features}, "
            f"the objective's data {objective.dataset.n_features}")
    pred = np.argmax(objective.scores_matrix(W, dataset.features), axis=1)
    return float(np.mean(pred == np.asarray(dataset.labels)))


_KINDS = {
    "ridge": RidgeRegression,
    "logistic": LogisticRegression,
    "quadratic": MeanQuadratic,
    "mlp": Mlp,
}


def _kinds_overriding(method: str) -> tuple[str, ...]:
    return tuple(kind for kind, cls in _KINDS.items()
                 if getattr(cls, method) is not getattr(Objective, method))


#: Objective kinds with certified convexity constants and a reference optimum.
CERTIFIED_KINDS = _kinds_overriding("_constants")

#: Objective kinds that classify: they define `scores_matrix` and `accuracy`.
CLASSIFIER_KINDS = _kinds_overriding("scores_matrix")


def make_objective(spec: dict, dataset: Dataset) -> Objective:
    """Build an objective from a mapping of 'kind' and that kind's constructor keywords."""
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise UnsupportedObjectiveError(
            f"unknown objective kind {kind!r}; expected one of {sorted(_KINDS)}")
    return _KINDS[kind](dataset, **{key: value for key, value in spec.items() if key != "kind"})
