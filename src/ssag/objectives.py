"""Pluggable finite-sum objectives J(W) = (1/N) sum_i J_i(W).

Each objective is bound to a dataset at construction and exposes per-sample,
batch-mean, and full gradients plus per-sample losses.  The per-sample loss
kernel of the linear models computes margins with a batch-size-invariant
reduction, so ``loss_full`` equals the pairwise sum of ``loss_sample`` values
bit for bit.  A one-row gradient of a linear model reads its row in place and
needs no BLAS call; it equals the batch kernel's result for that row bit for
bit, signed zeros included.  A row shorter than ``core.SHORT_ROW`` (8)
features is computed on Python floats, its margin summed in numpy's pairwise
order, which below 8 terms is one left-to-right loop.  Batch gradients of
more rows use BLAS and agree across code paths to 1e-12 relative error.  Full-data calls pass
``dataset.rows``, which the kernels recognise: they read the feature matrix
and targets in place instead of gathering N rows, and give the same bits as a
call with a fresh arange(N).  A linear model keeps the margins of its last
full-data W, so the loss, the gradient and the per-sample gradients at one W
share one pass over the feature matrix.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.special import expit

from .core import SHORT_ROW, ConvexityConstants, Dataset, as_params
from .errors import (
    DimensionMismatchError,
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


class Objective(ABC):
    """A finite-sum objective bound to a dataset.

    Subclasses implement three kernels: per-sample losses over an index set,
    the mean gradient over an index set, and per-sample gradient rows.
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
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"regularizer weight must be finite and >= 0, got {lam}")
        self.dataset = dataset
        self.lam = float(lam)

    # -- kernels ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the flat parameter vector; one weight per feature."""
        return self.dataset.n_features

    @abstractmethod
    def loss_values(self, W: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-sample losses J_i(W) for the given sample indices."""

    @abstractmethod
    def grad_batch(self, W: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Arithmetic mean of per-sample gradients over the given indices."""

    @abstractmethod
    def grad_samples(self, W: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Per-sample gradient rows, shape (len(indices), dim)."""

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
        return 0.5 * self.lam * float(np.sum(W * W))

    def _take(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``values[indices]``, or ``values`` itself for the full-data ``dataset.rows``."""
        return values if indices is self.dataset.rows else values[indices]

    def _check_index(self, i: int) -> int:
        k = int(i)
        if k != i or not 0 <= k < self.dataset.n_samples:
            raise IndexError(f"sample index {i} is not an integer in [0, {self.dataset.n_samples})")
        return k

    def loss_sample(self, W: np.ndarray, i: int) -> float:
        """Loss of sample i, including the regularization term."""
        W = as_params(W, self.dim)
        i = self._check_index(i)
        return float(self.loss_values(W, np.array([i]))[0])

    def loss_full(self, W: np.ndarray) -> float:
        """Mean per-sample loss; reduction is numpy pairwise summation."""
        W = as_params(W, self.dim)
        return float(np.sum(self.loss_values(W, self.dataset.rows)) / self.dataset.n_samples)

    def grad_sample(self, W: np.ndarray, i: int) -> np.ndarray:
        """Exact analytic gradient of loss_sample."""
        W = as_params(W, self.dim)
        i = self._check_index(i)
        return self.grad_batch(W, np.array([i]))

    def grad_full(self, W: np.ndarray) -> np.ndarray:
        """Mean gradient over the whole dataset."""
        if W.shape[0] != self.dim:
            raise DimensionMismatchError(f"expected dimension {self.dim}, got {W.shape[0]}")
        return self.grad_batch(W, self.dataset.rows)

    def grad_class_batch(self, W: np.ndarray, class_j: int, indices: np.ndarray) -> np.ndarray:
        """Mean gradient over a batch drawn from class j's partition cell;
        StratumViolationError unless every index is an integer in [0, N) of class j."""
        if type(indices) is np.ndarray and indices.shape == (1,) and indices.dtype is _INDEX:
            # one int64 index, as an SSAG step at n = 1 draws it: np.asarray
            # would return it as it is, so only the range and membership
            # tests are left (a negative index would wrap around class_of)
            i, class_of = indices.item(), self.dataset.class_of
            if not 0 <= i < class_of.size or class_of[i] != class_j:
                raise StratumViolationError(
                    f"indices {indices.tolist()} are not all members of class {class_j}")
            return self.grad_batch(W, indices)
        given = np.asarray(indices)
        indices = given.astype(np.int64, copy=False)
        if indices is not given and not (indices == given).all():
            raise StratumViolationError(f"indices {given.tolist()} are not all integers")
        if indices.size < 1:
            raise StratumViolationError("class batch must contain at least one index")
        class_of = self.dataset.class_of
        if not (((indices >= 0) & (indices < class_of.size)).all()
                and (class_of[indices] == class_j).all()):
            raise StratumViolationError(
                f"indices {indices.tolist()} are not all members of class {class_j}")
        return self.grad_batch(W, indices)

    def init_params(self, seed: int = 0) -> np.ndarray:
        """Initial parameter vector; zeros unless a subclass overrides."""
        return np.zeros(self.dim)


def _margins(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Margins of the feature rows X.

    Elementwise product + per-row pairwise sum (the reduction ``np.sum``
    runs): identical results for any batch size, unlike BLAS matvec kernels.
    """
    return np.add.reduce(X * W, axis=1)


class _LinearObjective(Objective):
    """A loss of the margin m_i = x_i'W with gradient (link(m_i) - y_i) x_i + lam W.

    Ridge (identity ``_link``) and logistic regression (expit) share the
    gradient kernels and the convexity constants, and define their own
    losses.  ``_slope_bounds`` bounds the link's slope from below and above.
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

    def grad_batch(self, W, indices):
        if indices.size == 1 and indices is not self.dataset.rows:
            # one row, read in place: r * x is the matmul's one product, and
            # + 0.0 turns a -0.0 product into the +0.0 its accumulation gives
            i = indices[0]
            x = self.dataset.features[i]
            if not self._short_rows:
                r = self._link(np.add.reduce(x * W)) - self._targets[i]
                return (r * x + 0.0) + self.lam * W
            # the same formula on Python floats, for a row shorter than
            # SHORT_ROW.  The margin loop starts at +0.0 and adds left to
            # right, as numpy's pairwise sum does below 8 terms; built-in
            # sum() would not do: from Python 3.12 it compensates a float sum.
            # The link stays numpy's: math.exp raises OverflowError where
            # expit returns 0 or 1.
            xs, ws, lam = x.tolist(), W.tolist(), self.lam
            m = 0.0
            for a, b in zip(xs, ws):
                m += a * b
            r = float(self._link(m)) - float(self._targets[i])
            return np.array([(r * a + 0.0) + lam * b for a, b in zip(xs, ws)])
        X, resid = self._residuals(W, indices)
        return (X.T @ resid) / indices.size + self.lam * W

    def grad_samples(self, W, indices):
        X, resid = self._residuals(W, indices)
        G = resid[:, None] * X
        G += self.lam * W
        return G

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
    _link = staticmethod(lambda m: m)
    _slope_bounds = (1.0, 1.0)

    def loss_values(self, W, indices):
        r = self._residuals(W, indices)[1]
        return 0.5 * r * r + self._reg_term(W)

    def _optimum(self, constants):
        """Exact minimizer (X'X/N + lam I)^-1 X'y/N via Cholesky, verified by a
        residual check at 1e-10; an unregularized rank-deficient system is rejected."""
        X, N = self.dataset.features, self.dataset.n_samples
        A = (X.T @ X) / N + self.lam * np.eye(self.dim)
        rhs = (X.T @ self._targets) / N
        try:
            w = cho_solve(cho_factor(A), rhs)
        except LinAlgError as exc:
            raise SingularSystemError(f"normal equations are singular: {exc}") from exc
        resid = float(np.linalg.norm(A @ w - rhs))
        if not np.isfinite(resid) or resid > 1e-10 * max(1.0, float(np.linalg.norm(rhs))):
            raise SingularSystemError(f"closed-form solve failed the residual check ({resid:.3e})")
        return w


class LogisticRegression(_LinearObjective):
    """Binary cross-entropy with L2 regularization; labels in {0, 1}."""

    kind = "logistic"
    _link = expit
    #: the slope s(1 - s) of s = expit(m) lies in (0, 1/4]
    _slope_bounds = (0.0, 0.25)

    def __init__(self, dataset: Dataset, lam: float = 0.0):
        super().__init__(dataset, lam)
        if not np.all(np.isin(np.asarray(dataset.labels), (0, 1))):
            raise ValueError("logistic regression requires labels in {0, 1}")

    def loss_values(self, W, indices):
        m = self._margins_of(W, indices)[1]
        return np.logaddexp(0.0, m) - self._take(self._targets, indices) * m + self._reg_term(W)

    def hessian_full(self, W: np.ndarray) -> np.ndarray:
        """Full-data Hessian X'diag(s(1 - s))X / N + lam I, s = expit(X W).

        Reads the feature matrix in place; the weighted rows are the one
        N x p temporary.
        """
        X = self.dataset.features
        s = expit(X @ W)
        H = X.T @ (X * (s * (1.0 - s))[:, None])
        H /= self.dataset.n_samples
        H.flat[::self.dim + 1] += self.lam
        return H

    def _optimum(self, constants):
        """Newton with line search from zero to gradient norm <= OPTIMUM_GRAD_TOL.

        Each iteration solves H d = g by Cholesky and halves the step from 1
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
            d = cho_solve(cho_factor(self.hessian_full(W)), g)
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
        """Class probabilities (1 - p, p), p = expit(x'W), shape (n, 2)."""
        p1 = expit(_margins(np.asarray(X, dtype=np.float64), W))
        return np.column_stack((1.0 - p1, p1))


class MeanQuadratic(Objective):
    """J_i(W) = 0.5 ||W - x_i||^2: a strongly convex test objective."""

    kind = "quadratic"

    def loss_values(self, W, indices):
        d = W - self._take(self.dataset.features, indices)
        return 0.5 * np.sum(d * d, axis=1) + self._reg_term(W)

    def grad_batch(self, W, indices):
        return W - self._take(self.dataset.features, indices).mean(axis=0) + self.lam * W

    def grad_samples(self, W, indices):
        return (W - self._take(self.dataset.features, indices)) + self.lam * W

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
            raise ValueError("mlp requires integer class labels in [0, C)")
        self._targets = y.astype(np.int64)
        self.sizes = (dataset.n_features, *(int(h) for h in hidden), dataset.n_classes)
        if any(s < 1 for s in self.sizes):
            raise ValueError("all layer widths must be >= 1")
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
            a = expit(a @ Wl.T + bl)
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

    def grad_batch(self, W, indices):
        n = indices.size
        acts, logits = self._forward(W, self._take(self.dataset.features, indices))
        probs = np.exp(self._log_softmax(logits))
        delta = probs
        delta[np.arange(n), self._targets[indices]] -= 1.0
        delta /= n
        layers = self._layers(W)
        grad = np.empty(self.dim)
        for k, (g_weight, g_bias) in reversed(list(enumerate(self._layers(grad)))):
            g_weight[...] = delta.T @ acts[k]
            g_bias[...] = delta.sum(axis=0)
            if k > 0:
                a = acts[k]
                delta = (delta @ layers[k][0]) * a * (1.0 - a)
        return grad + self.lam * W

    def grad_samples(self, W, indices):
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.size, self.dim))
        for r, i in enumerate(indices):
            out[r] = self.grad_batch(W, np.array([i]))
        return out

    def scores_matrix(self, W, X):
        """Softmax class scores for a batch of inputs, shape (n, C)."""
        _, logits = self._forward(W, np.asarray(X, dtype=np.float64))
        return np.exp(self._log_softmax(logits))


def accuracy(objective: Objective, W: np.ndarray, dataset: Dataset) -> float:
    """Fraction of `dataset` whose label is the class of highest score."""
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
