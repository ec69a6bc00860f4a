"""Core data types and population-level gradient statistics.

Parameter vectors are plain one-dimensional float64 numpy arrays throughout
the package; :func:`as_params` validates them at entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UnsupportedObjectiveError


def partition_by_class(labels: np.ndarray, num_classes: int | None = None) -> tuple[np.ndarray, ...]:
    """Group sample indices by integer class label.

    Returns one ascending index array per class, covering 0..C-1.  Raises if
    any class in that range is empty, since the stratified sampler must be
    able to draw from every class.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    lab = labels.astype(np.int64)
    if not np.array_equal(lab, np.asarray(labels)):
        raise ValueError("labels must be integers to partition by class")
    if lab.size == 0:
        raise ValueError("cannot partition an empty label array")
    if lab.min() < 0:
        raise ValueError("class labels must be non-negative")
    C = int(num_classes) if num_classes is not None else int(lab.max()) + 1
    cells = []
    for j in range(C):
        idx = np.flatnonzero(lab == j)
        if idx.size == 0:
            raise ValueError(f"class {j} is empty; every class needs at least one sample")
        cells.append(idx)
    return tuple(cells)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable training data: feature matrix, labels, class partition.

    ``labels`` holds class indices for classification data or real targets
    for regression.  ``partition`` maps each class j to the ascending row
    indices belonging to it; cells are disjoint and cover all rows.
    ``rows`` is arange(N); the objectives recognise it by identity and read
    the C-ordered ``features`` in place instead of gathering all N rows.
    """

    features: np.ndarray
    labels: np.ndarray
    partition: tuple[np.ndarray, ...]
    #: row index -> class index, derived from the partition at construction
    class_of: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64, order="C", copy=True)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        y = np.array(self.labels, copy=True)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("labels must be a vector with one entry per sample")
        cells = tuple(np.array(c, dtype=np.int64, copy=True) for c in self.partition)
        if len(cells) < 1:
            raise ValueError("partition needs at least one class")
        seen = np.concatenate(cells)
        if seen.size != X.shape[0] or not np.array_equal(np.sort(seen), np.arange(X.shape[0])):
            raise ValueError("partition cells must be disjoint and cover all sample indices")
        for j, c in enumerate(cells):
            if c.size == 0:
                raise ValueError(f"partition cell {j} is empty")
        class_of = np.empty(X.shape[0], dtype=np.int64)
        for j, c in enumerate(cells):
            class_of[c] = j
        rows = np.arange(X.shape[0])
        for a in (X, y, class_of, rows, *cells):
            a.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "partition", cells)
        object.__setattr__(self, "class_of", class_of)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_class_labels(cls, features: np.ndarray, labels: np.ndarray,
                          num_classes: int | None = None) -> "Dataset":
        """Build a classification dataset, deriving the partition from labels."""
        return cls(features, labels, partition_by_class(labels, num_classes))

    @classmethod
    def regression(cls, features: np.ndarray, targets: np.ndarray) -> "Dataset":
        """Build a regression dataset with a single partition cell."""
        features = np.asarray(features)
        return cls(features, targets, (np.arange(features.shape[0]),))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.partition)

    @property
    def class_counts(self) -> np.ndarray:
        return np.array([c.size for c in self.partition])


@dataclass(frozen=True)
class ConvexityConstants:
    """Smoothness constant L and strong-convexity modulus mu of an objective."""

    L: float
    mu: float

    def __post_init__(self):
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if self.mu < 0.0 or self.mu > self.L * (1.0 + 1e-12):
            raise ValueError("mu must satisfy 0 <= mu <= L")

    @property
    def strongly_convex(self) -> bool:
        """False when mu degenerated to 0 (unregularized rank-deficient data);
        bound formulas requiring mu > 0 reject such inputs."""
        return self.mu > 0.0

    @property
    def condition(self) -> float:
        return self.L / self.mu if self.mu > 0 else float("inf")


@dataclass(frozen=True, eq=False)
class GradientStats:
    """Population gradient statistics at a fixed parameter vector.

    Variance of the vector-valued gradient is aggregated over coordinates:
    sum_i ||G_i - mean||^2 / (N-1), i.e. the sum of per-coordinate variances.
    Per-class variances use the same convention within each partition cell
    and are defined as 0 for singleton cells.
    """

    population_mean: np.ndarray
    population_variance: float
    per_class_variance: np.ndarray


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two parameter vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    d = a - b
    return float(np.sum(d * d))


def as_params(values, dim: int | None = None) -> np.ndarray:
    """Validate a parameter vector: 1-D, float64, finite, optional dimension."""
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatchError("parameter vector must be one-dimensional")
    if dim is not None and w.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("parameter vector contains non-finite entries")
    return w


def gradient_population_stats(objective, W: np.ndarray) -> GradientStats:
    """Mean and variance of the per-sample gradients over the whole dataset.

    The mean equals the full gradient up to reduction order; the variance
    uses the 1/(N-1) finite-population convention.  A single-sample dataset
    yields variance 0.
    """
    ds = objective.dataset
    W = as_params(W, objective.dim)
    N = ds.n_samples
    G = objective.grad_samples(W, ds.rows)
    mean = G.mean(axis=0)
    per_class = np.zeros(ds.n_classes)
    for j, cell in enumerate(ds.partition):
        if cell.size > 1:
            Gc = G[cell]
            np.subtract(Gc, Gc.mean(axis=0), out=Gc)
            per_class[j] = float(np.sum(np.multiply(Gc, Gc, out=Gc)) / (cell.size - 1))
    # squared deviations overwrite G once the per-class copies are taken
    np.subtract(G, mean, out=G)
    pop_var = float(np.sum(np.multiply(G, G, out=G)) / (N - 1)) if N > 1 else 0.0
    return GradientStats(population_mean=mean, population_variance=pop_var,
                         per_class_variance=per_class)


def gram_eigen_extremes(M: np.ndarray) -> tuple[float, float]:
    """Largest and smallest eigenvalue of a symmetric PSD matrix.

    Both come from one dense symmetric eigensolve and are clamped at 0,
    since the input is positive semi-definite.
    """
    eigs = np.linalg.eigvalsh(M)
    return max(float(eigs[-1]), 0.0), max(float(eigs[0]), 0.0)


def estimate_constants(objective) -> ConvexityConstants:
    """Smoothness and strong-convexity constants of a convex objective.

    ridge:    L = lmax(X'X/N) + lam,     mu = lmin(X'X/N) + lam
    logistic: L = lmax(X'X/N)/4 + lam,   mu = lam  (regularizer modulus only,
              a conservative but always valid choice)
    quadratic: L = mu = 1 + lam exactly.

    lmax and lmin come from one symmetric eigensolve of X'X/N.
    Nonconvex objectives are rejected.
    """
    kind = getattr(objective, "kind", None)
    if kind == "quadratic":
        lam = objective.lam
        return ConvexityConstants(L=1.0 + lam, mu=1.0 + lam)
    if kind not in ("ridge", "logistic"):
        raise UnsupportedObjectiveError(
            f"cannot certify convexity constants for objective kind {kind!r}")
    X = objective.dataset.features
    N = objective.dataset.n_samples
    gram = (X.T @ X) / N
    lmax, lmin = gram_eigen_extremes(gram)
    lam = objective.lam
    if kind == "ridge":
        L, mu = lmax + lam, lmin + lam
    else:
        L, mu = 0.25 * lmax + lam, lam
    L = max(L, np.finfo(float).tiny)
    return ConvexityConstants(L=L, mu=mu)
