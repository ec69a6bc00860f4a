"""Core data types and population-level gradient statistics.

Parameter vectors are plain one-dimensional float64 numpy arrays throughout
the package; :func:`as_params` validates them at entry points.  Every
blocked pass over a dataset's rows, here and in `objectives`, takes blocks
of at most `BLOCK_BYTES`, read when the pass runs (`block_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatchError

#: A one-row gradient of a linear model (`objectives`) with fewer features
#: than this is computed on Python floats.  It is 8 for two reasons.  numpy's
#: pairwise sum adds fewer than 8 terms one at a time, left to right from
#: +0.0, so a Python loop gives its bits; from 8 terms on it keeps 8 partial
#: sums, which a loop would have to mimic.  And below 8 entries the list
#: conversions cost less than the numpy calls they replace, whose overhead
#: does not shrink with the vector.
SHORT_ROW = 8

#: Transient bytes one block of a blocked pass may take: `gradient_population_stats`,
#: `objectives._margins`, the logistic Hessian and a linear `population_variance`
#: run over row blocks of at most this many bytes of features or gradients.
BLOCK_BYTES = 1 << 18


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each in one block of a blocked pass: at least 1,
    at most BLOCK_BYTES."""
    return max(BLOCK_BYTES // max(row_bytes, 1), 1)


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, Python's or numpy's, not a bool and
    finite in float64: not NaN, an infinity or an integer that float() overflows."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # float() overflows the integer
        return False


def operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array.  A ufunc takes a 0-d array
    operand at about two thirds of the cost of a Python float, with the same
    bits (``multiply(x, r, buf)`` at p = 20: 224 against 350 ns with numpy
    2.4 on a 2-core x86-64 host), so the one-row kernels and the optimizer
    steps keep their scalars in this form."""
    a = np.array(float(value))
    a.flags.writeable = False
    return a


def partition_by_class(labels: np.ndarray, num_classes: int | None = None) -> tuple[np.ndarray, ...]:
    """Group sample indices by integer class label.

    A label is an integer by `as_indices`' rule: an integral float is one, a
    bool is not.  Returns one ascending index array per class, covering
    0..C-1.  Raises if any class in that range is empty, since the stratified
    sampler must be able to draw from every class.
    """
    lab = as_indices(labels)
    if lab is None or lab.ndim != 1:
        raise ValueError("labels must be integers, not bools, in a one-dimensional array")
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


class _Fresh:
    """A C-ordered float64 feature matrix that a builder made for one
    `Dataset` and hands over: the dataset keeps it, read-only, instead of
    copying it.  Any other features argument is copied, so that no caller's
    array can change a dataset."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable training data: feature matrix, labels, class partition.

    ``labels`` holds class indices for classification data or real targets
    for regression; features and real targets must be finite.  ``partition``
    maps each class j to the ascending row indices belonging to it; cells are
    disjoint and cover all rows.
    ``rows`` is arange(N); the objectives recognise it by identity and read
    the C-ordered ``features`` in place instead of gathering all N rows.
    The stratum layout is derived once, read-only: ``class_counts`` (the
    cell sizes), ``order`` (the cells joined), ``starts`` (where each cell
    begins in ``order``) and ``class_of`` (row index -> class index).
    ``features`` is a read-only copy of the matrix passed in, unless a
    builder hands over a fresh one (`_Fresh`).
    """

    features: np.ndarray
    labels: np.ndarray
    partition: tuple[np.ndarray, ...]
    class_counts: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    class_of: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.features, _Fresh):
            X = np.asarray(self.features.array, dtype=np.float64, order="C")
        else:
            X = np.array(self.features, dtype=np.float64, order="C", copy=True)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        y = np.array(self.labels, copy=True)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("labels must be a vector with one entry per sample")
        finite = np.isfinite(X).all(axis=1)
        if y.dtype.kind == "f":
            finite &= np.isfinite(y)
        if not finite.all():
            i = int(np.argmin(finite))
            j = int(np.argmin(np.isfinite(X[i])))
            bad = f"feature {j} is {X[i, j]}" if not np.isfinite(X[i, j]) else f"target is {y[i]}"
            raise ValueError(f"sample {i} is not finite: its {bad}")
        cells = tuple(as_indices(c) for c in self.partition)
        for k, cell in enumerate(cells):
            if cell is None:
                raise ValueError(f"partition cell {k} holds an entry that is not an integer")
        if len(cells) < 1:
            raise ValueError("partition needs at least one class")
        cells = tuple(c.copy() for c in cells)
        order = np.concatenate(cells)
        if order.size != X.shape[0] or not np.array_equal(np.sort(order), np.arange(X.shape[0])):
            raise ValueError("partition cells must be disjoint and cover all sample indices")
        counts = np.array([c.size for c in cells])
        if not counts.all():
            raise ValueError(f"partition cell {int(np.argmin(counts))} is empty")
        class_of = np.empty(X.shape[0], dtype=np.int64)
        class_of[order] = np.repeat(np.arange(len(cells)), counts)
        derived = dict(class_counts=counts, order=order, starts=np.cumsum(counts) - counts,
                       class_of=class_of, rows=np.arange(X.shape[0]))
        for a in (X, y, *cells, *derived.values()):
            a.setflags(write=False)
        for name, value in dict(features=X, labels=y, partition=cells, **derived).items():
            object.__setattr__(self, name, value)

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


@dataclass(frozen=True)
class ConvexityConstants:
    """Smoothness constant L and strong-convexity modulus mu of an objective.

    The one check of a (L, mu) pair: ValueError unless 0 < L < inf and
    0 <= mu <= L, up to a relative 1e-12 for mu; NaN fails both.
    """

    L: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not 0.0 <= self.mu <= self.L * (1.0 + 1e-12):
            raise ValueError(f"mu must satisfy 0 <= mu <= L = {self.L}, got {self.mu}")

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
    return float(np.add.reduce(d * d, None))


def as_params(values, dim: int | None = None) -> np.ndarray:
    """Validate a parameter vector: 1-D, float64, finite, optional dimension."""
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatchError("parameter vector must be one-dimensional")
    if dim is not None and w.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {w.shape[0]}")
    if not all_finite(w):
        raise ValueError("parameter vector contains non-finite entries")
    return w


def all_finite(w: np.ndarray) -> bool:
    """Whether every entry of ``w`` is finite, with no warning for any value:
    the bytes of its isfinite mask against an all-true mask's, a third of the
    cost of .all() at p = 5."""
    return np.isfinite(w).tobytes() == b"\x01" * w.size


def as_indices(values) -> np.ndarray | None:
    """``values`` as an int64 array if every entry is an integer, Python's or
    numpy's or an integral float, and none is a bool; None otherwise.  An
    int64 array is returned as it is.  np.asarray([0, True]) is int64, so the
    entries of a sequence are searched for a bool."""
    given = np.asarray(values)
    if given.dtype.kind not in "iuf" or not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        return None
    if given.dtype == np.int64:
        return given
    with np.errstate(invalid="ignore"):  # a NaN or an infinity casts to a garbage integer
        indices = given.astype(np.int64)
    return indices if (indices == given).all() else None


class Moments:
    """Count, mean and sum of squared deviations of the rows of gradient
    blocks, merged block by block by Chan's pairwise update.

    `add` overwrites its block with the squared deviations.  The first block
    is taken as it is, so one block gives the one-pass bits:
    ``G.mean(axis=0)`` and ``sum((G - mean)^2) / (n - 1)``.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count, self.mean, self.m2 = 0, None, 0.0

    def add(self, G: np.ndarray) -> None:
        n = G.shape[0]
        block_mean = G.mean(axis=0)
        np.subtract(G, block_mean, out=G)
        squares = float(np.sum(np.multiply(G, G, out=G)))
        if self.count == 0:
            self.count, self.mean, self.m2 = n, block_mean, squares
            return
        delta = block_mean - self.mean
        self.count += n
        self.m2 += squares + float(np.sum(delta * delta)) * ((self.count - n) * n / self.count)
        self.mean += delta * (n / self.count)

    def variance(self) -> float:
        """sum_i ||G_i - mean||^2 / (count - 1), 0 for fewer than two rows."""
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0


def gradient_population_stats(objective, W: np.ndarray) -> GradientStats:
    """Mean and variance of the per-sample gradients over the whole dataset.

    The mean equals the full gradient up to reduction order; the variance
    uses the 1/(N-1) finite-population convention.  A single-sample dataset
    yields variance 0.

    ``grad_samples`` is taken over row blocks of at most `BLOCK_BYTES`, in
    row order; each block's rows are sorted class by class, each class in its
    cell's order, and merged into the class's `Moments` before the block is
    merged into the population's.  So the transient memory is about two
    blocks, and a dataset of one block gets the bits of the one-pass formulas
    over ``G`` and ``G[cell]``.
    """
    ds = objective.dataset
    W = as_params(W, objective.dim)
    N, rows = ds.n_samples, block_rows(objective.dim * 8)
    # each row's place in the joined cells: sorting by it groups a block's
    # rows class by class, each class in its cell's order
    place = np.empty(N, dtype=np.int64)
    place[ds.order] = ds.rows
    population, per_class = Moments(), [Moments() for _ in ds.partition]
    for start in range(0, N, rows):
        block = ds.rows if rows >= N else ds.rows[start:start + rows]
        G = objective.grad_samples(W, block)
        by_class = np.argsort(place[block])
        grouped = G[by_class]  # a copy: G is intact for its own pass
        classes = ds.class_of[block][by_class]
        edges = np.flatnonzero(classes[1:] != classes[:-1]) + 1
        for j, rows_j in zip(classes[np.r_[0, edges]].tolist(), np.split(grouped, edges)):
            per_class[j].add(rows_j)
        population.add(G)
    return GradientStats(population_mean=population.mean,
                         population_variance=population.variance(),
                         per_class_variance=np.array([m.variance() for m in per_class]))


def estimate_constants(objective) -> ConvexityConstants:
    """Smoothness and strong-convexity constants of a convex objective, as its
    kind certifies them (`_constants`); UnsupportedObjectiveError for other kinds."""
    return objective._constants()
