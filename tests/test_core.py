"""Core types, gradient statistics, and convexity-constant estimation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ssag
from ssag.errors import DimensionMismatchError, UnsupportedObjectiveError

from conftest import any_kind_problem, enumeration_mean_and_variance, peak_alloc_bytes


def _quadratic_on(points, labels=None):
    points = np.asarray(points, dtype=np.float64)
    if labels is None:
        ds = ssag.Dataset.regression(points, np.zeros(points.shape[0]))
    else:
        ds = ssag.Dataset.from_class_labels(points, np.asarray(labels))
    return ssag.MeanQuadratic(ds)


class TestSquaredDistance:
    def test_identity(self):
        assert ssag.squared_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_values(self):
        assert ssag.squared_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0
        assert ssag.squared_distance(np.array([1.0]), np.array([-1.0])) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ssag.squared_distance(np.array([1.0]), np.array([1.0, 2.0]))


class TestDataset:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ssag.Dataset(np.eye(2), np.array([0, 0]),
                         (np.array([0]), np.array([0])))  # overlapping
        with pytest.raises(ValueError):
            ssag.Dataset(np.eye(2), np.array([0, 0]), (np.array([0]),))  # not covering

    @pytest.mark.parametrize("make, message", [
        (lambda: ssag.Dataset(np.zeros(3), np.zeros(3), (np.arange(3),)), "2-D matrix"),
        (lambda: ssag.Dataset(np.eye(3), np.zeros(2), (np.arange(3),)), "one entry per sample"),
        (lambda: ssag.Dataset(np.eye(3), np.zeros(3), ()), "at least one class"),
        (lambda: ssag.Dataset(np.eye(2), np.zeros(2), (np.arange(2), np.array([], dtype=int))),
         "cell 1 is empty"),
        (lambda: ssag.partition_by_class(np.zeros((2, 2))), "one-dimensional"),
        (lambda: ssag.partition_by_class(np.array([0.0, 1.5])), "must be integers"),
        (lambda: ssag.partition_by_class(np.array([], dtype=int)), "empty label array"),
        (lambda: ssag.partition_by_class(np.array([0, -1])), "non-negative"),
        # np.array(cell, dtype=np.int64) truncated these to the cells [0, 1] and [1]
        (lambda: ssag.Dataset(np.eye(3), np.zeros(3), ([0.5, 1.7], [2])),
         "cell 0 holds an entry that is not an integer"),
        (lambda: ssag.Dataset(np.eye(2), np.zeros(2), ([True], [0])),
         "cell 0 holds an entry that is not an integer"),
        (lambda: ssag.Dataset(np.eye(2), np.zeros(2), ([0], [np.True_])),
         "cell 1 holds an entry that is not an integer"),
        (lambda: ssag.Dataset(np.eye(2), np.zeros(2), ([0, np.nan], [1])),
         "cell 0 holds an entry that is not an integer")])
    def test_construction_rejections(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("features, targets, message", [
        ([[np.nan], [1.0]], [1.0, 2.0], "sample 0 is not finite: its feature 0 is nan"),
        ([[0.0, 1.0], [1.0, -np.inf]], [1.0, 2.0], "sample 1 is not finite: its feature 1 is -inf"),
        ([[0.0], [1.0]], [1.0, np.inf], "sample 1 is not finite: its target is inf"),
        ([[0.0], [1.0], [2.0]], [np.nan, 1.0, np.nan],
         "sample 0 is not finite: its target is nan")],
        ids=["nan-feature", "inf-feature", "inf-target", "first-of-two-targets"])
    def test_non_finite_values_name_the_first_bad_row(self, features, targets, message):
        with pytest.raises(ValueError, match=message):
            ssag.Dataset.regression(np.array(features), np.array(targets))

    def test_integral_float_cells_are_kept(self):
        ds = ssag.Dataset(np.eye(3), np.zeros(3), ([2.0, 0.0], np.array([1.0])))
        assert [cell.tolist() for cell in ds.partition] == [[2, 0], [1]]
        assert all(cell.dtype == np.int64 for cell in ds.partition)

    def test_immutability(self):
        ds = ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 3

    @pytest.mark.parametrize("build", ["direct", "from_class_labels", "regression"])
    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_caller_array_is_copied(self, build, writeable):
        # only the package's own builders hand their matrix over; a caller's
        # array, read-only or not, stays the caller's
        X = np.eye(2)
        X.setflags(write=writeable)
        y = np.array([0, 1])
        ds = {"direct": lambda: ssag.Dataset(X, y, (np.array([0]), np.array([1]))),
              "from_class_labels": lambda: ssag.Dataset.from_class_labels(X, y),
              "regression": lambda: ssag.Dataset.regression(X, y.astype(float))}[build]()
        assert not np.shares_memory(ds.features, X)
        X.setflags(write=True)
        X[0, 0] = 5.0
        assert ds.features[0, 0] == 1.0

    def test_rows_and_row_major_features(self):
        ds = ssag.Dataset.from_class_labels(np.asfortranarray(np.eye(3)), np.array([0, 1, 0]))
        assert ds.rows.tolist() == [0, 1, 2] and not ds.rows.flags.writeable
        assert ds.features.flags.c_contiguous

    def test_class_of_map(self):
        ds = ssag.Dataset.from_class_labels(np.eye(4), np.array([0, 1, 0, 1]))
        assert ds.class_of.tolist() == [0, 1, 0, 1]

    def test_counts(self):
        ds = ssag.Dataset.from_class_labels(np.zeros((5, 1)), np.array([0, 0, 1, 1, 1]))
        assert ds.n_samples == 5 and ds.n_classes == 2
        assert ds.class_counts.tolist() == [2, 3]
        assert sum(ds.class_counts) == ds.n_samples

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(N=st.integers(1, 40), cuts=st.integers(0, 39), seed=st.integers(0, 2**16))
    @example(N=1, cuts=0, seed=0)    # one singleton cell
    @example(N=12, cuts=11, seed=3)  # C = N: every cell a singleton
    @example(N=12, cuts=0, seed=4)   # one cell of all rows
    def test_layout_property(self, N, cuts, seed):
        # rows dealt in a random order into C cells of random sizes, so cells
        # are not ascending and may be singletons
        rng = np.random.default_rng(seed)
        C = min(cuts, N - 1) + 1
        bounds = np.sort(rng.choice(np.arange(1, N), size=C - 1, replace=False))
        partition = np.split(rng.permutation(N), bounds)
        ds = ssag.Dataset(np.zeros((N, 1)), np.zeros(N), partition)
        assert ds.class_counts.tolist() == [cell.size for cell in partition]
        for j, cell in enumerate(partition):
            start, count = ds.starts[j], ds.class_counts[j]
            assert ds.order[start:start + count].tolist() == cell.tolist()
            assert (ds.class_of[cell] == j).all()
        assert ds.class_of[ds.order].tolist() == np.repeat(np.arange(C), ds.class_counts).tolist()
        for derived in (ds.class_counts, ds.order, ds.starts, ds.class_of, ds.rows):
            with pytest.raises(ValueError, match="read-only"):
                derived[0] = 1


class TestPartitionByClass:
    def test_hand_partition(self):
        for labels in ([0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0]):  # an integral float is a label
            cells = ssag.partition_by_class(np.array(labels))
            assert [c.tolist() for c in cells] == [[0, 2], [1, 3]]

    def test_single_class(self):
        (cell,) = ssag.partition_by_class(np.array([0, 0, 0]))
        assert cell.tolist() == [0, 1, 2]

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            ssag.partition_by_class(np.array([0, 2]))  # class 1 empty

    @pytest.mark.parametrize("labels", [np.array([True, False, True]), [0, True, 1],
                                        [np.True_, 0]],
                             ids=["bool-array", "bool-among-ints", "numpy-bool"])
    def test_bools_are_not_class_labels(self, labels):
        # a bool array once gave the cells [1] and [0, 2], and a dataset
        # with bool labels, though a bool is refused in a partition cell
        with pytest.raises(ValueError, match="not bools"):
            ssag.partition_by_class(labels)
        with pytest.raises(ValueError, match="not bools"):
            ssag.Dataset.from_class_labels(np.eye(len(labels)), labels)

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=50)
        labels[:4] = [0, 1, 2, 3]
        cells = ssag.partition_by_class(labels)
        merged = np.sort(np.concatenate(cells))
        assert np.array_equal(merged, np.arange(50))


class TestGradientPopulationStats:
    def test_hand_scalar_gradients(self):
        # quadratic gradient at W = 0 is -x_i: choose x to get gradients {1, 3}
        obj = _quadratic_on([[-1.0], [-3.0]])
        stats = ssag.gradient_population_stats(obj, np.zeros(1))
        assert stats.population_mean == pytest.approx([2.0])
        assert stats.population_variance == pytest.approx(2.0)

    def test_constant_gradients(self):
        obj = _quadratic_on([[2.0], [2.0], [2.0]])
        stats = ssag.gradient_population_stats(obj, np.zeros(1))
        assert stats.population_variance == 0.0

    def test_within_class_zero_between_class_positive(self):
        obj = _quadratic_on([[1.0], [1.0], [3.0], [3.0]], labels=[0, 0, 1, 1])
        W = np.zeros(1)
        stats = ssag.gradient_population_stats(obj, W)
        # brute force on the 4-sample dataset
        G = obj.grad_samples(W, np.arange(4))
        expected = float(np.sum((G - G.mean(0)) ** 2) / 3)
        assert stats.per_class_variance.tolist() == [0.0, 0.0]
        assert stats.population_variance == pytest.approx(expected)
        assert stats.population_variance > 0.0

    @staticmethod
    def _fsum_stats(obj, W):
        """Population mean, variance and per-class variances of the gradient
        rows, each sum rounded once by math.fsum."""
        from math import fsum
        G = obj.grad_samples(W, np.arange(obj.dataset.n_samples))

        def moments(rows):
            mean = np.array([fsum(col) / rows.shape[0] for col in rows.T])
            squares = fsum(float(d) ** 2 for d in (rows - mean).ravel())
            return mean, squares / (rows.shape[0] - 1) if rows.shape[0] > 1 else 0.0

        mean, var = moments(G)
        return mean, var, [moments(G[cell])[1] for cell in obj.dataset.partition]

    @pytest.mark.parametrize("block_rows", [1, 2, 5, None])
    @pytest.mark.parametrize("kind", ["ridge", "logistic", "quadratic", "mlp"])
    def test_row_blocks_match_the_fsum_oracle(self, monkeypatch, kind, block_rows):
        # cells given out of row order, one of them a single row, so each
        # block holds a few rows of several classes
        base = any_kind_problem(kind, 23, 4, 3, seed=7)
        cells = (np.array([5, 0, 17, 9, 3, 22, 11]), np.array([14]),
                 np.array([20, 1, 2, 4, 6, 7, 8, 10, 12, 13, 15, 16, 18, 19, 21]))
        ds = ssag.Dataset(base.dataset.features, base.dataset.labels, cells)
        spec = {"kind": kind, "lam": 0.1, **({"hidden": [3]} if kind == "mlp" else {})}
        obj = ssag.make_objective(spec, ds)
        if block_rows is not None:
            monkeypatch.setattr(ssag.core, "BLOCK_BYTES", block_rows * obj.dim * 8)
        W = np.random.default_rng(8).normal(size=obj.dim)
        stats = ssag.gradient_population_stats(obj, W)
        mean, var, per_class = self._fsum_stats(obj, W)
        assert stats.population_mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert stats.population_variance == pytest.approx(var, rel=1e-12)
        assert stats.per_class_variance[1] == 0.0
        assert stats.per_class_variance == pytest.approx(per_class, rel=1e-12)

    def test_one_block_keeps_the_one_pass_bits(self):
        # the ssag-envelope geometry: N = 200, p = 5 logistic, one block
        means = np.zeros((2, 5))
        means[0, 0], means[1, 0], means[1, 1] = -18.0, 22.0, 4.0
        obj = ssag.LogisticRegression(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(100, 100), stddev=0.02, seed=1)), lam=0.1)
        W = np.random.default_rng(3).normal(size=5)
        G = obj.grad_samples(W, np.arange(200))
        stats = ssag.gradient_population_stats(obj, W)
        dev = G - G.mean(axis=0)
        assert stats.population_mean.tobytes() == G.mean(axis=0).tobytes()
        assert stats.population_variance == float(np.sum(dev * dev) / 199)
        for cell, got in zip(obj.dataset.partition, stats.per_class_variance.tolist()):
            devc = G[cell] - G[cell].mean(axis=0)
            assert got == float(np.sum(devc * devc) / (cell.size - 1))

    def test_peaks_under_a_few_blocks(self):
        # an MLP of dim 10 302 at N = 200: the (N, dim) gradient matrix would
        # be 62.9 blocks, and a copy of each class's rows as much again
        means = np.zeros((2, 100))
        means[0, 0], means[1, 0] = -1.0, 1.0
        obj = ssag.Mlp(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(100, 100), stddev=0.1, seed=1)), hidden=(100,))
        assert obj.dim >= 10_000
        peak = peak_alloc_bytes(ssag.gradient_population_stats, obj, obj.init_params(0))
        assert peak < 6 * ssag.core.BLOCK_BYTES

    def test_single_sample_degenerate(self):
        obj = _quadratic_on([[1.0, 2.0]])
        stats = ssag.gradient_population_stats(obj, np.zeros(2))
        assert stats.population_variance == 0.0

    def test_mean_matches_full_gradient(self, random_problem):
        for kind in ("ridge", "logistic", "quadratic"):
            obj = random_problem(kind="logistic" if kind == "logistic" else kind,
                                 N=14, p=4, seed=3)
            rng = np.random.default_rng(5)
            for _ in range(5):
                W = rng.normal(size=obj.dim)
                stats = ssag.gradient_population_stats(obj, W)
                full = obj.grad_full(W)
                err = np.linalg.norm(stats.population_mean - full)
                assert err <= 1e-12 * max(1.0, np.linalg.norm(full))

    def test_variance_decomposition(self):
        # within-class part never exceeds the total, brute force on N <= 20
        rng = np.random.default_rng(9)
        for trial in range(10):
            N = int(rng.integers(4, 21))
            labels = rng.integers(0, 3, size=N)
            labels[:3] = [0, 1, 2]
            X = rng.normal(size=(N, 3))
            obj = ssag.MeanQuadratic(ssag.Dataset.from_class_labels(X, labels))
            stats = ssag.gradient_population_stats(obj, rng.normal(size=3))
            within = np.sum((obj.dataset.class_counts - 1) * stats.per_class_variance)
            assert stats.population_variance >= within / (N - 1) - 1e-12

    def test_subset_identity_second_moment(self, random_problem):
        # E||g_bar||^2 = Var(g_bar) + ||E g_bar||^2, exhaustively on N <= 8
        from itertools import combinations
        obj = random_problem(kind="logistic", N=7, p=2, seed=4)
        W = np.array([0.3, -0.2])
        G = obj.grad_samples(W, np.arange(7))
        for n in (1, 2, 3, 7):
            means = np.array([G[list(s)].mean(axis=0)
                              for s in combinations(range(7), n)])
            second_moment = float(np.mean(np.sum(means * means, axis=1)))
            grand = means.mean(axis=0)
            var = float(np.mean(np.sum((means - grand) ** 2, axis=1)))
            expected = var + float(np.sum(grand * grand))
            assert second_moment == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestEstimateConstants:
    def test_ridge_identity_features(self):
        ds = ssag.Dataset.regression(np.eye(2), np.array([1.0, 1.0]))
        const = ssag.estimate_constants(ssag.RidgeRegression(ds, lam=0.1))
        assert const.L == pytest.approx(0.6, abs=1e-10)
        assert const.mu == pytest.approx(0.6, abs=1e-10)
        assert const.strongly_convex

    def test_logistic_single_sample(self):
        ds = ssag.Dataset.from_class_labels(np.array([[1.0]]), np.array([0]))
        const = ssag.estimate_constants(ssag.LogisticRegression(ds, lam=0.5))
        assert const.L == pytest.approx(0.75, abs=1e-10)
        assert const.mu == 0.5

    def test_degenerate_flagged(self):
        ds = ssag.Dataset.regression(np.zeros((2, 2)), np.zeros(2))
        const = ssag.estimate_constants(ssag.RidgeRegression(ds, lam=0.0))
        assert const.mu == 0.0
        assert not const.strongly_convex
        assert const.condition == float("inf")

    def test_strong_convexity_follows_mu(self):
        # a zero modulus is never strongly convex, however the constants are built
        assert not ssag.ConvexityConstants(L=1.0, mu=0.0).strongly_convex
        assert ssag.ConvexityConstants(L=1.0, mu=1e-300).strongly_convex

    def test_quadratic_exact(self):
        ds = ssag.Dataset.regression(np.ones((3, 2)), np.zeros(3))
        const = ssag.estimate_constants(ssag.MeanQuadratic(ds, lam=0.25))
        assert const.L == 1.25 and const.mu == 1.25

    def test_mlp_rejected(self):
        ds = ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1]))
        with pytest.raises(UnsupportedObjectiveError):
            ssag.estimate_constants(ssag.Mlp(ds, hidden=(2,)))

    @pytest.mark.parametrize("kind", ["ridge", "logistic"])
    def test_constants_satisfy_definitions(self, random_problem, kind):
        # 1000 random pairs against the Lipschitz and strong-convexity bounds
        obj = random_problem(kind=kind, N=16, p=3, lam=0.3, seed=8)
        const = ssag.estimate_constants(obj)
        rng = np.random.default_rng(21)
        for _ in range(1000):
            W1 = rng.normal(scale=2.0, size=obj.dim)
            W2 = rng.normal(scale=2.0, size=obj.dim)
            g1, g2 = obj.grad_full(W1), obj.grad_full(W2)
            lhs = np.linalg.norm(g1 - g2)
            assert lhs <= const.L * np.linalg.norm(W1 - W2) * (1.0 + 1e-9) + 1e-12
            lower = (obj.loss_full(W2) + g2 @ (W1 - W2)
                     + 0.5 * const.mu * np.sum((W1 - W2) ** 2))
            assert obj.loss_full(W1) >= lower - 1e-9 * max(1.0, abs(lower))

    def test_power_iteration_matches_reference(self):
        # gram extremes vs an independent oracle
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        M = A.T @ A / 6.0
        const = ssag.estimate_constants(
            ssag.RidgeRegression(ssag.Dataset.regression(A, np.zeros(6)), lam=0.0))
        lmax, lmin = const.L, const.mu
        # independent oracle: eigenvalues via characteristic polynomial roots
        roots = np.roots(np.poly(M))
        roots = np.sort(np.real(roots))
        assert lmax == pytest.approx(float(roots[-1]), rel=1e-8)
        assert lmin == pytest.approx(float(roots[0]), rel=1e-6, abs=1e-8)


    @pytest.mark.parametrize("rotate", [False, True])
    def test_ridge_mu_never_above_clustered_lambda_min(self, rotate):
        # gram X'X/N = Q diag(1, 0.0100, ..., 0.0108) Q', built exactly
        eigs = np.array([1.0] + [0.0100 + 0.0001 * i for i in range(9)])
        p = eigs.size
        Q = (np.linalg.qr(np.random.default_rng(5).normal(size=(p, p)))[0] if rotate
             else np.eye(p))
        X = np.sqrt(p) * np.diag(np.sqrt(eigs)) @ Q.T
        lam = 0.05
        const = ssag.estimate_constants(
            ssag.RidgeRegression(ssag.Dataset.regression(X, np.zeros(p)), lam=lam))
        assert const.mu <= (0.0100 + lam) * (1.0 + 1e-12)
        assert const.mu == pytest.approx(0.0100 + lam, rel=1e-9)
        assert const.L == pytest.approx(1.0 + lam, rel=1e-9)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_L_bounds_the_gradient_at_a_narrow_gap(self, rotate):
        # gram X'X/N = Q diag(1, 0.9999, 0.0100, ..., 0.0107) Q': the top two
        # eigenvalues are 1e-4 apart, where an iterative top-eigenvalue
        # estimate stops short of lmax
        eigs = np.array([1.0, 0.9999] + [0.0100 + 0.0001 * i for i in range(8)])
        p = eigs.size
        Q = (np.linalg.qr(np.random.default_rng(5).normal(size=(p, p)))[0] if rotate
             else np.eye(p))
        X = np.sqrt(p) * np.diag(np.sqrt(eigs)) @ Q.T
        lam = 0.05
        obj = ssag.RidgeRegression(ssag.Dataset.regression(X, np.zeros(p)), lam=lam)
        const = ssag.estimate_constants(obj)
        # independent oracle: the top singular value of X
        assert const.L >= (np.linalg.norm(X, 2) ** 2 / p + lam) * (1 - 1e-12)
        # the ridge gradient moves by (X'X/N + lam) * delta along the top
        # right singular vector, the steepest direction
        v = np.linalg.svd(X)[2][0]
        W = np.random.default_rng(9).normal(size=p)
        delta = 0.5 * v
        lhs = np.linalg.norm(obj.grad_full(W + delta) - obj.grad_full(W))
        assert lhs <= const.L * np.linalg.norm(delta) * (1 + 1e-12)


class TestFinitePopulationIdentities:
    def test_enumerated_variance_matches_formula(self, random_problem):
        # Var(g_bar) = (1-f)/n sigma^2 over every size-n subset, N <= 8
        obj = random_problem(kind="ridge", N=8, p=2, seed=6)
        W = np.array([0.5, -1.0])
        stats = ssag.gradient_population_stats(obj, W)
        for n in range(1, 9):
            _, enum_var = enumeration_mean_and_variance(obj, W, n)
            formula = ssag.finite_population_variance(
                stats.population_variance, f=n / 8.0, n=n)
            assert enum_var == pytest.approx(formula, rel=1e-12, abs=1e-15)
