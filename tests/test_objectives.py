"""Objective losses, gradients, class scores, accuracy, and the ridge closed form."""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import ssag
from ssag.errors import (DimensionMismatchError, SingularSystemError, StratumViolationError,
                         UnsupportedObjectiveError)
from ssag.core import BLOCK_BYTES
from ssag.objectives import sigmoid
from ssag.optimizers import RunConfig

from conftest import (OBJECTIVE_KINDS, any_kind_problem, central_diff_grad,
                      fsum_population_variance, grad_rel_error, peak_alloc_bytes)


def _logistic_point(x, y, lam=0.0):
    ds = ssag.Dataset.from_class_labels(np.atleast_2d(np.asarray(x, dtype=float)),
                                        np.asarray(y))
    return ssag.LogisticRegression(ds, lam=lam)


class TestLossSample:
    def test_ridge_exact_fit(self):
        ds = ssag.Dataset.regression(np.array([[2.0]]), np.array([2.0]))
        obj = ssag.RidgeRegression(ds, lam=0.0)
        assert obj.loss_sample(np.array([1.0]), 0) == 0.0

    def test_ridge_half_square(self):
        ds = ssag.Dataset.regression(np.array([[1.0]]), np.array([2.0]))
        obj = ssag.RidgeRegression(ds, lam=0.0)
        assert obj.loss_sample(np.array([0.0]), 0) == pytest.approx(2.0)

    def test_logistic_at_zero(self):
        obj = _logistic_point([[1.0], [1.0]], [1, 0])
        for i in range(2):
            assert obj.loss_sample(np.zeros(1), i) == pytest.approx(np.log(2.0))

    def test_index_out_of_range(self, two_class_logistic):
        with pytest.raises(IndexError):
            two_class_logistic.loss_sample(np.zeros(2), 6)

    @pytest.mark.parametrize("index", [1.7, -0.5, 0.5, np.float64(4.25)])
    def test_fractional_index_rejected(self, two_class_logistic, index):
        # int() would truncate the index to a sample; an integral float is kept
        obj = two_class_logistic
        W = np.array([0.2, -0.1])
        with pytest.raises(IndexError, match="not an integer"):
            obj.loss_sample(W, index)
        with pytest.raises(IndexError, match="not an integer"):
            obj.grad_sample(W, index)
        j = int(obj.dataset.class_of[int(index)])
        with pytest.raises(StratumViolationError, match="not all integers"):
            obj.grad_class_batch(W, j, np.array([index]))
        with pytest.raises(StratumViolationError, match="not all integers"):
            obj.grad_class_batch(W, j, [obj.dataset.partition[j][0], index])
        k = float(int(index))
        assert obj.loss_sample(W, k) == obj.loss_sample(W, int(k))
        assert np.array_equal(obj.grad_sample(W, k), obj.grad_sample(W, int(k)))

    @pytest.mark.parametrize("index", [True, False, np.True_, np.array(True)])
    def test_bool_index_rejected(self, two_class_logistic, index):
        # int(True) == True, so a bool passed the integral test as sample 1
        obj, W = two_class_logistic, np.array([0.2, -0.1])
        with pytest.raises(IndexError, match="not an integer"):
            obj.loss_sample(W, index)
        with pytest.raises(IndexError, match="not an integer"):
            obj.grad_sample(W, index)

    @pytest.mark.parametrize("mask", [[True, False], np.array([True, True])])
    def test_bool_mask_rejected_as_a_class_batch(self, two_class_logistic, mask):
        # astype(int64) read the mask as the rows [1, 0] and [1, 1], both of class 1
        obj, out = two_class_logistic, np.full(2, 7.0)
        with pytest.raises(StratumViolationError, match="not all integers"):
            obj.grad_class_batch(np.array([0.2, -0.1]), 1, mask, out)
        assert out.tolist() == [7.0, 7.0]

    @pytest.mark.parametrize("batch", [[0, True], (0, np.True_), [np.True_, 0], [[0, True]]],
                             ids=["list", "tuple", "numpy-bool-first", "nested"])
    def test_bool_among_integers_rejected_as_a_class_batch(self, two_class_logistic, batch):
        # np.asarray([0, True]) is int64, which read the bool as row 1, also of class 1
        obj, out = two_class_logistic, np.full(2, 7.0)
        with pytest.raises(StratumViolationError, match="not all integers"):
            obj.grad_class_batch(np.array([0.2, -0.1]), 1, batch, out)
        assert out.tolist() == [7.0, 7.0]

    def test_nonfinite_params_rejected(self, two_class_logistic):
        for bad in (np.nan, np.inf, -np.inf):
            W = np.array([0.0, bad])
            with pytest.raises(ValueError, match="non-finite"):
                two_class_logistic.loss_sample(W, 0)
            with pytest.raises(ValueError, match="non-finite"):
                two_class_logistic.loss_full(W)


class TestLossFullReduction:
    @pytest.mark.parametrize("kind", ["ridge", "logistic", "quadratic"])
    def test_linear_models_exact(self, random_problem, kind):
        # loss_full is the pairwise numpy sum of per-sample losses; for the
        # linear models the per-sample kernel is batch-size invariant, so the
        # identity holds bit for bit
        obj = random_problem(kind=kind, N=13, p=3, seed=2)
        W = np.random.default_rng(0).normal(size=obj.dim)
        persample = np.array([obj.loss_sample(W, i) for i in range(13)])
        assert float(np.sum(persample) / 13) == obj.loss_full(W)

    def test_mlp_within_tolerance(self):
        ds = ssag.Dataset.from_class_labels(np.random.default_rng(1).normal(size=(9, 4)),
                                            np.array([0, 1, 1, 0, 1, 0, 0, 1, 1]))
        obj = ssag.Mlp(ds, hidden=(3,), lam=0.01)
        W = obj.init_params(seed=5)
        persample = np.array([obj.loss_sample(W, i) for i in range(9)])
        assert float(np.sum(persample) / 9) == pytest.approx(obj.loss_full(W), rel=1e-12)


class TestGradSample:
    def test_logistic_hand_value(self):
        obj = _logistic_point([[2.0], [1.0]], [1, 0])
        g = obj.grad_sample(np.zeros(1), 0)
        assert g == pytest.approx([-1.0])  # (0.5 - 1) * 2

    def test_logistic_cancellation(self):
        obj = _logistic_point([[1.0], [1.0]], [1, 0])
        assert obj.grad_full(np.zeros(1)) == pytest.approx([0.0], abs=1e-16)

    @pytest.mark.parametrize("kind", ["ridge", "logistic", "quadratic"])
    def test_finite_difference_oracle(self, random_problem, kind):
        obj = random_problem(kind=kind, N=10, p=3, lam=0.2, seed=7)
        rng = np.random.default_rng(17)
        for _ in range(25):
            W = rng.normal(size=obj.dim)
            i = int(rng.integers(obj.dataset.n_samples))
            numeric = central_diff_grad(lambda v: obj.loss_sample(v, i), W)
            assert grad_rel_error(obj.grad_sample(W, i), numeric) <= 1e-6


class TestGradClassBatch:
    def test_singleton_equals_grad_sample(self, two_class_logistic):
        obj = two_class_logistic
        W = np.array([0.2, -0.1])
        cell = obj.dataset.partition[1]
        got = obj.grad_class_batch(W, 1, cell[:1])
        assert np.array_equal(got, obj.grad_sample(W, int(cell[0])))

    def test_whole_class_equals_direct_mean(self, two_class_logistic):
        obj = two_class_logistic
        W = np.array([0.2, -0.1])
        cell = obj.dataset.partition[0]
        direct = np.mean([obj.grad_sample(W, int(i)) for i in cell], axis=0)
        got = obj.grad_class_batch(W, 0, cell)
        assert np.linalg.norm(got - direct) <= 1e-12 * max(1.0, np.linalg.norm(direct))

    def test_hand_mean(self):
        # quadratic gradients at W=0 are -x_i: (1) and (3) average to (2)
        ds = ssag.Dataset.from_class_labels(np.array([[-1.0], [-3.0]]), np.array([0, 0]))
        obj = ssag.MeanQuadratic(ds)
        got = obj.grad_class_batch(np.zeros(1), 0, np.array([0, 1]))
        assert got == pytest.approx([2.0])

    def test_stratum_violation(self, two_class_logistic):
        obj = two_class_logistic
        first, second = obj.dataset.partition
        wrong = second[:1]
        with pytest.raises(StratumViolationError):
            obj.grad_class_batch(np.zeros(2), 0, wrong)
        with pytest.raises(StratumViolationError):
            obj.grad_class_batch(np.zeros(2), 0, np.array([], dtype=np.int64))
        # a one-index foreign batch built fresh, and batches that mix classes
        with pytest.raises(StratumViolationError):
            obj.grad_class_batch(np.zeros(2), 0, np.array([second[0]], dtype=np.int64))
        for j in (0, 1):
            with pytest.raises(StratumViolationError):
                obj.grad_class_batch(np.zeros(2), j, np.array([first[0], second[0]]))
            with pytest.raises(StratumViolationError):
                obj.grad_class_batch(np.zeros(2), j, np.array([second[-1], first[-1]]))
        assert obj.grad_class_batch(np.zeros(2), 0, np.array([first[0]])).shape == (2,)
        # a one-index array of another dtype is converted to int64 first: a
        # member returns the int64 index's bits, a foreign index raises with
        # the converted index in the message
        W = np.array([0.2, -0.1])
        for j, cell in enumerate((first, second)):
            own = obj.grad_class_batch(W, j, np.array([cell[0]]))
            foreign = (second, first)[j][0]
            for dtype in (np.float64, np.int32):
                got = obj.grad_class_batch(W, j, np.array([cell[0]], dtype=dtype))
                assert np.array_equal(got.view(np.uint64), own.view(np.uint64))
                with pytest.raises(StratumViolationError,
                                   match=rf"^indices \[{foreign}\] are not all members of class {j}$"):
                    obj.grad_class_batch(W, j, np.array([foreign], dtype=dtype))
            with pytest.raises(StratumViolationError,
                               match=rf"^indices \[{foreign}\] are not all members of class {j}$"):
                obj.grad_class_batch(W, j, np.array([foreign]))

    @pytest.mark.parametrize("shape", [(), (1, 1)], ids=str)
    def test_one_int64_index_of_another_shape_matches_the_general_path(self, two_class_logistic,
                                                                       shape):
        # an int64 index of one entry takes the one-index path whatever its
        # shape; as int32 it takes the general path, which converts it.  Both
        # give the (1,) index's bits, or raise with the same message and
        # leave out as it was
        obj, W = two_class_logistic, np.array([0.2, -0.1])
        first, second = obj.dataset.partition
        for j, (cell, other) in enumerate(((first, second), (second, first))):
            for i in (cell[0], cell[-1]):
                want = obj.grad_class_batch(W, j, np.array([i]))
                for dtype in (np.int64, np.int32):
                    got = obj.grad_class_batch(W, j, np.array(i, dtype).reshape(shape))
                    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            for i in (other[0], -1, obj.dataset.n_samples):
                messages = set()
                for dtype in (np.int64, np.int32):
                    out = np.full(2, 7.0)
                    with pytest.raises(StratumViolationError) as info:
                        obj.grad_class_batch(W, j, np.array(i, dtype).reshape(shape), out)
                    messages.add(str(info.value))
                    assert out.tolist() == [7.0, 7.0]
                assert messages == {f"indices {np.array(i).reshape(shape).tolist()} "
                                    f"are not all members of class {j}"}

    @pytest.mark.parametrize("indices", [
        np.array([-1]), np.array([-4]), np.array([6]), np.array([2**40]),  # one int64 index
        np.array([-1, -3]), np.array([-1.0]), np.array([6, 3]), [3, 6], np.array([-1], np.int32)],
        ids=repr)
    def test_index_outside_the_rows_rejected(self, indices):
        # classes {0, 1, 2} and {3, 4, 5}: a negative index would wrap around
        # to a member, and one of N or more is a member of no class
        obj = ssag.MeanQuadratic(ssag.Dataset.from_class_labels(
            np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1])))
        for j in (0, 1):
            with pytest.raises(StratumViolationError, match=f"not all members of class {j}$"):
                obj.grad_class_batch(np.zeros(1), j, indices)


def _numpy_sigmoid(m):
    """The logistic function written out on numpy's exp, the oracle's link."""
    e = np.exp(-np.abs(m))
    return np.where(m >= 0, 1.0, e) / (1.0 + e)


class TestSigmoid:
    GRID = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                           np.geomspace(1e-300, 745.0, 2001), -np.geomspace(1e-300, 745.0, 2001)])

    def test_within_four_ulps_of_expit(self):
        # scipy's expit is the oracle; below the smallest normal number both
        # are subnormal, where the exp of each rounds to fewer bits
        ours, theirs = sigmoid(self.GRID), expit(self.GRID)
        normal = theirs >= np.finfo(float).tiny
        assert np.all(np.abs(ours - theirs)[normal]
                      <= 4 * np.finfo(float).eps * theirs[normal])
        assert np.all(ours[~normal] < np.finfo(float).tiny)

    def test_special_values_without_warnings(self):
        special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1000.0, -1000.0, -745.0])
        # exp(-745) = 2.9e-324 rounds to the smallest subnormal (expit gives 0)
        expected = [1.0, 0.0, np.nan, 0.5, 0.5, 1.0, 0.0, 5e-324]
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")  # numpy's default error state, as errors
            array = sigmoid(special)
            scalars = [sigmoid(float(m)) for m in special]
        np.testing.assert_array_equal(array, expected)
        np.testing.assert_array_equal(scalars, expected)

    def test_scalar_call_has_the_array_bits(self):
        # the one-row kernel takes the Python-float branch, the batch kernels
        # the array one: both must give the same bits
        ours = sigmoid(self.GRID)
        scalars = [sigmoid(m) for m in self.GRID[::7].tolist()]
        assert all(type(s) is float for s in scalars)
        assert np.array(scalars).tobytes() == ours[::7].tobytes()
        assert sigmoid(self.GRID[::3]).tobytes() == ours[::3].tobytes()  # strided

    def test_package_imports_without_scipy(self):
        code = ("import sys, ssag, ssag.bench; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        # the child imports the package this process imported, whether pytest
        # found it through pyproject's pythonpath or the caller's PYTHONPATH
        source_root = str(Path(ssag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (source_root, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"


class TestOneRowKernel:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(kind=st.sampled_from(["ridge", "logistic"]), N=st.integers(1, 5),
           p=st.integers(1, 30), lam=st.sampled_from([0.0, 0.1, 3.0]),
           w_mode=st.sampled_from(["normal", "+0", "-0", "signed zeros", "huge"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_the_batch_formula(self, kind, N, p, lam, w_mode, seed):
        # the batch formula for one row, written out: margins by a row
        # reduction, residual link(m) - y, then X'r / 1 + lam W through BLAS;
        # bits compared as integers, so a -0.0 against a +0.0 fails.  Rows
        # shorter than 8 features take the kernel's Python-float path, longer
        # rows its numpy path; a call with out= must write the same bits and
        # return out.  "huge" weights (|w| from 1e300 to 1e308,
        # random signs) overflow the margin to +-inf or NaN on many rows: NaN
        # entries must sit at the same positions, every other entry, +-inf
        # included, must have the same bits.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(N, p)) * 10.0 ** rng.integers(-3, 4, size=p)
        column = rng.integers(0, 4, size=p)  # 0, 1: as drawn; 2: +0.0; 3: -0.0
        X[:, column == 2] = 0.0
        X[:, column == 3] = -0.0
        y = rng.normal(size=N) if kind == "ridge" else rng.integers(0, 2, size=N)
        ds = ssag.Dataset(X, y, (np.arange(N),))
        obj = (ssag.RidgeRegression if kind == "ridge" else ssag.LogisticRegression)(ds, lam)
        W = {"normal": rng.normal(size=p), "+0": np.zeros(p), "-0": np.full(p, -0.0),
             "signed zeros": np.where(rng.integers(0, 2, size=p) == 1, -0.0, 0.0),
             "huge": rng.choice([-1.0, 1.0], size=p) * 10.0 ** rng.uniform(300, 308, size=p),
             }[w_mode]
        link = (lambda m: m) if kind == "ridge" else _numpy_sigmoid
        for i in range(N):
            Xi = ds.features[[i]]
            with np.errstate(all="ignore"):  # "huge" overflows on both paths
                resid = link(np.add.reduce(Xi * W, axis=1)) - np.asarray(y, dtype=float)[[i]]
                want = (Xi.T @ resid) / 1 + lam * W
                got = obj.grad_batch(W, np.array([i]))
                out = np.full(p, np.nan)
                written = obj.grad_batch(W, np.array([i]), out=out)
            assert written is out
            nan = np.isnan(want)
            for result in (got, out):
                assert np.array_equal(np.isnan(result), nan)
                assert np.array_equal(result[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestOutArgument:
    """``grad_batch(W, indices, out=out)`` and ``grad_class_batch`` write the
    allocating call's bits into ``out``, signed zeros included, and return
    ``out``: at one row (a short and a long row for the linear models), at a
    batch and at ``dataset.rows``."""

    @pytest.mark.parametrize("w_mode", ["normal", "signed zeros"])
    @pytest.mark.parametrize("p", [5, 12], ids=["short-row", "long-row"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_bits_of_the_allocating_call(self, kind, p, w_mode):
        obj = any_kind_problem(kind, 9, p, 3, seed=p)
        rng = np.random.default_rng(p + 1)
        W = (rng.normal(size=obj.dim) if w_mode == "normal"
             else np.where(rng.integers(0, 2, size=obj.dim) == 1, -0.0, 0.0))
        ds = obj.dataset
        for indices in (np.array([4]), np.array([0, 3, 8, 5]), ds.rows):
            want = obj.grad_batch(W, indices)
            out = np.full(obj.dim, np.nan)
            assert obj.grad_batch(W, indices, out=out) is out
            assert out.tobytes() == want.tobytes()
        for j, cell in enumerate(ds.partition):
            for indices in (cell[:1], cell):
                want = obj.grad_class_batch(W, j, indices)
                out = np.full(obj.dim, np.nan)
                assert obj.grad_class_batch(W, j, indices, out=out) is out
                assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_a_rejected_call_leaves_out_as_it_was(self, kind):
        obj = any_kind_problem(kind, 9, 12, 3, seed=4)
        W, out = np.ones(obj.dim), np.arange(float(obj.dim))
        other = obj.dataset.partition[1]
        with pytest.raises(StratumViolationError):
            obj.grad_class_batch(W, 0, other[:1], out=out)
        with pytest.raises(IndexError):
            obj.grad_batch(W, np.array([9]), out=out)
        assert out.tobytes() == np.arange(float(obj.dim)).tobytes()


class TestGradFull:
    def test_zero_at_closed_form_optimum(self, random_problem):
        obj = random_problem(kind="ridge", N=12, p=3, lam=0.4, seed=5)
        w_star = ssag.reference_optimum(obj)
        assert np.linalg.norm(obj.grad_full(w_star)) <= 1e-10

    def test_single_sample(self):
        ds = ssag.Dataset.regression(np.array([[3.0]]), np.array([1.0]))
        obj = ssag.RidgeRegression(ds)
        W = np.array([0.7])
        assert np.array_equal(obj.grad_full(W), obj.grad_sample(W, 0))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), ()], ids=["matrix", "row", "scalar"])
    def test_rejects_params_that_are_not_one_dimensional(self, two_class_logistic, shape):
        # loss_full rejects these with the same error; numpy's broadcast
        # ValueError used to escape from grad_full
        with pytest.raises(DimensionMismatchError, match="one-dimensional"):
            two_class_logistic.grad_full(np.zeros(shape))

    def test_takes_a_list_as_loss_full_does(self, two_class_logistic):
        # grad_full read W.ndim, so a list raised AttributeError
        obj = two_class_logistic
        assert obj.loss_full([0.2, -0.1]) == obj.loss_full(np.array([0.2, -0.1]))
        assert (obj.grad_full([0.2, -0.1]).tobytes()
                == obj.grad_full(np.array([0.2, -0.1])).tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_params(self, two_class_logistic, bad):
        with pytest.raises(ValueError, match="non-finite"):
            two_class_logistic.grad_full(np.array([0.0, bad]))

    def test_balanced_class_mean_identity(self):
        # on a balanced set the full gradient equals the mean of class means
        X = np.array([[1.0], [2.0], [5.0], [6.0]])
        ds = ssag.Dataset.from_class_labels(X, np.array([0, 0, 1, 1]))
        obj = ssag.MeanQuadratic(ds)
        W = np.array([0.3])
        class_means = [obj.grad_class_batch(W, j, ds.partition[j]) for j in range(2)]
        full = obj.grad_full(W)
        assert np.mean(class_means, axis=0) == pytest.approx(full, rel=1e-12)


class TestHessianFull:
    @pytest.mark.parametrize("seed", range(6))
    def test_central_differences_of_grad_full(self, seed):
        rng = np.random.default_rng(seed)
        N, p = int(rng.integers(2, 30)), int(rng.integers(1, 7))
        obj = any_kind_problem("logistic", N, p, 2, seed, lam=float(rng.uniform(0.0, 1.0)))
        W = rng.normal(scale=0.5, size=p)
        numeric = np.array([central_diff_grad(lambda v, i=i: obj.grad_full(v)[i], W)
                            for i in range(p)])
        assert grad_rel_error(obj.hessian_full(W), numeric) <= 1e-6

    def test_row_blocks_bound_the_transient_memory(self):
        # 20 000 x 20 features (12.2 blocks): the weighted copy of the whole
        # matrix is gone, and the blocked sums match the one-pass formula
        means = np.zeros((2, 20))
        means[0, 0], means[1, 0] = -1.0, 1.0
        obj = ssag.LogisticRegression(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(10_000, 10_000), stddev=0.1, seed=1)), lam=0.02)
        W = np.random.default_rng(0).normal(size=20)
        assert peak_alloc_bytes(obj.hessian_full, W) < 3 * BLOCK_BYTES
        X = obj.dataset.features
        s = expit(X @ W)
        whole = X.T @ (X * (s * (1.0 - s))[:, None]) / X.shape[0] + 0.02 * np.eye(20)
        np.testing.assert_allclose(obj.hessian_full(W), whole, rtol=1e-12, atol=1e-15)


class TestFullDataInPlace:
    """Full-data calls pass ``dataset.rows`` and read the features in place;
    each must give the bits of the same kernel on a fresh arange(N), which
    gathers its rows."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(OBJECTIVE_KINDS), N=st.integers(2, 14), p=st.integers(1, 11),
           C=st.integers(1, 3), seed=st.integers(0, 2**16), lam=st.sampled_from([0.0, 0.3]),
           fortran=st.booleans())
    def test_matches_gathered_kernels(self, kind, N, p, C, seed, lam, fortran):
        obj = any_kind_problem(kind, N, p, C, seed, lam=lam, fortran=fortran)
        W = np.random.default_rng(seed + 1).normal(size=obj.dim)
        fresh = np.arange(N)
        assert np.array_equal(obj.grad_full(W), obj.grad_batch(W, fresh))
        assert obj.loss_full(W) == float(np.sum(obj.loss_values(W, fresh)) / N)
        G = obj.grad_samples(W, fresh)
        assert np.array_equal(obj.grad_samples(W, obj.dataset.rows), G)
        # gradient_population_stats against its formulas on fresh arrays
        stats = ssag.gradient_population_stats(obj, W)
        dev = G - G.mean(axis=0)
        assert np.array_equal(stats.population_mean, G.mean(axis=0))
        assert stats.population_variance == float(np.sum(dev * dev) / (N - 1))
        expected = []
        for cell in obj.dataset.partition:
            devc = G[cell] - G[cell].mean(axis=0)
            expected.append(float(np.sum(devc * devc) / (cell.size - 1)) if cell.size > 1
                            else 0.0)
        assert stats.per_class_variance.tolist() == expected


class TestPopulationVariance:
    """`population_variance` against an exactly summed oracle, for a linear
    model's residual kernel and for the default that reduces `grad_samples`."""

    @pytest.mark.parametrize("block_rows", [None, 2], ids=["one-block", "2-row-blocks"])
    @pytest.mark.parametrize("N", [1, 2, 37])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_matches_fsum_oracle(self, monkeypatch, kind, N, block_rows):
        obj = any_kind_problem(kind, N, 5, 2, seed=N)
        if block_rows is not None:
            monkeypatch.setattr(ssag.core, "BLOCK_BYTES", block_rows * 5 * 8)
        W = np.random.default_rng(N + 1).normal(size=obj.dim)
        expected = fsum_population_variance(obj, W)
        for got in (obj.population_variance(W), ssag.Objective.population_variance(obj, W)):
            if N == 1:
                assert got == expected == 0.0
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_every_kind_takes_a_list(self, kind):
        # the linear kernel read W.dtype, so a list raised AttributeError
        obj = any_kind_problem(kind, 9, 3, 2, seed=4)
        W = np.random.default_rng(5).normal(size=obj.dim)
        assert obj.population_variance(W.tolist()) == obj.population_variance(W)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_every_kind_rejects_a_non_finite_w(self, kind, bad):
        # the linear kernel returned NaN with a RuntimeWarning
        obj = any_kind_problem(kind, 9, 3, 2, seed=4)
        W = np.zeros(obj.dim)
        W[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            obj.population_variance(W)

    def test_default_kernel_peaks_under_a_few_blocks(self):
        # an MLP of dim 10 302 at N = 200: grad_samples of all rows would be
        # 62.9 blocks; the default reduces them a block of rows at a time
        means = np.zeros((2, 100))
        means[0, 0], means[1, 0] = -1.0, 1.0
        obj = ssag.Mlp(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(100, 100), stddev=0.1, seed=1)), hidden=(100,))
        assert obj.dim >= 10_000
        assert peak_alloc_bytes(obj.population_variance, obj.init_params(0)) < 6 * BLOCK_BYTES

    @pytest.mark.parametrize("p", [3, 8, 13])
    def test_blocked_margins_keep_their_bits(self, monkeypatch, p):
        # each row is reduced on its own, so blocks of 3 rows and a ragged
        # last block give the bits of one reduction over the whole matrix
        rng = np.random.default_rng(p)
        X = rng.normal(size=(50, p)) * rng.uniform(0.1, 1e3, size=p)
        W = rng.normal(size=p)
        whole = ssag.objectives._margins(X, W)
        monkeypatch.setattr(ssag.core, "BLOCK_BYTES", 3 * p * 8)
        blocked = ssag.objectives._margins(X, W)
        assert blocked.tobytes() == whole.tobytes() == np.add.reduce(X * W, axis=1).tobytes()


class TestGradSamplesIndices:
    """``grad_samples`` takes integer row indices in [0, N) on every kind and
    rejects the rest before any work."""

    @pytest.mark.parametrize("indices", [
        [True, False, False, False, False, True], [True] * 6, np.array([True, False]),
        [0, True], (np.True_, 2), np.array([-1]), [-6], [3, 9], np.array([0, 9], np.uint8)],
        ids=["bool-list", "all-true", "bool-array", "bool-among-ints", "numpy-bool",
             "minus-one", "minus-n", "past-the-end", "uint8-past-the-end"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_rejects_a_bool_or_an_index_outside_the_rows(self, monkeypatch, kind, indices):
        obj = any_kind_problem(kind, 9, 3, 2, seed=4)
        monkeypatch.setattr(obj, "grad_batch", _no_work)
        monkeypatch.setattr(obj, "_margins_of", _no_work, raising=False)
        with pytest.raises(IndexError, match="not all integers in"):
            obj.grad_samples(np.zeros(obj.dim), indices)

    @pytest.mark.parametrize("indices", [np.array([[0, 1]]), [[0], [1]], np.array(3), 3],
                             ids=["2-d-array", "nested-list", "0-d-array", "scalar"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_rejects_indices_that_are_not_one_dimensional(self, monkeypatch, kind, indices):
        # a (1, 2) array once gave a linear model (1, 2, dim) rows, and the
        # MLP an IndexError from inside its kernel
        obj = any_kind_problem(kind, 9, 3, 2, seed=4)
        monkeypatch.setattr(obj, "grad_batch", _no_work)
        monkeypatch.setattr(obj, "_margins_of", _no_work, raising=False)
        with pytest.raises(IndexError, match="in one dimension"):
            obj.grad_samples(np.zeros(obj.dim), indices)

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_integer_indices_give_their_rows(self, kind):
        obj = any_kind_problem(kind, 9, 3, 2, seed=4)
        W = np.random.default_rng(6).normal(size=obj.dim)
        whole = obj.grad_samples(W, obj.dataset.rows)
        for indices in ([8, 0, 8], (2,), np.array([1, 3], np.int32), np.uint8([4])):
            got = obj.grad_samples(W, indices)
            assert got.tobytes() == whole[np.asarray(indices)].tobytes()
        assert obj.grad_samples(W, []).shape == (0, obj.dim)


def _no_work(*args, **kwargs):
    raise AssertionError("a rejected index reached a gradient kernel")


class TestSharedFullDataMargins:
    """A linear model keeps the margins of its last full-data W; no result
    may depend on the calls made before it."""

    @staticmethod
    def _full_data_bytes(obj, W):
        stats = ssag.gradient_population_stats(obj, W)
        return [np.float64(obj.loss_full(W)).tobytes(), obj.grad_full(W).tobytes(),
                obj.grad_samples(W, obj.dataset.rows).tobytes(),
                stats.population_mean.tobytes(),
                np.float64(stats.population_variance).tobytes(),
                stats.per_class_variance.tobytes()]

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(kind=st.sampled_from(("ridge", "logistic")), N=st.integers(2, 14),
           p=st.integers(1, 11), C=st.integers(1, 3), seed=st.integers(0, 2**16),
           lam=st.sampled_from([0.0, 0.3]))
    def test_results_do_not_depend_on_earlier_calls(self, kind, N, p, C, seed, lam):
        rng = np.random.default_rng(seed + 1)
        W, V = rng.normal(size=p), rng.normal(size=p)
        on_fresh = {key: self._full_data_bytes(any_kind_problem(kind, N, p, C, seed, lam=lam), U)
                    for key, U in (("W", W), ("V", V))}
        obj = any_kind_problem(kind, N, p, C, seed, lam=lam)
        assert self._full_data_bytes(obj, W) == on_fresh["W"]  # fresh objective
        assert self._full_data_bytes(obj, W.copy()) == on_fresh["W"]  # same W again
        assert self._full_data_bytes(obj, V) == on_fresh["V"]  # another W
        U = W.copy()
        obj.loss_full(U)
        U[:] = V  # changed in place after a call
        assert self._full_data_bytes(obj, U) == on_fresh["V"]

    def test_key_is_dtype_shape_and_bytes(self, random_problem):
        obj = random_problem(kind="logistic", N=12, p=4)
        rows, X = obj.dataset.rows, obj.dataset.features
        W = np.random.default_rng(3).normal(size=4)
        for other in (W.view(np.int64), W[None, :]):  # equal bytes
            kept = obj._margins_of(W, rows)[1]
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.0
            assert obj._margins_of(W.copy(), rows)[1] is kept
            margins = obj._margins_of(other, rows)[1]
            assert margins is not kept
            assert np.array_equal(margins, ssag.objectives._margins(X, other))

    @staticmethod
    def _count_full_data_passes(monkeypatch, obj):
        passes = []
        margins = ssag.objectives._margins

        def counted(X, W):
            passes.append(X is obj.dataset.features)
            return margins(X, W)

        monkeypatch.setattr(ssag.objectives, "_margins", counted)
        return passes

    @pytest.mark.parametrize("kind", ["fgd", "sgd"])
    def test_one_pass_per_recorded_snapshot(self, monkeypatch, random_problem, kind):
        # the snapshot's loss and variance share one pass; FGD's step lands on
        # the W its snapshot evaluated, and an SGD step reads one row
        obj = random_problem(kind="logistic", N=40, p=3)
        passes = self._count_full_data_passes(monkeypatch, obj)
        rec = ssag.run(RunConfig(kind=kind, steps=12, h=0.2, cadence=1, record_variance=True),
                       obj)
        assert len(rec.k) == 13 and sum(passes) == 13

    def test_reference_optimum_one_pass_per_point(self, monkeypatch, random_problem):
        obj = random_problem(kind="logistic", N=40, p=3)
        constants = ssag.estimate_constants(obj)
        points = []
        for name in ("loss_full", "grad_full"):
            method = getattr(obj, name)
            monkeypatch.setattr(obj, name, lambda W, method=method: (
                points.append(W.tobytes()), method(W))[1])
        passes = self._count_full_data_passes(monkeypatch, obj)
        ssag.reference_optimum(obj, constants=constants)
        assert len(points) == 2 * len(set(points)) > 2
        assert sum(passes) == len(set(points))

    def test_threads_sharing_one_objective(self):
        obj = any_kind_problem("logistic", 400, 6, 2, seed=11)
        rng = np.random.default_rng(12)
        Ws = [rng.normal(size=6), rng.normal(size=6)]
        expected = [(obj.loss_full(W), obj.grad_full(W).tobytes()) for W in Ws]
        failures, counts = [], []

        def worker(first):
            done, deadline = 0, time.perf_counter() + 1.0
            while time.perf_counter() < deadline:
                k = (first + done) % 2
                got = (obj.loss_full(Ws[k]), obj.grad_full(Ws[k]).tobytes())
                if got != expected[k]:
                    failures.append((k, got))
                done += 1
            counts.append(done)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and len(counts) == 4 and min(counts) > 1


class TestClosedFormOptimum:
    def test_line_fit(self, line_ridge):
        assert ssag.reference_optimum(line_ridge) == pytest.approx([1.0])

    def test_regularizer_dominance(self):
        ds = ssag.Dataset.regression(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        w = ssag.reference_optimum(ssag.RidgeRegression(ds, lam=1e6))
        assert np.linalg.norm(w) <= 1e-5

    def test_identity_solve(self):
        ds = ssag.Dataset.regression(np.eye(2), np.array([3.0, 3.0]))
        w = ssag.reference_optimum(ssag.RidgeRegression(ds, lam=0.0))
        assert w == pytest.approx([3.0, 3.0])

    def test_singular_rejected(self):
        ds = ssag.Dataset.regression(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(SingularSystemError):
            ssag.reference_optimum(ssag.RidgeRegression(ds, lam=0.0))

    def test_non_ridge_rejected(self, two_class_logistic):
        # a kind with neither a closed form nor a Newton search has no optimum
        with pytest.raises(UnsupportedObjectiveError, match="no reference optimum"):
            ssag.reference_optimum(ssag.Mlp(two_class_logistic.dataset, hidden=(2,)))


class TestDescentProperty:
    def test_full_gradient_step_decreases_loss(self, random_problem):
        obj = random_problem(kind="ridge", N=10, p=3, lam=0.2, seed=9)
        const = ssag.estimate_constants(obj)
        h = 1.9 / const.L
        rng = np.random.default_rng(2)
        W = rng.normal(size=obj.dim)
        for _ in range(50):
            g = obj.grad_full(W)
            if np.linalg.norm(g) <= 1e-12:
                break
            W_next = W - h * g
            assert obj.loss_full(W_next) < obj.loss_full(W)
            W = W_next


class TestScoresMatrix:
    def test_logistic_probabilities(self, two_class_logistic):
        W = np.array([0.7, -1.2])
        X = two_class_logistic.dataset.features
        scores = two_class_logistic.scores_matrix(W, X)
        p1 = 1.0 / (1.0 + np.exp(-(X @ W)))
        assert scores.shape == (6, 2)
        assert scores[:, 1] == pytest.approx(p1, rel=1e-12)
        assert scores.sum(axis=1) == pytest.approx(np.ones(6), rel=1e-12)

    @pytest.mark.parametrize("kind", ["ridge", "quadratic"])
    def test_regression_objectives_have_no_scores(self, kind):
        ds = ssag.Dataset.regression(np.ones((2, 1)), np.zeros(2))
        obj = ssag.make_objective({"kind": kind}, ds)
        with pytest.raises(UnsupportedObjectiveError):
            obj.scores_matrix(np.zeros(1), ds.features)


class TestMlp:
    def _toy(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 4))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        return ssag.Mlp(ssag.Dataset.from_class_labels(X, y), hidden=(2,), lam=0.05)

    def test_backprop_vs_finite_differences(self):
        # 4-2-2 network, looser tolerance for the deep chain
        obj = self._toy()
        rng = np.random.default_rng(3)
        for _ in range(20):
            W = obj.init_params(seed=int(rng.integers(1 << 30)))
            i = int(rng.integers(8))
            numeric = central_diff_grad(lambda v: obj.loss_sample(v, i), W)
            assert grad_rel_error(obj.grad_sample(W, i), numeric) <= 1e-4

    def test_batch_gradient_is_mean_of_samples(self):
        obj = self._toy()
        W = obj.init_params(seed=1)
        idx = np.arange(8)
        mean_rows = obj.grad_samples(W, idx).mean(axis=0)
        batch = obj.grad_batch(W, idx)
        assert np.linalg.norm(batch - mean_rows) <= 1e-12 * max(1.0, np.linalg.norm(batch))

    @pytest.mark.parametrize("indices", [[0.5, 1.7], np.array([2.0, 3.0])])
    def test_grad_samples_rejects_non_integer_indices(self, indices):
        # as the linear models' grad_samples does; a forced int64 cast took
        # [0.5, 1.7] as the rows [0, 1]
        with pytest.raises(IndexError):
            self._toy().grad_samples(np.zeros(12), indices)

    def test_init_bounds_and_determinism(self):
        obj = self._toy()
        W1, W2 = obj.init_params(seed=9), obj.init_params(seed=9)
        assert np.array_equal(W1, W2)
        layers = obj._layers(W1)
        for (Wl, bl), (fan_out, fan_in) in zip(layers, [(2, 4), (2, 2)]):
            r = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(Wl) <= r)
            assert np.all(bl == 0.0)

    def test_parameter_count(self):
        obj = self._toy()
        assert obj.dim == 4 * 2 + 2 + 2 * 2 + 2

    def test_softmax_overflow_safe(self):
        obj = self._toy()
        W = 50.0 * np.ones(obj.dim)
        assert np.isfinite(obj.loss_full(W))


class TestAccuracy:
    def test_logistic_separable(self, two_class_logistic):
        obj = two_class_logistic
        W = np.array([5.0, 0.0])
        assert ssag.accuracy(obj, W, obj.dataset) == 1.0

    def test_ridge_unsupported(self, line_ridge):
        with pytest.raises(UnsupportedObjectiveError):
            ssag.accuracy(line_ridge, np.array([1.0]), line_ridge.dataset)

    def test_logistic_matches_threshold_rule(self, random_problem):
        # independent oracle: class 1 exactly when sigmoid(x'W) > 1/2
        obj = random_problem(kind="logistic", N=40, p=3, seed=8, stddev=3.0)
        ds = obj.dataset
        for seed in range(5):
            W = np.random.default_rng(seed).normal(size=3)
            p1 = 1.0 / (1.0 + np.exp(-np.sum(ds.features * W, axis=1)))
            expected = np.mean(np.where(p1 > 0.5, 1, 0) == ds.labels)
            assert ssag.accuracy(obj, W, ds) == expected

    def test_mlp_is_mean_of_predictions(self, random_problem):
        obj = random_problem(kind="mlp", C=3, N=15, seed=3)
        ds = obj.dataset
        W = obj.init_params(seed=2)
        labels = [int(np.argmax(obj.scores_matrix(W, x[None, :])[0])) for x in ds.features]
        assert ssag.accuracy(obj, W, ds) == np.mean(np.array(labels) == ds.labels)

    def test_logistic_tie_counts_as_class_0(self):
        obj = _logistic_point([[1.0], [1.0]], [0, 1])
        W = np.zeros(1)
        assert obj.scores_matrix(W, np.ones((1, 1)))[0] == pytest.approx([0.5, 0.5])
        ds = ssag.Dataset.from_class_labels(np.ones((1, 1)), np.array([0]))
        assert ssag.accuracy(obj, W, ds) == 1.0

    def test_mlp_uniform_tie_counts_as_class_0(self):
        ds = ssag.Dataset.from_class_labels(np.eye(3), np.array([0, 1, 2]))
        obj = ssag.Mlp(ds, hidden=(2,))
        W = np.zeros(obj.dim)  # zero output layer -> uniform softmax
        assert obj.scores_matrix(W, np.ones((1, 3)))[0] == pytest.approx([1 / 3] * 3)
        ones = ssag.Dataset.from_class_labels(np.ones((1, 3)), np.array([0]))
        assert ssag.accuracy(obj, W, ones) == 1.0


class TestMakeObjective:
    def test_kinds(self, two_class_logistic):
        ds = two_class_logistic.dataset
        assert ssag.make_objective({"kind": "logistic", "lam": 0.5}, ds).lam == 0.5
        assert ssag.make_objective({"kind": "mlp", "hidden": [3]}, ds).sizes == (2, 3, 2)
        with pytest.raises(UnsupportedObjectiveError):
            ssag.make_objective({"kind": "nope"}, ds)

    @staticmethod
    def _works(call):
        try:
            call()
        except UnsupportedObjectiveError:
            return False
        return True

    @pytest.mark.parametrize("kind", list(ssag.objectives._KINDS))
    def test_capability_lists_match_what_each_kind_does(self, kind):
        obj = any_kind_problem(kind, N=8, p=3, C=2, seed=1)
        certified = kind in ssag.objectives.CERTIFIED_KINDS
        assert self._works(lambda: ssag.estimate_constants(obj)) == certified
        assert self._works(lambda: ssag.reference_optimum(obj)) == certified
        assert (self._works(lambda: ssag.accuracy(obj, obj.init_params(), obj.dataset))
                == (kind in ssag.objectives.CLASSIFIER_KINDS))

    @pytest.mark.parametrize("spec", [{"kind": "logistic", "lam": "abc"},
                                      {"kind": "ridge", "lam": -1.0},
                                      {"kind": "ridge", "lam": float("nan")},
                                      {"kind": "mlp", "hidden": [3, 0]},
                                      {"kind": "mlp", "hidden": 3},
                                      {"kind": "logistic", "lam": float("inf")}])
    def test_malformed_values_rejected(self, two_class_logistic, spec):
        with pytest.raises((TypeError, ValueError)):
            ssag.make_objective(spec, two_class_logistic.dataset)

    @pytest.mark.parametrize("lam", [True, "abc", [0.1], None, -1.0, float("nan")])
    @pytest.mark.parametrize("kind", ["ridge", "logistic"])
    def test_bad_lam_is_a_value_error(self, two_class_logistic, kind, lam):
        with pytest.raises(ValueError, match="regularizer weight"):
            ssag.make_objective({"kind": kind, "lam": lam}, two_class_logistic.dataset)

    @pytest.mark.parametrize("hidden", [(2.7,), (True,), ("3",), (2, np.float64(3.0))])
    def test_mlp_rejects_non_integer_widths(self, two_class_logistic, hidden):
        with pytest.raises(ValueError, match="layer widths must be integers"):
            ssag.Mlp(two_class_logistic.dataset, hidden=hidden)

    @pytest.mark.parametrize("make, error, message", [
        (lambda ds: ssag.LogisticRegression(ds), ValueError, r"labels in \{0, 1\}"),
        (lambda ds: ssag.Mlp(ds, hidden=(2,)), ValueError, r"integer class labels in \[0, C\)"),
        (lambda ds: ssag.RidgeRegression(ds).grad_full(np.zeros(3)), DimensionMismatchError,
         "expected dimension 2, got 3")])
    def test_input_rejections(self, make, error, message):
        # real-valued targets in one cell: not logistic labels, not class indices
        ds = ssag.Dataset.regression(np.eye(2), np.array([0.5, 1.0]))
        with pytest.raises(error, match=message):
            make(ds)
