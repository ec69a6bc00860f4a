"""Optimizer step semantics, special-case collapses, and the run loop."""

import contextlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ssag
from ssag import optimizers
from ssag.core import SHORT_ROW, all_finite
from ssag.errors import ConfigError
from ssag.optimizers import (DIVERGENCE_LOSS_LIMIT, SPECS, RunConfig, State,
                             fgd_step, make_state, recompute_sum, sag_step, saga_step,
                             soft_threshold, ssag_step, steps_for_passes, svrg_outer)
from ssag.sampling import RngStream

from conftest import (OBJECTIVE_KINDS, EvaluationCounter, any_kind_problem, peak_alloc_bytes,
                      reference_fgd, reference_minibatch, reference_sag, reference_saga,
                      reference_sgd, reference_ssag, reference_svrg)

# final iterates after 12 steps of the fixed tiny logistic problem below
# (h = 0.3, seed = 5); frozen from the first run
GOLDEN_SGD = [0.14733948911998002, 0.8856573395677226]
GOLDEN_SAG = [0.20685700944616825, 0.6739127579064007]
GOLDEN_SVRG = [0.08877198907705589, 0.850871662980199]


def _tiny_logistic():
    X = np.array([[1.0, 0.2], [0.5, -1.0], [-0.7, 0.9], [1.2, 1.1],
                  [-0.3, -0.6], [0.8, -0.4]])
    y = np.array([1, 0, 1, 1, 0, 0])
    return ssag.LogisticRegression(ssag.Dataset.from_class_labels(X, y), lam=0.1)


def _constant_gradient_problem(value=2.0, n_classes=2):
    """Quadratic objective whose every sample gradient at W = 0 is (value)."""
    features = np.full((n_classes, 1), -value)
    labels = np.arange(n_classes)
    ds = ssag.Dataset.from_class_labels(features, labels)
    return ssag.MeanQuadratic(ds)


def _draws(kind, obj, steps, rng, n=1):
    """A kind's draws for ``steps`` steps, as (stratum, indices) pairs, from
    one `take` on its spec's source; a full batch takes ``dataset.rows``."""
    source = SPECS[kind].source(obj.dataset, n)
    if source is None:
        return [(0, obj.dataset.rows)] * steps
    strata, indices = rng.take(*source, steps)
    return list(zip(strata.tolist(), indices))


class _RowFeed:
    """Stands in for an objective: each gradient call writes the next of
    ``rows`` into ``out``, whatever W and the indices are."""

    def __init__(self, rows):
        self._rows = iter(rows)

    def grad_batch(self, W, idx, out):
        out[...] = next(self._rows)
        return out

    def grad_class_batch(self, W, j, idx, out):
        return self.grad_batch(W, idx, out)


class _FailingKernel:
    """Stands in for an objective whose every gradient call raises."""

    def grad_batch(self, W, idx, out):
        raise RuntimeError("kernel failed")

    def grad_class_batch(self, W, j, idx, out):
        raise RuntimeError("kernel failed")


def _run_steps(kind, obj, steps, seed, **kwargs):
    cfg = RunConfig(kind=kind, steps=steps, seed=seed, cadence=max(steps, 1), **kwargs)
    state = make_state(cfg, obj)
    step = getattr(ssag.optimizers, SPECS[kind].step)
    for j, idx in _draws(kind, obj, steps, RngStream(seed), cfg.n):
        step(state, obj, j, idx)
    return state


class TestSsagStep:
    def test_first_step_hand_trace(self):
        # both classes carry gradient (2) at W=0, so any draw gives
        # sum = (2) and W1 = -(0.5/2) * 2 = -0.5
        obj = _constant_gradient_problem(2.0, n_classes=2)
        state = State(W=np.zeros(1), table=np.zeros((2, 1)), h=0.5)
        counter = EvaluationCounter(obj)
        ssag_step(state, obj, *_draws("ssag", obj, 1, RngStream(0))[0])
        assert state.W == pytest.approx([-0.5])
        assert state.table_sum == pytest.approx([2.0])
        assert counter.total == 1

    def test_idempotent_table_write(self):
        # single class: the drawn slot already equals the fresh gradient
        obj = _constant_gradient_problem(2.0, n_classes=1)
        state = State(W=np.zeros(1), table=np.array([[2.0]]), h=0.25)
        ssag_step(state, obj, *_draws("ssag", obj, 1, RngStream(0))[0])
        assert state.table.tolist() == [[2.0]]
        assert state.table_sum == pytest.approx([2.0])
        assert state.W == pytest.approx([-0.5])  # moved by -(h/C) * sum

    def test_only_drawn_class_slot_changes(self):
        obj = ssag.MeanQuadratic(ssag.Dataset.from_class_labels(
            np.random.default_rng(0).normal(size=(12, 2)),
            np.array([0, 1, 2] * 4)))
        cfg = RunConfig(kind="ssag", steps=0, h=0.1, n=2)
        state = make_state(cfg, obj)
        for j, idx in _draws("ssag", obj, 60, RngStream(3), n=2):
            before = state.table.copy()
            ssag_step(state, obj, j, idx)
            changed = np.flatnonzero(np.any(state.table != before, axis=1))
            assert changed.size <= 1

    def test_storage_is_one_slot_per_class(self):
        obj = _tiny_logistic()
        state = make_state(RunConfig(kind="ssag", steps=0, h=0.1), obj)
        assert state.table.shape == (obj.dataset.n_classes, obj.dim)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_every_kind_keeps_its_spec_slots(self, kind):
        # C rows for ssag, N for sag and saga, none for the memoryless kinds
        obj = _tiny_logistic()
        state = make_state(RunConfig(kind=kind, steps=0, h=0.1), obj)
        expected = {"ssag": obj.dataset.n_classes, "sag": obj.dataset.n_samples,
                    "saga": obj.dataset.n_samples}.get(kind, 0)
        assert SPECS[kind].slots(obj.dataset) == expected
        assert state.table.shape == (expected, obj.dim)
        recompute_sum(state)
        assert state.table_sum.tolist() == [0.0] * obj.dim

    def test_gradient_evaluations_count_batch(self):
        obj = ssag.MeanQuadratic(ssag.Dataset.from_class_labels(
            np.zeros((8, 1)), np.array([0] * 4 + [1] * 4)))
        state = make_state(RunConfig(kind="ssag", steps=0, h=0.1, n=3), obj)
        draws, counter = _draws("ssag", obj, 5, RngStream(1), n=3), EvaluationCounter(obj)
        for j, idx in draws:
            ssag_step(state, obj, j, idx)
        assert counter.total == 15


class TestSsagSagEquivalence:
    def test_trajectories_identical_when_classes_are_samples(self):
        rng_data = np.random.default_rng(7)
        X = rng_data.normal(size=(50, 4))
        ds = ssag.Dataset.from_class_labels(X, np.arange(50))
        obj = ssag.MeanQuadratic(ds)
        h = 0.5  # h/C for ssag equals h/N for sag since C = N
        s1 = make_state(RunConfig(kind="ssag", steps=0, h=h, n=1), obj)
        s2 = make_state(RunConfig(kind="sag", steps=0, h=h), obj)
        r1, r2 = RngStream(123), RngStream(123)
        draws = zip(_draws("ssag", obj, 500, r1), _draws("sag", obj, 500, r2))
        for (d1, d2), W_ref in zip(draws, reference_sag(obj, h, seed=123)):
            ssag_step(s1, obj, *d1)
            sag_step(s2, obj, *d2)
            assert np.max(np.abs(s1.W - W_ref)) <= 1e-12
            assert np.max(np.abs(s2.W - W_ref)) <= 1e-12
        # both streams made the 500 class draws of the reference, no more
        ref = np.random.Generator(np.random.PCG64(123))
        for _ in range(500):
            ref.integers(50)
        assert r1.generator.bit_generator.state == r2.generator.bit_generator.state
        assert r1.generator.bit_generator.state == ref.bit_generator.state

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(OBJECTIVE_KINDS), N=st.integers(1, 12), p=st.integers(1, 5),
           seed=st.integers(0, 2**16), steps=st.integers(1, 200))
    def test_property_on_singleton_strata(self, kind, N, p, seed, steps):
        # SSAG over N one-sample classes is SAG, bit for bit, and both follow
        # the reference SAG written out from its update rule
        base = any_kind_problem(kind, N, p, 2, seed).dataset
        ds = ssag.Dataset(base.features, base.labels,
                          tuple(np.array([i]) for i in range(N)))
        spec = {"kind": kind, "lam": 0.1, **({"hidden": [3]} if kind == "mlp" else {})}
        obj = ssag.make_objective(spec, ds)
        W0 = obj.init_params(seed=seed)
        s1 = State(W=W0, h=0.05, table=np.zeros((N, W0.size)))
        s2 = State(W=W0, h=0.05, table=np.zeros((N, W0.size)))
        r1, r2 = RngStream(seed), RngStream(seed)
        draws = zip(_draws("ssag", obj, steps, r1), _draws("sag", obj, steps, r2))
        for (d1, d2), W_ref in zip(draws, reference_sag(obj, 0.05, seed=seed, W0=W0)):
            ssag_step(s1, obj, *d1)
            sag_step(s2, obj, *d2)
            assert np.array_equal(s1.W, s2.W)
            assert np.max(np.abs(s1.W - W_ref)) <= 1e-12 * max(1.0, np.max(np.abs(W_ref)))
        # both streams end in one state; a one-sample dataset has a single
        # stratum, so its steps draw nothing
        state = r1.generator.bit_generator.state
        assert state == r2.generator.bit_generator.state
        assert (state == np.random.PCG64(seed).state) == (N == 1)


#: the steps that refresh a table slot
TABLE_STEPS = (sag_step, saga_step, ssag_step)


class TestRecomputeSum:
    def test_fresh_state_stays_zero(self):
        obj = _tiny_logistic()
        state = make_state(RunConfig(kind="sag", steps=0, h=0.1), obj)
        recompute_sum(state)
        assert np.all(state.table_sum == 0.0)

    def test_single_entry_table(self):
        state = State(W=np.zeros(2), table=np.array([[1.5, -2.0]]), h=0.1)
        state.table_sum[...] = 0.0  # a stale sum
        recompute_sum(state)
        assert state.table_sum == pytest.approx([1.5, -2.0])

    def test_writes_the_sum_in_place(self):
        state = State(W=np.zeros(2), table=np.array([[1.5, -2.0], [0.25, 4.0]]), h=0.1)
        buffer = state.table_sum
        buffer[...] = 0.0  # a stale sum
        recompute_sum(state)
        assert state.table_sum is buffer
        assert buffer.tolist() == [1.75, 2.0]

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 6), p=st.integers(1, 3), updates=st.integers(0, 300),
           scale=st.sampled_from([1e-3, 1.0, 1e8]), seed=st.integers(0, 2**16),
           steps=st.just(TABLE_STEPS))
    @example(rows=5, p=3, updates=20_000, scale=1.0, seed=0, steps=TABLE_STEPS)
    # the three kinds share one slot refresh, and every other example holds
    # each of them to the same replay, so the million updates run SSAG's alone
    @example(rows=5, p=3, updates=1_000_000, scale=1.0, seed=0, steps=(ssag_step,))
    def test_drift_after_many_updates(self, rows, p, updates, scale, seed, steps):
        # Each table kind's step refreshes slot j as a = fl(s - t_j), then
        # s' = fl(a + g).  In round-to-nearest binary64, fl(x op y) =
        # (x op y) / (1 + d) with |d| <= u = 2^-53, so each operation errs by
        # at most u |result|, and any order of R - 1 additions errs by at most
        # gamma_{R-1} sum_i |t_i|, gamma_n = n u / (1 - n u).  The state starts
        # from such a sum.  So, per coordinate, the cached sum is within
        #   gamma_{R-1} sum_i |t0_i| + u sum_k (|a_k| + |s'_k|)
        # of the exact table sum, and recompute_sum's result within
        # gamma_{R-1} sum_i |t_i|.  math.fsum rounds the exact sum once, which
        # adds u |fsum| to each side.  In the million-update example the drift
        # bound is about 4e-10.
        u = 2.0 ** -53
        gamma = (rows - 1) * u / (1 - (rows - 1) * u)
        rng = np.random.default_rng(seed)
        table = scale * rng.normal(size=(rows, p))
        slots = rng.integers(rows, size=updates)
        draws = scale * rng.normal(size=(updates, p))
        # a plain replay of the refreshes.  Update k's slot holds the row
        # `old[k]` of `written`: its start row or an earlier update's draw.
        # Since fl(s - t) = fl(s + (-t)), one sequential add.accumulate over
        # s0, -t(1), g_1, -t(2), g_2, ... rounds as the steps do, and its
        # partial sums are a_1, s'_1, a_2, s'_2, ...
        written, holds, old = np.concatenate([table, draws]), list(range(rows)), []
        for k, j in enumerate(slots.tolist()):
            old.append(holds[j])
            holds[j] = rows + k
        partial = np.empty((2 * updates + 1, p))
        partial[0] = table.sum(axis=0)  # the sum a State starts from
        np.negative(written[old], partial[1::2])
        partial[2::2] = draws
        np.add.accumulate(partial, axis=0, out=partial)
        final_table, final_sum = written[holds], partial[-1].copy()
        a_and_sums = np.abs(partial, partial)[1:].sum(axis=0)  # sum_k |a_k| + |s'_k|
        drift = gamma * np.abs(table).sum(axis=0) + u * a_and_sums
        exact = np.array([math.fsum(col) for col in final_table.T])
        assert np.all(np.abs(final_sum - exact) <= drift + u * np.abs(exact))
        rounding = gamma * np.abs(final_table).sum(axis=0) + u * np.abs(exact)
        for step in steps:
            # slot j is SAG's and SAGA's sample and SSAG's class
            state, obj = State(W=np.zeros(p), table=table.copy(), h=0.1), _RowFeed(draws)
            for j, idx in zip(slots.tolist(), slots[:, None]):
                step(state, obj, j, idx)
            assert state.steps == updates
            assert state.table.tobytes() == final_table.tobytes()
            assert state.table_sum.tobytes() == final_sum.tobytes()
            recompute_sum(state)
            assert np.all(np.abs(state.table_sum - exact) <= rounding)


class TestFixedFields:
    """The steps' operands are made from h and the table's row count at
    construction, so both fields refuse a later assignment."""

    @pytest.mark.parametrize("name, value", [("h", 0.2), ("table", np.zeros((3, 2)))])
    def test_assignment_after_construction_raises(self, name, value):
        state = State(W=np.zeros(2), h=0.1, table=np.ones((2, 2)))
        # the getter alone: Python names the field ("can't set attribute 'h'",
        # or "property 'h' of 'State' object has no setter" from 3.11)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(state, name, value)
        assert state.h == 0.1 and state.table.shape == (2, 2)
        assert float(state._h_per_slot) == 0.05

    def test_default_table_and_slots_stay_writable(self):
        state = State(W=np.zeros(2), h=0.1)
        assert state.table.shape == (0, 2)
        with pytest.raises(AttributeError):
            state.table = np.zeros((1, 2))
        state = State(W=np.zeros(2), h=0.1, table=np.zeros((2, 2)))
        state.table[1] = [1.0, -1.0]
        assert state.table.tolist() == [[0.0, 0.0], [1.0, -1.0]]


class TestStateOwnsW:
    """A state copies the W it is given, once, and every step writes the
    next iterate into that copy and returns nothing."""

    @pytest.mark.parametrize("kind, options", [
        ("ssag", {}), ("sag", {}), ("saga", {}), ("saga", {"prox_l1": 0.05}),
        ("svrg", {"m": 2}), ("fgd", {})], ids=["ssag", "sag", "saga", "saga-prox", "svrg", "fgd"])
    def test_steps_write_the_state_s_own_W(self, kind, options):
        # SVRG refreshes its snapshot at steps 0, 2 and 4; FGD steps on
        # dataset.rows
        obj = _tiny_logistic()
        W0 = np.array([0.3, -0.2])
        step = getattr(optimizers, SPECS[kind].step)
        slots = SPECS[kind].slots(obj.dataset)
        a, b = (State(W=W0, h=0.3, table=np.zeros((slots, 2)), **options) for _ in range(2))
        W = a.W
        draws = _draws(kind, obj, 5, RngStream(4))
        for j, idx in draws:
            returned = step(a, obj, j, idx)
            assert a.W is W
            assert returned is None
        # a moved, while the caller's W0 and b's copy of it did not
        assert not np.array_equal(a.W, W0)
        assert W0.tolist() == [0.3, -0.2] and b.W.tolist() == [0.3, -0.2]
        for j, idx in draws:
            step(b, obj, j, idx)
        assert b.W.tobytes() == a.W.tobytes() and a.steps == b.steps == 5


class TestFgd:
    def test_stationary_at_optimum(self, line_ridge):
        w_star = ssag.reference_optimum(line_ridge)
        state = State(W=w_star.copy(), h=0.3)
        fgd_step(state, line_ridge, 0, line_ridge.dataset.rows)
        assert np.linalg.norm(state.W - w_star) <= 1e-10

    def test_one_step_quadratic(self):
        # J = 0.5 w^2 via a single sample at the origin; h = 1 jumps to 0
        ds = ssag.Dataset.regression(np.zeros((1, 1)), np.zeros(1))
        obj = ssag.MeanQuadratic(ds)
        state = State(W=np.array([1.0]), h=1.0)
        counter = EvaluationCounter(obj)
        fgd_step(state, obj, 0, ds.rows)
        assert state.W == pytest.approx([0.0])
        assert counter.total == 1

    @pytest.mark.parametrize("kind", ["fgd", "minibatch"])
    def test_reads_rows_in_place(self, random_problem, kind):
        # a full batch takes no draw: run() hands the kernel dataset.rows
        # itself, so it gathers no copy
        obj = random_problem(kind="logistic", N=10, p=3, seed=6)
        n = obj.dataset.n_samples if kind == "minibatch" else 1
        assert SPECS[kind].source(obj.dataset, n) is None
        seen = []
        grad_batch = obj.grad_batch
        obj.grad_batch = (lambda W, indices, out=None:
                          seen.append(indices) or grad_batch(W, indices, out=out))
        ssag.run(RunConfig(kind=kind, steps=3, h=0.1, n=n), obj)
        assert len(seen) == 3 and all(indices is obj.dataset.rows for indices in seen)

    def test_descent_every_step(self, random_problem):
        obj = random_problem(kind="ridge", N=9, p=3, lam=0.3, seed=4)
        const = ssag.estimate_constants(obj)
        state = State(W=np.ones(obj.dim), h=1.5 / const.L)
        prev = obj.loss_full(state.W)
        for _ in range(30):
            fgd_step(state, obj, 0, obj.dataset.rows)
            cur = obj.loss_full(state.W)
            if np.linalg.norm(obj.grad_full(state.W)) <= 1e-12:
                break
            assert cur < prev
            prev = cur


class TestSgd:
    def test_single_sample_equals_fgd(self):
        ds = ssag.Dataset.regression(np.array([[2.0]]), np.array([1.0]))
        obj = ssag.RidgeRegression(ds)
        s_sgd = _run_steps("sgd", obj, 10, seed=3, h=0.05)
        assert np.array_equal(s_sgd.W, reference_fgd(obj, 0.05, 10))

    def test_direction_unbiased_by_enumeration(self, two_class_logistic):
        obj = two_class_logistic
        W = np.array([0.4, -0.7])
        directions = obj.grad_samples(W, np.arange(obj.dataset.n_samples))
        full = obj.grad_full(W)
        assert directions.mean(axis=0) == pytest.approx(full, rel=1e-12)

    def test_golden_trajectory(self):
        state = _run_steps("sgd", _tiny_logistic(), 12, seed=5, h=0.3)
        assert state.W.tolist() == GOLDEN_SGD


class TestMinibatch:
    def test_full_batch_equals_fgd(self, two_class_logistic):
        obj = two_class_logistic
        N = obj.dataset.n_samples
        s_mb = _run_steps("minibatch", obj, 8, seed=2, h=0.2, n=N)
        assert np.array_equal(s_mb.W, reference_fgd(obj, 0.2, 8))

    def test_batch_one_equals_sgd(self, two_class_logistic):
        obj = two_class_logistic
        s_mb = _run_steps("minibatch", obj, 8, seed=2, h=0.2, n=1)
        assert np.array_equal(s_mb.W, reference_sgd(obj, 0.2, 8, seed=2))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(OBJECTIVE_KINDS), N=st.integers(2, 10), p=st.integers(1, 9),
           C=st.integers(1, 3), seed=st.integers(0, 2**16), steps=st.integers(1, 6))
    def test_full_batch_and_batch_one_property(self, kind, N, p, C, seed, steps):
        # n = N reads the rows in place, as FGD's grad_full does
        obj = any_kind_problem(kind, N, p, C, seed)
        W0 = obj.init_params(seed=seed)
        s_full = _run_steps("minibatch", obj, steps, seed=seed, h=0.05, n=N)
        assert np.array_equal(s_full.W, reference_fgd(obj, 0.05, steps, W0=W0))
        s_one = _run_steps("minibatch", obj, steps, seed=seed, h=0.05, n=1)
        assert np.array_equal(s_one.W, reference_sgd(obj, 0.05, steps, seed=seed, W0=W0))

    def test_exhaustive_subset_variance(self, random_problem):
        from conftest import enumeration_mean_and_variance
        obj = random_problem(kind="logistic", N=8, p=2, seed=11)
        W = np.array([0.1, -0.4])
        sigma_sq = ssag.gradient_population_stats(obj, W).population_variance
        for n in (1, 2, 4, 8):
            _, enum_var = enumeration_mean_and_variance(obj, W, n)
            expected = ssag.finite_population_variance(sigma_sq, n / 8.0, n)
            assert enum_var == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestSag:
    def test_first_step_hand_trace(self):
        obj = _constant_gradient_problem(2.0, n_classes=2)  # N = 2 samples
        state = make_state(RunConfig(kind="sag", steps=0, h=0.5), obj)
        sag_step(state, obj, *_draws("sag", obj, 1, RngStream(0))[0])
        # W1 = -(h/N) * G_i(W0) = -(0.5/2) * 2
        assert state.W == pytest.approx([-0.5])

    def test_direction_after_full_round_robin(self, two_class_logistic):
        # with h = 0 the iterate never moves, so visiting every index fills
        # the table with gradients at W0 and the direction is grad_full
        obj = two_class_logistic
        N = obj.dataset.n_samples
        state = make_state(RunConfig(kind="sag", steps=0, h=0.0), obj)
        visited = set()
        for j, idx in _draws("sag", obj, 500, RngStream(8)):
            sag_step(state, obj, j, idx)
            visited = {i for i in range(N)
                       if np.any(state.table[i] != 0.0)}
            if len(visited) == N:
                break
        assert len(visited) == N
        direction = state.table_sum / N
        full = obj.grad_full(state.W)
        assert direction == pytest.approx(full, rel=1e-10)

    def test_golden_trajectory(self):
        state = _run_steps("sag", _tiny_logistic(), 12, seed=5, h=0.3)
        assert state.W.tolist() == GOLDEN_SAG

    def test_storage_is_one_slot_per_sample(self):
        obj = _tiny_logistic()
        state = make_state(RunConfig(kind="sag", steps=0, h=0.1), obj)
        assert state.table.shape == (obj.dataset.n_samples, obj.dim)


class TestSvrg:
    def test_snapshot_direction_equals_full_gradient(self, two_class_logistic):
        # with W == snapshot the inner direction is exactly the snapshot
        # gradient, so one inner step with m=1 equals an fgd step
        obj = two_class_logistic
        state = make_state(RunConfig(kind="svrg", steps=0, h=0.2, m=1), obj)
        svrg_outer(state, obj, *_draws("svrg", obj, 1, RngStream(9))[0])
        expected = -0.2 * obj.grad_full(np.zeros(obj.dim))
        assert state.W == pytest.approx(expected, rel=1e-12)

    def test_inner_direction_unbiased(self, two_class_logistic):
        obj = two_class_logistic
        N = obj.dataset.n_samples
        rng = np.random.default_rng(2)
        W = rng.normal(size=obj.dim)
        snapshot = rng.normal(size=obj.dim)
        mu_bar = obj.grad_full(snapshot)
        directions = (obj.grad_samples(W, np.arange(N))
                      - obj.grad_samples(snapshot, np.arange(N)) + mu_bar)
        assert directions.mean(axis=0) == pytest.approx(obj.grad_full(W), rel=1e-12)

    def test_eval_counter(self, two_class_logistic):
        # one call is one inner step; the snapshot's full gradient is paid at
        # steps 0 and m
        obj = two_class_logistic
        N = obj.dataset.n_samples
        state = make_state(RunConfig(kind="svrg", steps=0, h=0.1, m=3), obj)
        draws, counter = iter(_draws("svrg", obj, 4, RngStream(0))), EvaluationCounter(obj)
        svrg_outer(state, obj, *next(draws))
        assert (state.steps, counter.total) == (1, N + 2)
        svrg_outer(state, obj, *next(draws))
        svrg_outer(state, obj, *next(draws))
        assert (state.steps, counter.total) == (3, N + 2 * 3)
        svrg_outer(state, obj, *next(draws))
        assert (state.steps, counter.total) == (4, 2 * N + 2 * 4)

    def test_golden_trajectory(self):
        state = _run_steps("svrg", _tiny_logistic(), 12, seed=5, h=0.3, m=4)
        assert state.W.tolist() == GOLDEN_SVRG

    def test_default_inner_length(self, two_class_logistic):
        state = make_state(RunConfig(kind="svrg", steps=0, h=0.1), two_class_logistic)
        assert state.m == 2 * two_class_logistic.dataset.n_samples

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_a_first_snapshot_without_a_finite_w_is_a_value_error(self, kind, bad):
        # the kernel failed from inside, with TypeError or AttributeError on None
        obj = any_kind_problem(kind, 6, 2, 2, seed=3)
        state = make_state(RunConfig(kind="svrg", steps=0, h=0.1, m=2), obj)
        state.W = np.full(obj.dim, bad)
        with pytest.raises(ValueError, match="first snapshot needs a finite W"):
            svrg_outer(state, obj, *_draws("svrg", obj, 1, RngStream(0))[0])
        assert (state.steps, state.snapshot) == (0, None)

    @pytest.mark.parametrize("m", [None, 0])
    def test_a_state_without_m_is_a_value_error(self, two_class_logistic, m):
        # State(W, h) keeps m = None: steps % None raised TypeError, and % 0
        # ZeroDivisionError
        obj = two_class_logistic
        state = State(W=np.zeros(obj.dim), h=0.1, m=m)
        with pytest.raises(ValueError, match="refresh period m, got"):
            svrg_outer(state, obj, *_draws("svrg", obj, 1, RngStream(0))[0])
        assert state.steps == 0


class TestSaga:
    def test_first_step_zero_table(self):
        obj = _constant_gradient_problem(2.0, n_classes=2)
        state = make_state(RunConfig(kind="saga", steps=0, h=0.25), obj)
        saga_step(state, obj, *_draws("saga", obj, 1, RngStream(0))[0])
        # sum term is zero, so W1 = W0 - h * G_i(W0)
        assert state.W == pytest.approx([-0.5])

    def test_soft_threshold_hand_values(self):
        out = soft_threshold(np.array([0.3, -0.05]), 0.1)
        assert out == pytest.approx([0.2, 0.0])

    def test_prox_applied_after_candidate(self):
        obj = _constant_gradient_problem(2.0, n_classes=2)
        state = make_state(RunConfig(kind="saga", steps=0, h=0.25, prox_l1=0.8), obj)
        saga_step(state, obj, *_draws("saga", obj, 1, RngStream(0))[0])
        # candidate -0.5, threshold h*lam1 = 0.2 -> -0.3
        assert state.W == pytest.approx([-0.3])

    def test_prox_free_matches_interior(self):
        obj = _tiny_logistic()
        s_prox = _run_steps("saga", obj, 15, seed=4, h=0.2)
        s_none = _run_steps("saga", obj, 15, seed=4, h=0.2, prox_l1=None)
        assert np.array_equal(s_prox.W, s_none.W)

    def test_direction_unbiased_at_fixed_table(self, two_class_logistic):
        obj = two_class_logistic
        N = obj.dataset.n_samples
        rng = np.random.default_rng(6)
        W = rng.normal(size=obj.dim)
        table = rng.normal(size=(N, obj.dim))
        mean_table = table.mean(axis=0)
        directions = (obj.grad_samples(W, np.arange(N)) - table) + mean_table
        assert directions.mean(axis=0) == pytest.approx(obj.grad_full(W), rel=1e-12)


def _state_bytes(state):
    return (state.W.tobytes(), state.table.tobytes(), state.table_sum.tobytes(), state.steps)


class TestRejectedDraw:
    """A step whose kernel raises leaves W, the table, its running sum and
    the step count as they were.  SSAG, SAG and SAGA have the kernel write
    into the drawn slot, so a step that took the old slot out of the sum
    before the kernel ran would leave a sum without it."""

    @pytest.mark.parametrize("p", [5, 12], ids=["short-row", "long-row"])
    @pytest.mark.parametrize("objective", ["logistic", "mlp"])
    @pytest.mark.parametrize("kind", ["ssag", "sag", "saga", "svrg", "sgd", "minibatch"])
    def test_out_of_range_index(self, kind, objective, p):
        obj = any_kind_problem(objective, 10, p, 2, seed=p)
        state = make_state(RunConfig(kind=kind, steps=0, h=0.05, n=1), obj)
        for j, idx in _draws(kind, obj, 7, RngStream(2)):
            getattr(optimizers, SPECS[kind].step)(state, obj, j, idx)
        before = _state_bytes(state)
        N = obj.dataset.n_samples
        for bad in (N, -N - 1):
            error = ssag.errors.StratumViolationError if kind == "ssag" else IndexError
            with pytest.raises(error):
                getattr(optimizers, SPECS[kind].step)(state, obj, 0, np.array([bad]))
            assert _state_bytes(state) == before

    @pytest.mark.parametrize("kind", ["ssag", "sag", "saga"])
    def test_kernel_that_raises_after_the_slot_is_picked(self, kind):
        # the index is in range, so the step picks its slot and parks the
        # slot's complement before the kernel runs
        obj = any_kind_problem("logistic", 10, 5, 2, seed=5)
        state = make_state(RunConfig(kind=kind, steps=0, h=0.05), obj)
        step = getattr(optimizers, SPECS[kind].step)
        for j, idx in _draws(kind, obj, 7, RngStream(2)):
            step(state, obj, j, idx)
        assert np.any(state.table != 0.0)
        before = _state_bytes(state)
        for j, idx in _draws(kind, obj, 3, RngStream(3)):
            with pytest.raises(RuntimeError, match="kernel failed"):
                step(state, _FailingKernel(), j, idx)
            assert _state_bytes(state) == before

    @pytest.mark.parametrize("p", [5, 12], ids=["short-row", "long-row"])
    def test_index_outside_the_drawn_class(self, p):
        obj = any_kind_problem("logistic", 10, p, 2, seed=p)
        state = make_state(RunConfig(kind="ssag", steps=0, h=0.05, n=2), obj)
        for j, idx in _draws("ssag", obj, 7, RngStream(2), n=2):
            ssag_step(state, obj, j, idx)
        assert np.all(state.table != 0.0)
        before = _state_bytes(state)
        for j in (0, 1):
            other = obj.dataset.partition[1 - j]
            for idx in (other[:1], other[:2], np.array([obj.dataset.partition[j][0], other[0]])):
                with pytest.raises(ssag.errors.StratumViolationError):
                    ssag_step(state, obj, j, idx)
                assert _state_bytes(state) == before


def _short_row_problem(objective, p, counts, seed):
    """A ridge or logistic model on p features whose class j has counts[j]
    rows (logistic takes the first two classes), the rows shuffled."""
    counts = counts[:2] if objective == "logistic" else counts
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    X = rng.normal(size=(labels.size, p)) * rng.uniform(0.1, 3.0, size=p)
    targets = rng.normal(size=labels.size) if objective == "ridge" else labels
    return ssag.make_objective({"kind": objective, "lam": 0.1},
                               ssag.Dataset(X, targets, ssag.partition_by_class(labels)))


def _pass_through(state, obj, j, idx):
    """`ssag_step` under another name: bound as ``optimizers.ssag_step``, it
    sends SSAG runs through the per-step loop."""
    ssag_step(state, obj, j, idx)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
class TestShortRowSegment:
    """SSAG at n = 1 on rows shorter than SHORT_ROW steps a whole segment on
    Python floats (`optimizers._ssag_short_rows`); the per-step path, forced
    by rebinding `optimizers.ssag_step`, is its oracle, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(objective=st.sampled_from(["ridge", "logistic"]), p=st.integers(1, SHORT_ROW),
           counts=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           steps=st.integers(0, 150), cadence=st.integers(1, 40), every=st.integers(1, 30),
           h=st.sampled_from([0.0, 0.02, 0.3, 1e3]), seed=st.integers(0, 3))
    @example("ridge", 3, [2, 7], 150, 7, 9, 1e3, 0)  # diverges
    @example("logistic", SHORT_ROW, [3, 9], 100, 30, 17, 0.3, 1)  # the bypass
    def test_same_records_as_the_per_step_path(self, objective, p, counts, steps, cadence,
                                               every, h, seed):
        obj = _short_row_problem(objective, p, counts, seed)
        segment = optimizers.segment_stepper(ssag_step, obj, 1)
        assert (segment is optimizers._ssag_short_rows) == (p < SHORT_ROW)
        config = RunConfig(kind="ssag", steps=steps, h=h, cadence=cadence, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizers, "SUM_RECOMPUTE_EVERY", every)
            segments = ssag.run(config, obj)
            mp.setattr(optimizers, "ssag_step", _pass_through)
            per_step = ssag.run(config, obj)
        assert segments.content_hash() == per_step.content_hash()
        if (objective, p, h) == ("ridge", 3, 1e3):
            assert segments.diverged

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(objective=st.sampled_from(["ridge", "logistic"]), p=st.integers(1, SHORT_ROW - 1),
           counts=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           bad_at=st.integers(0, 19), bad=st.sampled_from(["other class", "N", "-1"]))
    def test_an_out_of_class_draw_raises_with_the_per_step_state(self, objective, p, counts,
                                                                  bad_at, bad):
        obj = _short_row_problem(objective, p, counts, bad_at)
        ds = obj.dataset
        strata, indices = RngStream(bad_at).take(ds, 1, 20)
        j = strata[bad_at]
        indices[bad_at] = {"other class": ds.partition[(j + 1) % ds.n_classes][0],
                           "N": ds.n_samples, "-1": -1}[bad]
        outcomes = []
        for step in (ssag_step, _pass_through):
            state = make_state(RunConfig(kind="ssag", steps=0, h=0.3), obj)
            with pytest.raises(ssag.errors.StratumViolationError) as raised:
                optimizers.segment_stepper(step, obj, 1)(state, obj, strata.tolist(), indices)
            outcomes.append((str(raised.value), _state_bytes(state)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][3] == bad_at

    @pytest.mark.parametrize("name", ["ssag_step", "grad_batch", "grad_class_batch"])
    def test_a_wrapped_name_sees_every_step(self, monkeypatch, name):
        # rebinding optimizers.ssag_step or wrapping the instance's gradient
        # sends the run through the per-step path, as perfbench's tracer does;
        # the wrapper sees each step once, and the records keep their bits
        obj = _short_row_problem("logistic", 5, [3, 9], 1)
        config = RunConfig(kind="ssag", steps=60, h=0.3, cadence=7, seed=1)
        assert optimizers.segment_stepper(ssag_step, obj, 1) is optimizers._ssag_short_rows
        segments = ssag.run(config, obj)
        owner = optimizers if name == "ssag_step" else obj
        wrapped, calls = getattr(owner, name), []

        def wrapper(*args):
            calls.append(args)
            return wrapped(*args)

        monkeypatch.setattr(owner, name, wrapper)
        assert (optimizers.segment_stepper(optimizers.ssag_step, obj, 1)
                is not optimizers._ssag_short_rows)
        assert ssag.run(config, obj).content_hash() == segments.content_hash()
        assert len(calls) == config.steps


class TestStepAllocations:
    """Transient bytes per step, as `conftest.peak_alloc_bytes` counts them:
    a guard that a host's noise cannot move."""

    @pytest.mark.parametrize("p", [5, 20])
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_a_linear_step_takes_a_few_kb(self, kind, p):
        obj = any_kind_problem("logistic", 12, p, 2, seed=p)
        state = make_state(RunConfig(kind=kind, steps=0, h=0.05), obj)
        step = getattr(optimizers, SPECS[kind].step)
        draws = _draws(kind, obj, 4, RngStream(1))
        step(state, obj, *draws[0])  # SVRG's first snapshot
        # FGD's one pass over the rows holds products of the feature matrix's size
        bound = 2048 + (2 * obj.dataset.features.nbytes if kind == "fgd" else 0)
        peaks = [peak_alloc_bytes(step, state, obj, *draw) for draw in draws[1:]]
        assert max(peaks) < bound, peaks

    @pytest.mark.parametrize("kind", ["ssag", "sgd"])
    def test_an_mlp_step_holds_at_most_one_w(self, kind):
        # the gradient goes straight into the slot or scratch row; lam W is
        # the one W-sized temporary left, the rest is a few activation rows
        X = np.random.default_rng(0).normal(size=(30, 200))
        obj = ssag.Mlp(ssag.Dataset.from_class_labels(X, np.arange(30) % 10), hidden=(120,),
                       lam=0.01)
        state = make_state(RunConfig(kind=kind, steps=0, h=0.05), obj)
        step = getattr(optimizers, SPECS[kind].step)
        draws = _draws(kind, obj, 3, RngStream(1))
        step(state, obj, *draws[0])
        peaks = [peak_alloc_bytes(step, state, obj, *draw) for draw in draws[1:]]
        assert max(peaks) < state.W.nbytes + 16 * 1024, peaks

    def test_a_short_row_segment_keeps_no_copy_of_the_rows(self):
        # 1000 steps on N = 200 and N = 20 000 rows of p = 5, ssag-envelope's
        # N and a hundred times it.  The larger draws' index list holds one
        # int object each, which CPython caches below 257, so 32 bytes a draw
        # may differ; a copy of the features or of class_of would take 800 or
        # 160 KB more
        peaks = []
        for N in (200, 20_000):
            obj = any_kind_problem("logistic", N, 5, 2, seed=1)
            state = make_state(RunConfig(kind="ssag", steps=0, h=0.05), obj)
            strata, indices = RngStream(1).take(obj.dataset, 1, 1000)
            segment = optimizers.segment_stepper(ssag_step, obj, 1)
            assert segment is optimizers._ssag_short_rows
            peaks.append(peak_alloc_bytes(segment, state, obj, strata.tolist(), indices))
            assert state.steps == 1000
        assert peaks[0] <= peaks[1] <= peaks[0] + 32 * 1000


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
class TestDivergenceDetection:
    def test_huge_step_flags_and_truncates(self, line_ridge):
        cfg = RunConfig(kind="fgd", steps=200, h=1e6, cadence=1)
        rec = ssag.run(cfg, line_ridge)
        assert rec.diverged
        assert len(rec) < 201

    @pytest.mark.parametrize("kind", SPECS)
    @settings(max_examples=15, deadline=None)
    @given(objective=st.sampled_from(["logistic", "ridge", "quadratic", "mlp"]),
           p=st.sampled_from([3, 12]), h=st.sampled_from([0.0, 0.05, 1e6]),
           bad=st.sampled_from([np.inf, -np.inf, np.nan]), at=st.integers(0, 11),
           before=st.integers(1, 4), after=st.integers(1, 12), m=st.integers(1, 3),
           prox=st.booleans(), seed=st.integers(0, 2**16))
    def test_a_non_finite_entry_stays_non_finite(self, kind, objective, p, h, bad, at,
                                                  before, after, m, prox, seed):
        # the rule run()'s one check per segment rests on: once a real step's
        # W holds a non-finite entry, so does every later W, whatever the kind
        # (SAGA's soft threshold and SVRG's snapshot refreshes included).  As
        # in run(), W is finite at the first step, which takes SVRG's snapshot
        obj = any_kind_problem(objective, 8, p, 2, seed=seed)
        options = {"n": 2} if "n" in SPECS[kind].settings else {}
        if kind == "svrg":
            options["m"] = m
        if kind == "saga" and prox:
            options["prox_l1"] = 0.5
        config = RunConfig(kind=kind, steps=0, h=h, seed=seed, **options)
        state = make_state(config, obj)
        step = getattr(optimizers, SPECS[kind].step)
        draws = _draws(kind, obj, before + after, RngStream(seed), config.n)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, idx in draws[:before]:
                step(state, obj, j, idx)
            state.W = state.W.copy()
            state.W[at % obj.dim] = bad
            for j, idx in draws[before:]:
                step(state, obj, j, idx)
                assert not np.isfinite(state.W).all()
        assert state.steps == before + after


# values the finite check must judge like np.isfinite: +-inf, NaN, +-0,
# subnormals and +-max
SPECIAL_FLOATS = (np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                  np.finfo(np.float64).max, -np.finfo(np.float64).max)
MLP_SIZE = 784 * 120 + 120 + 120 * 10 + 10  # parameters of the 784-120-10 MLP


def _guard_verdict(W):
    """Whether `core.all_finite`, the check `run` makes at the end of each
    segment of steps, accepts W; `core.as_params` must agree."""
    verdict = all_finite(W)
    with contextlib.nullcontext() if verdict else pytest.raises(ValueError, match="non-finite"):
        ssag.as_params(W, W.size)
    return verdict


class TestFiniteGuard:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(W=hnp.arrays(np.float64, st.integers(1, 40),
                        elements=st.sampled_from(SPECIAL_FLOATS) | st.floats()))
    def test_verdict_matches_isfinite(self, W):
        assert _guard_verdict(W) == bool(np.isfinite(W).all())

    @pytest.mark.parametrize("special", SPECIAL_FLOATS)
    def test_verdict_at_mlp_size(self, special):
        W = np.random.default_rng(0).normal(size=MLP_SIZE)
        W[MLP_SIZE // 3] = special
        assert _guard_verdict(W) == bool(np.isfinite(special))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_without_warnings(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _guard_verdict(np.array([1.0, bad, 0.0]))

    def test_run_checks_once_per_segment(self, monkeypatch, two_class_logistic):
        # segments end at records (every 5 steps), recomputes (every 7) and
        # the budget's end (40); the steps between them check nothing
        monkeypatch.setattr(optimizers, "SUM_RECOMPUTE_EVERY", 7)
        counter = EvaluationCounter(two_class_logistic)  # one evaluation per step
        checked_at, check = [], optimizers.all_finite

        def counting(W):
            checked_at.append(counter.total)
            return check(W)

        monkeypatch.setattr(optimizers, "all_finite", counting)
        rec = ssag.run(RunConfig(kind="ssag", steps=40, h=0.05, cadence=5), two_class_logistic)
        assert checked_at == [5, 7, 10, 14, 15, 20, 21, 25, 28, 30, 35, 40]
        assert not rec.diverged


class TestRunLoop:
    def test_zero_iterations(self, line_ridge):
        rec = ssag.run(RunConfig(kind="fgd", steps=0), line_ridge)
        assert len(rec) == 1 and rec.k[0] == 0

    def test_linear_rate_oracle(self, random_problem):
        # FGD gap after 500 steps within the (1 - mu/L)^k envelope
        obj = random_problem(kind="ridge", N=10, p=3, lam=0.3, seed=5)
        const = ssag.estimate_constants(obj)
        w_star = ssag.reference_optimum(obj, constants=const)
        j_star = obj.loss_full(w_star)
        cfg = RunConfig(kind="fgd", steps=500, h=1.0 / const.L, cadence=500)
        rec = ssag.run(cfg, obj, constants=const)
        gap0 = rec.loss[0] - j_star
        gap_final = rec.loss[-1] - j_star
        assert gap_final <= (1.0 - const.mu / const.L) ** 500 * gap0 + 1e-15

    def test_pass_accounting(self, two_class_logistic):
        obj = two_class_logistic
        N = obj.dataset.n_samples
        rec = ssag.run(RunConfig(kind="ssag", steps=3 * N, h=0.1, n=1, cadence=N),
                       obj)
        assert rec.passes[-1] == pytest.approx(3.0)
        rec = ssag.run(RunConfig(kind="fgd", steps=2, h=0.1, cadence=1), obj)
        assert rec.passes.tolist() == [0.0, 1.0, 2.0]

    def test_default_step_sizes(self, two_class_logistic):
        obj = two_class_logistic
        const = ssag.estimate_constants(obj)
        C = obj.dataset.n_classes
        expected = {
            "ssag": 1.0 / (2 * C * const.L),
            "fgd": 1.0 / const.L,
            "sag": 1.0 / (16 * const.L),
            "svrg": 1.0 / (3 * const.L),
            "saga": 1.0 / (3 * const.L),
            "sgd": 1.0 / const.L,
        }
        for kind, h in expected.items():
            state = make_state(RunConfig(kind=kind, steps=0), obj, constants=const)
            assert state.h == pytest.approx(h, rel=1e-12), kind

    def test_auto_step_needs_convex_objective(self):
        ds = ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1]))
        obj = ssag.Mlp(ds, hidden=(2,))
        with pytest.raises(ConfigError):
            make_state(RunConfig(kind="sgd", steps=0), obj)

    def test_sum_cache_matches_exact_after_run(self, two_class_logistic):
        obj = two_class_logistic
        cfg = RunConfig(kind="ssag", steps=2000, h=0.05, cadence=2000)
        state = make_state(cfg, obj)
        for j, idx in _draws("ssag", obj, 2000, RngStream(10)):
            ssag_step(state, obj, j, idx)
        exact = state.table.sum(axis=0)
        rel = np.linalg.norm(state.table_sum - exact) / max(1.0, np.linalg.norm(exact))
        assert rel <= 1e-9

    def test_records_align_across_seeds(self, two_class_logistic):
        recs = [ssag.run(RunConfig(kind="ssag", steps=97, h=0.05, seed=s, cadence=10),
                         two_class_logistic) for s in (1, 2)]
        assert np.array_equal(recs[0].k, recs[1].k)
        assert recs[0].k[-1] == 97

    def test_recomputes_and_records_at_their_boundaries(self, monkeypatch, two_class_logistic):
        # run() steps without checks up to the next record, the budget's end
        # or a running-sum recompute; each must still fall on its own step
        monkeypatch.setattr(optimizers, "SUM_RECOMPUTE_EVERY", 7)
        recomputed_at = []
        original = optimizers.recompute_sum

        def counting(state):
            recomputed_at.append(state.steps)
            return original(state)

        monkeypatch.setattr(optimizers, "recompute_sum", counting)
        rec = ssag.run(RunConfig(kind="ssag", steps=40, h=0.05, cadence=5), two_class_logistic)
        assert recomputed_at == [7, 14, 21, 28, 35]
        assert rec.k.tolist() == list(range(0, 41, 5)) and not rec.diverged

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("kind", ["ssag", "sgd", "sag", "minibatch"])
    def test_records_do_not_depend_on_the_draw_block_size(self, monkeypatch, random_problem,
                                                          kind, block):
        # run() takes its draws in blocks of _BLOCK_INDICES // n steps (1 to 6
        # here, thousands by default), so records every 5 steps and recomputes
        # every 7 fall inside a block; a draw lost or repeated at a block's
        # end, or a boundary missed inside one, would change the records
        obj = random_problem(N=12, p=3, C=2, seed=3)
        monkeypatch.setattr(optimizers, "SUM_RECOMPUTE_EVERY", 7)
        config = RunConfig(kind=kind, steps=41, h=0.05, cadence=5,
                           n=2 if "n" in SPECS[kind].settings else 1)
        expected = ssag.run(config, obj)
        monkeypatch.setattr(optimizers, "_BLOCK_INDICES", block)
        rec = ssag.run(config, obj)
        assert rec.k.tolist() == [*range(0, 41, 5), 41] and not rec.diverged
        assert rec.content_hash() == expected.content_hash()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("kind, cadence, h, options, injected", [
        *[(kind, cadence, 1e6, {}, None) for kind in SPECS for cadence in (1, 7, 100)],
        *[("svrg", cadence, 1e100, {"m": 2}, None) for cadence in (1, 7, 100)],
        ("svrg", 1000, 1e6, {"m": 2}, None), ("saga", 100, 1e6, {"prox_l1": 0.5}, None),
        *[("fgd", 3, 0.1, {}, injected) for injected in (
            np.nan, np.inf, -np.inf, np.nextafter(DIVERGENCE_LOSS_LIMIT, np.inf),
            DIVERGENCE_LOSS_LIMIT)]],
        ids=lambda value: _case_id(value) if isinstance(value, dict) else str(value))
    def test_diverging_run_matches_a_step_at_a_time_loop(self, line_ridge, kind, cadence, h,
                                                          options, injected):
        # the reference checks W after every step, run() at the end of each
        # segment.  At h = 1e6, cadences 1 and 7 diverge on a recorded loss,
        # 100 and 1000 on the finite check between records, after a step
        # overflowed; at h = 1e100 W overflows by step 4.  From cadence 7 on,
        # SVRG's segment runs on through refreshes past that step, which must
        # not raise.  The fgd cases step stably and give the third recorded
        # loss a set value: a NaN, an infinity of either sign or the next
        # float above the limit cuts the record there, the limit itself does
        # not
        obj = line_ridge
        config = RunConfig(kind=kind, steps=200, h=h, cadence=cadence, **options)
        true_loss = obj.loss_full

        def set_third_loss():  # from the next loss_full call on
            calls = itertools.count()
            obj.loss_full = lambda W: injected if next(calls) == 2 else true_loss(W)

        if injected is not None:
            set_third_loss()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # run() steps past a non-finite W quietly
            rec = ssag.run(config, obj)
        if injected is not None:
            set_third_loss()
        state = make_state(config, obj)
        step = getattr(optimizers, SPECS[kind].step)
        counter = EvaluationCounter(obj)
        k, loss, evals = [0], [obj.loss_full(state.W)], [0]
        diverged, next_record = False, config.cadence
        for j, idx in _draws(kind, obj, config.steps, RngStream(config.seed), config.n):
            step(state, obj, j, idx)
            if not np.isfinite(state.W).all():
                diverged = True
                break
            if state.steps >= next_record or state.steps >= config.steps:
                k.append(state.steps)
                loss.append(obj.loss_full(state.W))
                evals.append(counter.total)
                if not (np.isfinite(loss[-1]) and loss[-1] <= DIVERGENCE_LOSS_LIMIT):
                    diverged = True
                    break
                next_record = (state.steps // config.cadence + 1) * config.cadence
        assert rec.diverged == diverged == (injected != DIVERGENCE_LOSS_LIMIT)
        assert rec.k.tolist() == k and rec.grad_evals.tolist() == evals
        if injected is not None:
            assert k[-1] == (200 if injected == DIVERGENCE_LOSS_LIMIT else 6)
        assert np.array_equal(rec.loss, loss, equal_nan=True)

    def test_variance_snapshots_allocate_less_than_the_feature_matrix(self):
        # each snapshot records the loss and sigma^2; neither may build an
        # N x p temporary, so the run's peak stays below the matrix's bytes
        means = np.zeros((2, 20))
        means[0, 0], means[1, 0] = -1.0, 1.0
        obj = ssag.LogisticRegression(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(10_000, 10_000), stddev=0.1, seed=1)), lam=0.02)
        config = RunConfig(kind="sgd", steps=20, h=0.1, cadence=10, record_variance=True)
        assert peak_alloc_bytes(ssag.run, config, obj) < obj.dataset.features.nbytes

    def test_svrg_counts_inner_steps(self, two_class_logistic):
        rec = ssag.run(RunConfig(kind="svrg", steps=8, h=0.05, m=4, cadence=4),
                       two_class_logistic)
        assert rec.k[-1] == 8

    def test_svrg_honours_budget_and_cadence(self):
        # the default m = 2N = 400 does not divide the 450-step budget
        means = np.array([[2.0, 0.0], [-2.0, 0.0]])
        obj = ssag.LogisticRegression(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(100, 100), stddev=0.5, seed=1)), lam=0.1)
        N = obj.dataset.n_samples
        rec = ssag.run(RunConfig(kind="svrg", steps=450, h=0.05, cadence=50), obj)
        assert rec.k.tolist() == list(range(0, 451, 50))
        assert rec.passes.tolist() == (rec.grad_evals / N).tolist()
        # one full gradient per started period of m = 400 steps, two per step
        assert rec.grad_evals[-1] == 2 * N + 2 * 450


def _case_id(value):
    """Test id of a settings dict or an oracle; None leaves the default."""
    if isinstance(value, dict):
        return ",".join(f"{key}={v}" for key, v in value.items()) or "defaults"
    return getattr(value, "__name__", None)


def _oracle_problem(objective):
    """A 15-row, 3-feature problem with three classes of 5 (two for
    logistic), its constants and its optimum."""
    obj = any_kind_problem(objective, 15, 3, 3, seed=0)
    constants = ssag.estimate_constants(obj)
    return obj, constants, ssag.reference_optimum(obj, constants=constants)


class TestEvaluationCount:
    @pytest.mark.parametrize("objective", ["ridge", "logistic"])
    @pytest.mark.parametrize("kind, settings", [
        ("fgd", {}), ("sgd", {}), ("minibatch", {"n": 4}), ("minibatch", {"n": 15}),
        ("sag", {}), ("saga", {}), ("svrg", {"m": 7}), ("svrg", {}),
        ("ssag", {"n": 1}), ("ssag", {"n": 3})], ids=_case_id)
    def test_records_count_what_the_kernels_evaluate(self, objective, kind, settings):
        # 40 steps, recorded every 3: neither SVRG's m = 7 nor its default
        # m = 2N = 30 divides the budget, and minibatch at n = N reads all rows
        obj, constants, _ = _oracle_problem(objective)
        counter = EvaluationCounter(obj)
        rec = ssag.run(RunConfig(kind=kind, steps=40, h=0.05, cadence=3, **settings), obj,
                       constants=constants)
        assert rec.k.tolist() == [*range(0, 40, 3), 40]
        assert rec.grad_evals.tolist() == counter.at_loss
        assert rec.passes.tolist() == [evals / 15 for evals in counter.at_loss]


class TestReferenceOracles:
    """`run` against the plain-loop oracles of `conftest`, at the default
    step sizes.  The two sum in different orders, so the loss and distance
    columns agree to a relative 1e-9, with an absolute 1e-20 on distances
    that have reached rounding level; the evaluation counts agree exactly."""

    @pytest.mark.parametrize("objective", ["ridge", "logistic"])
    @pytest.mark.parametrize("kind, settings, oracle", [
        ("ssag", {"n": 1}, reference_ssag), ("ssag", {"n": 4}, reference_ssag),
        ("minibatch", {"n": 4}, reference_minibatch), ("saga", {}, reference_saga),
        ("saga", {"prox_l1": 0.05}, reference_saga), ("svrg", {"m": 7}, reference_svrg)],
        ids=_case_id)
    def test_run_follows_the_oracle(self, objective, kind, settings, oracle):
        obj, constants, w_star = _oracle_problem(objective)
        config = RunConfig(kind=kind, steps=3000, cadence=100, seed=3, **settings)
        rec = ssag.run(config, obj, constants=constants, w_star=w_star)
        h = optimizers.resolve_step_size(config, obj, constants)
        iterates, evals = oracle(obj, h, config.steps, config.seed, **settings)
        assert not rec.diverged and rec.k.tolist() == list(range(0, 3001, 100))
        loss = [obj.loss_full(W) for W in iterates[rec.k]]
        dist = [ssag.squared_distance(W, w_star) for W in iterates[rec.k]]
        np.testing.assert_allclose(rec.loss, loss, rtol=1e-9, atol=0)
        np.testing.assert_allclose(rec.dist_sq, dist, rtol=1e-9, atol=1e-20)
        assert rec.grad_evals.tolist() == evals[rec.k].tolist()


class TestRunConfig:
    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown optimizer kind 'nope'"):
            RunConfig(kind="nope", steps=1)
        with pytest.raises(ConfigError, match="unknown optimizer kind 'nope'"):
            steps_for_passes("nope", 1.0, 10)

    @pytest.mark.parametrize("setting", [{"m": 0}, {"m": -1}])
    def test_rejects_nonpositive_period(self, setting):
        with pytest.raises(ConfigError):
            RunConfig(kind="ssag", steps=10, **setting)

    @pytest.mark.parametrize("setting, message", [({"steps": -1}, "step budget"),
                                                  ({"cadence": 0}, "metric cadence")])
    def test_rejects_a_count_below_its_range(self, setting, message):
        # an experiment file's steps and cadence reach these checks too
        with pytest.raises(ConfigError, match=message):
            RunConfig(kind="sgd", **{"steps": 3, **setting})

    @pytest.mark.parametrize("kind, setting", [
        ("sgd", {"steps": 2.5}), ("sgd", {"cadence": 1.5}), ("sgd", {"seed": 2.5}),
        ("sgd", {"seed": True}), ("ssag", {"n": True}), ("svrg", {"m": 2.5}),
        ("sgd", {"steps": np.float64(3.0)})])
    def test_rejects_non_integer_settings(self, kind, setting):
        (name,) = setting
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            RunConfig(kind=kind, **{"steps": 3, **setting})

    def test_accepts_numpy_integers(self):
        config = RunConfig(kind="ssag", steps=np.int64(3), seed=np.int64(2), n=np.int32(1))
        assert (config.steps, config.seed, config.n) == (3, 2, 1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(kind="sgd", steps=1, seed=-1)

    @pytest.mark.parametrize("kind, setting", [("sgd", {"prox_l1": 5.0}), ("sag", {"n": 4})])
    def test_rejects_a_setting_the_kind_ignores(self, kind, setting):
        (name,) = setting
        with pytest.raises(ConfigError, match=rf"ignores the settings \['{name}'\]"):
            RunConfig(kind=kind, steps=1, **setting)

    @pytest.mark.parametrize("prox_l1", ["abc", -1.0, float("nan"), float("inf"), True])
    def test_rejects_bad_prox_l1(self, prox_l1):
        with pytest.raises(ConfigError, match="prox_l1"):
            RunConfig(kind="saga", steps=1, prox_l1=prox_l1)

    @pytest.mark.parametrize("h", ["abc", [1.0], True, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_step_size(self, h):
        with pytest.raises(ConfigError, match="step size h"):
            RunConfig(kind="sgd", steps=1, h=h)

    @pytest.mark.parametrize("prox_l1", [0.0, None])
    def test_accepts_zero_and_no_prox_l1(self, prox_l1):
        assert RunConfig(kind="saga", steps=1, prox_l1=prox_l1).prox_l1 == prox_l1

    def test_rejects_batch_larger_than_smallest_class(self):
        # classes of 4 and 2 samples: n = 3 cannot be drawn from class 1
        obj = ssag.MeanQuadratic(ssag.Dataset.from_class_labels(
            np.zeros((6, 1)), np.array([0, 0, 0, 0, 1, 1])))
        with pytest.raises(ConfigError, match="smallest class"):
            ssag.run(RunConfig(kind="ssag", steps=10, h=0.1, n=3), obj)
        # the smallest class's size itself is accepted
        assert isinstance(make_state(RunConfig(kind="ssag", steps=10, h=0.1, n=2), obj), State)

    def test_rejects_minibatch_larger_than_sample_count(self):
        obj = _tiny_logistic()  # N = 6
        with pytest.raises(ConfigError, match="sample count"):
            ssag.run(RunConfig(kind="minibatch", steps=10, h=0.1, n=7), obj)
        # the sample count itself is accepted
        assert isinstance(make_state(RunConfig(kind="minibatch", steps=10, h=0.1, n=6), obj),
                          State)


class TestStepsForPasses:
    def test_per_algorithm_accounting(self):
        assert steps_for_passes("fgd", 5, 100) == 5
        assert steps_for_passes("sgd", 2, 100) == 200
        assert steps_for_passes("ssag", 2, 100, n=1) == 200
        assert steps_for_passes("ssag", 2, 100, n=10) == 20
        assert steps_for_passes("minibatch", 3, 100, n=10) == 30
        # svrg: step 1 pays the snapshot's N, so 1 step (102 evaluations) is
        # nearest one pass; 33 steps would spend 166
        assert steps_for_passes("svrg", 1, 100, m=100) == 1
        # a tie goes to the even step count, as round() rounds
        assert steps_for_passes("fgd", 1.5, 100) == 2
        assert steps_for_passes("fgd", 2.5, 100) == 2

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_nearest_count_against_a_brute_force_oracle(self, kind):
        # the k in [0, ceil(passes N)] whose 2 evals(k) is nearest the request
        # 2 passes N, a tie going to the even k.  The request is the float
        # product passes * N (exact on the eighths, which give many ties),
        # and every distance is an exact Fraction
        spec = SPECS[kind]
        ns = (1, 3) if "n" in spec.settings else (1,)
        for N in (1, 2, 3, 8, 25):
            ms = (None, 1, 4, 3 * N) if "m" in spec.settings else (None,)
            for n, m, passes in itertools.product(
                    ns, ms, [j / 8 for j in range(33)] + [0.1, 1 / 3, 0.7, 2.2]):
                request = 2 * Fraction(passes * N)
                nearest = min(range(math.ceil(passes * N) + 1), key=lambda k: (
                    abs(2 * spec.evals(N, n, m, k) - request), k % 2))
                reads = {key: value for key, value in (("n", n), ("m", m))
                         if key in spec.settings}
                assert steps_for_passes(kind, passes, N, **reads) == nearest, (N, n, m, passes)

    @pytest.mark.parametrize("kind, passes", [("sgd", 0), ("fgd", 0.0), ("svrg", 0)])
    def test_no_passes_take_no_steps(self, kind, passes):
        assert steps_for_passes(kind, passes, 100) == 0

    @pytest.mark.parametrize("passes", [math.nan, math.inf, -1, -1.5, True, "2", None, 1e308,
                                        10**307])
    def test_rejects_a_budget_that_is_not_a_finite_number_at_least_0(self, passes):
        # NaN raised ValueError from math.ceil, inf, 1e308 and 10**307 (whose
        # passes x N overflows float64) OverflowError, and a negative budget
        # gave 0 steps
        with pytest.raises(ConfigError, match="passes must be a finite number >= 0"):
            steps_for_passes("sgd", passes, 100)

    def test_rejects_a_count_past_the_range_bisect_can_search(self):
        # 1e300 passes of 100 samples is finite, but no range holds 1e302
        # step counts; it is refused as a config error, not an OverflowError
        with pytest.raises(ConfigError, match="below 2\\*\\*63"):
            steps_for_passes("sgd", 1e300, 100)
        assert steps_for_passes("sgd", 2**62 / 100, 100) == 2**62

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(sorted(SPECS)), per_class=st.integers(2, 6),
           n=st.integers(1, 2), m=st.none() | st.integers(1, 15),
           passes=st.floats(0.1, 3.0), cadence=st.integers(1, 7))
    def test_budget_accounting_property(self, kind, per_class, n, m, passes, cadence):
        means = np.array([[1.0, 0.5], [-1.0, -0.5]])
        obj = ssag.LogisticRegression(ssag.gen_synthetic(ssag.SyntheticSpec(
            means=means, counts=(per_class, per_class), stddev=0.3, seed=per_class)), lam=0.1)
        N = obj.dataset.n_samples
        # only the settings the kind reads: the others must keep their defaults
        reads = {key: value for key, value in (("n", n), ("m", m)) if key in SPECS[kind].settings}
        steps = steps_for_passes(kind, passes, N, **reads)
        counter = EvaluationCounter(obj)
        rec = ssag.run(RunConfig(kind=kind, steps=steps, cadence=cadence, **reads), obj)
        assert not rec.diverged
        assert rec.passes.tolist() == (rec.grad_evals / N).tolist()
        # every recorded count is what the kernels were asked for by then
        assert rec.grad_evals.tolist() == counter.at_loss
        evals = SPECS[kind].evals
        # nearest the request: within half a step's evaluations, the first
        # step (SVRG's snapshot) being the largest; 1e-9 absorbs the rounding of passes * N
        assert abs(rec.grad_evals[-1] - passes * N) <= evals(N, n, m, 1) / 2 + 1e-9
        assert rec.k.tolist() == sorted({0, *range(cadence, steps + 1, cadence), steps})
