"""Bound formulas, sampling identities, and the envelope checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssag
from ssag.errors import OutOfRegimeError, SsagError, UndefinedBoundError
from ssag.theory import CviInputs, Theorem2Inputs

from conftest import (any_kind_problem, enumeration_mean_and_variance, reference_fgd,
                      reference_ridge_optimum, subset_mean_gradients)


def _cvi(h=0.1, L=1.0, mu=0.5, f=0.1, n=10, sigma_sq=2.0):
    return CviInputs(h=h, L=L, mu=mu, f=f, n=n, sigma_sq=sigma_sq)


class TestCviLambda:
    def test_census_gives_zero(self):
        assert ssag.cvi_lambda(_cvi(f=1.0)) == 0.0

    def test_zero_variance_gives_zero(self):
        assert ssag.cvi_lambda(_cvi(sigma_sq=0.0)) == 0.0

    def test_hand_arithmetic(self):
        # 0.1 * 1 * 0.9 * 2 / (2 * 0.5 * 1.95 * 10) = 0.18 / 19.5
        assert ssag.cvi_lambda(_cvi()) == pytest.approx(0.18 / 19.5, rel=1e-12)

    def test_mu_zero_undefined(self):
        with pytest.raises(UndefinedBoundError):
            ssag.cvi_lambda(_cvi(mu=0.0))

    def test_step_regime_enforced(self):
        with pytest.raises(OutOfRegimeError):
            _cvi(h=2.0, L=1.0)
        with pytest.raises(OutOfRegimeError):
            _cvi(h=0.0)

    def test_monotone_in_n_and_f(self):
        base = ssag.cvi_lambda(_cvi())
        assert ssag.cvi_lambda(_cvi(n=20)) < base
        assert ssag.cvi_lambda(_cvi(f=0.5)) < base


class TestCviRho:
    def test_hand_values(self):
        assert ssag.cvi_rho(1.0, 1.0, 1.0) == 0.0
        assert ssag.cvi_rho(0.5, 2.0, 0.5) == pytest.approx(0.75)

    def test_small_step_limit(self):
        assert ssag.cvi_rho(1e-9, 1.0, 1.0) >= 1.0 - 1e-8

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            ssag.cvi_rho(2.1, 1.0, 0.5)

    def test_always_below_one(self):
        # property check over 10^4 random (h, L, mu) triples
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            L = float(rng.uniform(0.1, 10.0))
            mu = float(rng.uniform(1e-6, L))
            h = float(rng.uniform(1e-9, 2.0 / L * (1 - 1e-9)))
            assert ssag.cvi_rho(h, L, mu) < 1.0


class TestCviEnvelope:
    def test_geometric_limit(self):
        lam = 0.01
        env = ssag.cvi_envelope(10**6, lam, 0.75, 1.0)
        assert abs(env - lam) <= 1e-12

    def test_pure_geometric_when_floor_zero(self):
        assert ssag.cvi_envelope(7, 0.0, 0.5, 2.0) == pytest.approx(2.0 * 0.5**7)

    def test_hand_arithmetic(self):
        lam = 0.18 / 19.5
        expected = lam + 0.75**10 * (1.0 - lam)
        got = ssag.cvi_envelope(10, lam, 0.75, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0650245, abs=5e-7)

    def test_rho_validation(self):
        with pytest.raises(OutOfRegimeError):
            ssag.cvi_envelope(1, 0.0, 1.0, 1.0)


class TestTheorem2Bound:
    def test_census_k0(self):
        inp = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=1.0, n=1,
                             sigma_c_sq=np.array([5.0, 7.0]), dist0_sq=2.0)
        assert ssag.theorem2_bound(0, inp) == 6.0  # 3 * dist0, variance term vanishes

    def test_already_at_optimum(self):
        inp = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=0.5, n=1,
                             sigma_c_sq=np.zeros(2), dist0_sq=0.0)
        for k in (0, 1, 10, 1000):
            assert ssag.theorem2_bound(k, inp) == 0.0

    def test_hand_arithmetic(self):
        inp = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=1e-12, n=1,
                             sigma_c_sq=np.array([0.5, 0.5]), dist0_sq=1.0)
        expected = 0.9375**16 * (2.25 * 1.0 + 3.0)
        assert ssag.theorem2_bound(16, inp) == pytest.approx(expected, rel=1e-9)

    def test_monotone_nonincreasing_to_zero(self):
        inp = Theorem2Inputs(mu=0.5, L=2.0, C=3, f=0.1, n=2,
                             sigma_c_sq=np.ones(3), dist0_sq=1.0)
        values = [ssag.theorem2_bound(k, inp) for k in range(0, 20000, 500)]
        assert all(b1 >= b2 for b1, b2 in zip(values, values[1:]))
        assert ssag.theorem2_bound(10**7, inp) < 1e-12

    def test_per_class_broadcast(self):
        shared = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=0.25, n=2,
                                sigma_c_sq=np.array([1.0, 3.0]), dist0_sq=0.5)
        per_class = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=np.array([0.25, 0.25]),
                                   n=np.array([2, 2]),
                                   sigma_c_sq=np.array([1.0, 3.0]), dist0_sq=0.5)
        assert shared.bracket == pytest.approx(per_class.bracket, rel=1e-15)


class TestRates:
    def test_worked_values(self):
        assert ssag.ssag_rate(1.0, 1.0, 2) == 0.9375
        assert ssag.sag_rate(1.0, 1.0, 100) == 0.99875

    def test_equal_when_classes_equal_samples(self):
        assert ssag.ssag_rate(0.3, 2.0, 50) == ssag.sag_rate(0.3, 2.0, 50)

    def test_stratified_beats_per_sample_when_fewer_classes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            L = float(rng.uniform(0.5, 5.0))
            mu = float(rng.uniform(0.01, L))
            N = int(rng.integers(10, 10_000))
            C = int(rng.integers(1, N))
            assert ssag.ssag_rate(mu, L, C) < ssag.sag_rate(mu, L, N)


class TestComplexity:
    def _inputs(self):
        # bracket = 2.25 * 4/9 = 1 with no distance term
        return Theorem2Inputs(mu=1.0, L=1.0, C=2, f=1e-15, n=1,
                              sigma_c_sq=np.array([2.0 / 9.0, 2.0 / 9.0]),
                              dist0_sq=0.0)

    def test_epsilon_at_bracket(self):
        est = ssag.ssag_complexity(1.0, self._inputs())
        assert est.iterations == 0

    def test_worked_value(self):
        est = ssag.ssag_complexity(1e-3, self._inputs())
        assert est.iterations == 108
        assert est.literal_iterations == 108

    def test_halving_epsilon(self):
        import math
        inp = self._inputs()
        k1 = ssag.ssag_complexity(1e-3, inp).iterations
        k2 = ssag.ssag_complexity(5e-4, inp).iterations
        expected = math.ceil(math.log(2.0) / abs(math.log(0.9375)))
        assert abs((k2 - k1) - expected) <= 1

    def test_zero_bracket_signals_convergence(self):
        inp = Theorem2Inputs(mu=1.0, L=1.0, C=2, f=0.5, n=1,
                             sigma_c_sq=np.zeros(2), dist0_sq=0.0)
        est = ssag.ssag_complexity(1e-6, inp)
        assert est.iterations == 0
        assert est.literal_iterations is None

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            ssag.ssag_complexity(0.0, self._inputs())


class TestFinitePopulationVariance:
    def test_census(self):
        assert ssag.finite_population_variance(3.0, 1.0, 5) == 0.0

    def test_hand_arithmetic(self):
        assert ssag.finite_population_variance(2.0, 0.1, 10) == pytest.approx(0.18)

    def test_matches_enumeration(self, random_problem):
        obj = random_problem(kind="quadratic", N=6, p=2, seed=14)
        W = np.array([0.2, 0.8])
        sigma_sq = ssag.gradient_population_stats(obj, W).population_variance
        for n in range(1, 7):
            _, enum_var = enumeration_mean_and_variance(obj, W, n)
            formula = ssag.finite_population_variance(sigma_sq, n / 6.0, n)
            assert enum_var == pytest.approx(formula, rel=1e-12, abs=1e-15)


class TestDescentChain:
    def test_expected_descent_bounded(self, random_problem):
        # E[J(W - h g_bar)] - J(W) <= (h^2 L / 2 - h)||grad||^2
        #                             + (h^2 L / 2)(1-f)/n sigma^2,
        # exhaustively over all size-n subsets
        obj = random_problem(kind="ridge", N=7, p=2, lam=0.3, seed=20)
        const = ssag.estimate_constants(obj)
        stats_rng = np.random.default_rng(4)
        for trial in range(5):
            W = stats_rng.normal(size=obj.dim)
            h = float(stats_rng.uniform(0.05, 1.9)) / const.L
            sigma_sq = ssag.gradient_population_stats(obj, W).population_variance
            grad = obj.grad_full(W)
            for n in (1, 3, 7):
                means = subset_mean_gradients(obj, W, n)
                lhs = np.mean([obj.loss_full(W - h * g) for g in means]) - obj.loss_full(W)
                rhs = ((h * h * const.L / 2.0 - h) * float(grad @ grad)
                       + h * h * const.L / 2.0
                       * ssag.finite_population_variance(sigma_sq, n / 7.0, n))
                assert lhs <= rhs + 1e-12


class TestCheckEnvelope:
    def test_zero_metric_all_pass(self):
        rep = ssag.check_envelope(np.arange(5), np.zeros(5), np.zeros(5), n_seeds=20)
        assert rep.first_failure is None and rep.pass_fraction == 1.0

    def test_constructed_failure(self):
        k = np.arange(10)
        bounds = 2.0 ** (-k.astype(float))
        values = np.full(10, 0.5)
        rep = ssag.check_envelope(k, values, bounds, n_seeds=20)
        assert rep.first_failure is not None
        assert rep.passed[:1].all() and not rep.passed[-1]

    def test_first_failure_is_a_recorded_k(self):
        k = 10 * np.arange(6)
        values = np.array([0.5, 0.5, 0.1, 0.5, 0.01, 0.5])
        bounds = np.array([1.0, 0.5, 0.2, 0.2, 0.2, 0.2])
        assert ssag.check_envelope(k, values, bounds, n_seeds=20).first_failure == 30
        assert ssag.check_envelope(k, values, 2 * values, n_seeds=20).first_failure is None

    def test_seed_floor_enforced(self):
        with pytest.raises(SsagError):
            ssag.check_envelope(np.arange(3), np.zeros(3), np.ones(3), n_seeds=5)

    def test_missing_metric(self):
        values = np.array([1.0, np.nan])
        with pytest.raises(SsagError):
            ssag.check_envelope(np.arange(2), values, np.ones(2), n_seeds=20)

    def test_returns_the_envelope_that_check_guards(self):
        env = ssag.check_envelope(np.arange(3), np.zeros(3), np.ones(3), n_seeds=20)
        assert isinstance(env, ssag.Envelope) and env.slack == 0.05 and env.first_failure is None
        assert env.check() is env
        with pytest.raises(SsagError, match="over >= 20 seeds, got 19"):
            ssag.check_envelope(np.arange(3), np.zeros(3), np.ones(3), n_seeds=19)
        with pytest.raises(SsagError, match="over >= 20 seeds, got 19"):
            ssag.Envelope(env.k, env.values, env.bounds, 19).check()

    def test_fgd_deterministic_envelope(self, line_ridge):
        # deterministic full-gradient run against its zero-floor envelope
        obj = line_ridge
        const = ssag.estimate_constants(obj)
        h = 1.0 / const.L
        cfg = ssag.RunConfig(kind="fgd", steps=60, h=h, cadence=1)
        w_star = ssag.reference_optimum(obj)
        rec = ssag.run(cfg, obj, w_star=w_star)
        j_star = obj.loss_full(w_star)
        gaps = rec.loss - j_star
        rho = ssag.cvi_rho(h, const.L, const.mu)
        bounds = np.array([ssag.cvi_envelope(int(k) - 1, 0.0, rho, gaps[1])
                           for k in rec.k[1:]])
        rep = ssag.check_envelope(rec.k[1:], gaps[1:], bounds, n_seeds=20)
        assert rep.pass_fraction == 1.0


class TestReferenceOptimum:
    def test_ridge_matches_closed_form(self, random_problem):
        # the Cholesky and SVD solves differ by rounding, 1.9e-16 here
        obj = random_problem(kind="ridge", N=10, p=3, lam=0.2, seed=2)
        assert np.allclose(ssag.reference_optimum(obj),
                           reference_ridge_optimum(obj), rtol=0, atol=1e-14)

    def test_quadratic_analytic(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = ssag.Dataset.regression(X, np.zeros(2))
        obj = ssag.MeanQuadratic(ds, lam=0.5)
        expected = X.mean(axis=0) / 1.5
        assert ssag.reference_optimum(obj) == pytest.approx(expected, rel=1e-14)

    def test_logistic_polish_reaches_tolerance(self, two_class_logistic):
        w = ssag.reference_optimum(two_class_logistic)
        assert np.linalg.norm(two_class_logistic.grad_full(w)) <= 1e-10

    def test_logistic_polish_out_of_iterations_raises(self, monkeypatch, two_class_logistic):
        # one Newton step from zero does not reach the tolerance
        monkeypatch.setattr(ssag.objectives, "OPTIMUM_MAX_ITER", 1)
        with pytest.raises(SsagError, match="within 1 iterations"):
            ssag.reference_optimum(two_class_logistic)

    def test_logistic_needs_strong_convexity(self, two_class_logistic):
        with pytest.raises(SsagError, match="mu = 0"):
            ssag.reference_optimum(two_class_logistic,
                                   constants=ssag.ConvexityConstants(L=1.0, mu=0.0))

    @staticmethod
    def _check_against_descent(obj, const, w, tol=1e-10):
        # both points have gradient norm <= tol, so mu-strong convexity puts
        # each within tol/mu of the optimum and within 2 tol/mu of each other
        assert np.linalg.norm(obj.grad_full(w)) <= tol
        w_fgd = reference_fgd(obj, 1.0 / const.L, 10**6, W0=np.zeros(obj.dim), grad_tol=tol)
        assert np.linalg.norm(obj.grad_full(w_fgd)) <= tol
        assert np.linalg.norm(w - w_fgd) <= 2.0 * tol / const.mu

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(N=st.integers(2, 30), p=st.integers(1, 6), seed=st.integers(0, 2**16),
           lam=st.floats(0.05, 1.0))
    def test_newton_matches_gradient_descent(self, N, p, seed, lam):
        obj = any_kind_problem("logistic", N, p, 2, seed, lam=lam)
        const = ssag.estimate_constants(obj)
        self._check_against_descent(obj, const, ssag.reference_optimum(obj, constants=const))

    def test_newton_matches_gradient_descent_on_envelope_problem(self, envelope_problem):
        self._check_against_descent(*envelope_problem)

    @pytest.mark.parametrize("X,y,lam", [
        # one full Newton step on the way would raise the loss by 4e-5
        ([[7.530978954291749, 36.508789211333195], [20.534368221613448, 30.773469043416952],
          [-19.455239317221434, -26.044784431097412],
          [-4.289714998983498, -0.40386951770805224]], [0, 1, 0, 0], 0.00040104889851083994),
        # the rounding of the loss hides the decrease of the last Newton step
        ([[-22.314095055366202, -7.456439227978823], [4.126488375566421, -4.290447104350441]],
         [1, 0], 0.005115667842551607),
    ])
    def test_newton_iterates_descend_to_tolerance(self, X, y, lam):
        obj = ssag.LogisticRegression(
            ssag.Dataset.from_class_labels(np.array(X), np.array(y)), lam=lam)
        iterates = []
        hessian = obj.hessian_full
        obj.hessian_full = lambda W: iterates.append(W) or hessian(W)
        w = ssag.reference_optimum(obj)
        assert np.linalg.norm(obj.grad_full(w)) <= 1e-10
        losses = [obj.loss_full(W) for W in [*iterates, w]]
        assert np.all(np.diff(losses) <= 1e-14)  # non-increasing up to the loss's rounding


class TestTheoremInputsMeasurement:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(C=st.integers(2, 11), per_class=st.integers(1, 393), n=st.integers(1, 10),
           seed=st.integers(0, 99))
    def test_balanced_shared_equals_per_class(self, C, per_class, n, seed):
        # each measured f_c = n/N_c is the shared nC/N bit for bit
        n = min(n, per_class)
        ds = ssag.gen_synthetic(ssag.SyntheticSpec(
            means=np.random.default_rng(seed).normal(size=(C, 3)), counts=(per_class,) * C,
            stddev=0.5, seed=seed))
        obj = ssag.make_objective({"kind": "ridge", "lam": 0.1}, ds)
        inp = ssag.theorem2_inputs_for(obj, n=n, w0=np.zeros(obj.dim))
        shared = Theorem2Inputs(mu=inp.mu, L=inp.L, C=C, f=n * C / ds.n_samples, n=n,
                                sigma_c_sq=inp.sigma_c_sq, dist0_sq=inp.dist0_sq)
        assert inp.bracket == shared.bracket

    def test_imbalanced_ratios_are_per_stratum(self):
        ds = ssag.gen_synthetic(ssag.SyntheticSpec(means=np.eye(3), counts=(7, 3, 5),
                                                   stddev=0.5, seed=1))
        obj = ssag.make_objective({"kind": "ridge", "lam": 0.1}, ds)
        inp = ssag.theorem2_inputs_for(obj, n=2, w0=np.zeros(obj.dim))
        assert inp.f.tolist() == [2 / 7, 2 / 3, 2 / 5]

    def test_variances_measured_at_optimum(self, random_problem):
        obj = random_problem(kind="logistic", N=12, p=3, C=2, seed=3)
        w_star = ssag.reference_optimum(obj)
        inp = ssag.theorem2_inputs_for(obj, n=1, w0=np.zeros(obj.dim), w_star=w_star)
        stats = ssag.gradient_population_stats(obj, w_star)
        assert inp.sigma_c_sq == pytest.approx(stats.per_class_variance, rel=1e-12)
        assert inp.dist0_sq == pytest.approx(float(w_star @ w_star), rel=1e-12)


class TestEnvelopeCalls:
    def test_theorem2_bounds_follow_manual_chain_above_floor(self, two_class_logistic):
        obj = two_class_logistic
        const = ssag.estimate_constants(obj)
        w_star = ssag.reference_optimum(obj, constants=const)
        w0 = np.zeros(obj.dim)
        k = np.array([0, 10, 1000, 10**6])
        agg = ssag.Aggregate(k=k, passes=k / 6.0, n_seeds=20, n_diverged=0,
                             mean={"dist_sq": np.full(4, 1e-3)})
        env = ssag.theorem2_envelope(obj, agg, const, w_star, n=1, w0=w0)
        inp = ssag.theorem2_inputs_for(obj, n=1, w0=w0, constants=const, w_star=w_star)
        manual = np.array([ssag.theorem2_bound(int(j), inp) for j in k])
        above = manual >= env.floor
        assert above.tolist() == [True, True, True, False]  # the grid straddles the floor
        assert np.array_equal(env.bounds[above], manual[above])
        assert env.floor > 0.0 and env.bounds[-1] == env.floor
        assert np.array_equal(env.k, k) and np.array_equal(env.values, agg.mean["dist_sq"])
        assert env.params["rate"] == inp.rate and env.params["bracket"] == inp.bracket

    def test_theorem1_matches_fgd_oracle_grid(self, line_ridge):
        # the hand-built grid that test_fgd_deterministic_envelope checks against
        obj = line_ridge
        const = ssag.estimate_constants(obj)
        h = 1.0 / const.L
        w_star = ssag.reference_optimum(obj)
        rec = ssag.run(ssag.RunConfig(kind="fgd", steps=60, h=h, cadence=1), obj, w_star=w_star)
        gaps = rec.loss - obj.loss_full(w_star)
        rho = ssag.cvi_rho(h, const.L, const.mu)
        oracle = np.array([ssag.cvi_envelope(int(k) - 1, 0.0, rho, gaps[1])
                           for k in rec.k[1:]])
        env = ssag.theorem1_envelope(obj, ssag.aggregate([rec]), const, w_star, h=h,
                                     n=obj.dataset.n_samples)
        assert env.params["lam"] == 0.0 and env.params["f"] == 1.0
        assert env.params["anchor"] == 1 and env.params["rho"] == rho
        assert np.array_equal(env.k, rec.k[1:]) and np.array_equal(env.values, gaps[1:])
        assert np.array_equal(env.bounds, np.maximum(oracle, env.floor))
        assert env.pass_fraction == 1.0


class TestFitDecayRate:
    def test_recovers_exact_geometric_rate(self):
        k = np.arange(0, 2000, 50)
        rate = 0.999
        values = 3.0 * rate ** k
        slope = ssag.fit_decay_rate(k, values)
        assert slope == pytest.approx(np.log(rate), rel=1e-9)

    def test_window_and_floor_filtering(self):
        k = np.arange(100)
        values = np.exp(-0.1 * k)
        values[50:] = 0.0  # dropped (nonpositive)
        slope = ssag.fit_decay_rate(k, values, k_min=5, k_max=80)
        assert slope == pytest.approx(-0.1, rel=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ssag.fit_decay_rate(np.array([1.0]), np.array([2.0]))


def _t2(**kw):
    args = dict(mu=1.0, L=2.0, C=2, f=0.5, n=1, sigma_c_sq=np.ones(2), dist0_sq=1.0)
    return Theorem2Inputs(**{**args, **kw})


def _env(n_seeds=20, values=(1.0, 2.0)):
    return ssag.Envelope(np.arange(2), np.array(values), np.ones(2), n_seeds)


NAN = float("nan")


class TestInputRules:
    """Every input rule of the bounds, one case per raise site; NaN fails each
    range check it reaches."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: ssag.ConvexityConstants(L=NAN, mu=0.0), ValueError, "L must be positive"),
        (lambda: ssag.ConvexityConstants(L=1.0, mu=NAN), ValueError, "mu must satisfy"),
        (lambda: _cvi(L=1.0, mu=2.0), ValueError, "mu must satisfy"),
        (lambda: _cvi(h=NAN), OutOfRegimeError, "step size"),
        (lambda: ssag.cvi_lambda(_cvi(mu=0.0)), UndefinedBoundError, "mu = 0"),
        # accepted by CviInputs, since mu exceeds L by less than the 1e-12 tolerance
        (lambda: ssag.cvi_lambda(_cvi(h=1.999999999999, L=1.0, mu=1.0000000000005)),
         UndefinedBoundError, r"h\*mu = 2"),
        (lambda: ssag.cvi_rho(0.1, 1.0, 0.0), ValueError, "need mu > 0"),
        (lambda: ssag.cvi_rho(0.1, 1.0, NAN), ValueError, "mu must satisfy"),
        (lambda: ssag.cvi_rho(NAN, 1.0, 0.5), OutOfRegimeError, "step size"),
        (lambda: ssag.cvi_envelope(1, 0.0, NAN, 1.0), OutOfRegimeError, "rho"),
        (lambda: ssag.cvi_envelope(-1, 0.0, 0.5, 1.0), ValueError, "iteration index"),
        (lambda: _t2(mu=0.0), ValueError, "need mu > 0"),
        (lambda: _t2(L=NAN), ValueError, "L must be positive"),
        (lambda: _t2(C=0, sigma_c_sq=np.ones(0)), ValueError, "class count"),
        (lambda: _t2(sigma_c_sq=np.ones(3)), ValueError, "one per-class variance"),
        (lambda: _t2(dist0_sq=-1.0), ValueError, "initial squared distance"),
        (lambda: _t2(dist0_sq=NAN), ValueError, "initial squared distance"),
        (lambda: _t2(f=np.array([0.5, NAN])), ValueError, "sampling ratio"),
        (lambda: _t2(n=np.array([1, 0])), ValueError, "sample size"),
        (lambda: _t2(sigma_c_sq=np.array([1.0, NAN])), ValueError, "population variance"),
        (lambda: _cvi(f=NAN), ValueError, "sampling ratio"),
        (lambda: _cvi(n=0), ValueError, "sample size"),
        (lambda: _cvi(sigma_sq=-1.0), ValueError, "population variance"),
        (lambda: ssag.theorem2_bound(-1, _t2()), ValueError, "iteration index"),
        (lambda: ssag.ssag_complexity(0.0, _t2()), ValueError, "epsilon"),
        (lambda: ssag.finite_population_variance(1.0, NAN, 1), ValueError, "sampling ratio"),
        (lambda: ssag.finite_population_variance(1.0, 0.5, 0), ValueError, "sample size"),
        (lambda: ssag.finite_population_variance(NAN, 0.5, 1), ValueError,
         "population variance"),
        (lambda: _env(n_seeds=19).check(), SsagError, "over >= 20 seeds"),
        (lambda: _env(values=(1.0, NAN)).check(), SsagError, "NaN"),
        (lambda: ssag.check_envelope(np.array([], int), np.array([]), np.array([]), n_seeds=20),
         SsagError, "no recorded step"),
        (lambda: ssag.Envelope(np.array([], int), np.array([]), np.array([]), 20), SsagError,
         "no recorded step"),
        (lambda: ssag.check_envelope(np.arange(2), np.ones(3), np.ones(2), n_seeds=20),
         ValueError, "matching shapes"),
        (lambda: ssag.fit_decay_rate(np.arange(3), np.array([1.0, 0.0, NAN])), ValueError,
         "two positive values"),
    ])
    def test_rule_rejects(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_sampling_rule_takes_a_scalar_or_one_value_per_stratum(self):
        assert ssag.finite_population_variance(4.0, 0.5, 2) == 1.0
        got = ssag.finite_population_variance(np.array([4.0, 8.0]), np.array([0.5, 1.0]), 2)
        assert got.tolist() == [1.0, 0.0]
