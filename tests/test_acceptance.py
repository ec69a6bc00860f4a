"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py
-v -s` to see them).  Criterion 8 needs the MNIST IDX files; point
SSAG_MNIST_DIR at a directory holding train-images-idx3-ubyte(.gz),
train-labels-idx1-ubyte(.gz), t10k-images-idx3-ubyte(.gz), and
t10k-labels-idx1-ubyte(.gz), or place them under data/mnist/.  Without the
files the test is skipped: this sandbox has no network and no MNIST copy.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import ssag
from ssag.bench import ExperimentConfig, emit_csv, run_experiment
from ssag.optimizers import RunConfig, make_state, ssag_step
from ssag.sampling import RngStream
from ssag.theory import CviInputs

from conftest import (central_diff_grad, enumeration_mean_and_variance,
                      grad_rel_error, make_envelope_problem, reference_sag)

ENVELOPE_SEEDS = 40
ENVELOPE_STEPS = 50_000
ENVELOPE_CADENCE = 100


def _verdict(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def envelope():
    """Shared strongly convex 2-class logistic problem (N=200, p=5, lam=0.1)."""
    return make_envelope_problem()


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = {}
    X = rng.normal(size=(10, 4))
    labels = np.array([0, 1] * 5)
    ds = ssag.Dataset.from_class_labels(X, labels)
    objectives = {
        "ridge": (ssag.RidgeRegression(
            ssag.Dataset.regression(X, rng.normal(size=10)), lam=0.2), 1e-6),
        "logistic": (ssag.LogisticRegression(ds, lam=0.2), 1e-6),
        "mlp-4-2-2": (ssag.Mlp(ds, hidden=(2,), lam=0.05), 1e-4),
    }
    for name, (obj, tol) in objectives.items():
        errs = []
        for _ in range(100):
            W = (obj.init_params(seed=int(rng.integers(1 << 30)))
                 if name.startswith("mlp") else rng.normal(size=obj.dim))
            i = int(rng.integers(obj.dataset.n_samples))
            numeric = central_diff_grad(lambda v: obj.loss_sample(v, i), W)
            errs.append(grad_rel_error(obj.grad_sample(W, i), numeric))
        worst[name] = (max(errs), tol)
    elapsed = time.perf_counter() - t0
    ok = all(err <= tol for err, tol in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k} max rel err {e:.2e} (tol {t})" for k, (e, t) in worst.items())
    _verdict("criterion-1 gradient correctness", ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_2_sampling_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    datasets = []
    for N, p, kind in [(2, 1, "quadratic"), (4, 2, "ridge"), (5, 3, "quadratic"),
                       (6, 2, "logistic"), (7, 3, "ridge"), (8, 2, "logistic")]:
        X = rng.normal(size=(N, p))
        if kind == "logistic":
            labels = np.arange(N) % 2
            obj = ssag.LogisticRegression(
                ssag.Dataset.from_class_labels(X, labels), lam=0.1)
        elif kind == "ridge":
            obj = ssag.RidgeRegression(
                ssag.Dataset.regression(X, rng.normal(size=N)), lam=0.1)
        else:
            obj = ssag.MeanQuadratic(ssag.Dataset.regression(X, np.zeros(N)))
        datasets.append(obj)
    worst_mean, worst_var = 0.0, 0.0
    checks = 0
    for obj in datasets:
        N = obj.dataset.n_samples
        W = rng.normal(size=obj.dim)
        stats = ssag.gradient_population_stats(obj, W)
        full = obj.grad_full(W)
        for n in range(1, N + 1):
            mean, var = enumeration_mean_and_variance(obj, W, n)
            mean_err = float(np.linalg.norm(mean - full)
                             / max(1.0, np.linalg.norm(full)))
            expected = ssag.finite_population_variance(
                stats.population_variance, n / N, n)
            var_err = abs(var - expected) / max(1.0, abs(expected))
            worst_mean = max(worst_mean, mean_err)
            worst_var = max(worst_var, var_err)
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-12 and worst_var <= 1e-12 and elapsed < 30.0
    _verdict("criterion-2 sampling identities", ok,
             f"{checks} exhaustive (dataset, n) checks; mean err {worst_mean:.2e}, "
             f"variance err {worst_var:.2e} (tol 1e-12); {elapsed:.1f}s")


def test_criterion_3_theorem2_envelope(envelope):
    obj, const, w_star = envelope
    t0 = time.perf_counter()
    cfg = RunConfig(kind="ssag", steps=ENVELOPE_STEPS, cadence=ENVELOPE_CADENCE,
                    n=1)  # h defaults to 1/(2CL)
    records = ssag.run_seeds(cfg, obj, range(ENVELOPE_SEEDS), constants=const, w_star=w_star)
    agg = ssag.aggregate(records)
    inp = ssag.theorem2_inputs_for(obj, n=1, w0=np.zeros(obj.dim),
                                   constants=const, w_star=w_star)
    bounds = np.array([ssag.theorem2_bound(int(k), inp) for k in agg.k])
    report = ssag.check_envelope(agg.k, agg.mean["dist_sq"], bounds,
                                 n_seeds=agg.n_seeds, slack=0.05)
    elapsed = time.perf_counter() - t0
    ok = (report.pass_fraction >= 0.99 and agg.n_seeds == ENVELOPE_SEEDS
          and elapsed < 120.0)
    _verdict("criterion-3 theorem-2 envelope", ok,
             f"h = 1/(2CL), {agg.n_seeds} seeds, {ENVELOPE_STEPS} steps, "
             f"{report.summary()}; {elapsed:.1f}s (budget 120s)")


def test_criterion_4_theorem1_behavior(envelope):
    obj, const, w_star = envelope
    t0 = time.perf_counter()
    j_star = obj.loss_full(w_star)
    N = obj.dataset.n_samples
    h_sgd = 1.0 / (2.0 * const.L)
    cfg = RunConfig(kind="sgd", steps=ENVELOPE_STEPS, h=h_sgd, cadence=ENVELOPE_CADENCE,
                    record_variance=True)
    records = ssag.run_seeds(cfg, obj, range(ENVELOPE_SEEDS), constants=const, w_star=w_star)
    agg = ssag.aggregate(records)
    gaps = agg.mean["loss"] - j_star
    tail = slice(int(0.9 * agg.k.size), None)
    plateau_gap = float(np.mean(gaps[tail]))
    sigma_plateau = float(np.mean(agg.mean["sigma_sq"][tail]))
    lam = ssag.cvi_lambda(CviInputs(h=h_sgd, L=const.L, mu=const.mu,
                                    f=1.0 / N, n=1, sigma_sq=sigma_plateau))
    sgd_ok = plateau_gap <= lam * 1.10

    # full-gradient case: f = 1 makes the floor exactly zero and the gap
    # must decay below 1e-10
    lam_fgd = ssag.cvi_lambda(CviInputs(h=1.0 / const.L, L=const.L, mu=const.mu,
                                        f=1.0, n=N, sigma_sq=sigma_plateau))
    cfg = RunConfig(kind="fgd", steps=30_000, h=1.0 / const.L, cadence=30_000)
    fgd_gap = float(ssag.run(cfg, obj, constants=const).loss[-1] - j_star)
    fgd_ok = lam_fgd == 0.0 and fgd_gap < 1e-10
    elapsed = time.perf_counter() - t0
    ok = sgd_ok and fgd_ok and elapsed < 120.0
    _verdict("criterion-4 theorem-1 behavior", ok,
             f"sgd plateau {plateau_gap:.3e} <= 1.10 * lambda {lam:.3e}; "
             f"fgd lambda {lam_fgd} with final gap {fgd_gap:.2e} < 1e-10; "
             f"{elapsed:.1f}s (budget 120s)")


def test_criterion_5_ssag_sag_paired_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 4))
    ds = ssag.Dataset.from_class_labels(X, np.arange(50))  # C = N = 50
    obj = ssag.MeanQuadratic(ds)
    h = 0.5
    state = make_state(RunConfig(kind="ssag", steps=0, h=h, n=1), obj)
    strata, indices = RngStream(123).take(ds, 1, 10_000)
    worst = 0.0
    for j, idx, W_sag in zip(strata.tolist(), indices, reference_sag(obj, h, seed=123)):
        ssag_step(state, obj, j, idx)
        worst = max(worst, float(np.max(np.abs(state.W - W_sag))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict("criterion-5 paired-trajectory oracle", ok,
             f"C = N = 50, shared index stream, max per-step deviation "
             f"{worst:.2e} over 10000 steps (tol 1e-12); {elapsed:.1f}s")


def test_criterion_6_batch_size_independence(envelope):
    obj, const, w_star = envelope
    t0 = time.perf_counter()
    slopes = {}
    for n in (1, 10):
        cfg = RunConfig(kind="ssag", steps=20_000, cadence=200, n=n)  # h defaults to 1/(2CL)
        records = ssag.run_seeds(cfg, obj, range(1000, 1020), constants=const, w_star=w_star)
        agg = ssag.aggregate(records)
        slopes[n] = ssag.fit_decay_rate(agg.k, agg.mean["dist_sq"],
                                        k_min=200, k_max=6000)
    rel_diff = abs(slopes[1] - slopes[10]) / abs(slopes[1])
    elapsed = time.perf_counter() - t0
    ok = rel_diff <= 0.15 and slopes[1] < 0.0 and slopes[10] < 0.0
    _verdict("criterion-6 batch-size independence", ok,
             f"fitted log-decay slopes n=1: {slopes[1]:.3e}, n=10: {slopes[10]:.3e}, "
             f"relative difference {rel_diff:.3f} (tol 0.15); {elapsed:.1f}s")


def test_criterion_7_rate_comparison_arithmetic():
    rate_ssag = ssag.ssag_rate(1.0, 1.0, 2)
    rate_sag = ssag.sag_rate(1.0, 1.0, 100)
    inp = ssag.Theorem2Inputs(mu=1.0, L=1.0, C=2, f=1e-15, n=1,
                              sigma_c_sq=np.array([2.0 / 9.0, 2.0 / 9.0]),
                              dist0_sq=0.0)  # bracket = 2.25 * 4/9 = 1
    est = ssag.ssag_complexity(1e-3, inp)
    ok = (rate_ssag == 0.9375 and rate_sag == 0.99875 and est.iterations == 108)
    _verdict("criterion-7 rate-comparison arithmetic", ok,
             f"stratified rate {rate_ssag}, per-sample rate {rate_sag}, "
             f"iterations to 1e-3 on unit bracket: {est.iterations}")


def _find_mnist() -> dict | None:
    roots = []
    if os.environ.get("SSAG_MNIST_DIR"):
        roots.append(Path(os.environ["SSAG_MNIST_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    for root in roots:
        found = {}
        for key, base in names.items():
            for candidate in (root / base, root / f"{base}.gz"):
                if candidate.exists():
                    found[key] = str(candidate)
                    break
        if len(found) == 4:
            return found
    return None


def test_criterion_8_mnist_reduced_reproduction():
    paths = _find_mnist()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found (checked $SSAG_MNIST_DIR and data/mnist/); "
            "this sandbox has no network access and no package mirror carries the "
            "dataset, so the reduced reproduction cannot run here. Supply the four "
            "IDX files to enable it.")
    t0 = time.perf_counter()
    full_train = ssag.read_idx(paths["train_images"], paths["train_labels"])
    assert full_train.n_samples == 60_000
    assert full_train.n_classes == 10
    assert full_train.n_features == 28 * 28
    train = ssag.read_idx(paths["train_images"], paths["train_labels"], limit=10_000)
    test = ssag.read_idx(paths["test_images"], paths["test_labels"])
    results = {}
    for kind in ("ssag", "sgd"):
        obj = ssag.Mlp(train, hidden=(120,))
        records = []
        steps = ssag.steps_for_passes(kind, 30, train.n_samples, n=1)
        for seed in (0, 1, 2):
            cfg = RunConfig(kind=kind, steps=steps, h=0.1, n=1, seed=seed,
                            cadence=train.n_samples)
            records.append(ssag.run(cfg, obj, test_dataset=test))
        results[kind] = ssag.aggregate(records)
    best_acc = float(np.nanmax(results["ssag"].mean["test_acc"]))
    final_loss_ssag = float(results["ssag"].mean["loss"][-1])
    final_loss_sgd = float(results["sgd"].mean["loss"][-1])
    elapsed = time.perf_counter() - t0
    ok = (best_acc >= 0.90 and final_loss_ssag <= final_loss_sgd
          and elapsed < 900.0)
    _verdict("criterion-8 mnist reduced reproduction", ok,
             f"784-120-10 network, 10k-image subset, h=0.1: best seed-mean test "
             f"accuracy {best_acc:.4f} (>= 0.90) within 30 passes; final training "
             f"loss {final_loss_ssag:.4f} (stratified) <= {final_loss_sgd:.4f} "
             f"(plain stochastic); {elapsed:.0f}s (budget 900s)")


def test_criterion_9_determinism_and_storage(tmp_path, envelope):
    doc = {
        "dataset": {"kind": "synthetic", "means": [[2.0, 0.0], [-2.0, 0.0]],
                    "counts": [20, 20], "stddev": 0.3, "seed": 4},
        "objective": {"kind": "logistic", "lam": 0.1},
        "optimizer": {"kind": "ssag", "h": "auto", "n": 1},
        "seeds": [1, 2], "steps": 300, "cadence": 50, "record_dist": True,
    }
    config = ExperimentConfig.from_dict(doc)
    texts = []
    for attempt in ("a", "b"):
        result = run_experiment(config)
        paths = emit_csv(result.records, tmp_path / attempt, "run")
        stripped = []
        for p in paths:
            rows = p.read_text().splitlines()
            stripped.append("\n".join(",".join(r.split(",")[:-1]) for r in rows))
        texts.append(stripped)
    identical = texts[0] == texts[1]

    obj, const, _ = envelope
    ssag_state = make_state(RunConfig(kind="ssag", steps=0, h=0.1), obj)
    sag_state = make_state(RunConfig(kind="sag", steps=0, h=0.1), obj)
    C, N = obj.dataset.n_classes, obj.dataset.n_samples
    storage_ok = (ssag_state.table.shape == (C, obj.dim)
                  and sag_state.table.shape == (N, obj.dim) and C < N)
    ok = identical and storage_ok
    _verdict("criterion-9 determinism and storage", ok,
             f"repeated configs byte-identical modulo wall time: {identical}; "
             f"gradient table {C} class entries vs {N} sample entries")
