"""Pinned trajectories: a speed change never changes a trajectory.

Each case runs a short seeded run on a small fixed problem and compares
`RunRecord.content_hash()` with a hash frozen from the first run.  The hash
covers exactly the seed, the divergence flag and every recorded column except
wall time, and no config identity: two cases that record the same bits (SGD
and mini-batch SGD at n = 1) share a pin.  A kernel or sampler rewrite that
changes a single bit of any recorded loss, distance, accuracy or variance
fails here.
"""

import types

import numpy as np
import pytest
from scipy.special import expit

import ssag
from ssag.core import SHORT_ROW
from ssag.optimizers import SPECS, RunConfig, run

# (objective kind, run options) -> content hash; frozen from the first run
PINNED = {
    ("logistic", "fgd"):
        "0bd698013196821bc2eeaabe32f903b4599a5c35702356c63ee499d44fc1ece3",
    ("logistic", "sgd"):
        "9e91b95b37059db4e9a3eb51f42a7506d8b8201c683f6ef4176cc7f570df0d06",
    ("logistic", "minibatch"):
        "9e91b95b37059db4e9a3eb51f42a7506d8b8201c683f6ef4176cc7f570df0d06",
    ("logistic", "sag"):
        "cea1352393f64d27aab916364e0f6d2f17bc9c68c227ade4313d03e8cf9bc109",
    ("logistic", "svrg"):
        "e4e30dd8dae4f46faf55f468dee6a2866db69fa494b93675707e7faf30c502a5",
    ("logistic", "saga"):
        "2291601eba85278dfca5e171b3cc86e24096f59a9818ae35930f2334596ad10c",
    ("logistic", "ssag"):
        "de4dd9415154b141ae0b728213a86578407c104721214e5b824894eeeb844fca",
    ("logistic", "ssag n=2"):
        "32fd1ddb55d5ece6fa6806ae3a320c03f7f89be66b43257931fc2d3c78c7573e",
    ("logistic", "saga prox_l1"):
        "60ac7942d0fb50f9551f0dfd9a707d4453db54f77ed303a15717d1fa359a59d0",
    ("logistic", "minibatch n=3"):
        "c5858c6a4d625ac576633f90b3b5a581df7319c9f8659a2eb528958f752d36ab",
    ("ridge", "ssag"):
        "e5ded78f017a1f7498cc7f4971532c9b93a7a4f12a95bc02f81bfb64d5dbbea2",
    ("ridge", "sgd h=0.05"):
        "4a713e2e6e066a0d933b29b8e01c1589de714ef86f8929ed6ae643aa557b4c56",
}

# optimizer kind -> content hash of a one-hidden-layer MLP run; frozen from
# the first run
PINNED_MLP = {
    "ssag": "49aa23752dd3ea26f697f466209bce7f1af16f971d5ac9ab923b6c960bbf966e",
    "sgd": "6010b8bf9a204d562107b492ecd7fc7d43e9762df2f60bb0a56328346cee0abc",
}

# (objective kind, run options) -> content hash of a run on the p = 12
# problem, whose rows take the numpy one-row kernel and whose iterates take
# the finite guard's mask; frozen from the first run
PINNED_LONG = {
    ("logistic", "fgd"):
        "c3a0286a479f57a5ca906b8754e27851290c7a871919ae9d17e421d83bc72e75",
    ("logistic", "sgd"):
        "993743b5b29ac5c6b1e2e13d4ac991ca314891ef9715e8d6a0e4a4f1a3c9236f",
    ("logistic", "minibatch"):
        "993743b5b29ac5c6b1e2e13d4ac991ca314891ef9715e8d6a0e4a4f1a3c9236f",
    ("logistic", "sag"):
        "aa04b5a9a5fda6e7a1d3cff542d56f096026e854281a8b92aa69ce86ba37f2b6",
    ("logistic", "svrg"):
        "9c7e8b57bf3ae28e89a2ab0f9dfb6c833877ca3bc59e2320c896133c31ac02fc",
    ("logistic", "saga"):
        "bc286ca5313501bdd357944548719e06f870e2cca3c395e25dee914016314ddd",
    ("logistic", "ssag"):
        "630510627a024883ba6a08dcad1673f1a12170b745a16967e6ff4f9d0fa505b2",
    ("logistic", "ssag n=2"):
        "80a41665e449fbaca01c6ba41b88a172ce91c955c27191c6b2f9aaff7cf7b96c",
    ("logistic", "saga prox_l1"):
        "31361023671716bed0a58e1597e7d85692fe491a27bc8d839ae03fe908e7bcd5",
    ("logistic", "minibatch n=3"):
        "f3b82163e3d796441e017055b78af265593e99e46523471b6a9bf54da50c243f",
    ("ridge", "ssag"):
        "d5f33b49459b8bb1670e2c3ed59d14c63fe747f448329798ebb4698bb84b1f34",
}

OPTIONS = {
    "ssag n=2": {"kind": "ssag", "n": 2},
    "saga prox_l1": {"kind": "saga", "prox_l1": 0.05},
    "minibatch n=3": {"kind": "minibatch", "n": 3},
    "sgd h=0.05": {"kind": "sgd", "h": 0.05},
}


def _problem(kind, **spec):
    """Three unequal Gaussian classes, N = 31, p = 4."""
    means = np.array([[1.5, -0.5, 0.2, 0.0], [-1.0, 1.0, 0.0, 0.5], [0.0, -1.5, 1.0, -0.5]])
    ds = ssag.gen_synthetic(ssag.SyntheticSpec(means=means, counts=(12, 10, 9),
                                               stddev=0.8, seed=3))
    if kind == "logistic":
        ds = ssag.Dataset(ds.features, (ds.labels == 0).astype(np.int64), ds.partition)
    return ssag.make_objective({"kind": kind, "lam": 0.1, **spec}, ds)


def _long_problem(kind):
    """Three unequal Gaussian classes, N = 31, p = 12: rows of at least
    `core.SHORT_ROW` features."""
    means = np.array([
        [1.5, -0.5, 0.2, 0.0, 0.8, -1.2, 0.3, 0.6, -0.4, 1.0, 0.1, -0.7],
        [-1.0, 1.0, 0.0, 0.5, -0.6, 0.9, -1.1, 0.2, 0.7, -0.3, 0.4, 1.2],
        [0.0, -1.5, 1.0, -0.5, 0.3, 0.4, 0.9, -1.3, -0.2, -0.8, 1.1, 0.0]])
    ds = ssag.gen_synthetic(ssag.SyntheticSpec(means=means, counts=(12, 10, 9),
                                               stddev=0.8, seed=5))
    if kind == "logistic":
        ds = ssag.Dataset(ds.features, (ds.labels == 0).astype(np.int64), ds.partition)
    return ssag.make_objective({"kind": kind, "lam": 0.1}, ds)


def test_every_kind_is_pinned():
    assert {label for _, label in PINNED if label in SPECS} == set(SPECS)


@pytest.mark.parametrize("obj_kind,label", list(PINNED))
def test_trajectory_hash_is_pinned(obj_kind, label):
    obj = _problem(obj_kind)
    options = OPTIONS.get(label, {"kind": label})
    constants = ssag.estimate_constants(obj)
    config = RunConfig(steps=600, seed=17, cadence=50, record_variance=True, **options)
    record = run(config, obj, constants=constants,
                 w_star=ssag.reference_optimum(obj, constants=constants),
                 test_dataset=obj.dataset if obj_kind == "logistic" else None)
    assert not record.diverged
    assert record.content_hash() == PINNED[(obj_kind, label)]


def test_every_kind_is_pinned_on_long_rows():
    assert {label for _, label in PINNED_LONG if label in SPECS} == set(SPECS)


@pytest.mark.parametrize("obj_kind,label", list(PINNED_LONG))
def test_long_row_trajectory_hash_is_pinned(obj_kind, label):
    obj = _long_problem(obj_kind)
    assert obj.dim >= SHORT_ROW
    constants = ssag.estimate_constants(obj)
    config = RunConfig(steps=600, seed=17, cadence=50, record_variance=True,
                       **OPTIONS.get(label, {"kind": label}))
    record = run(config, obj, constants=constants,
                 w_star=ssag.reference_optimum(obj, constants=constants),
                 test_dataset=obj.dataset if obj_kind == "logistic" else None)
    assert not record.diverged
    assert record.content_hash() == PINNED_LONG[(obj_kind, label)]


@pytest.mark.parametrize("obj_kind", ["ridge", "logistic"])
def test_variance_kernel_moves_only_sigma_sq(monkeypatch, obj_kind):
    # a linear model's residual kernel against the default, which reduces
    # grad_samples: the same trajectory, sigma_sq within rounding
    obj = _problem(obj_kind)
    config = RunConfig(kind="ssag", steps=600, seed=17, cadence=50, record_variance=True)
    residual = run(config, obj)
    monkeypatch.setattr(obj, "population_variance",
                        types.MethodType(ssag.Objective.population_variance, obj))
    default = run(config, obj)
    for column in ("k", "passes", "loss", "test_acc", "dist_sq", "grad_evals"):
        assert getattr(residual, column).tobytes() == getattr(default, column).tobytes()
    assert residual.sigma_sq == pytest.approx(default.sigma_sq, rel=1e-14, abs=0.0)


def _pinned_record(obj_kind, label):
    if obj_kind == "mlp":
        obj = _problem("mlp", hidden=[5])
        config = RunConfig(kind=label, h=0.1, steps=600, seed=17, cadence=50,
                           record_variance=True)
        return run(config, obj, test_dataset=obj.dataset)
    obj = _problem(obj_kind)
    constants = ssag.estimate_constants(obj)
    config = RunConfig(steps=600, seed=17, cadence=50, record_variance=True,
                       **OPTIONS.get(label, {"kind": label}))
    return run(config, obj, constants=constants,
               w_star=ssag.reference_optimum(obj, constants=constants),
               test_dataset=obj.dataset)


@pytest.mark.parametrize("obj_kind,label", [key for key in PINNED if key[0] == "logistic"]
                         + [("mlp", label) for label in PINNED_MLP])
def test_sigmoid_moves_columns_only_within_rounding(monkeypatch, obj_kind, label):
    # numpy's sigmoid against scipy's expit in every place the package takes
    # the link (residuals, Hessian and so W*, class scores, MLP hidden
    # layers): the same steps and accuracies, loss and sigma_sq within
    # rounding, and the distance to W* within rounding of the distance
    ours = _pinned_record(obj_kind, label)
    monkeypatch.setattr(ssag.objectives, "sigmoid", expit)
    monkeypatch.setattr(ssag.LogisticRegression, "_link", staticmethod(expit))
    theirs = _pinned_record(obj_kind, label)
    for column in ("k", "passes", "grad_evals", "test_acc"):
        assert getattr(ours, column).tobytes() == getattr(theirs, column).tobytes()
    for column in ("loss", "sigma_sq"):
        assert getattr(ours, column) == pytest.approx(getattr(theirs, column), rel=1e-14, abs=0.0)
    if obj_kind == "logistic":
        np.testing.assert_allclose(np.sqrt(ours.dist_sq), np.sqrt(theirs.dist_sq),
                                   rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("label", list(PINNED_MLP))
def test_mlp_trajectory_hash_is_pinned(label):
    # the MLP has no certified constants: an explicit h, no W*, and its
    # parameter layout and initial draws enter every recorded column
    obj = _problem("mlp", hidden=[5])
    config = RunConfig(kind=label, h=0.1, steps=600, seed=17, cadence=50, record_variance=True)
    record = run(config, obj, test_dataset=obj.dataset)
    assert not record.diverged
    assert record.content_hash() == PINNED_MLP[label]
