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

import ssag
from ssag.optimizers import SPECS, RunConfig, run

# (objective kind, run options) -> content hash; frozen from the first run
PINNED = {
    ("logistic", "fgd"):
        "ce857dade5f31bd18df3d25f8c295c206881a37c05ef62a15de403afd4700ee6",
    ("logistic", "sgd"):
        "e567ed803fc3dd49cba8a9e891ea1fd08acc15a5cc6c71af10ffcb2a1360a872",
    ("logistic", "minibatch"):
        "e567ed803fc3dd49cba8a9e891ea1fd08acc15a5cc6c71af10ffcb2a1360a872",
    ("logistic", "sag"):
        "33e79bc7c9001ad68fc5734a378a6f61fbd52ebd250da302d7f42a636feca995",
    ("logistic", "svrg"):
        "64c52ebc9a04529a04a458bbf58f219c168855be05bc04c412d63f5aa111e518",
    ("logistic", "saga"):
        "17589642c0d81f9a5047deb5fd4fc0de03bb53533c9b1edfa86379b438a6c4d6",
    ("logistic", "ssag"):
        "03fdc77dea6912aba79918cf7ef5e49291f03be62b9b6daf19a4ab268cec5837",
    ("logistic", "ssag n=2"):
        "0c2a1ff9f96bb4bdd010dd6d9b603d58eec297207312476b1597af25d0fa170b",
    ("logistic", "saga prox_l1"):
        "8923918bb7dfdea28914bc7c94a01f525eeee83841ea826a4a0fc726c700d9af",
    ("logistic", "minibatch n=3"):
        "3932560e9705947c89c6c1d761aedb14c1ea33c4e23a497b0a7ca2461fed1665",
    ("ridge", "ssag"):
        "a0b72a833f29546f5f7c2ad2b68a93ea912e3094eebf52ffdf1a36e2c34389e3",
    ("ridge", "sgd h=0.05"):
        "37c67d0c83b48895029f0171f4f627215c95af9e0ff484b8a79db7f906252d8d",
}

# optimizer kind -> content hash of a one-hidden-layer MLP run; frozen from
# the first run
PINNED_MLP = {
    "ssag": "0fc60c94a98f9d411dbd11b6c0b4c3a7e9cd05cfbf80f5796155ce3786ff24ab",
    "sgd": "64af08cfd0e9a151512975e0e7a44c195e919d4c6fa010acd0bffdbbf584466b",
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


@pytest.mark.parametrize("label", list(PINNED_MLP))
def test_mlp_trajectory_hash_is_pinned(label):
    # the MLP has no certified constants: an explicit h, no W*, and its
    # parameter layout and initial draws enter every recorded column
    obj = _problem("mlp", hidden=[5])
    config = RunConfig(kind=label, h=0.1, steps=600, seed=17, cadence=50, record_variance=True)
    record = run(config, obj, test_dataset=obj.dataset)
    assert not record.diverged
    assert record.content_hash() == PINNED_MLP[label]
