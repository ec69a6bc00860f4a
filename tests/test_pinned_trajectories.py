"""Pinned trajectories: a speed change never changes a trajectory.

Each case runs a short seeded run on a small fixed problem and compares
`RunRecord.content_hash()` (every recorded column except wall time) with a
hash frozen from the first run.  A kernel or sampler rewrite that changes a
single bit of any recorded loss, distance, accuracy or variance fails here.
"""

import numpy as np
import pytest

import ssag
from ssag.optimizers import SPECS, RunConfig, run

# (objective kind, run options) -> content hash; frozen from the first run
PINNED = {
    ("logistic", "fgd"):
        "a47bc9bb3a9b74792b99eab4a73107944a6ec4340147b1f2bbb1847f927ac77d",
    ("logistic", "sgd"):
        "daa269e59ffc1e6bee8a9056df57eb5911338452cbafd223bdcec5ba3f56632d",
    ("logistic", "minibatch"):
        "9fcd106265731d42ef8048d95e1f0e1aad37b9a6127583172477f85e434764de",
    ("logistic", "sag"):
        "10281eecc23120e194addb4f667319344d989db139f64dd895b9aae039c9ba1f",
    ("logistic", "svrg"):
        "1bb6e0cd197ffe98f5f22750dbb674ee03d0b8b6a0acb77d3d61ece1ce79f04e",
    ("logistic", "saga"):
        "6a715ae184864dce9ab2a980bc838f74da85529fd27fda3edd75428d4e9b7799",
    ("logistic", "ssag"):
        "45adec4d788c711241162e1d13721f67f11e2a2ec052163c744eec307ca22720",
    ("logistic", "ssag n=2"):
        "d36ee2d82a95f1ab9d8a1427eebfec08e0ead57b96d351a0f24cc2f2472b65c4",
    ("logistic", "saga prox_l1"):
        "ff251b6085db3a15fc517bb1f6fdd9be3833756116550becd913a20656abb116",
    ("logistic", "minibatch n=3"):
        "919277ca30549628d8659bf5a3cff0419e8dfaf487901c016b6ddff471237452",
    ("ridge", "ssag"):
        "e5c3e7e7a227c4a2abf971c780b96aa08552deb72206efc7b076e27a4a78acaf",
    ("ridge", "sgd h=0.05"):
        "16f3f202cb7a80e2e53a7d65e191f22a49868fd42dde125a19c219a9657dc9c6",
}

# optimizer kind -> content hash of a one-hidden-layer MLP run; frozen from
# the first run
PINNED_MLP = {
    "ssag": "53f7b8e74a097f71244e9c61e8394ba6ecc424c0e09040927ed430900fba8872",
    "sgd": "692051ae9294033e71aba4c01ee2d451c14b4956dcb0782bc5fec404c16ec042",
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


@pytest.mark.parametrize("label", list(PINNED_MLP))
def test_mlp_trajectory_hash_is_pinned(label):
    # the MLP has no certified constants: an explicit h, no W*, and its
    # parameter layout and initial draws enter every recorded column
    obj = _problem("mlp", hidden=[5])
    config = RunConfig(kind=label, h=0.1, steps=600, seed=17, cadence=50, record_variance=True)
    record = run(config, obj, test_dataset=obj.dataset)
    assert not record.diverged
    assert record.content_hash() == PINNED_MLP[label]
