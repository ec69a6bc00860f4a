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
        "02dc15bbfed7cc12623e4014e55672378cd5a42a38e7122438e9c7702e49851f",
    ("logistic", "sgd"):
        "4b9240a07e4f7fc6e65648c5e3ce3a143019bb80335c5bbadee9a60f3710c348",
    ("logistic", "minibatch"):
        "4f678ea5c56b3b70178eb6f30fce5ee96a3233d47aa9f690a9f9e974acd48a3b",
    ("logistic", "sag"):
        "244971080d92421c2bdeea6cccf1dfeebe8821f36623adb8dfa9157f567f7014",
    ("logistic", "svrg"):
        "656623894a93767dd29f74b4d55fd06b31e273c667b6327c885811db86e6a359",
    ("logistic", "saga"):
        "d5b1e84b7fca7d180fbb081500ec15a58f9f39aa682a77f1104992ece9615d45",
    ("logistic", "ssag"):
        "5669bcbf10c6752eb42909cbebd599a10ab3f716f82cc5a713508dfbbe81f528",
    ("logistic", "ssag n=2"):
        "3d602eeffbd77c9fd89201de88acd20fc0387153c8217237d72d21c6a8604ac7",
    ("logistic", "saga prox_l1"):
        "dd83c0e5ae2ea3b725955c37974039410a15b7f9ca90142ffd55cbc2e30e7cd7",
    ("logistic", "minibatch n=3"):
        "7ce0b0284a559a2f30cad59121970c59d1be76a978cdb020582a469f40d7bd96",
    ("ridge", "ssag"):
        "5918233ba6c109303cf7d656c4f43ebdcf5166268a074b6492fc1d14e452c433",
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
