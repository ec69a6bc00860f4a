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
        "3b06cef3db263c0f989ed086dba25ee8c96af0b7dbd5832c4cd64c86d5363b06",
    ("logistic", "sgd"):
        "47d187808c25b2f8dfb1e5ebc9596048647e384c014e172a09b0e5442a2a2523",
    ("logistic", "minibatch"):
        "c3722f4f663a501bf3663ce14f13cc5a7c0ad293ca80cf16fb8aa08b831b2529",
    ("logistic", "sag"):
        "dde06d548f8520605b28f86429460eda2123a1f6bc20985e7d08b2a5accdf0df",
    ("logistic", "svrg"):
        "e871b0fd4de79f9a2db1a4587b7e6ed1902398afee8ee17d555c9c0bb24a41ea",
    ("logistic", "saga"):
        "6d466ad54aaf4e6c54adcde3a64f6228fd891326b8807e4852b327c84bb3e91e",
    ("logistic", "ssag"):
        "d6f48f104b91ec5de7cff4a0927ce9af0e1871f705bf1219c95a449a825707e7",
    ("logistic", "ssag n=2"):
        "c52d00fdae6f4f8cf0a0352464ed19f156eef38d105f7d6f7313e18e5427133d",
    ("logistic", "saga prox_l1"):
        "2becf9affa6a1513bb36db686344630dfa6a2df33a0b514a5c3680fd42efefba",
    ("logistic", "minibatch n=3"):
        "3d2391bbaa542a8bc0dd6ec35e6929a47f6c67f7b07e98abc5f4836f4052817c",
    ("ridge", "ssag"):
        "5918233ba6c109303cf7d656c4f43ebdcf5166268a074b6492fc1d14e452c433",
    ("ridge", "sgd h=0.05"):
        "16f3f202cb7a80e2e53a7d65e191f22a49868fd42dde125a19c219a9657dc9c6",
}

OPTIONS = {
    "ssag n=2": {"kind": "ssag", "n": 2},
    "saga prox_l1": {"kind": "saga", "prox_l1": 0.05},
    "minibatch n=3": {"kind": "minibatch", "n": 3},
    "sgd h=0.05": {"kind": "sgd", "h": 0.05},
}


def _problem(kind):
    """Three unequal Gaussian classes, N = 31, p = 4."""
    means = np.array([[1.5, -0.5, 0.2, 0.0], [-1.0, 1.0, 0.0, 0.5], [0.0, -1.5, 1.0, -0.5]])
    ds = ssag.gen_synthetic(ssag.SyntheticSpec(means=means, counts=(12, 10, 9),
                                               stddev=0.8, seed=3))
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
