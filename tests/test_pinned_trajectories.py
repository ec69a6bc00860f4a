"""Pinned trajectories: a speed change never changes a trajectory.

Each case runs a short seeded run on a small fixed problem and compares
`RunRecord.content_hash()` with a hash frozen from the first run.  The hash
covers exactly the seed, the divergence flag and every recorded column except
wall time, and no config identity: two cases that record the same bits (SGD
and mini-batch SGD at n = 1) share a pin.  A kernel or sampler rewrite that
changes a single bit of any recorded loss, distance, accuracy or variance
fails here.
"""

import numpy as np
import pytest

import ssag
from ssag.optimizers import SPECS, RunConfig, run

# (objective kind, run options) -> content hash; frozen from the first run
PINNED = {
    ("logistic", "fgd"):
        "633460c5be84f8988618daf8ff3c1628a5e193d35f98a5fcfa7823bdc3d277e5",
    ("logistic", "sgd"):
        "1d16b5b0e3784a471dcd80cdcfddd09e53bcc6c385786a6f09cdaf6f05b6c5f0",
    ("logistic", "minibatch"):
        "1d16b5b0e3784a471dcd80cdcfddd09e53bcc6c385786a6f09cdaf6f05b6c5f0",
    ("logistic", "sag"):
        "0451f6eea0149d4dfeed3f66cd923a7c7d0e1a8cdeb6db4ddf30762030729d2a",
    ("logistic", "svrg"):
        "cceddcbb4e7da58b398c5f4dec3ea9d263e80dbc7cc1d44d9ac049a0e211f178",
    ("logistic", "saga"):
        "1fccd32ba6bd4121eaaeceadd6f1126abb3b2965b6f31a074317c7b2bfa58655",
    ("logistic", "ssag"):
        "8576e1426b13d1fa8574985ae04dbb74ee06a59e95a815fcaf7e90a9eed64a78",
    ("logistic", "ssag n=2"):
        "5e5f472f8a4dde5ff1c25a28d8123e207402b0b62950e001dce8e206d12df3b6",
    ("logistic", "saga prox_l1"):
        "01a477053837ad7ed6e7d222f5d0a30893ebaa677307e4f85af54ccc2dae0b6b",
    ("logistic", "minibatch n=3"):
        "1f7ef2f1a030dccd9dbedc48d7457863cef28a1b897e73646076be61aaff3768",
    ("ridge", "ssag"):
        "5ae107167feb937892cce325e8a7c1b71bbf9536bbf08d7af7ce2ddc9e0f4d7d",
    ("ridge", "sgd h=0.05"):
        "2eb0edd47927b33ccde3e363a64f45902621676e08c973c23c547df84f579d23",
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


@pytest.mark.parametrize("label", list(PINNED_MLP))
def test_mlp_trajectory_hash_is_pinned(label):
    # the MLP has no certified constants: an explicit h, no W*, and its
    # parameter layout and initial draws enter every recorded column
    obj = _problem("mlp", hidden=[5])
    config = RunConfig(kind=label, h=0.1, steps=600, seed=17, cadence=50, record_variance=True)
    record = run(config, obj, test_dataset=obj.dataset)
    assert not record.diverged
    assert record.content_hash() == PINNED_MLP[label]
