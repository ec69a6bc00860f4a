"""Seed aggregates of hand-made records."""

import warnings

import numpy as np
import pytest

import ssag
from ssag.records import AGGREGATED, COLUMNS

NAN, INF = np.nan, np.inf


def _masked_mean_std(stack):
    """The reference: NaN-ignoring moments taken over the columns that hold a
    value, NaN elsewhere, and a std of 0.0 for one seed."""
    mean = np.full(stack.shape[1], np.nan)
    std = np.full(stack.shape[1], np.nan)
    ok = np.sum(~np.isnan(stack), axis=0) > 0
    if np.any(ok):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean[ok] = np.nanmean(stack[:, ok], axis=0)
            std[ok] = np.nanstd(stack[:, ok], axis=0, ddof=1) if stack.shape[0] > 1 else 0.0
    return mean, std


def _record(seed, **metrics):
    """A record on k = 0..3 with the given metric columns, NaN elsewhere."""
    columns = {"k": np.arange(4), "passes": np.arange(4) / 2.0, "grad_evals": np.arange(4)}
    columns.update({name: np.array(metrics.get(name, [NAN] * 4), dtype=np.float64)
                    for name in COLUMNS if name not in columns})
    return ssag.RunRecord(**columns, seed=seed)


#: Per seed: loss is always recorded, test_acc never, dist_sq in some seeds
#: (its last column in one seed only, so a std of NaN), sigma_sq holds an
#: infinity, wall_ms negative values.
SEEDS = [
    {"loss": [1.0, 0.5, -0.25, 3.0], "dist_sq": [4.0, NAN, NAN, NAN],
     "sigma_sq": [1.0, INF, 2.0, 0.0], "wall_ms": [-1.0, -2.0, -3.0, -4.0]},
    {"loss": [2.0, 0.75, -0.5, 1e300], "dist_sq": [3.0, 1.0, NAN, NAN],
     "sigma_sq": [1.5, 1.0, 2.0, 0.0], "wall_ms": [-1.5, -2.5, -3.5, -4.5]},
    {"loss": [0.0, 0.25, -0.75, -1e300], "dist_sq": [2.0, 2.0, 5.0, NAN],
     "sigma_sq": [0.5, 1.0, NAN, 0.0], "wall_ms": [-2.0, -3.0, -4.0, -5.0]},
]


def _bits(values):
    """The bytes of ``values`` with every NaN as np.nan: a NaN's sign and
    payload depend on the operation that made it (0/0 sets the sign on x86)
    and no record, CSV or check reads them."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


@pytest.mark.parametrize("n_seeds", [1, 2, 3])
def test_aggregate_matches_the_masked_reference(n_seeds):
    records = [_record(seed, **metrics) for seed, metrics in enumerate(SEEDS[:n_seeds])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        agg = ssag.aggregate(records)
    assert agg.n_seeds == n_seeds and agg.n_diverged == 0
    for name in AGGREGATED:
        want_mean, want_std = _masked_mean_std(np.vstack([getattr(r, name) for r in records]))
        assert _bits(agg.mean[name]) == _bits(want_mean), name
        assert _bits(agg.std[name]) == _bits(want_std), name
    assert np.isnan(agg.mean["test_acc"]).all() and np.isnan(agg.std["test_acc"]).all()


def test_one_seed_std_is_positive_zero_where_the_mean_is_finite():
    # a negative mean times 0.0 would give -0.0
    agg = ssag.aggregate([_record(0, **SEEDS[0])])
    for name in AGGREGATED:
        mean, std = agg.mean[name], agg.std[name]
        assert np.array_equal(np.isnan(std), np.isnan(mean)), name
        assert std[~np.isnan(mean)].tobytes() == np.zeros(np.sum(~np.isnan(mean))).tobytes()
