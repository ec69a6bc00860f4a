"""Trajectory records produced by optimizer runs and their aggregates."""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

#: Every record column and its dtype, in `RunRecord.from_rows` row order.  The
#: per-run CSV holds all but sigma_sq (population gradient variance), the
#: content hash all but wall_ms, and `aggregate` averages all but the step grid.
COLUMNS = {"k": np.int64, "passes": np.float64, "loss": np.float64, "test_acc": np.float64,
           "dist_sq": np.float64, "grad_evals": np.int64, "wall_ms": np.float64,
           "sigma_sq": np.float64}
CSV_COLUMNS = tuple(name for name in COLUMNS if name != "sigma_sq")
AGGREGATED = tuple(name for name in COLUMNS if name not in ("k", "passes", "grad_evals"))
#: The deterministic aggregated metrics (a summary CSV's), and those of them
#: a per-run CSV holds (the metrics compare and plot can draw).
SUMMARY_METRICS = tuple(name for name in AGGREGATED if name != "wall_ms")
CSV_METRICS = tuple(name for name in SUMMARY_METRICS if name in CSV_COLUMNS)


@dataclass(eq=False)
class RunRecord:
    """Per-iteration trajectory of one optimizer run.

    All metric arrays are aligned with ``k`` (the recorded step indices,
    strictly increasing, starting at 0).  Metrics that were not recorded are
    NaN.  ``grad_evals`` is the kind's `OptimizerSpec.evals` at each k, and
    ``passes`` is grad_evals / N exactly.
    """

    k: np.ndarray
    passes: np.ndarray
    loss: np.ndarray
    test_acc: np.ndarray
    dist_sq: np.ndarray
    grad_evals: np.ndarray
    wall_ms: np.ndarray
    sigma_sq: np.ndarray
    seed: int
    diverged: bool = False

    def __post_init__(self):
        if np.any(np.diff(self.k) <= 0):
            raise ValueError("recorded step indices must be strictly increasing")

    @classmethod
    def from_rows(cls, rows: list[tuple], **fields) -> "RunRecord":
        """A record from rows holding a value per `COLUMNS` entry, in that order;
        ``fields`` are the remaining fields (seed, diverged)."""
        cols = zip(*rows) if rows else [()] * len(COLUMNS)
        return cls(**{name: np.array(col, dtype=dtype)
                      for (name, dtype), col in zip(COLUMNS.items(), cols)}, **fields)

    def __len__(self) -> int:
        return self.k.size

    def content_hash(self) -> str:
        """Hash of the seed, the divergence flag and every column but wall time:
        no config identity, so runs that record the same bits hash equal."""
        h = hashlib.sha256()
        h.update(f"seed={self.seed};diverged={self.diverged}".encode())
        for name in COLUMNS:
            if name != "wall_ms":
                h.update(name.encode())
                h.update(np.ascontiguousarray(getattr(self, name), dtype=np.float64).tobytes())
        return h.hexdigest()


def _nan_mean_std(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean/std ignoring NaN; all-NaN columns stay NaN (no warning)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(stack, axis=0)
        std = (np.nanstd(stack, axis=0, ddof=1) if stack.shape[0] > 1
               else np.where(np.isnan(mean), np.nan, 0.0))
    return mean, std


@dataclass(eq=False)
class Aggregate:
    """Seed-mean and seed-stddev of every metric, aligned on the k grid."""

    k: np.ndarray
    passes: np.ndarray
    n_seeds: int
    n_diverged: int
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)


def aggregate(records: list[RunRecord]) -> Aggregate:
    """Combine per-seed records; diverged runs are dropped with a warning."""
    survivors = [r for r in records if not r.diverged]
    n_diverged = len(records) - len(survivors)
    if n_diverged:
        warnings.warn(f"{n_diverged} of {len(records)} runs diverged; "
                      "aggregating over the survivors", RuntimeWarning)
    if not survivors:
        raise ValueError("no surviving runs to aggregate")
    base = survivors[0].k
    for r in survivors[1:]:
        if not np.array_equal(r.k, base):
            raise ValueError("records have mismatched step grids and cannot be aggregated")
    agg = Aggregate(k=base.copy(), passes=survivors[0].passes.copy(),
                    n_seeds=len(survivors), n_diverged=n_diverged)
    for name in AGGREGATED:
        stack = np.vstack([getattr(r, name) for r in survivors])
        agg.mean[name], agg.std[name] = _nan_mean_std(stack)
    return agg
