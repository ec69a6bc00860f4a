"""The benchmark workloads.

A workload makes its inputs from the workload seed, then drives the public
ssag API in three phases: set-up (inputs, objective, constants, reference
optimum), the optimizer runs, and analysis with artifacts.  It ends with its
own correctness check.  Every call goes through a module attribute
(`ssag.run`, `ssag.bench.emit_csv`, ...) so that a tracer installed by
`spans.py` sees it.
"""

from __future__ import annotations

import gzip
import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ssag
import ssag.bench
from ssag.optimizers import RunConfig


@dataclass
class Rep:
    """One execution of a workload, from the start of set-up to a checked result."""

    setup_s: float
    run_s: float      # wall time of all optimizer runs
    analysis_s: float
    steps: int        # optimizer steps completed across all runs
    attempted: int    # seed runs attempted
    failed: int       # seed runs that diverged, raised, or failed the check
    digest: str       # hash over every record's content hash
    checks: dict = field(default_factory=dict)  # check name -> passed
    info: dict = field(default_factory=dict)    # figures the checks looked at

    @property
    def total_s(self) -> float:
        return self.setup_s + self.run_s + self.analysis_s


def _records_digest(records) -> str:
    h = hashlib.sha256()
    for label, rec in records:
        h.update(f"{label}:{rec.content_hash() if rec is not None else 'error'};".encode())
    return h.hexdigest()


def _run_all(configs, obj, probe, **kwargs):
    """Run each (label, RunConfig); a run that raises is kept as (label, None).

    Returns the records and the wall time of the runs, which leaves out the
    probe called before each run.
    """
    records, run_s = [], 0.0
    for label, config in configs:
        probe()
        t0 = perf_counter()
        try:
            rec = ssag.run(config, obj, **kwargs)
        except Exception:  # a failed seed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            rec = None
        run_s += perf_counter() - t0
        records.append((label, rec))
    return records, run_s


def _steps(records) -> int:
    return sum(int(rec.k[-1]) for _, rec in records if rec is not None and len(rec))


class Workload:
    """Base class: sizes, the three phases, and the check."""

    name: str
    sizes: dict = {}
    tiny_sizes: dict = {}

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = int(seed)
        self.size = {**self.sizes, **(self.tiny_sizes if tiny else {})}
        self.out_dir = out_dir

    def setup(self) -> tuple[object, dict]:
        """The objective, and the keyword arguments of every `ssag.run`."""
        raise NotImplementedError

    def configs(self, obj) -> list[tuple[str, RunConfig]]:
        raise NotImplementedError

    def analyse(self, obj, run_kwargs, records) -> tuple[dict, dict, int]:
        """Artifacts and the check: (checks, info, runs failed)."""
        raise NotImplementedError

    def execute(self, probe=lambda: None) -> Rep:
        """One repetition.  `probe` is called before each phase and each seed
        run, outside the timed pieces (see hostspeed.py)."""
        probe()
        t0 = perf_counter()
        obj, run_kwargs = self.setup()
        setup_s = perf_counter() - t0
        records, run_s = _run_all(self.configs(obj), obj, probe, **run_kwargs)
        probe()
        t0 = perf_counter()
        checks, info, failed = self.analyse(obj, run_kwargs, records)
        analysis_s = perf_counter() - t0
        return Rep(setup_s=setup_s, run_s=run_s, analysis_s=analysis_s, steps=_steps(records),
                   attempted=len(records), failed=failed,
                   digest=_records_digest(records), checks=checks, info=info)


def _run_failed(rec) -> bool:
    return rec is None or rec.diverged or not np.all(np.isfinite(rec.loss))


class SsagEnvelope(Workload):
    """Criterion-3 shape: SSAG seeds on N = 200, p = 5 logistic, theorem-2 check."""

    name = "ssag-envelope"
    sizes = {"per_class": 100, "seeds": 20, "steps": 5000, "cadence": 100}
    tiny_sizes = {"steps": 300}

    def setup(self):
        # the class geometry of the acceptance suite's envelope problem; only
        # the within-class noise depends on the workload seed
        means = np.zeros((2, 5))
        means[0, 0] = -18.0
        means[1, 0] = 22.0
        means[1, 1] = 4.0
        n = self.size["per_class"]
        ds = ssag.gen_synthetic(ssag.SyntheticSpec(means=means, counts=(n, n),
                                                   stddev=0.02, seed=self.seed))
        obj = ssag.LogisticRegression(ds, lam=0.1)
        const = ssag.estimate_constants(obj)
        w_star = ssag.reference_optimum(obj, constants=const)
        return obj, {"constants": const, "w_star": w_star}

    def configs(self, obj):
        # h = None is the theoretical default 1/(2CL)
        return [("ssag", RunConfig(kind="ssag", steps=self.size["steps"],
                                   seed=self.seed * 1000 + i, n=1,
                                   cadence=self.size["cadence"]))
                for i in range(self.size["seeds"])]

    def analyse(self, obj, run_kwargs, records):
        survivors = [rec for _, rec in records if not _run_failed(rec)]
        diverged = len(records) - len(survivors)
        pass_fraction = 0.0
        if not diverged:  # the envelope needs every seed
            agg = ssag.aggregate(survivors)
            inp = ssag.theorem2_inputs_for(obj, n=1, w0=obj.init_params(), **run_kwargs)
            bounds = np.array([ssag.theorem2_bound(int(k), inp) for k in agg.k])
            report = ssag.check_envelope(agg.k, agg.mean["dist_sq"], bounds,
                                         n_seeds=agg.n_seeds, slack=0.05)
            pass_fraction = report.pass_fraction
        checks = {"no_divergence": diverged == 0, "envelope": pass_fraction >= 0.99}
        failed = len(records) if not all(checks.values()) else 0
        return checks, {"pass_fraction": pass_fraction, "diverged": diverged}, failed


class LargeNCompare(Workload):
    """All seven kinds at an equal pass budget on N = 20 000, p = 20 logistic."""

    name = "large-n-compare"
    sizes = {"per_class": 10_000, "test_per_class": 1000, "dim": 20, "passes": 1.5,
             "snapshots": 10}
    tiny_sizes = {"per_class": 500, "test_per_class": 50}
    #: (kind, batch n); SVRG's inner loop is m = N/4, so one outer iteration
    #: (N + 2m gradient evaluations) is exactly the 1.5-pass budget, while FGD
    #: rounds it to 2 full-gradient steps
    KINDS = (("fgd", 1), ("sgd", 1), ("minibatch", 10), ("sag", 1), ("saga", 1),
             ("svrg", 1), ("ssag", 1))

    def setup(self):
        n, p, n_test = self.size["per_class"], self.size["dim"], self.size["test_per_class"]
        # fixed class geometry, so the conditioning (and the polish length of
        # the reference optimum) does not depend on the seed; the small spread
        # keeps per-sample curvature near L, so every default step size is stable
        means = np.zeros((2, p))
        means[0, 0], means[1, 0] = -1.0, 1.0
        ds, test = ssag.bench.build_dataset({"kind": "synthetic", "means": means,
                                             "counts": [n, n], "stddev": 0.1,
                                             "seed": self.seed,
                                             "test_counts": [n_test, n_test]})
        obj = ssag.LogisticRegression(ds, lam=0.02)
        const = ssag.estimate_constants(obj)
        w_star = ssag.reference_optimum(obj, constants=const)
        return obj, {"constants": const, "w_star": w_star, "test_dataset": test}

    def configs(self, obj):
        N = obj.dataset.n_samples
        out = []
        for kind, n in self.KINDS:
            m = N // 4 if kind == "svrg" else None
            steps = ssag.steps_for_passes(kind, self.size["passes"], N, n=n, m=m)
            out.append((kind, RunConfig(kind=kind, steps=steps, n=n, m=m, seed=self.seed,
                                         cadence=max(steps // self.size["snapshots"], 1),
                                         record_variance=True)))
        return out

    def analyse(self, obj, run_kwargs, records):
        out = self.out_dir
        series = []
        failed = 0
        for label, rec in records:
            if _run_failed(rec) or not rec.loss[-1] < rec.loss[0]:
                failed += 1
                continue
            agg = ssag.aggregate([rec])
            ssag.bench.emit_csv([rec], out, label)
            ssag.bench.emit_summary_csv(agg, out, f"{label}_summary.csv")
            series.append((label, agg.passes, agg.mean["loss"]))
        if series:
            ssag.bench.emit_plot(series, out / "compare.svg", metric_label="loss")
        checks = {"no_divergence_and_loss_decreased": failed == 0}
        info = {label: float(rec.loss[-1]) for label, rec in records if rec is not None}
        return checks, info, failed


def _glyph_images(n_per_class: int, seed: int, side: int = 28, noise: float = 25.0):
    """Ten fixed binary 28x28 patterns plus per-sample pixel noise, shuffled."""
    patterns = (np.random.default_rng(1234).random((10, side, side)) > 0.5) * 200.0
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10), n_per_class))
    images = patterns[labels] + rng.normal(scale=noise, size=(labels.size, side, side))
    return np.clip(images, 0, 255).astype(np.uint8), labels.astype(np.uint8)


def _write_idx_gz(path: Path, magic: int, array: np.ndarray) -> None:
    header = magic.to_bytes(4, "big") + b"".join(int(d).to_bytes(4, "big")
                                                  for d in array.shape)
    path.write_bytes(gzip.compress(header + array.tobytes(), mtime=0))


class MlpGlyph(Workload):
    """784-120-10 MLP on a gzipped IDX glyph fixture, SSAG against SGD."""

    name = "mlp-glyph"
    sizes = {"train_per_class": 50, "test_per_class": 20, "passes": 2, "seeds": 2}
    tiny_sizes = {"train_per_class": 10, "test_per_class": 5}
    KINDS = ("ssag", "sgd")

    def setup(self):
        paths = {}
        for part, per_class, seed in (("train", self.size["train_per_class"], 2 * self.seed),
                                      ("test", self.size["test_per_class"], 2 * self.seed + 1)):
            images, labels = _glyph_images(per_class, seed)
            paths[part] = (self.out_dir / f"{part}-images-idx3-ubyte.gz",
                           self.out_dir / f"{part}-labels-idx1-ubyte.gz")
            _write_idx_gz(paths[part][0], ssag.ingest.IDX_IMAGE_MAGIC, images)
            _write_idx_gz(paths[part][1], ssag.ingest.IDX_LABEL_MAGIC, labels)
        train, test = ssag.bench.build_dataset({
            "kind": "idx", "images": str(paths["train"][0]), "labels": str(paths["train"][1]),
            "test_images": str(paths["test"][0]), "test_labels": str(paths["test"][1])})
        obj = ssag.make_objective({"kind": "mlp", "hidden": [120]}, train)
        return obj, {"test_dataset": test}

    def configs(self, obj):
        N = obj.dataset.n_samples
        return [(kind, RunConfig(kind=kind, steps=self.size["passes"] * N, h=0.1, n=1,
                                 seed=self.seed * 1000 + i, cadence=N))
                for kind in self.KINDS for i in range(self.size["seeds"])]

    def analyse(self, obj, run_kwargs, records):
        failed_runs = {i for i, (_, rec) in enumerate(records) if _run_failed(rec)}
        info = {}
        for kind in self.KINDS:
            recs = [rec for i, (label, rec) in enumerate(records)
                    if label == kind and i not in failed_runs]
            if not recs:
                info[f"{kind}_test_acc"] = 0.0
                continue
            agg = ssag.aggregate(recs)
            ssag.bench.emit_csv(recs, self.out_dir, kind)
            ssag.bench.emit_summary_csv(agg, self.out_dir, f"{kind}_summary.csv")
            info[f"{kind}_test_acc"] = float(agg.mean["test_acc"][-1])
        checks = {"finite_losses": not failed_runs,
                  "test_accuracy": min(info.values()) >= 0.90}
        failed = len(records) if not checks["test_accuracy"] else len(failed_runs)
        return checks, info, failed


WORKLOADS = {w.name: w for w in (SsagEnvelope, LargeNCompare, MlpGlyph)}
