"""Experiment orchestration, artifact emission, and the command-line entry.

Workflow: a JSON config describes dataset, objective, optimizer, seeds, and
budget; `run_experiment` executes one deterministic run per seed and
aggregates seed means; `emit_csv` / `emit_plot` write the artifacts; the CLI
wires the pieces into subcommands (gen-data, estimate-constants, run,
compare, verify-bound, plot).  Identical configs yield byte-identical CSVs
apart from the wall-time column.  `SECTION_RULES` is the one table of config
section keys; loading and the CLI check them there, with the rules for values
that no constructor checks at load.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .core import Dataset, estimate_constants, is_int, is_real
from .errors import ConfigError, FormatError, LabelError, SsagError
from .ingest import SyntheticSpec, gen_synthetic, is_limit, read_idx, read_text, write_text
from .objectives import CERTIFIED_KINDS, CLASSIFIER_KINDS, Objective, make_objective
from .optimizers import SETTINGS, SPECS, RunConfig, resolve_step_size, run_seeds, steps_for_passes
from .records import (COLUMNS, CSV_COLUMNS, CSV_METRICS, SUMMARY_METRICS, Aggregate,
                      RunRecord, aggregate)
from .theory import (MIN_PASS_FRACTION, MIN_SEEDS, reference_optimum, theorem1_envelope,
                     theorem2_envelope)

#: Environment variable holding the default output directory.
OUT_DIR_ENV = "SSAG_OUT_DIR"


_STR = (lambda v: isinstance(v, str), "a string")
_NULL_OR_STR = (lambda v: v is None or isinstance(v, str), "null or a string")
_NULL_OR_BOOL = (lambda v: v is None or isinstance(v, bool), "null, true or false")
_LIMIT = (is_limit, "null or an integer >= 1")
_LAM = {"lam": (lambda v: is_real(v) and v >= 0, "a finite number >= 0")}

#: The one table of config section keys: section -> kind -> (required keys, {key: rule}).
#: A rule is (check, what the value must be) for a value that no constructor checks at
#: load, and None for one that `SyntheticSpec` or `RunConfig` checks when
#: `ExperimentConfig` builds it.
SECTION_RULES = {
    "dataset": {
        "synthetic": (("means", "counts"), dict.fromkeys(
            ("means", "counts", "stddev", "seed", "test_counts", "test_seed"))),
        "text": (("path",), {"path": _STR, "test_path": _NULL_OR_STR, "add_bias": _NULL_OR_BOOL}),
        "idx": (("images", "labels"), {
            "images": _STR, "labels": _STR, "test_images": _NULL_OR_STR,
            "test_labels": _NULL_OR_STR, "limit": _LIMIT, "test_limit": _LIMIT,
            "add_bias": _NULL_OR_BOOL}),
    },
    "objective": {
        **dict.fromkeys(("ridge", "logistic", "quadratic"), ((), _LAM)),
        "mlp": ((), {"hidden": (lambda v: isinstance(v, list) and all(
            is_int(h) and h >= 1 for h in v), "a list of integers >= 1"), **_LAM}),
    },
    "optimizer": dict.fromkeys(SPECS, ((), dict.fromkeys(("h", *SETTINGS)))),
}


def _check_section(name: str, section) -> None:
    """ConfigError unless ``section`` is a ``name`` section of a known kind with its
    required keys, no other key, and values as `SECTION_RULES` says."""
    kinds = SECTION_RULES[name]
    kind = section.get("kind") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{name} kind must be one of {tuple(kinds)}")
    required, rules = kinds[kind]
    missing = set(required) - set(section)
    unknown = set(section) - {"kind", *rules}
    if missing or unknown:
        raise ConfigError(f"{name} kind {kind!r}: missing keys {sorted(missing)}, unknown keys "
                          f"{sorted(unknown)} (optional: {sorted(set(rules) - set(required))})")
    for key, value in section.items():
        if key != "kind" and rules[key] and not rules[key][0](value):
            raise ConfigError(f"{name} {key} must be {rules[key][1]}, got {value!r}")


#: What each top-level field of an experiment config, the sections aside, must be;
#: `RunConfig` checks ``cadence`` and ``steps``.
_FIELD_CHECKS = {
    "seeds": (lambda v: isinstance(v, list) and v and all(is_int(s) and s >= 0 for s in v)
              and len(set(v)) == len(v), "a nonempty list of distinct integers >= 0"),
    "passes": (lambda v: v is None or is_real(v) and v > 0, "null or a finite number > 0"),
    "out_dir": _NULL_OR_STR,
    # a label names the run's files inside out_dir, so it holds no path separator
    "label": (lambda v: v is None or isinstance(v, str) and not set(v) & set("/\\\0"),
              "null or a string without '/', '\\' or NUL"),
    **{name: (lambda v: isinstance(v, bool), "true or false")
       for name in ("record_dist", "record_variance")},
}


@dataclass
class ExperimentConfig:
    """Declarative description of a multi-seed experiment.

    Mirrors the JSON config document one to one; every leaf field can be
    overridden from the command line by a flag of the same (dotted) name.
    Construction checks the top-level fields against `_FIELD_CHECKS` and the
    sections against `SECTION_RULES`, then builds the synthetic dataset's
    `SyntheticSpec` and the optimizer's `RunConfig`, which check the values
    the table leaves to them.  ``run_config`` is that `RunConfig`: the one of
    seed 0, with steps 0 under a pass budget.
    """

    dataset: dict
    objective: dict
    optimizer: dict
    seeds: list[int]
    cadence: int = 1
    passes: float | None = None
    steps: int | None = None
    out_dir: str | None = None
    label: str | None = None
    record_dist: bool = False
    record_variance: bool = False

    def __post_init__(self):
        for name, (ok, need) in _FIELD_CHECKS.items():
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)!r}")
        for name in SECTION_RULES:
            _check_section(name, getattr(self, name))
        if (self.passes is None) == (self.steps is None):
            raise ConfigError("exactly one of 'passes' or 'steps' must be set")
        data = self.dataset
        test_split = data.get("test_path") or data.get("test_images")
        if data["kind"] == "idx" and (bool(test_split) != bool(data.get("test_labels"))
                                      or not test_split and data.get("test_limit")):
            raise ConfigError("dataset idx: test_images and test_labels name one test split, "
                              "so set both or neither; test_limit needs both")
        if data["kind"] == "synthetic":
            try:
                test_split = _synthetic_specs(data)[1]
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"malformed config value: {exc}") from None
        opt, h = self.optimizer, self.optimizer.get("h")
        self.run_config = RunConfig(
            kind=opt["kind"], steps=0 if self.steps is None else self.steps, cadence=self.cadence,
            h=None if h == "auto" else h, record_variance=self.record_variance,
            **{key: opt[key] for key in SETTINGS if key in opt})
        kind = self.objective["kind"]
        if kind not in CERTIFIED_KINDS and (self.record_dist or self.run_config.h is None):
            raise ConfigError(f"objective kind {kind!r} has no certified constants: it needs "
                              "an explicit optimizer h and supports neither record_dist nor "
                              "verify-bound")
        if test_split and kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"objective kind {kind!r} does not classify, so a test split "
                              "has no accuracy to record")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"dataset", "objective", "optimizer", "seeds"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**doc)

    @staticmethod
    def read(path) -> dict:
        """The JSON document of a config file; ConfigError if it is unreadable."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return doc

    def resolved_label(self) -> str:
        return self.label or str(self.optimizer.get("kind", "run"))


def _resolve_out_dir(out_dir: str | None) -> Path:
    """``out_dir`` if set, else $SSAG_OUT_DIR, else ``results``."""
    return Path(out_dir or os.environ.get(OUT_DIR_ENV, "results"))


def _synthetic_specs(spec: dict) -> tuple[SyntheticSpec, SyntheticSpec | None]:
    """The train and optional test blobs of a synthetic dataset section."""
    synth = SyntheticSpec(means=spec["means"], counts=spec["counts"],
                          stddev=spec.get("stddev", 1.0), seed=spec.get("seed", 0))
    if "test_seed" not in spec and "test_counts" not in spec:
        return synth, None
    return synth, replace(synth, counts=spec.get("test_counts", synth.counts),
                          seed=spec.get("test_seed", synth.seed + 1))


def build_dataset(spec: dict) -> tuple[Dataset, Dataset | None]:
    """Construct (train, optional test) datasets from a config section."""
    kind, add_bias = spec["kind"], bool(spec.get("add_bias", False))
    if kind == "synthetic":
        synth, test = _synthetic_specs(spec)
        return gen_synthetic(synth), None if test is None else gen_synthetic(test)
    if kind == "text":
        train = read_text(spec["path"], add_bias=add_bias)
        test = read_text(spec["test_path"], add_bias=add_bias) if spec.get("test_path") else None
        return train, test
    if kind == "idx":
        train = read_idx(spec["images"], spec["labels"], add_bias=add_bias,
                         limit=spec.get("limit"))
        test = None
        if spec.get("test_images"):
            test = read_idx(spec["test_images"], spec["test_labels"], add_bias=add_bias,
                            limit=spec.get("test_limit"))
        return train, test
    raise ConfigError(f"unknown dataset kind {kind!r}")


@dataclass
class ExperimentResult:
    """Per-seed records plus their seed-mean aggregate and problem handles."""

    objective: Objective
    records: list[RunRecord] = field(default_factory=list)
    agg: Aggregate | None = None
    w_star: np.ndarray | None = None
    constants: object = None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one run per seed and aggregate; deterministic given the seeds.

    ConfigError, before any run, if a test split's feature or class count
    differs from the training set's, or if a pass budget gives 0 steps.
    """
    train, test = build_dataset(config.dataset)
    if test is not None and ((test.n_features, test.n_classes)
                             != (train.n_features, train.n_classes)):
        raise ConfigError(f"test split has {test.n_features} features and {test.n_classes} "
                          f"classes, the training set {train.n_features} and "
                          f"{train.n_classes}")
    obj = make_objective(config.objective, train)
    template = config.run_config
    constants = estimate_constants(obj) if obj.kind in CERTIFIED_KINDS else None
    w_star = reference_optimum(obj, constants=constants) if config.record_dist else None
    steps = (config.steps if config.steps is not None
             else steps_for_passes(template.kind, config.passes, train.n_samples,
                                   n=template.n, m=template.m))
    if config.passes is not None and steps == 0:
        raise ConfigError(f"{config.passes} passes give {template.kind} {steps} steps on "
                          f"{train.n_samples} samples; ask for more passes")
    records = run_seeds(replace(template, steps=steps), obj, sorted(config.seeds),
                        constants=constants, w_star=w_star, test_dataset=test)
    return ExperimentResult(objective=obj, records=records, agg=aggregate(records),
                            w_star=w_star, constants=constants)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> Path:
    """Write a CSV file: UTF-8, LF line endings, full-precision numbers."""
    lines = [",".join(header)] + [",".join(_fmt(value) for value in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def emit_csv(records: list[RunRecord], out_dir, label: str = "run") -> list[Path]:
    """Write one CSV per run (`<label>_s<seed>.csv`) with the pinned schema.

    Missing metrics are 'nan'.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_write_csv(out_dir / f"{label}_s{rec.seed}.csv", CSV_COLUMNS,
                       zip(*(getattr(rec, name) for name in CSV_COLUMNS))) for rec in records]


def emit_summary_csv(agg: Aggregate, out_dir, name: str = "summary.csv") -> Path:
    """Write per-config seed-mean/seed-std aggregates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = [(f"{m}_{stat}", table[m]) for m in SUMMARY_METRICS
             for stat, table in (("mean", agg.mean), ("std", agg.std))]
    return _write_csv(out_dir / name, ["k", "passes"] + [head for head, _ in stats],
                      zip(agg.k, agg.passes, *(col for _, col in stats)))


def read_csv(path) -> dict[str, np.ndarray]:
    """Parse back a per-run CSV into column arrays.

    FormatError naming ``path`` if the file cannot be read as UTF-8 text, and
    naming ``path:line`` if the header is not the pinned schema, or a row has
    the wrong number of cells or a cell that is not a number.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from None
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise FormatError(f"{path}: missing or wrong CSV header "
                          f"(expected {','.join(CSV_COLUMNS)})")
    rows = []
    for number, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        try:
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(CSV_COLUMNS)}")
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise FormatError(f"{path}:{number}: malformed row: {exc}") from None
    cols = zip(*rows) if rows else [()] * len(CSV_COLUMNS)
    return {name: np.asarray(col, dtype=COLUMNS[name]) for name, col in zip(CSV_COLUMNS, cols)}


# ---------------------------------------------------------------------------
# SVG plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
            "#9467bd", "#8c564b", "#17becf", "#7f7f7f")


def emit_plot(series: list[tuple[str, np.ndarray, np.ndarray]], path, *,
              metric_label: str = "loss", x_label: str = "effective passes") -> Path:
    """Write an SVG 1.1 line chart: log-scale y against a linear x axis.

    ``series`` is a list of (label, x, y) triples; one polyline per series
    with a distinct stroke color and a legend entry.  Points with
    non-positive or non-finite y are dropped (log scale); an error is raised
    if nothing plottable remains.
    """
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y) & (y > 0.0)
        if np.any(keep):
            cleaned.append((label, x[keep], y[keep]))
    if not cleaned:
        raise SsagError("no positive finite data to plot")

    width, height = 720, 480
    ml, mr, mt, mb = 70, 24, 42, 52
    pw, ph = width - ml - mr, height - mt - mb
    x_lo = min(float(x.min()) for _, x, _ in cleaned)
    x_hi = max(float(x.max()) for _, x, _ in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = min(float(y.min()) for _, _, y in cleaned)
    y_hi = max(float(y.max()) for _, _, y in cleaned)
    log_lo = np.floor(np.log10(y_lo))
    log_hi = np.ceil(np.log10(y_hi))
    if log_hi == log_lo:
        log_hi = log_lo + 1.0

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v: float) -> float:
        return mt + (log_hi - np.log10(v)) / (log_hi - log_lo) * ph

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    # axes frame
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#333333" stroke-width="1"/>')
    # y decade ticks
    decades = np.arange(log_lo, log_hi + 0.5)
    step = max(1, int(np.ceil(decades.size / 9)))
    for d in decades[::step]:
        yy = sy(10.0 ** d)
        parts.append(f'<line x1="{ml}" y1="{yy:.2f}" x2="{ml + pw}" y2="{yy:.2f}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{int(d)}</text>')
    # x ticks
    for v in np.linspace(x_lo, x_hi, 6):
        xx = sx(v)
        parts.append(f'<line x1="{xx:.2f}" y1="{mt + ph}" x2="{xx:.2f}" '
                     f'y2="{mt + ph + 5}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{xx:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{v:g}</text>')
    x_text, y_text = (html.escape(str(text), quote=False) for text in (x_label, metric_label))
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{x_text}</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{y_text}</text>')
    # polylines + legend
    for idx, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = mt + 14 + 16 * idx
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly}" x2="{ml + pw - 126}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 120}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{html.escape(str(label), quote=False)}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return path


# ---------------------------------------------------------------------------
# CLI


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


#: The config override grammar, as the help of `run` and `verify-bound` states it.
_OVERRIDE_HELP = ("any config field can follow: --section.key value, --key value, "
                  "--seeds a,b,c, --out DIR for out_dir; --passes or --steps replaces the other")


def _apply_overrides(doc: dict, extras: list[str]) -> dict:
    """Apply config overrides from leftover flags, ``--name value`` or ``--name=value``.

    `--section.key value` sets a field inside the dataset/objective/optimizer
    sections; `--key value` sets a top-level config field of that name, with
    dashes read as underscores.  Values are JSON where they parse, else
    strings; `--seeds` takes a comma-separated list, `--label` and `--out`
    (the name of ``out_dir``) take the text as it is, and setting one of
    `passes` and `steps` drops the other.
    """
    tokens = iter(extras)
    for token in tokens:
        if not token.startswith("--"):
            raise ConfigError(f"unrecognized argument: {token}")
        name, eq, text = token[2:].partition("=")
        if not eq and (text := next(tokens, None)) is None:
            raise ConfigError(f"flag {token} needs a value")
        if "." in name:
            section, key = name.split(".", 1)
            if section not in ("dataset", "objective", "optimizer"):
                raise ConfigError(f"cannot override unknown section {section!r}")
            doc.setdefault(section, {})[key] = _parse_value(text)
            continue
        key = {"out": "out_dir"}.get(name, name.replace("-", "_"))
        doc.pop({"passes": "steps", "steps": "passes"}.get(key), None)
        parse = str if key in ("label", "out_dir") else _parse_value
        # ExperimentConfig.from_dict rejects an unknown field
        doc[key] = [parse(seed) for seed in text.split(",")] if key == "seeds" else parse(text)
    return doc


def _load_config(args) -> ExperimentConfig:
    doc = ExperimentConfig.read(args.config)
    return ExperimentConfig.from_dict(_apply_overrides(doc, args.overrides))


def _auto_means(classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic well-separated class means: +-separation/2 on axes."""
    means = np.zeros((classes, dim))
    for j in range(classes):
        means[j, (j // 2) % dim] = separation / 2.0 * (1.0 if j % 2 == 0 else -1.0)
    return means


def _cmd_gen_data(args) -> int:
    try:
        means = ([[float(v) for v in row.split(",")] for row in args.means.split(";")]
                 if args.means else _auto_means(args.classes, args.dim, args.separation).tolist())
        counts = ([int(c) for c in args.counts.split(",")] if args.counts
                  else [args.count] * len(means))
        ds, _ = build_dataset({"kind": "synthetic", "means": means, "counts": counts,
                               "stddev": args.stddev, "seed": args.seed})
    except (ValueError, ZeroDivisionError) as exc:  # --dim 0 divides by zero in _auto_means
        raise ConfigError(f"malformed gen-data flag: {exc}") from None
    write_text(ds, args.out)
    print(f"wrote {ds.n_samples} samples, {ds.n_classes} classes, "
          f"{ds.n_features} features to {args.out}")
    return 0


def _cmd_estimate_constants(args) -> int:
    spec = {"kind": args.objective, "lam": args.lam}
    _check_section("objective", spec)
    obj = make_objective(spec, read_text(args.data, add_bias=args.add_bias))
    const = estimate_constants(obj)
    print(f"L = {const.L:.12g}")
    print(f"mu = {const.mu:.12g}")
    print(f"condition = {const.condition:.12g}")
    if not const.strongly_convex:
        print("warning: mu = 0, not strongly convex")
    for kind, spec in SPECS.items():
        print(f"h_{kind} = {spec.default_h(const.L, obj.dataset):.12g}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    label, out_dir = config.resolved_label(), _resolve_out_dir(config.out_dir)
    result = run_experiment(config)
    paths = emit_csv(result.records, out_dir, label)
    emit_summary_csv(result.agg, out_dir, f"{label}_summary.csv")
    final_loss = result.agg.mean["loss"][-1]
    print(f"{label}: {len(result.records)} runs, "
          f"{result.agg.passes[-1]:.3g} passes, final mean loss {final_loss:.6g}")
    if result.agg.n_diverged:
        print(f"warning: {result.agg.n_diverged} runs diverged")
    if args.plot:
        emit_plot([(label, result.agg.passes, result.agg.mean["loss"])],
                  args.plot, metric_label="training loss")
        print(f"plot written to {args.plot}")
    print(f"csv written to {paths[0].parent}")
    return 0


def _cmd_compare(args) -> int:
    configs = [ExperimentConfig.from_dict(ExperimentConfig.read(path)) for path in args.configs]
    labels = [config.resolved_label() for config in configs]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError(f"configs share the labels {shared}, so their CSVs would "
                          "overwrite each other; give each config a distinct 'label'")
    # every config runs before anything is written, so a later config's
    # failure leaves no partial output; only records and aggregates are kept
    results = []
    for config, label in zip(configs, labels):
        result = run_experiment(config)
        results.append((label, result.records, result.agg))
    out_dir = _resolve_out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = []
    summary_rows = []
    for label, records, agg in results:
        emit_csv(records, out_dir, label)
        emit_summary_csv(agg, out_dir, f"{label}_summary.csv")
        series.append((label, agg.passes, agg.mean[args.metric]))
        summary_rows.append([label, str(agg.n_seeds), _fmt(agg.passes[-1])]
                            + [_fmt(agg.mean[m][-1]) for m in CSV_METRICS]
                            + [_fmt(agg.std[m][-1]) for m in CSV_METRICS])
    _write_csv(out_dir / "summary.csv", ["label", "seeds", "passes"]
               + [f"{m}_avg" for m in CSV_METRICS] + [f"{m}_std" for m in CSV_METRICS],
               summary_rows)
    plot_path = out_dir / "compare.svg"
    emit_plot(series, plot_path, metric_label=args.metric)
    for row in summary_rows:
        print(f"{row[0]}: final loss {row[3]} at {row[2]} passes ({row[1]} seeds)")
    print(f"joint plot written to {plot_path}")
    return 0


#: Heading and parameter line that verify-bound prints for each theorem.
_ENVELOPE_TEXT = {1: ("optimality-gap envelope (convergence-variance inequality)",
                      "lambda = {lam:.6g}, rho = {rho:.12g}, sigma_sq = {sigma_sq:.6g}"),
                  2: ("squared-distance envelope (stratified average gradient)",
                      "rate = {rate:.12g}, bracket = {bracket:.6g}")}


def _cmd_verify_bound(args) -> int:
    config = _load_config(args)
    rc = config.run_config
    theorem = SPECS[rc.kind].envelope
    if theorem is None:
        raise ConfigError(f"no bound envelope applies to the {rc.kind} optimizer")
    if len(config.seeds) < MIN_SEEDS:
        raise ConfigError(f"verify-bound needs at least {MIN_SEEDS} seeds, got {len(config.seeds)}")
    config = replace(config, record_dist=True, record_variance=config.record_variance or theorem == 1)
    result = run_experiment(config)
    obj, agg, const, w_star = result.objective, result.agg, result.constants, result.w_star
    n = SPECS[rc.kind].evals(obj.dataset.n_samples, rc.n, rc.m, 1)
    if theorem == 2:
        env = theorem2_envelope(obj, agg, const, w_star, n=n,
                                w0=obj.init_params(seed=min(config.seeds)))
    else:
        env = theorem1_envelope(obj, agg, const, w_star, n=n, h=resolve_step_size(rc, obj, const))
    env.check()
    heading, params = _ENVELOPE_TEXT[theorem]
    print(f"theorem: {heading}")
    print(params.format(**env.params) + f", resolution floor = {env.floor:.3g}")
    print(env.summary())
    first = env.first_failure
    print(f"first failing k = {'none' if first is None else first}")
    print(f"seed mean at the last recorded k = {int(env.k[-1])}: {env.values[-1]:.6g} "
          f"against bound {env.bounds[-1]:.6g}")
    if env.pass_fraction >= MIN_PASS_FRACTION:
        print(f"PASS (pass fraction >= {MIN_PASS_FRACTION})")
        return 0
    print(f"FAIL (pass fraction < {MIN_PASS_FRACTION})")
    return 2


def _cmd_plot(args) -> int:
    series = []
    for path in args.csvs:
        cols = read_csv(path)
        x = cols["passes"] if args.x == "passes" else cols["k"].astype(np.float64)
        series.append((Path(path).stem, x, cols[args.metric]))
    emit_plot(series, args.out, metric_label=args.metric,
              x_label="effective passes" if args.x == "passes" else "step")
    print(f"plot written to {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssag", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ssag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset text file")
    p.set_defaults(handler=_cmd_gen_data)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--count", type=int, default=100, help="samples per class")
    p.add_argument("--counts", help="comma-separated per-class counts")
    p.add_argument("--means", help="semicolon-separated class means, e.g. '1,0;-1,0'")
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--stddev", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("estimate-constants",
                       help="print L, mu, and default step sizes for a dataset")
    p.set_defaults(handler=_cmd_estimate_constants)
    p.add_argument("--data", required=True, help="dataset in text format")
    p.add_argument("--objective", default="ridge", choices=CERTIFIED_KINDS)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--add-bias", action="store_true")

    for name, help_text in (("run", "execute a config and emit CSV records"),
                            ("verify-bound", "run a config and check a bound envelope; the "
                             "theorem-2 check is meaningful only for balanced classes with "
                             "small within-class spread")):
        p = sub.add_parser(name, help=help_text, description=help_text,
                           epilog=_OVERRIDE_HELP, allow_abbrev=False)
        p.set_defaults(handler=_cmd_run if name == "run" else _cmd_verify_bound)
        p.add_argument("--config", "-c", required=True)
        if name == "run":
            p.add_argument("--plot", help="also write a loss plot to this SVG path")

    p = sub.add_parser("compare", help="run several configs and plot them jointly")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("configs", nargs="+")
    p.add_argument("--metric", default="loss", choices=CSV_METRICS)
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("plot", help="plot emitted CSV records")
    p.set_defaults(handler=_cmd_plot)
    p.add_argument("csvs", nargs="+")
    p.add_argument("--metric", default="loss", choices=CSV_METRICS)
    p.add_argument("--x", default="passes", choices=("passes", "k"))
    p.add_argument("--out", required=True)
    return parser


def cli(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on a usage or data-file error or on
    labels that the objective kind cannot take, 2 on failure."""
    parser = _build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args, extras = parser.parse_known_args(argv)
        if extras and args.command not in ("run", "verify-bound"):
            raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
        args.overrides = extras  # the config overrides of run and verify-bound
        return args.handler(args)
    except (ConfigError, FormatError, LabelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure -> exit 2
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
