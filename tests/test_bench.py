"""Orchestration, CSV/SVG artifacts, and the command-line interface."""

import gzip
import inspect
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace

import numpy as np
import pytest

import ssag
from ssag.bench import (SECTION_RULES, ExperimentConfig, _resolve_out_dir, build_dataset, cli,
                        emit_csv, emit_plot, emit_summary_csv, read_csv, run_experiment)
from ssag.errors import ConfigError, FormatError, SsagError
from ssag.ingest import write_idx
from ssag.optimizers import RunConfig, resolve_step_size
from ssag.records import COLUMNS


def _config_doc(**overrides):
    doc = {
        "dataset": {"kind": "synthetic",
                    "means": [[2.0, 0.0], [-2.0, 0.0]],
                    "counts": [10, 10], "stddev": 0.3, "seed": 4},
        "objective": {"kind": "logistic", "lam": 0.1},
        "optimizer": {"kind": "ssag", "h": "auto", "n": 1},
        "seeds": [1, 2, 3],
        "steps": 60,
        "cadence": 20,
        "record_dist": True,
    }
    doc.update(overrides)
    return doc


#: The acceptance suite's envelope problem: N = 200, p = 5, two classes.
_ENVELOPE_DATASET = {"kind": "synthetic", "counts": [100, 100], "stddev": 0.02, "seed": 11,
                     "means": [[-18.0, 0, 0, 0, 0], [22.0, 4.0, 0, 0, 0]]}


def _never_run(config):
    raise AssertionError("the config should have been rejected before any run")


def _strip_wall(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)


class TestExperimentConfig:
    def test_requires_exactly_one_budget(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_config_doc(passes=2.0))  # both set
        doc = _config_doc()
        del doc["steps"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)  # neither set

    def test_requires_seeds(self):
        doc = _config_doc()
        del doc["seeds"]
        with pytest.raises(ConfigError, match=r"missing config keys: \['seeds'\]"):
            ExperimentConfig.from_dict(doc)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_config_doc(typo_key=1))

    def test_rejects_unknown_optimizer_keys(self):
        doc = _config_doc()
        doc["optimizer"] = {"kind": "ssag", "hh": 0.3}
        with pytest.raises(ConfigError, match="hh"):
            ExperimentConfig.from_dict(doc)
        doc["optimizer"] = {"kind": "nosuch"}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("section, value, accepted", [
        # the keys perfbench passes to build_dataset
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": 0.1, "seed": 3, "test_counts": [2, 2]}, True),
        ("dataset", {"kind": "idx", "images": "a", "labels": "b",
                     "test_images": "c", "test_labels": "d"}, True),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stdev": 0.1}, False),
        ("dataset", {"kind": "synthetic", "counts": [5, 5]}, False),
        ("dataset", {"kind": "csv", "path": "a"}, False),
        ("dataset", "synthetic", False),
        ("objective", {"kind": "logistic", "lamb": 0.1}, False),
        ("objective", {"kind": "logistc"}, False),
        ("objective", {"kind": "ridge", "hidden": [3]}, False),
        # no certified constants: neither an automatic h nor record_dist
        ("objective", {"kind": "mlp", "hidden": [3]}, False),
        # values are checked at load too
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "limit": 10,
                     "test_images": None, "add_bias": True}, True),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": "abc"}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": -1.0}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, "a"]}, False),
        ("dataset", {"kind": "synthetic", "means": "abc", "counts": [5, 5]}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "test_seed": "x"}, False),
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "limit": 0}, False),
        # the two test files name one split, and test_limit limits it
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "test_images": "c"}, False),
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "test_labels": "d"}, False),
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "test_limit": 5}, False),
        ("dataset", {"kind": "idx", "images": "a", "labels": "b", "test_images": "c",
                     "test_labels": "d", "test_limit": 5}, True),
        ("dataset", {"kind": "text", "path": 3}, False),
        ("dataset", {"kind": "text", "path": "a", "add_bias": "yes"}, False),
        ("objective", {"kind": "logistic", "lam": "abc"}, False),
        ("objective", {"kind": "logistic", "lam": -0.1}, False),
        # a number is a real, not a bool and not a numeric string
        ("objective", {"kind": "logistic", "lam": True}, False),
        ("objective", {"kind": "logistic", "lam": "0.1"}, False),
        ("objective", {"kind": "logistic", "lam": 0}, True),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": True}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": "0.5"}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "stddev": 1}, True),
        ("optimizer", {"kind": "ssag", "h": True}, False),
        ("optimizer", {"kind": "ssag", "h": "0.5"}, False),
        ("optimizer", {"kind": "ssag", "h": 1}, True),
        ("optimizer", {"kind": "ssag", "h": None}, True),
        ("optimizer", {"kind": "saga", "prox_l1": True}, False),
        ("optimizer", {"kind": "saga", "prox_l1": "0.5"}, False),
        # a synthetic seed or count is an integer, not a bool, a float or a string
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "seed": True}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "seed": 2.7}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "seed": "3"}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "test_seed": 1.5}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [10, True]}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5.5, 5]}, False),
        # an automatic h rejects any mlp here; test_hidden_widths_checked_at_load
        # checks these widths with an explicit h
        ("objective", {"kind": "mlp", "hidden": [True]}, False),
        ("objective", {"kind": "mlp", "hidden": [2.7]}, False),
        ("objective", {"kind": "mlp", "hidden": ["3"]}, False),
        # class means are numbers, not numeric strings or bools
        ("dataset", {"kind": "synthetic", "means": [["1"], [True]], "counts": [5, 5]}, False),
        ("dataset", {"kind": "synthetic", "means": [[1, 0], ["0", 1]], "counts": [5, 5]}, False),
        # PCG64 seeds are integers >= 0
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "seed": -3}, False),
        ("dataset", {"kind": "synthetic", "means": [[1.0], [-1.0]], "counts": [5, 5],
                     "test_seed": -1}, False),
    ])
    def test_section_kinds_and_keys_checked_at_load(self, section, value, accepted):
        doc = _config_doc()
        doc[section] = value
        if accepted:
            assert ExperimentConfig.from_dict(doc).run_config.kind == "ssag"
        else:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["means", "stddev", "lam", "h", "prox_l1", "passes"])
    def test_integer_beyond_float_range_rejected_at_load(self, tmp_path, capsys, key):
        # JSON reads 1e400 as inf but an integer literal as an exact int,
        # which float64 cannot hold; each real-valued key rejects it where it
        # is first checked, in the library and from a config file, and says
        # which key it was
        huge, doc = 10**400, _config_doc(out_dir=str(tmp_path / "out"))
        ds = ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1]))
        if key in ("means", "stddev"):
            data = doc["dataset"]
            data[key] = [[huge, 0.0], [-2.0, 0.0]] if key == "means" else huge
            library = lambda: ssag.SyntheticSpec(data["means"], (10, 10), data["stddev"])
        elif key == "lam":
            doc["objective"]["lam"] = huge
            library = lambda: ssag.LogisticRegression(ds, lam=huge)
        elif key == "passes":
            del doc["steps"]
            doc["passes"] = huge
            library = lambda: ExperimentConfig.from_dict(doc)
        else:
            doc["optimizer"] = {"kind": "saga", key: huge}
            library = lambda: RunConfig(kind="saga", steps=1, **{key: huge})
        with pytest.raises((ConfigError, ValueError), match=f"{key} must be"):
            library()
        with pytest.raises(ConfigError, match=f"{key} must be"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli(["run", "-c", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hidden, accepted", [([3], True), ([], True), ([4, 2], True),
                                                  ([True], False), ([2.7], False),
                                                  (["3"], False), ([3, 0], False),
                                                  ("3", False), (3, False)])
    def test_hidden_widths_checked_at_load(self, hidden, accepted):
        doc = _config_doc(record_dist=False, optimizer={"kind": "ssag", "h": 0.1},
                          objective={"kind": "mlp", "hidden": hidden})
        if accepted:
            assert ExperimentConfig.from_dict(doc).objective["hidden"] == hidden
        else:
            with pytest.raises(ConfigError, match="hidden"):
                ExperimentConfig.from_dict(doc)

    def test_section_rules_match_the_code(self):
        # the table sits in bench.py, away from the constructors it describes
        rules = SECTION_RULES
        assert set(rules["optimizer"]) == set(ssag.optimizers.SPECS)
        for kind, (required, keys) in rules["optimizer"].items():
            assert required == () and set(keys) <= set(RunConfig.__dataclass_fields__), kind
        assert set(rules["objective"]) == set(ssag.objectives._KINDS)
        for kind, (required, keys) in rules["objective"].items():
            params = inspect.signature(ssag.objectives._KINDS[kind]).parameters
            assert required == () and set(keys) == set(params) - {"dataset"}, kind
        spec = {"kind": "synthetic", "means": [[1.0, 0.0], [-1.0, 0.5]], "counts": [4, 3],
                "stddev": 0.2, "seed": 5, "test_counts": [2, 2], "test_seed": 8}
        assert set(spec) - {"kind"} == set(rules["dataset"]["synthetic"][1])
        doc = _config_doc(dataset=spec)
        train, test = build_dataset(ExperimentConfig.from_dict(doc).dataset)
        assert train.class_counts.tolist() == [4, 3] and test.class_counts.tolist() == [2, 2]
        assert train.n_features == test.n_features == 2

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_config_doc(seeds=[]))


class TestRunExperiment:
    def test_deterministic_and_duplicate_seeds(self):
        cfg = ExperimentConfig.from_dict(_config_doc(seeds=[5, 6]))
        result = run_experiment(cfg)
        again = run_experiment(cfg)
        assert [r.content_hash() for r in again.records] == \
               [r.content_hash() for r in result.records]
        # a repeated seed would count one run twice, so it fails at load
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig.from_dict(_config_doc(seeds=[5, 5]))

    def test_single_seed_aggregate_equals_record(self):
        cfg = ExperimentConfig.from_dict(_config_doc(seeds=[7]))
        result = run_experiment(cfg)
        assert np.array_equal(result.agg.mean["loss"], result.records[0].loss)
        assert result.agg.n_seeds == 1

    def test_aggregate_shapes(self):
        cfg = ExperimentConfig.from_dict(_config_doc())
        result = run_experiment(cfg)
        assert result.agg.k.tolist() == [0, 20, 40, 60]
        for name in ("loss", "dist_sq"):
            assert result.agg.mean[name].shape == (4,)
            assert not np.any(np.isnan(result.agg.mean[name]))

    def test_pass_budget_resolution(self):
        cfg = ExperimentConfig.from_dict(_config_doc(steps=None, passes=3.0))
        doc = asdict(cfg)
        doc.pop("steps")
        cfg = ExperimentConfig.from_dict(doc)
        result = run_experiment(cfg)
        assert result.records[0].passes[-1] == pytest.approx(3.0)

    @pytest.mark.parametrize("passes, steps", [(1.5, 50), (3.0, 200)])
    def test_svrg_pass_budget_holds(self, passes, steps):
        # the envelope problem, N = 200, at SVRG's default m = 2N: each run
        # pays a snapshot's N at step 0 and 2 evaluations a step
        doc = _config_doc(steps=None, passes=passes, seeds=[1], record_dist=False,
                          dataset=_ENVELOPE_DATASET, optimizer={"kind": "svrg", "h": "auto"})
        record = run_experiment(ExperimentConfig.from_dict(doc)).records[0]
        assert record.k[-1] == steps
        assert record.passes[-1] == passes

    def test_test_split_accuracy_recorded(self):
        doc = _config_doc()
        doc["dataset"]["test_seed"] = 99
        doc["record_dist"] = False
        cfg = ExperimentConfig.from_dict(doc)
        result = run_experiment(cfg)
        acc = result.agg.mean["test_acc"]
        assert not np.any(np.isnan(acc))
        assert np.all((0.0 <= acc) & (acc <= 1.0))

    def test_mlp_needs_explicit_h(self):
        doc = _config_doc()
        doc["objective"] = {"kind": "mlp", "hidden": [3]}
        doc["record_dist"] = False
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_dict(doc))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_diverged_runs_flagged_and_survivors_aggregated(self):
        from ssag.optimizers import RunConfig
        result = run_experiment(ExperimentConfig.from_dict(_config_doc(seeds=[1])))
        good = result.records[0]
        bad = ssag.run(RunConfig(kind="ssag", steps=60, h=1e9, cadence=20, seed=2),
                       result.objective)
        assert bad.diverged
        with pytest.warns(RuntimeWarning, match="diverged"):
            agg = ssag.aggregate([good, bad])
        assert agg.n_seeds == 1 and agg.n_diverged == 1
        with pytest.warns(RuntimeWarning, match="diverged"), pytest.raises(ValueError):
            ssag.aggregate([bad])  # nothing survives

    def test_out_dir_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SSAG_OUT_DIR", str(tmp_path / "envout"))
        cfg = ExperimentConfig.from_dict(_config_doc())
        assert _resolve_out_dir(cfg.out_dir) == tmp_path / "envout"


class TestContentHash:
    """A record's hash covers its seed, its divergence flag and every column
    but wall_ms, and no config identity."""

    def test_auto_and_explicit_h_hash_equal(self, two_class_logistic):
        obj = two_class_logistic
        auto = RunConfig(kind="ssag", steps=200, seed=4, cadence=50)
        explicit = replace(auto, h=resolve_step_size(auto, obj))
        assert (ssag.run(auto, obj).content_hash()
                == ssag.run(explicit, obj).content_hash())

    def test_every_column_but_wall_time_enters_the_hash(self, two_class_logistic):
        obj = two_class_logistic
        config = RunConfig(kind="ssag", steps=200, h=0.1, seed=4, cadence=50,
                           record_variance=True)
        rec = ssag.run(config, obj, w_star=np.zeros(obj.dim), test_dataset=obj.dataset)
        base = rec.content_hash()
        for name in COLUMNS:
            column = getattr(rec, name).copy()
            assert np.isfinite(column).all(), name
            column[-1] += 1
            assert (replace(rec, **{name: column}).content_hash() == base) == (name == "wall_ms")
        assert replace(rec, seed=5).content_hash() != base
        assert replace(rec, diverged=True).content_hash() != base


def _step_count(value):
    """CSV damage that writes ``value`` as the step count of line 3."""
    return lambda rows: rows[:2] + [value + rows[2][rows[2].index(","):]] + rows[3:]


class TestCsv:
    def _result(self, **overrides):
        return run_experiment(ExperimentConfig.from_dict(_config_doc(**overrides)))

    def test_header_and_column_order(self, tmp_path):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        first = path.read_text().splitlines()[0]
        assert first == "k,passes,loss,test_acc,dist_sq,grad_evals,wall_ms"

    def test_roundtrip(self, tmp_path):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        cols = read_csv(path)
        rec = result.records[0]
        assert np.array_equal(cols["k"], rec.k)
        assert np.array_equal(cols["loss"], rec.loss)
        assert np.array_equal(cols["dist_sq"], rec.dist_sq)
        assert np.all(np.isnan(cols["test_acc"]))  # no test split configured

    @pytest.mark.parametrize("damage, line", [
        (lambda rows: rows[:-1] + [rows[-1].rsplit(",", 2)[0]], 5),
        (lambda rows: rows[:2] + [rows[2].replace(",", ",x", 1)] + rows[3:], 3),
        (lambda rows: rows[:1] + [rows[1] + ",1.0"] + rows[2:], 2),
        *((_step_count(value), 3) for value in ("1.5", "inf", "nan", "1e30", str(2**63))),
    ], ids=["truncated", "not_a_number", "extra_cell", "fractional_k", "infinite_k", "nan_k",
            "k_past_int64_as_float", "k_past_int64"])
    def test_malformed_rows_rejected(self, tmp_path, damage, line):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        rows = path.read_text().splitlines()
        path.write_text("\n".join(damage(rows)) + "\n")
        with pytest.raises(FormatError, match=f"x_s1.csv:{line}:"):
            read_csv(path)

    @pytest.mark.parametrize("header", [
        "", "k,passes,loss", "k,passes,loss,test_acc,dist_sq,grad_evals,wall_s"],
        ids=["empty", "short", "renamed"])
    def test_wrong_header_rejected(self, tmp_path, header):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + rows[1:]) + "\n")
        with pytest.raises(FormatError, match="x_s1.csv: missing or wrong CSV header"):
            read_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:2] + ["", "   "] + rows[2:] + [""]) + "\n")
        cols = read_csv(path)
        assert np.array_equal(cols["k"], result.records[0].k)
        assert np.array_equal(cols["loss"], result.records[0].loss)

    @pytest.mark.parametrize("fault", ["k not increasing", "mismatched step grids"])
    def test_record_checks(self, fault):
        def record(ks):
            return ssag.RunRecord.from_rows([(k, k, 1.0, *[np.nan] * 2, k, 0.0, np.nan)
                                             for k in ks], seed=0)
        if fault == "k not increasing":
            with pytest.raises(ValueError, match="strictly increasing"):
                record([0, 2, 2])
        else:
            with pytest.raises(ValueError, match="mismatched step grids"):
                ssag.aggregate([record([0, 1, 2]), record([0, 2, 4])])

    def test_empty_record_header_only(self, tmp_path):
        rec = ssag.RunRecord.from_rows([], seed=0)
        (path,) = emit_csv([rec], tmp_path, "empty")
        assert path.read_text() == "k,passes,loss,test_acc,dist_sq,grad_evals,wall_ms\n"

    def test_byte_identical_modulo_wall_time(self, tmp_path):
        r1 = self._result(seeds=[3])
        r2 = self._result(seeds=[3])
        (p1,) = emit_csv(r1.records, tmp_path / "a", "run")
        (p2,) = emit_csv(r2.records, tmp_path / "b", "run")
        assert _strip_wall(p1.read_text()) == _strip_wall(p2.read_text())

    def test_summary_emitted(self, tmp_path):
        result = self._result()
        path = emit_summary_csv(result.agg, tmp_path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["k", "passes"]
        assert "loss_mean" in header and "dist_sq_std" in header


class TestPlot:
    def test_flat_series_horizontal_polyline(self, tmp_path):
        path = emit_plot([("flat", np.arange(5.0), np.full(5, 2.0))],
                         tmp_path / "p.svg")
        root = ET.parse(path).getroot()
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 1
        ys = {pt.split(",")[1] for pt in polys[0].attrib["points"].split()}
        assert len(ys) == 1

    def test_well_formed_and_version(self, tmp_path):
        path = emit_plot([("a", np.arange(4.0), np.array([1.0, 0.1, 0.01, 0.001]))],
                         tmp_path / "p.svg")
        root = ET.parse(path).getroot()  # parse failure would raise
        assert root.attrib.get("version") == "1.1"

    def test_two_series_distinct_colors_and_legend(self, tmp_path):
        path = emit_plot([("one", np.arange(3.0), np.array([1.0, 0.5, 0.2])),
                          ("two", np.arange(3.0), np.array([2.0, 1.0, 0.4]))],
                         tmp_path / "p.svg")
        root = ET.parse(path).getroot()
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 2
        assert polys[0].attrib["stroke"] != polys[1].attrib["stroke"]
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "one" in texts and "two" in texts

    def test_no_numeric_data_rejected(self, tmp_path):
        with pytest.raises(SsagError):
            emit_plot([("bad", np.arange(3.0), np.zeros(3))], tmp_path / "p.svg")

    @pytest.mark.parametrize("x, y", [([2.0, 2.0], [1.0, 0.5]), ([0.0, 1.0, 2.0], [100.0] * 3)],
                             ids=["one-x", "one-decade"])
    def test_a_zero_span_axis_still_plots(self, tmp_path, x, y):
        # a single x value, or every y in one power of ten, spans no range of
        # its axis; the axis widens by one unit or one decade
        path = emit_plot([("s", np.array(x), np.array(y))], tmp_path / "p.svg")
        root = ET.parse(path).getroot()
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 1
        points = [pt.split(",") for pt in polys[0].attrib["points"].split()]
        assert len(points) == len(x) and np.isfinite(np.array(points, float)).all()

    def test_markup_characters_in_labels_read_back(self, tmp_path):
        # '<', '>' and '&' in a label would break the SVG unless escaped
        path = emit_plot([("a<b & c>", np.arange(3.0), np.array([1.0, 0.5, 0.2]))],
                         tmp_path / "p.svg", metric_label="loss & gap", x_label="x <passes>")
        root = ET.parse(path).getroot()  # a parse failure would raise
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert texts[-1] == "a<b & c>"
        assert "loss & gap" in texts and "x <passes>" in texts

    def test_nonpositive_points_dropped(self, tmp_path):
        y = np.array([1.0, 0.0, np.nan, 0.5])
        path = emit_plot([("s", np.arange(4.0), y)], tmp_path / "p.svg")
        root = ET.parse(path).getroot()
        poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
        assert len(poly.attrib["points"].split()) == 2


class TestBuildDataset:
    def test_text_kind(self, tmp_path):
        ds = ssag.gen_synthetic(ssag.SyntheticSpec(
            means=np.array([[1.0], [-1.0]]), counts=(3, 3), stddev=0.2, seed=1))
        ssag.write_text(ds, tmp_path / "d.txt")
        train, test = build_dataset({"kind": "text", "path": str(tmp_path / "d.txt")})
        assert test is None
        assert np.array_equal(train.features, ds.features)

    def test_idx_kind_with_test_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 255, size=(20, 3, 3), dtype=np.uint8)
        labels = (np.arange(20) % 10).astype(np.uint8)
        write_idx(tmp_path / "tr-im", tmp_path / "tr-lb", images, labels)
        write_idx(tmp_path / "te-im", tmp_path / "te-lb", images[:10], labels[:10])
        train, test = build_dataset({
            "kind": "idx",
            "images": str(tmp_path / "tr-im"), "labels": str(tmp_path / "tr-lb"),
            "test_images": str(tmp_path / "te-im"), "test_labels": str(tmp_path / "te-lb")})
        assert train.n_samples == 20 and test.n_samples == 10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown dataset kind 'csv'"):
            build_dataset({"kind": "csv", "path": "d.csv"})


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        doc = _config_doc(**overrides)
        doc["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_unknown_subcommand_usage_error(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_estimate_constants_identity_fixture(self, tmp_path, capsys):
        ds = ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1]))
        ssag.write_text(ds, tmp_path / "fixture.txt")
        code = cli(["estimate-constants", "--data", str(tmp_path / "fixture.txt"),
                    "--objective", "ridge", "--lam", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "L = 0.6" in out
        assert "mu = 0.6" in out
        # ssag default h = 1/(2 C L) with C = 2
        assert f"h_ssag = {1.0 / (2 * 2 * 0.6):.12g}" in out
        assert f"h_sag = {1.0 / (16 * 0.6):.12g}" in out
        assert f"h_saga = {1.0 / (3 * 0.6):.12g}" in out
        printed = [ln.split(" = ")[0] for ln in out.splitlines() if ln.startswith("h_")]
        assert printed == [f"h_{kind}" for kind in ssag.optimizers.SPECS]

    def test_estimate_constants_warns_when_mu_is_zero(self, tmp_path, capsys):
        # a repeated column makes X'X/N singular, so unregularized ridge has mu = 0
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ssag.write_text(ssag.Dataset.regression(X, np.array([1.0, 2.0, 3.0])), tmp_path / "d.txt")
        code = cli(["estimate-constants", "--data", str(tmp_path / "d.txt"),
                    "--objective", "ridge", "--lam", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mu = 0\n" in out
        assert "warning: mu = 0, not strongly convex" in out.splitlines()

    def test_gen_data_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        code = cli(["gen-data", "--out", str(out), "--classes", "2", "--dim", "3",
                    "--count", "6", "--stddev", "0.5", "--seed", "9"])
        assert code == 0
        ds = ssag.read_text(out)
        assert ds.n_samples == 12 and ds.n_classes == 2 and ds.n_features == 3

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--count", "0"], ["gen-data", "--stddev", "-1"],
        ["gen-data", "--stddev", "nan"], ["gen-data", "--means", "1,a"],
        ["gen-data", "--counts", "5,x"], ["gen-data", "--classes", "0"],
        ["estimate-constants", "--lam", "-1"], ["estimate-constants", "--lam", "nan"],
        ["estimate-constants", "--lam", "inf"], ["gen-data", "--dim", "0"],
        ["gen-data", "--seed", "-1"]])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, argv):
        data = tmp_path / "data.txt"
        ssag.write_text(ssag.Dataset.from_class_labels(np.eye(2), np.array([0, 1])), data)
        out = tmp_path / "gen.txt"
        where = ["--out", str(out)] if argv[0] == "gen-data" else ["--data", str(data)]
        assert cli([argv[0], *where, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.txt"]

    @staticmethod
    def _corrupt_gzip(path):
        # a deflate stream with one byte flipped: zlib rejects it mid-stream
        raw = bytearray(gzip.compress(bytes(range(256)) * 40))
        raw[10] ^= 0x5A
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("case", ["text", "idx", "idx-gzip", "estimate-constants", "plot",
                                      "not-utf8"])
    def test_unreadable_data_file_is_usage_error(self, tmp_path, capsys, case):
        missing = tmp_path / "missing.dat"
        if case == "text":
            bad = missing
            argv = ["run", "-c", str(self._write_config(
                tmp_path, dataset={"kind": "text", "path": str(bad)}))]
        elif case.startswith("idx"):
            bad = missing if case == "idx" else self._corrupt_gzip(tmp_path / "images.gz")
            argv = ["run", "-c", str(self._write_config(
                tmp_path, dataset={"kind": "idx", "images": str(bad), "labels": str(missing)}))]
        elif case == "estimate-constants":
            bad = missing
            argv = ["estimate-constants", "--data", str(bad)]
        elif case == "plot":
            bad = missing
            argv = ["plot", str(bad), "--out", str(tmp_path / "p.svg")]
        else:
            bad = tmp_path / "latin1.txt"
            bad.write_bytes(b"p=1,C=1,labels=real\n\xe9,1\n")
            argv = ["estimate-constants", "--data", str(bad)]
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {bad}: cannot read" in err and "Traceback" not in err

    def test_run_writes_a_loss_plot(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=[1, 2])
        plot = tmp_path / "loss.svg"
        assert cli(["run", "--config", str(cfg), "--plot", str(plot)]) == 0
        root = ET.parse(plot).getroot()
        assert len([el for el in root.iter() if el.tag.endswith("polyline")]) == 1
        assert f"plot written to {plot}" in capsys.readouterr().out.splitlines()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_run_warns_of_a_diverged_seed(self, tmp_path, capsys, monkeypatch):
        # the second of two seeds runs at a step size that diverges
        run_seeds = ssag.bench.run_seeds
        monkeypatch.setattr(ssag.bench, "run_seeds", lambda config, obj, seeds, **kwargs: [
            *run_seeds(config, obj, seeds[:1], **kwargs),
            *run_seeds(replace(config, h=1e9), obj, seeds[1:], **kwargs)])
        cfg = self._write_config(tmp_path, seeds=[1, 2])
        with pytest.warns(RuntimeWarning, match="diverged"):
            assert cli(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ssag: 2 runs") and out[1] == "warning: 1 runs diverged"

    def test_run_zero_step_budget(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, steps=0, seeds=[1])
        assert cli(["run", "--config", str(cfg)]) == 0
        csv = next((tmp_path / "out").glob("ssag_s1.csv"))
        rows = csv.read_text().splitlines()
        assert len(rows) == 2  # header + initial point

    def test_run_with_override_flags(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=[1])
        code = cli(["run", "--config", str(cfg), "--steps", "40",
                    "--optimizer.h", "0.01", "--label", "ov"])
        assert code == 0
        cols = read_csv(tmp_path / "out" / "ov_s1.csv")
        assert cols["k"][-1] == 40

    def test_run_writes_the_label_summary(self, tmp_path, capsys):
        # summary.csv is the name of compare's joint table, a different schema
        cfg = self._write_config(tmp_path, seeds=[1, 2], steps=20, cadence=10)
        assert cli(["run", "--config", str(cfg), "--label", "ov"]) == 0
        names = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert names == ["ov_s1.csv", "ov_s2.csv", "ov_summary.csv"]
        header = (tmp_path / "out" / "ov_summary.csv").read_text().splitlines()[0]
        assert header.startswith("k,passes,loss_mean,loss_std")

    @pytest.mark.parametrize("argv, changes", [
        (["run", "--seeds", "1,2,3", "--steps", "40", "--cadence", "10", "--label", "ov",
          "--out", "d"], dict(seeds=[1, 2, 3], steps=40, cadence=10, label="ov", out_dir="d")),
        (["verify-bound", "--passes", "2.5", "--optimizer.kind", "fgd",
          "--seeds", ",".join(map(str, range(20)))],
         dict(passes=2.5, steps=None, optimizer={"kind": "fgd", "h": "auto", "n": 1},
              seeds=list(range(20)))),
        (["run", "--seeds=3", "--passes", "2", "--label", "7", "--out", "3"],
         dict(seeds=[3], passes=2, steps=None, label="7", out_dir="3")),
        (["run", "--passes", "2", "--steps", "30", "--record-dist", "false"],
         dict(steps=30, record_dist=False)),
    ], ids=["run", "verify-bound", "strings-and-int-passes", "last-budget-wins"])
    def test_overrides_load_as_the_retired_flags_did(self, tmp_path, monkeypatch, argv, changes):
        # the first two expected configs are the ones that dedicated --seeds,
        # --steps, --passes, --cadence, --label and --out options produced
        loaded, real_load = [], ssag.bench._load_config

        def load(args):
            loaded.append(real_load(args))
            return loaded[-1]

        monkeypatch.setattr(ssag.bench, "_load_config", load)
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_config_doc()), encoding="utf-8")
        assert cli([argv[0], "--config", str(path), *argv[1:]]) == 2
        expected = {**_config_doc(), "passes": None, "out_dir": None, "label": None,
                    "record_variance": False, **changes}
        assert asdict(loaded[0]) == expected
        assert type(loaded[0].passes) is type(expected["passes"])
        file_doc = {key: value for key, value in expected.items() if value is not None}
        assert (json.dumps(asdict(loaded[0]), sort_keys=True)
                == json.dumps(asdict(ExperimentConfig.from_dict(file_doc)), sort_keys=True))

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--steps", "2.5"], ["--cadence", "2.5"],
                                       ["--cadence", "0"], ["--passes", "0"], ["--seeds", "1,x"],
                                       ["--out"], ["--nosuch", "1"], ["stray"],
                                       ["--label", "a/b"], ["--label", "a\\b"],
                                       ["--label", "a\0b"]])
    def test_bad_override_is_usage_error(self, tmp_path, capsys, monkeypatch, flags):
        # --seed is retired: --seeds 3 sets the one-seed list
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        cfg = self._write_config(tmp_path)
        for command in ("run", "verify-bound"):
            assert cli([command, "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.count("usage error") == 2 and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("out_dir", 5), ("label", ["a"]), ("record_dist", "no"), ("record_variance", "no"),
        ("seeds", [True]), ("seeds", [1.0]), ("steps", 20.7), ("steps", -1), ("steps", True),
        ("cadence", 2.5), ("cadence", 0), ("passes", float("inf")), ("passes", True),
        ("optimizer", {"kind": "ssag", "n": 2.5}), ("optimizer", {"kind": "ssag", "n": True}),
        ("optimizer", {"kind": "svrg", "h": 0.1, "m": 2.5}),
        ("optimizer", {"kind": "minibatch", "h": 0.1, "n": "2"}),
        ("optimizer", {"kind": "ssag", "h": True}), ("optimizer", {"kind": "ssag", "h": "0.5"}),
        ("optimizer", {"kind": "saga", "h": 0.1, "prox_l1": True}),
        ("objective", {"kind": "logistic", "lam": True}),
        ("objective", {"kind": "logistic", "lam": "0.1"}),
        ("dataset", {"kind": "synthetic", "means": [[2.0, 0.0], [-2.0, 0.0]],
                     "counts": [10, 10], "stddev": True}),
        ("seeds", [5, 5]),
        ("seeds", [-1]),
        ("label", "sub/run"),
    ])
    def test_malformed_field_fails_at_load_and_writes_nothing(self, tmp_path, capsys,
                                                              monkeypatch, key, value):
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        doc = _config_doc(**{"seeds": [1], key: value})
        if key == "passes":
            del doc["steps"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_run_bad_override_section(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli(["run", "--config", str(cfg), "--nosuch.h", "1"]) == 1
        assert cli(["run", "--config", str(cfg), "--nosuchfield", "1"]) == 1

    def test_run_top_level_override(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=[1])
        code = cli(["run", "--config", str(cfg), "--record-dist", "false",
                    "--label", "nodist"])
        assert code == 0
        cols = read_csv(tmp_path / "out" / "nodist_s1.csv")
        assert np.all(np.isnan(cols["dist_sq"]))

    def test_verify_bound_theorem2_passes(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=list(range(20)), steps=400,
                                 cadence=50)
        code = cli(["verify-bound", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass fraction 1.0000" in out
        assert "first failing k = none" in out
        assert "PASS" in out

    def test_verify_bound_reports_where_it_fails(self, tmp_path, capsys):
        # a wide within-class spread leaves SSAG on a resampling noise floor
        # that the geometric envelope falls through
        doc = _config_doc(seeds=list(range(20)), steps=2000, cadence=100)
        doc["dataset"]["stddev"] = 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "out")}), encoding="utf-8")
        code = cli(["verify-bound", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 2 and "FAIL" in out
        passed, recorded = map(int, re.search(r"(\d+)/(\d+) recorded", out).groups())
        first = int(re.search(r"^first failing k = (\d+)$", out, re.M).group(1))
        assert recorded == 21 and first % 100 == 0 and 0 < first <= 2000
        assert passed >= first // 100  # every point before the first failure passed
        value, bound = map(float, re.search(
            r"^seed mean at the last recorded k = 2000: (\S+) against bound (\S+)$",
            out, re.M).groups())
        assert value > 1.05 * bound

    def test_verify_bound_theorem1_fgd(self, tmp_path, capsys):
        doc_overrides = dict(seeds=list(range(20)), steps=300, cadence=10)
        cfg = self._write_config(tmp_path, **doc_overrides)
        code = cli(["verify-bound", "--config", str(cfg),
                    "--optimizer.kind", "fgd"])
        out = capsys.readouterr().out
        assert code == 0 and "PASS" in out

    def test_verify_bound_theorem1_sgd(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=list(range(20)), steps=2000,
                                 cadence=100)
        code = cli(["verify-bound", "--config", str(cfg),
                    "--optimizer.kind", "sgd", "--optimizer.h", "0.1"])
        out = capsys.readouterr().out
        assert code == 0 and "lambda" in out

    @pytest.mark.parametrize("flags", [["--slack", "0.1"], ["--min-pass", "0.5"],
                                       ["--min-seeds", "2"], ["--per-class-f"]],
                             ids=["slack", "min-pass", "min-seeds", "per-class-f"])
    def test_verify_bound_retired_flags_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                                         flags):
        # the slack, pass fraction and seed minimum are fixed, the ratios per stratum
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        cfg = self._write_config(tmp_path, seeds=list(range(20)))
        assert cli(["verify-bound", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_plot_rejects_an_unknown_flag(self, tmp_path, capsys):
        # only run and verify-bound take config overrides; no file is read or written
        svg = tmp_path / "fig.svg"
        assert cli(["plot", str(tmp_path / "none.csv"), "--out", str(svg), "--bogus", "1"]) == 1
        err = capsys.readouterr().err
        assert "usage error: unrecognized arguments: --bogus 1" in err and "Traceback" not in err
        assert not svg.exists()

    def test_plot_from_csv(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=[1])
        cli(["run", "--config", str(cfg)])
        csv = str(tmp_path / "out" / "ssag_s1.csv")
        svg = tmp_path / "fig.svg"
        assert cli(["plot", csv, "--metric", "loss", "--out", str(svg)]) == 0
        ET.parse(svg)

    def test_compare_emits_joint_artifacts(self, tmp_path, capsys):
        paths = []
        for kind, label in (("ssag", "a"), ("sgd", "b")):
            doc = _config_doc(seeds=[1, 2], steps=80, cadence=20, label=label)
            doc["optimizer"]["kind"] = kind
            doc["out_dir"] = str(tmp_path / "cmp")
            p = tmp_path / f"{kind}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(p))
        code = cli(["compare", *paths, "--metric", "loss", "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert (tmp_path / "cmp" / "compare.svg").exists()
        assert (tmp_path / "cmp" / "a_s1.csv").exists()
        assert (tmp_path / "cmp" / "b_s2.csv").exists()
        summary = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("label,seeds,passes,loss_avg")
        assert len(summary) == 3  # header + one aggregate row per config

    def _compare_configs(self, tmp_path, *docs):
        paths = []
        for i, doc in enumerate(docs):
            path = tmp_path / f"c{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        return cli(["compare", *paths, "--out", str(tmp_path / "cmp")])

    def test_compare_rejects_a_shared_label(self, tmp_path, capsys):
        # two unlabelled ssag configs would write the same ssag_s1.csv
        doc = _config_doc(seeds=[1], steps=20, cadence=10)
        assert self._compare_configs(tmp_path, doc, dict(doc, seeds=[1, 2])) == 1
        assert "share the labels ['ssag']" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_compare_rejects_a_label_with_a_path_separator_before_running(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        good = _config_doc(seeds=[1], steps=20, cadence=10, label="good")
        bad = _config_doc(seeds=[1], steps=20, cadence=10, label="sub/bad")
        assert self._compare_configs(tmp_path, good, bad) == 1
        err = capsys.readouterr().err
        assert "label must be null or a string without" in err and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_compare_loads_every_config_before_running(self, tmp_path, capsys):
        good = _config_doc(seeds=[1], steps=20, cadence=10, label="good")
        bad = _config_doc(seeds=[1], steps=20, cadence=10, label="bad")
        bad["optimizer"]["n"] = 0
        assert self._compare_configs(tmp_path, good, bad) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_compare_writes_nothing_when_a_later_test_split_mismatches(self, tmp_path, capsys):
        good = _config_doc(seeds=[1], steps=20, cadence=10, label="good")
        bad = self._text_config(tmp_path, ["--dim", "3", "--count", "10"],
                                ["--dim", "2", "--count", "5"], {"kind": "ssag", "h": 0.1})
        assert self._compare_configs(tmp_path, good, json.loads(bad.read_text())) == 1
        err = capsys.readouterr().err
        assert "test split has 2 features" in err and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_compare_writes_nothing_when_a_later_batch_exceeds_a_class(self, tmp_path, capsys):
        good = _config_doc(seeds=[1], steps=20, cadence=10, label="good")
        bad = _config_doc(seeds=[1], steps=20, cadence=10, label="bad")
        bad["optimizer"]["n"] = 11  # both classes hold 10 samples
        assert self._compare_configs(tmp_path, good, bad) == 1
        err = capsys.readouterr().err
        assert "exceeds the smallest class" in err and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_or_malformed_config_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        assert cli(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert cli(["run", "--config", str(tmp_path / "bad.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("usage error: cannot read config") == 2
        assert "Traceback" not in err

    def test_verify_bound_missing_or_malformed_config_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("[1, 2]", encoding="utf-8")
        for name in ("nope.json", "bad.json"):
            assert cli(["verify-bound", "--config", str(tmp_path / name)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_run_unknown_optimizer_key_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)  # all fail at load
        path = tmp_path / "typo.json"
        for key, value in (("hh", 0.3), ("h", "abc"), ("n", 0), ("schedule", "constant"),
                           ("h", float("nan")), ("h", float("inf")), ("h", -1)):
            doc = _config_doc(seeds=[1])
            doc["optimizer"][key] = value
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert cli(["run", "--config", str(path)]) == 1, (key, value)
        for value in ("abc", -1.0, float("nan")):  # saga is the kind that reads prox_l1
            doc = _config_doc(seeds=[1], optimizer={"kind": "saga", "h": 0.1, "prox_l1": value})
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert cli(["run", "--config", str(path)]) == 1, value
            err = capsys.readouterr().err
            assert "Traceback" not in err and ("malformed config value" in err
                                               or "prox_l1 must be" in err), (value, err)
        path.write_text(json.dumps(_config_doc(seeds="ab")), encoding="utf-8")
        assert cli(["run", "--config", str(path)]) == 1
        for section, key in (("dataset", "stddev"), ("objective", "lam")):
            doc = _config_doc(seeds=[1])
            doc[section][key] = "abc"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert cli(["run", "--config", str(path)]) == 1, key
        # a setting the kind does not read must keep its RunConfig default
        for optimizer in ({"kind": "sag", "prox_l1": 5.0, "m": 3, "n": 4},
                          {"kind": "sag", "prox_l1": 5.0}, {"kind": "fgd", "n": 4},
                          {"kind": "sgd", "m": 3}, {"kind": "minibatch", "prox_l1": 0.0},
                          {"kind": "svrg", "n": 2}, {"kind": "ssag", "m": 3}):
            doc = _config_doc(seeds=[1])
            doc["optimizer"] = optimizer
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert cli(["run", "--config", str(path)]) == 1, optimizer
        cfg = self._write_config(tmp_path, seeds=[1])
        assert cli(["run", "--config", str(cfg), "--optimizer.hh", "0.3"]) == 1
        assert cli(["run", "--config", str(cfg), "--optimizer.kind", "sgd",
                    "--optimizer.n", "2"]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "ignores the settings ['m', 'n', 'prox_l1'" in err

    def test_settings_at_their_defaults_pass_for_every_kind(self):
        for kind in ssag.optimizers.SPECS:
            doc = _config_doc()
            doc["optimizer"] = {"kind": kind, "h": 0.1, "n": 1, "m": None, "prox_l1": None}
            assert ExperimentConfig.from_dict(doc).run_config.kind == kind
        doc = _config_doc()
        doc["optimizer"] = {"kind": "minibatch", "n": 4}
        assert ExperimentConfig.from_dict(doc).run_config.n == 4

    def test_pass_budget_of_zero_steps_is_usage_error(self, tmp_path, capsys):
        # half a pass of full-gradient steps rounds to 0 steps
        cfg = self._write_config(tmp_path, seeds=[1], steps=None, passes=0.5,
                                 optimizer={"kind": "fgd", "h": 0.1})
        assert cli(["run", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "0.5 passes give fgd 0 steps" in err
        # half a pass of SVRG is nearer no step than the first step's N + 2
        cfg = self._write_config(tmp_path, seeds=[1], steps=None, passes=0.5,
                                 dataset=_ENVELOPE_DATASET, optimizer={"kind": "svrg"})
        assert cli(["run", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "0.5 passes give svrg 0 steps" in err

    def _text_config(self, tmp_path, train_args, test_args, optimizer):
        for name, args in (("train", train_args), ("test", test_args)):
            assert cli(["gen-data", "--out", str(tmp_path / f"{name}.txt"), *args]) == 0
        doc = _config_doc(seeds=[1], steps=20, record_dist=False, optimizer=optimizer,
                          out_dir=str(tmp_path / "out"))
        doc["dataset"] = {"kind": "text", "path": str(tmp_path / "train.txt"),
                          "test_path": str(tmp_path / "test.txt")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @pytest.mark.parametrize("test_args", [["--dim", "4", "--count", "5"],
                                           ["--dim", "3", "--classes", "3", "--count", "5"]],
                             ids=["features", "classes"])
    def test_mismatched_test_split_is_usage_error(self, tmp_path, capsys, test_args):
        path = self._text_config(tmp_path, ["--dim", "3", "--count", "10"], test_args,
                                 {"kind": "ssag", "h": 0.1})
        assert cli(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "test split has" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_minibatch_larger_than_sample_count_is_usage_error(self, tmp_path, capsys):
        path = self._text_config(tmp_path, ["--dim", "3", "--count", "10"],
                                 ["--dim", "3", "--count", "5"],
                                 {"kind": "minibatch", "h": 0.1, "n": 500})
        assert cli(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "batch size 500 exceeds the sample count (20 samples)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert cli(["run", "--config", str(path), "--optimizer.n", "20"]) == 0

    @pytest.mark.parametrize("kind", ["ridge", "quadratic"])
    def test_test_split_without_classifier_fails_at_load(self, tmp_path, capsys,
                                                         monkeypatch, kind):
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        doc = _config_doc(seeds=[1])
        doc["objective"] = {"kind": kind}
        doc["dataset"]["test_counts"] = [3, 3]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "does not classify" in err and "Traceback" not in err
        doc["objective"] = {"kind": "logistic"}
        assert ExperimentConfig.from_dict(doc).run_config.kind == "ssag"

    @pytest.mark.parametrize("section, value, reason", [
        ("optimizer", {"kind": "sag"}, "no bound envelope applies to the sag optimizer"),
        ("objective", {"kind": "mlp", "hidden": [3]}, "no certified constants"),
        ("seeds", list(range(19)), "verify-bound needs at least 20 seeds, got 19"),
    ])
    def test_verify_bound_inapplicable_config_fails_before_running(
            self, tmp_path, capsys, monkeypatch, section, value, reason):
        monkeypatch.setattr(ssag.bench, "run_experiment", _never_run)
        doc = _config_doc(seeds=list(range(20)), record_dist=False)
        doc["optimizer"]["h"] = 0.1
        doc[section] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli(["verify-bound", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
