"""Orchestration, CSV/SVG artifacts, and the command-line interface."""

import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ssag
from ssag.bench import (ExperimentConfig, build_dataset, cli, emit_csv,
                        emit_plot, emit_summary_csv, read_csv, run_experiment)
from ssag.errors import ConfigError, FormatError, SsagError
from ssag.ingest import write_idx


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
        ("dataset", {"kind": "text", "path": 3}, False),
        ("dataset", {"kind": "text", "path": "a", "add_bias": "yes"}, False),
        ("objective", {"kind": "logistic", "lam": "abc"}, False),
        ("objective", {"kind": "logistic", "lam": -0.1}, False),
    ])
    def test_section_kinds_and_keys_checked_at_load(self, section, value, accepted):
        doc = _config_doc()
        doc[section] = value
        if accepted:
            assert ExperimentConfig.from_dict(doc).run_config.kind == "ssag"
        else:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(doc)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_config_doc(seeds=[]))

    def test_hash_stability(self):
        a = ExperimentConfig.from_dict(_config_doc())
        b = ExperimentConfig.from_dict(_config_doc())
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig.from_dict(_config_doc(cadence=10))
        assert a.config_hash() != c.config_hash()


class TestRunExperiment:
    def test_deterministic_and_duplicate_seeds(self):
        cfg = ExperimentConfig.from_dict(_config_doc(seeds=[5, 5]))
        result = run_experiment(cfg)
        assert result.records[0].content_hash() == result.records[1].content_hash()
        again = run_experiment(cfg)
        assert [r.content_hash() for r in again.records] == \
               [r.content_hash() for r in result.records]

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
        doc = cfg.to_dict()
        doc.pop("steps")
        cfg = ExperimentConfig.from_dict(doc)
        result = run_experiment(cfg)
        assert result.records[0].passes[-1] == pytest.approx(3.0)

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
        assert cfg.resolved_out_dir() == tmp_path / "envout"


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
    ], ids=["truncated", "not_a_number", "extra_cell"])
    def test_malformed_rows_rejected(self, tmp_path, damage, line):
        result = self._result(seeds=[1])
        (path,) = emit_csv(result.records, tmp_path, "x")
        rows = path.read_text().splitlines()
        path.write_text("\n".join(damage(rows)) + "\n")
        with pytest.raises(FormatError, match=f"x_s1.csv:{line}:"):
            read_csv(path)

    def test_empty_record_header_only(self, tmp_path):
        rec = ssag.RunRecord.from_rows([], seed=0, config_hash="x")
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
        assert printed == [f"h_{kind}" for kind in ssag.optimizers.OPTIMIZER_KINDS]

    def test_gen_data_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        code = cli(["gen-data", "--out", str(out), "--classes", "2", "--dim", "3",
                    "--count", "6", "--stddev", "0.5", "--seed", "9"])
        assert code == 0
        ds = ssag.read_text(out)
        assert ds.n_samples == 12 and ds.n_classes == 2 and ds.n_features == 3

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

    def test_verify_bound_per_class_ratios(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seeds=list(range(20)), steps=400,
                                 cadence=50)
        code = cli(["verify-bound", "--config", str(cfg), "--per-class-f"])
        out = capsys.readouterr().out
        assert code == 0 and "PASS" in out

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
        for key, value in (("hh", 0.3), ("h", "abc"), ("n", 0), ("schedule", "bogus"),
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
        for optimizer in ({"kind": "sag", "prox_l1": 5.0, "schedule": "inv_k", "m": 3, "n": 4},
                          {"kind": "sag", "prox_l1": 5.0}, {"kind": "fgd", "n": 4},
                          {"kind": "sgd", "m": 3}, {"kind": "minibatch", "prox_l1": 0.0},
                          {"kind": "saga", "schedule": "inv_k"}, {"kind": "svrg", "n": 2},
                          {"kind": "ssag", "m": 3}, {"kind": "ssag", "schedule": "inv_k"}):
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
            doc["optimizer"] = {"kind": kind, "h": 0.1, "n": 1, "m": None, "prox_l1": None,
                                "schedule": "constant"}
            assert ExperimentConfig.from_dict(doc).run_config.kind == kind
        doc = _config_doc()
        doc["optimizer"] = {"kind": "minibatch", "n": 4, "schedule": "inv_k"}
        assert ExperimentConfig.from_dict(doc).run_config.n == 4

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
