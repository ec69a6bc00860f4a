"""IDX parsing, synthetic generation, and the text dataset format."""

import gzip
import json

import numpy as np
import pytest

import ssag
import ssag.bench
from conftest import peak_alloc_bytes
from ssag.errors import FormatError
from ssag.ingest import (SyntheticSpec, gen_synthetic, read_idx, read_text,
                         write_idx, write_text)


def _idx_fixture(tmp_path, n=30, rows=4, cols=4, seed=0, all_digits=True):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    if all_digits:
        labels = np.arange(n, dtype=np.uint8) % 10
    else:
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    write_idx(img_path, lab_path, images, labels)
    return img_path, lab_path, images, labels


class TestIdx:
    def test_known_bytes_roundtrip(self, tmp_path):
        # crafted 2x2 images with known pixel bytes, followed by blank images
        # that carry the digits the crafted ones do not
        crafted = np.array([[[0, 51], [102, 153]],
                            [[204, 255], [10, 20]]], dtype=np.uint8)
        images = np.concatenate([crafted, np.zeros((8, 2, 2), dtype=np.uint8)])
        labels = np.array([3, 7, 0, 1, 2, 4, 5, 6, 8, 9], dtype=np.uint8)
        img, lab = tmp_path / "im", tmp_path / "lb"
        write_idx(img, lab, images, labels)
        ds = read_idx(img, lab)
        expected = images.reshape(10, 4).astype(np.float64) / 255.0
        assert np.array_equal(ds.features, expected)
        assert ds.labels.tolist() == labels.tolist()

    @pytest.mark.parametrize("shape", [(4, 16), (4, 2, 2, 1)])
    def test_write_refuses_images_not_a_stack_of_matrices(self, tmp_path, shape):
        labels = np.arange(4, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"\(n, rows, cols\)"):
            write_idx(tmp_path / "im", tmp_path / "lb", np.zeros(shape, np.uint8), labels)
        assert not (tmp_path / "im").exists()

    def test_absent_digit_rejected(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        img, lab = tmp_path / "im", tmp_path / "lb"
        write_idx(img, lab, images, np.array([0, 2, 2, 0], dtype=np.uint8))
        with pytest.raises(FormatError, match=r"digits \[1, 3, 4, 5, 6, 7, 8, 9\]"):
            read_idx(img, lab)

    def test_labels_are_class_indices_under_limit(self, tmp_path):
        img, lab, _, labels = _idx_fixture(tmp_path, n=30)
        ds = read_idx(img, lab, limit=10)
        assert ds.n_classes == 10
        assert np.array_equal(ds.class_of, ds.labels)
        assert np.array_equal(ds.labels, labels[:10])
        ssag.Mlp(ds, hidden=(3,))  # labels are valid class indices
        with pytest.raises(FormatError, match=r"digits \[5, 6, 7, 8, 9\]"):
            read_idx(img, lab, limit=5)

    def test_magic_bytes_exact(self, tmp_path):
        img, lab, _, _ = _idx_fixture(tmp_path)
        assert int.from_bytes(img.read_bytes()[:4], "big") == 2051
        assert int.from_bytes(lab.read_bytes()[:4], "big") == 2049

    def test_shapes_and_scaling(self, tmp_path):
        img, lab, images, labels = _idx_fixture(tmp_path)
        ds = read_idx(img, lab)
        assert ds.n_samples == 30 and ds.n_features == 16 and ds.n_classes == 10
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_wrong_magic_named_in_error(self, tmp_path):
        img, lab, _, _ = _idx_fixture(tmp_path)
        raw = bytearray(img.read_bytes())
        raw[3] = 9  # corrupt the magic
        img.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="2051"):
            read_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab, _, _ = _idx_fixture(tmp_path)
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(FormatError, match="payload"):
            read_idx(img, lab)

    def test_dimensions_whose_product_wraps_int64_are_refused(self, tmp_path):
        # 2**16 * 2**24 * 2**24 = 2**64, which an int64 product wraps to 0:
        # a header-only image file would pass the size check and fail in reshape
        img, lab = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
        img.write_bytes(np.array([2051, 2**16, 2**24, 2**24], ">u4").tobytes())
        lab.write_bytes(np.array([2049, 2**16], ">u4").tobytes()
                        + (np.arange(2**16) % 10).astype(np.uint8).tobytes())
        with pytest.raises(FormatError, match=rf"payload holds 0 bytes, dimensions "
                                              rf"\(65536, 16777216, 16777216\) require {2**64}"):
            read_idx(img, lab)

    @pytest.mark.parametrize("keep", [0, 3, 15], ids=["empty", "part-of-magic", "part-of-dims"])
    def test_file_shorter_than_its_header(self, tmp_path, keep):
        # an image file's header is its magic and three dimensions, 16 bytes
        img, lab, _, _ = _idx_fixture(tmp_path)
        img.write_bytes(img.read_bytes()[:keep])
        with pytest.raises(FormatError, match=rf"truncated header \({keep} bytes\)"):
            read_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab, images, labels = _idx_fixture(tmp_path)
        other_lab = tmp_path / "short-labels"
        write_idx(tmp_path / "other-im", other_lab, images[:10], labels[:10])
        with pytest.raises(FormatError, match="count"):
            read_idx(img, other_lab)

    def test_label_out_of_digit_range(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8)
        labels[5] = 10
        img, lab = tmp_path / "im", tmp_path / "lb"
        write_idx(img, lab, images, labels)
        with pytest.raises(FormatError, match="10"):
            read_idx(img, lab)

    def test_limit_and_bias(self, tmp_path):
        img, lab, images, labels = _idx_fixture(tmp_path)
        ds = read_idx(img, lab, add_bias=True, limit=20)
        assert ds.n_samples == 20
        assert ds.n_features == 17
        assert np.all(ds.features[:, -1] == 1.0)

    # -5 dropped the last 5 samples, 0 and True raised a FormatError about
    # absent digits, and 2.5 numpy's slice TypeError
    @pytest.mark.parametrize("limit", [-5, 0, True, np.True_, 2.5, "3"])
    def test_limit_outside_its_rule_is_refused(self, tmp_path, limit):
        img, lab, _, _ = _idx_fixture(tmp_path)
        with pytest.raises(ValueError, match="limit None or an integer >= 1"):
            read_idx(img, lab, limit=limit)
        assert read_idx(img, lab, limit=np.int64(30)).n_samples == 30

    # 2 appended two constant columns; "yes" and None raised a TypeError in read_text
    @pytest.mark.parametrize("add_bias", [2, 1, 0, "yes", None])
    @pytest.mark.parametrize("reader", ["idx", "text"])
    def test_add_bias_must_be_a_bool(self, tmp_path, reader, add_bias):
        img, lab, _, _ = _idx_fixture(tmp_path)
        write_text(read_idx(img, lab), tmp_path / "data.txt")
        read = {"idx": lambda **kw: read_idx(img, lab, **kw),
                "text": lambda **kw: read_text(tmp_path / "data.txt", **kw)}[reader]
        with pytest.raises(ValueError, match="add_bias must be a bool"):
            read(add_bias=add_bias)
        assert read(add_bias=True).n_features == 17 and read(add_bias=False).n_features == 16

    def test_limit_converts_only_the_rows_kept(self, tmp_path):
        # 2000 images of 28 x 28: the whole file as float64 is 12.5 MB, while
        # the first 100 rows are 0.63 MB
        img, lab, images, _ = _idx_fixture(tmp_path, n=2000, rows=28, cols=28)
        whole = read_idx(img, lab)
        assert np.array_equal(whole.features, images.reshape(2000, -1).astype(np.float64) / 255.0)
        assert peak_alloc_bytes(read_idx, img, lab, limit=100) < images.size * 8
        limited = read_idx(img, lab, limit=100)
        assert limited.features.tobytes() == whole.features[:100].tobytes()
        assert np.array_equal(limited.labels, whole.labels[:100])

    def test_limited_read_holds_one_copy_of_the_file(self, tmp_path):
        # the pixels are a view of the bytes read: a 2000-image 28 x 28 file
        # read with limit=10 peaked at 2.00x the file's bytes when the payload
        # was copied out of them, and peaks at 1.09x as a view
        img, lab, images, _ = _idx_fixture(tmp_path, n=2000, rows=28, cols=28)
        assert peak_alloc_bytes(read_idx, img, lab, limit=10) < 1.5 * img.stat().st_size
        limited = read_idx(img, lab, limit=10)
        expected = images.reshape(2000, -1)[:10].astype(np.float64) / 255.0
        assert limited.features.tobytes() == expected.tobytes()

    def test_partition_disjoint_exhaustive(self, tmp_path):
        img, lab, _, _ = _idx_fixture(tmp_path, n=40)
        ds = read_idx(img, lab)
        merged = np.sort(np.concatenate(ds.partition))
        assert np.array_equal(merged, np.arange(40))

    @pytest.mark.parametrize("limit", [None, 20])
    def test_gzipped_pair_reads_as_the_plain_pair(self, tmp_path, limit):
        # the MNIST files are distributed gzipped; a read decompresses them
        img, lab, _, _ = _idx_fixture(tmp_path, n=40)
        packed = [path.with_name(path.name + ".gz") for path in (img, lab)]
        for path, gz in zip((img, lab), packed):
            gz.write_bytes(gzip.compress(path.read_bytes()))
        plain, unpacked = read_idx(img, lab, limit=limit), read_idx(*packed, limit=limit)
        assert unpacked.n_samples == (limit or 40)
        assert np.array_equal(unpacked.features, plain.features)
        assert np.array_equal(unpacked.labels, plain.labels)
        assert len(unpacked.partition) == len(plain.partition) == 10
        for cell, plain_cell in zip(unpacked.partition, plain.partition):
            assert np.array_equal(cell, plain_cell)


class TestBuilderMemory:
    @pytest.mark.parametrize("builder", ["gen_synthetic", "read_text", "read_idx"])
    def test_builder_peaks_under_one_and_a_half_matrices(self, tmp_path, builder):
        # each builder hands its fresh matrix to Dataset, which keeps it
        # read-only instead of copying it; with the copy, gen_synthetic peaked
        # at 2.36x the matrix (N = 20 000, p = 20), read_idx at 2.25x and the
        # whole-text read_text at 13.3x
        spec = SyntheticSpec(means=np.random.default_rng(0).standard_normal((2, 20)),
                             counts=(10_000, 10_000), stddev=1.0, seed=1)
        if builder == "gen_synthetic":
            call = (gen_synthetic, spec)
        elif builder == "read_text":
            path = tmp_path / "data.txt"
            write_text(gen_synthetic(spec), path)
            call = (read_text, path)
        else:
            img, lab, _, _ = _idx_fixture(tmp_path, n=500, rows=28, cols=28)
            call = (read_idx, img, lab)
        ds = call[0](*call[1:])  # first: lazy imports inside numpy do not count
        assert not ds.features.flags.writeable
        assert peak_alloc_bytes(*call) < 1.5 * ds.features.nbytes


class TestSynthetic:
    def test_zero_stddev_exact_means(self):
        means = np.array([[1.0, 2.0], [-3.0, 4.0]])
        ds = gen_synthetic(SyntheticSpec(means=means, counts=(3, 2), stddev=0.0))
        for j, cell in enumerate(ds.partition):
            assert np.all(ds.features[cell] == means[j])

    def test_empirical_means_within_three_sigma(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        counts = (400, 400)
        ds = gen_synthetic(SyntheticSpec(means=means, counts=counts, stddev=0.1, seed=2))
        for j, cell in enumerate(ds.partition):
            emp = ds.features[cell].mean(axis=0)
            tol = 3.0 * 0.1 / np.sqrt(counts[j])
            assert np.all(np.abs(emp - means[j]) <= tol)

    def test_seed_determinism(self):
        spec = SyntheticSpec(means=np.array([[0.0]]), counts=(5,), stddev=1.0, seed=9)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(means=np.zeros((2, 3)), counts=(1,), stddev=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(means=np.zeros((1, 3)), counts=(1,), stddev=-0.5)
        for stddev in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SyntheticSpec(means=np.zeros((1, 3)), counts=(1,), stddev=stddev)
        with pytest.raises(ValueError):
            SyntheticSpec(means=np.array([[0.0, np.nan]]), counts=(1,), stddev=1.0)

    @pytest.mark.parametrize("field, value", [
        ("counts", (5.5, 5)), ("counts", (True, 5)), ("counts", ("5", 5)),
        ("stddev", True), ("stddev", "0.5"),
        ("seed", 2.7), ("seed", True), ("seed", "3"),
        ("means", [["1"], ["-1"]]), ("means", [[1.0], [True]]), ("means", [[1.0, 0.0], [2.0]]),
        ("means", np.array([[True], [False]]))])
    def test_rejects_a_value_it_would_have_to_convert(self, field, value):
        spec = dict(means=np.array([[1.0], [-1.0]]), counts=(5, 5), stddev=0.5, seed=1)
        with pytest.raises(ValueError, match=f"{field} must be"):
            SyntheticSpec(**{**spec, field: value})


class TestTextFormat:
    def test_classification_roundtrip(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec(means=np.array([[1.0, -0.5], [0.25, 2.0]]),
                                         counts=(4, 5), stddev=0.7, seed=3))
        path = tmp_path / "data.txt"
        write_text(ds, path)
        back = read_text(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert [c.tolist() for c in back.partition] == [c.tolist() for c in ds.partition]

    def test_regression_roundtrip(self, tmp_path):
        ds = ssag.Dataset.regression(np.array([[0.1], [0.2]]), np.array([1.5, -2.25]))
        path = tmp_path / "reg.txt"
        write_text(ds, path)
        back = read_text(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.n_classes == 1

    def test_full_precision(self, tmp_path):
        X = np.array([[np.pi], [1.0 / 3.0]])
        ds = ssag.Dataset.regression(X, np.array([np.e, np.sqrt(2.0)]))
        path = tmp_path / "pi.txt"
        write_text(ds, path)
        back = read_text(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_bias_column(self, tmp_path):
        ds = ssag.Dataset.regression(np.array([[2.0], [3.0]]), np.array([0.0, 1.0]))
        path = tmp_path / "b.txt"
        write_text(ds, path)
        back = read_text(path, add_bias=True)
        assert back.n_features == 2
        assert np.all(back.features[:, 1] == 1.0)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\n1,2,0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_text(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("p=2,C=1,labels=int\n1.0,0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="columns"):
            read_text(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            read_text(path)

    def test_unknown_label_kind_names_the_file(self, tmp_path):
        # an unknown kind must not fall back to one-cell regression data
        path = tmp_path / "kind.txt"
        path.write_text("p=1,C=2,labels=integer\n0.5,0\n1.5,1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"kind\.txt: unknown label kind 'integer'"):
            read_text(path)

    @pytest.mark.parametrize("label", ["2", "-1", "0.5"])
    def test_integer_label_outside_class_range_names_the_line(self, tmp_path, label):
        # 0.5 would otherwise be truncated to class 0
        path = tmp_path / "range.txt"
        path.write_text(f"p=1,C=2,labels=int\n0.5,0\n1.5,1\n2.5,{label}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"range\.txt:4: label {label} is not a class"):
            read_text(path)

    @pytest.mark.parametrize("row", ["abc,1", "0.5,one"], ids=["feature", "label"])
    def test_non_numeric_cell_names_the_line(self, tmp_path, row):
        # the blank line 3 still counts, so the bad row is line 4 of the file
        path = tmp_path / "cells.txt"
        path.write_text(f"p=1,C=2,labels=int\n0.5,0\n\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"cells\.txt:4: malformed cell"):
            read_text(path)

    @pytest.mark.parametrize("labels,row", [
        ("int", "nan,1"), ("int", "inf,0"), ("real", "-inf,0.5"), ("real", "0.5,nan"),
        ("real", "0.5,-inf")])
    def test_non_finite_cell_names_the_line(self, tmp_path, labels, row):
        path = tmp_path / "finite.txt"
        path.write_text(f"p=1,C=2,labels={labels}\n0.5,0\n1.5,1\n{row}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"finite\.txt:4: non-finite cell"):
            read_text(path)

    def test_declared_class_without_a_sample_is_named(self, tmp_path):
        path = tmp_path / "absent.txt"
        path.write_text("p=1,C=4,labels=int\n0.5,0\n1.5,2\n2.5,0\n", encoding="utf-8")
        with pytest.raises(FormatError,
                           match=r"absent\.txt: classes \[1, 3\] occur in none of the 3 samples"):
            read_text(path)

    @pytest.mark.parametrize("body,message", [
        ("p=1,C=2,labels=real\n0.5,0\nnan,1\n", "bad.txt:3: non-finite cell"),
        ("p=1,C=2,labels=real\n0.5,0\n1.5,nan\n", "bad.txt:3: non-finite cell"),
        ("p=1,C=3,labels=int\n0.5,0\n1.5,1\n", "bad.txt: classes [2] occur in none"),
        ("p=1,C=1,labels=real\n", "bad.txt: no samples"),
        ("p=0,C=1,labels=real\n0.5\n1.0\n1.5\n", "bad.txt: malformed header 'p=0,C=1"),
    ], ids=["feature", "target", "absent-class", "header-only", "no-features"])
    @pytest.mark.parametrize("command", ["estimate-constants", "run"])
    def test_bad_data_file_is_a_usage_error_in_the_cli(self, tmp_path, capsys, body, message,
                                                       command):
        path = tmp_path / "bad.txt"
        path.write_text(body, encoding="utf-8")
        if command == "run":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({
                "dataset": {"kind": "text", "path": str(path)},
                "objective": {"kind": "ridge", "lam": 0.1}, "optimizer": {"kind": "sgd"},
                "seeds": [0], "steps": 5, "out_dir": str(tmp_path / "out")}), encoding="utf-8")
            argv = ["run", "--config", str(config)]
        else:
            argv = ["estimate-constants", "--data", str(path)]
        assert ssag.bench.cli(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("C", [0, 2, 3])
    def test_real_labels_with_more_than_one_class_name_the_file(self, tmp_path, C):
        # real targets form one regression cell; a declared C must agree
        path = tmp_path / "classes.txt"
        path.write_text(f"p=1,C={C},labels=real\n0.5,0.25\n1.5,1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"classes\.txt: .*declares C={C}"):
            read_text(path)

    def test_real_labels_build_the_regression_dataset(self, tmp_path):
        # the reader hands its matrix to Dataset.regression, so the file gives
        # the bits and the one-cell partition that constructor gives the arrays
        X, y = np.array([[0.5, -1.0], [2.0, 0.1], [1.5, 3.0]]), np.array([0.25, -1.0, 7.5])
        path = tmp_path / "reg.txt"
        path.write_text("p=2,C=1,labels=real\n" + "".join(
            f"{a!r},{b!r},{t!r}\n" for (a, b), t in zip(X.tolist(), y.tolist())), encoding="utf-8")
        ds, expected = read_text(path), ssag.Dataset.regression(X, y)
        for name in ("features", "labels", "order", "class_counts", "starts", "class_of"):
            got, want = getattr(ds, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        (cell,), (expected_cell,) = ds.partition, expected.partition
        assert cell.tolist() == expected_cell.tolist() == [0, 1, 2]
        assert np.shares_memory(cell, ds.order) and np.shares_memory(expected_cell, expected.order)

    def test_real_labels_with_one_class_load(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("p=1,C=1,labels=real\n0.5,0.25\n1.5,1.0\n", encoding="utf-8")
        ds = read_text(path)
        assert ds.n_classes == 1 and ds.labels.tolist() == [0.25, 1.0]

    @pytest.mark.parametrize("command, objective, requirement", [
        ("estimate-constants", "logistic", "labels in {0, 1}"),
        ("run", "logistic", "labels in {0, 1}"),
        ("run", "mlp", "integer class labels in [0, C)")])
    def test_labels_the_objective_cannot_take_are_a_usage_error_in_the_cli(
            self, tmp_path, capsys, command, objective, requirement):
        path = tmp_path / "real.txt"
        path.write_text("p=1,C=1,labels=real\n0.5,0.25\n1.5,1.0\n", encoding="utf-8")
        if command == "run":
            config = tmp_path / "cfg.json"
            spec = {"kind": "mlp", "hidden": [2]} if objective == "mlp" else {"kind": objective}
            config.write_text(json.dumps({
                "dataset": {"kind": "text", "path": str(path)}, "objective": spec,
                "optimizer": {"kind": "sgd", "h": 0.1}, "seeds": [0], "steps": 5,
                "out_dir": str(tmp_path / "out")}), encoding="utf-8")
            argv = ["run", "--config", str(config)]
        else:
            argv = ["estimate-constants", "--data", str(path), "--objective", objective]
        assert ssag.bench.cli(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and requirement in err and "Traceback" not in err

    def test_non_numeric_cell_is_a_usage_error_in_the_cli(self, tmp_path, capsys):
        path = tmp_path / "cells.txt"
        path.write_text("p=1,C=2,labels=int\n0.5,0\nabc,1\n", encoding="utf-8")
        assert ssag.bench.cli(["estimate-constants", "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cells.txt:3: malformed cell" in err and "Traceback" not in err
