"""Dataset acquisition: IDX binary parsing, delimited text, synthetic blobs.

The IDX reader is byte-order exact (big-endian magic and dimension words,
magic 2051 for image files and 2049 for label files).  The text format is
one sample per line, comma-separated features with the label last, after a
header line ``p=<int>,C=<int>,labels=<int|real>``; floats are written with
full round-trip precision.
"""

from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, _Fresh, is_int, is_real, partition_by_class
from .errors import FormatError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


def _read_idx_payload(path, expected_magic: int, n_dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    try:
        raw = Path(path).read_bytes()
        if raw[:2] == b"\x1f\x8b":  # gzip-compressed IDX file
            raw = gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as exc:  # BadGzipFile is an OSError
        raise FormatError(f"{path}: cannot read: {exc}") from None
    header_len = 4 + 4 * n_dims
    if len(raw) < header_len:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, *dims = np.frombuffer(raw, ">u4", 1 + n_dims).tolist()
    if magic != expected_magic:
        raise FormatError(f"{path}: magic {magic} does not match expected {expected_magic}")
    dims = tuple(dims)
    expected_len = math.prod(dims)
    if len(raw) - header_len != expected_len:
        raise FormatError(f"{path}: payload holds {len(raw) - header_len} bytes, "
                          f"dimensions {dims} require {expected_len}")
    # a view of the file's bytes past the header: no copy of the payload
    return dims, np.frombuffer(raw, dtype=np.uint8, offset=header_len)


def _partition(path, labels: np.ndarray, C: int, noun: str) -> tuple[np.ndarray, ...]:
    """The partition of integer ``labels`` into the classes [0, C); FormatError
    naming ``path`` if a class has no sample, as it can form no drawable stratum."""
    absent = sorted(set(range(C)) - set(np.unique(labels).tolist()))
    if absent:
        raise FormatError(f"{path}: {noun} {absent} occur in none of the "
                          f"{labels.size} samples read")
    return partition_by_class(labels)


def is_limit(value) -> bool:
    """Whether ``value`` is a `read_idx` limit: None or an integer >= 1 (`is_int`)."""
    return value is None or is_int(value) and value >= 1


def read_idx(image_path, label_path, *, add_bias: bool = False,
             limit: int | None = None) -> Dataset:
    """Parse an IDX image/label file pair into a classification dataset.

    Pixels are scaled to [0, 1] by /255 and images flattened row-major.
    Labels must be digits 0-9 and every digit must occur among the samples
    kept, so the partition always has 10 cells and a sample's label is its
    class index.  ``limit`` keeps only the first ``limit`` samples.
    ``add_bias`` appends a constant 1 feature column.  ValueError unless
    ``add_bias`` is a bool and ``limit`` `is_limit`.
    """
    if not (isinstance(add_bias, bool) and is_limit(limit)):
        raise ValueError("add_bias must be a bool and limit None or an integer >= 1, "
                         f"got {add_bias!r} and {limit!r}")
    (n_img, rows, cols), pixels = _read_idx_payload(image_path, IDX_IMAGE_MAGIC, 3)
    (n_lab,), labels = _read_idx_payload(label_path, IDX_LABEL_MAGIC, 1)
    if n_img != n_lab:
        raise FormatError(f"image count {n_img} does not match label count {n_lab}")
    if labels.size and labels.max() > 9:
        raise FormatError(f"label byte {int(labels.max())} outside the digit range 0-9")
    # slice the bytes before converting, and scale them straight into the
    # matrix the dataset keeps: the bits of converting and dividing the whole
    # file, with no full-size temporaries
    kept = pixels.reshape(n_img, rows * cols)[:limit]
    features = np.ones((kept.shape[0], kept.shape[1] + add_bias))
    np.divide(kept, 255.0, out=features[:, :kept.shape[1]])
    labels = labels[:limit].astype(np.int64)
    # remapping the digits present would make a train and a test file disagree
    return Dataset(_Fresh(features), labels, _partition(label_path, labels, 10, "digits"))


def _idx_bytes(values) -> np.ndarray:
    """``values`` as a C-ordered uint8 array; ValueError naming the first entry
    that is not an integer in [0, 255], which a cast would wrap or truncate."""
    array = np.asarray(values)
    fits = ((array >= 0) & (array <= 255) & (array == np.floor(array))).ravel()
    if not fits.all():
        bad = array.flat[int(np.argmin(fits))].item()
        raise ValueError(f"IDX entries must be integers in [0, 255], got {bad!r}")
    return np.ascontiguousarray(array, dtype=np.uint8)


def write_idx(image_path, label_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write a uint8 image stack (n, rows, cols) and labels as an IDX pair."""
    images, labels = _idx_bytes(images), _idx_bytes(labels)
    if images.ndim != 3 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise ValueError("need images of shape (n, rows, cols) and matching labels")
    for path, magic, array in ((image_path, IDX_IMAGE_MAGIC, images),
                               (label_path, IDX_LABEL_MAGIC, labels)):
        with open(path, "wb") as fh:
            fh.write(np.array([magic, *array.shape], ">u4").tobytes())
            fh.write(array.tobytes())


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Gaussian class blobs: one mean vector per class, shared stddev.

    Each count and the seed is an integer and the stddev and each mean a
    finite number, none of them a bool; ValueError otherwise, nothing truncated.
    """

    means: np.ndarray       # (C, p)
    counts: tuple[int, ...]
    stddev: float
    seed: int = 0

    def __post_init__(self):
        cells = np.asarray(self.means, dtype=object)
        if cells.ndim != 2 or not all(map(is_real, cells.flat)):
            raise ValueError(f"means must be a (C, p) matrix of finite numbers, got {self.means!r}")
        means = cells.astype(np.float64)
        if len(self.counts) != means.shape[0]:
            raise ValueError("need one sample count per class mean")
        if not all(is_int(c) and c >= 1 for c in self.counts):
            raise ValueError(f"counts must be integers >= 1, got {self.counts!r}")
        if not (is_real(self.stddev) and self.stddev >= 0):
            raise ValueError(f"stddev must be a finite number >= 0, got {self.stddev!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "counts", tuple(self.counts))


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic Gaussian blobs around the per-class means.

    Samples are laid out class by class (class 0 block first); the partition
    is derived from the generating class.  The noise is scaled in place and
    each class mean added to its own rows, which gives the bits of
    ``means[labels] + stddev * noise`` without its N x p temporaries.
    """
    labels = np.repeat(np.arange(len(spec.counts)), spec.counts)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    features = rng.standard_normal((labels.size, spec.means.shape[1]))
    features *= spec.stddev
    start = 0
    for mean, count in zip(spec.means, spec.counts):
        features[start:start + count] += mean
        start += count
    return Dataset.from_class_labels(_Fresh(features), labels)


def write_text(dataset: Dataset, path) -> None:
    """Write a dataset in the delimited text format (UTF-8, LF endings)."""
    labels_int = np.issubdtype(dataset.labels.dtype, np.integer)
    lines = [f"p={dataset.n_features},C={dataset.n_classes},"
             f"labels={'int' if labels_int else 'real'}"]
    for i in range(dataset.n_samples):
        feats = ",".join(repr(float(v)) for v in dataset.features[i])
        label = repr(int(dataset.labels[i])) if labels_int else repr(float(dataset.labels[i]))
        lines.append(f"{feats},{label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _numbered_lines(path):
    """(number, line) for each non-blank line of a UTF-8 text file, read one
    line at a time; lines are split and numbered as ``str.splitlines`` splits
    the whole text.  FormatError naming ``path`` if it cannot be read."""
    number = 0
    try:
        with open(path, encoding="utf-8", newline="") as f:
            for chunk in f:
                for line in chunk.splitlines():
                    number += 1
                    if line.strip():
                        yield number, line
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read: {exc}") from None


def read_text(path, *, add_bias: bool = False) -> Dataset:
    """Load a dataset from the delimited text format.

    The file is read twice, a line at a time: once to count the samples and
    once to parse each into its row of the feature matrix, so that neither
    the text nor a list of its rows is ever held whole.  ``add_bias``, a
    bool (ValueError otherwise), appends a constant 1 feature column.
    """
    if not isinstance(add_bias, bool):
        raise ValueError(f"add_bias must be a bool, got {add_bias!r}")
    lines = _numbered_lines(path)
    first = next(lines, None)
    if first is None:
        raise FormatError(f"{path}: empty file")
    try:
        header = dict(part.split("=", 1) for part in first[1].split(","))
        p = int(header["p"])
        C = int(header["C"])
        label_kind = header.get("labels", "int")
        if p < 1:
            raise ValueError("no feature")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header {first[1]!r}") from exc
    if label_kind not in ("int", "real"):
        raise FormatError(f"{path}: unknown label kind {label_kind!r} (expected int or real)")
    N = sum(1 for _ in lines)
    features, labels = np.ones((N, p + add_bias)), np.empty(N)
    rows = _numbered_lines(path)
    next(rows)  # the header
    for i, (ln_no, ln) in enumerate(rows):
        cells = ln.split(",")
        if len(cells) != p + 1:
            raise FormatError(f"{path}:{ln_no}: expected {p + 1} columns, got {len(cells)}")
        try:
            values = [float(v) for v in cells]
        except ValueError as exc:
            raise FormatError(f"{path}:{ln_no}: malformed cell: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise FormatError(f"{path}:{ln_no}: non-finite cell in {ln!r}")
        if label_kind == "int" and values[p] not in range(C):
            raise FormatError(f"{path}:{ln_no}: label {cells[p]} is not a class in [0, {C})")
        features[i, :p] = values[:p]
        labels[i] = values[p]
    if N == 0:
        raise FormatError(f"{path}: no samples")
    if label_kind == "real" and C != 1:
        raise FormatError(f"{path}: real labels form one class, but the header declares C={C}")
    if label_kind == "int":
        lab = labels.astype(np.int64)
        return Dataset(_Fresh(features), lab, _partition(path, lab, C, "classes"))
    return Dataset.regression(_Fresh(features), labels)
