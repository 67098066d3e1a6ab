"""Tests for dataset ingestion, splits and task-stream construction."""

import gzip
import struct

import numpy as np
import pytest

from prer.data import (
    LabeledDataset,
    Task,
    build_task_stream,
    load_idx,
    load_mnist,
    parse_dataset_spec,
    split_train_test,
    synth_blobs,
)
from prer.exceptions import ConfigurationError


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + labels.astype(np.uint8).tobytes()


@pytest.fixture
def idx_files(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 4, 4)).astype(np.uint8)
    images[0, 0, 0] = 255
    images[0, 0, 1] = 0
    labels = np.arange(10) % 3
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    img_path.write_bytes(idx_image_bytes(images))
    lbl_path.write_bytes(idx_label_bytes(labels))
    return img_path, lbl_path, images, labels


def test_load_idx_images_scaled(idx_files):
    img_path, _, images, _ = idx_files
    loaded = load_idx(img_path)
    assert loaded.shape == (10, 1, 4, 4)
    assert loaded[0, 0, 0, 0] == 1.0   # byte 255
    assert loaded[0, 0, 0, 1] == 0.0   # byte 0
    assert loaded.dtype == np.float64 and loaded.flags.writeable
    assert np.array_equal(loaded[:, 0], images / 255.0)


def test_load_idx_labels(idx_files):
    _, lbl_path, _, labels = idx_files
    loaded = load_idx(lbl_path)
    assert loaded.dtype == np.int64
    assert np.array_equal(loaded, labels)


def test_load_idx_gzip(tmp_path, idx_files):
    img_path, _, images, _ = idx_files
    gz_path = tmp_path / "images-idx3-ubyte.gz"
    gz_path.write_bytes(gzip.compress(img_path.read_bytes()))
    assert np.array_equal(load_idx(gz_path), load_idx(img_path))


def test_load_idx_truncated_payload(tmp_path, idx_files):
    img_path = idx_files[0]
    bad = tmp_path / "short-idx3-ubyte"
    bad.write_bytes(img_path.read_bytes()[:-1])  # one byte short
    with pytest.raises(ConfigurationError, match="expected"):
        load_idx(bad)


def test_load_idx_bad_magic(tmp_path):
    bad = tmp_path / "bad-idx"
    bad.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 16)
    with pytest.raises(ConfigurationError, match="magic"):
        load_idx(bad)


def test_load_mnist_pairs(idx_files):
    img_path, lbl_path, _, labels = idx_files
    ds = load_mnist(img_path, lbl_path)
    assert len(ds) == 10
    assert np.array_equal(ds.y, labels)


# ---------------------------------------------------------------------------
# blobs


def test_blobs_nearest_centroid_separates():
    ds = synth_blobs(classes=2, per_class=5000, dim=2, separation=10.0, seed=1)
    centers = np.stack([ds.x[ds.y == c].mean(axis=0) for c in (0, 1)])
    d = ((ds.x[:, None, :] - centers[None]) ** 2).sum(axis=2)
    pred = d.argmin(axis=1)
    assert (pred == ds.y).mean() > 0.99


def test_blobs_empty_and_deterministic():
    assert len(synth_blobs(3, 0, 4, 1.0, seed=2)) == 0
    a = synth_blobs(4, 10, 6, 3.0, seed=3)
    b = synth_blobs(4, 10, 6, 3.0, seed=3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    c = synth_blobs(4, 10, 6, 3.0, seed=4)
    assert not np.array_equal(a.x, c.x)


def test_blobs_validation():
    with pytest.raises(ConfigurationError):
        synth_blobs(2, 5, 2, 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        synth_blobs(4, 5, 4, 1.0, seed=1, span=0)
    with pytest.raises(ConfigurationError):
        synth_blobs(4, 5, 4, 1.0, seed=1, span=5)


def test_blobs_antipodal_pairs_and_span():
    ds = synth_blobs(classes=4, per_class=2000, dim=6, separation=5.0, seed=2, span=2)
    means = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(4)])
    # classes (0,1) and (2,3) sit at antipodal centres 2*sep apart
    assert np.linalg.norm(means[0] - means[1]) == pytest.approx(10.0, abs=0.3)
    assert np.linalg.norm(means[2] - means[3]) == pytest.approx(10.0, abs=0.3)
    # all centres lie in a 2-dimensional subspace
    stacked = means - means.mean(axis=0)
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[2] < 0.2 * s[1]


# ---------------------------------------------------------------------------
# splits


def test_split_exact_proportion():
    ds = synth_blobs(classes=2, per_class=10, dim=3, separation=2.0, seed=5)
    train, test = split_train_test(ds, seed=6)
    assert len(train) == 16 and len(test) == 4
    for c in (0, 1):
        assert (ds.y[train] == c).sum() == 8
        assert (ds.y[test] == c).sum() == 2


def test_split_deterministic_and_partition():
    # classes of 20, 7 and 12 rows, interleaved: 4, 1 and 2 test rows
    y = np.repeat([0, 1, 2, 0, 2], [10, 7, 6, 10, 6])
    ds = LabeledDataset(np.zeros((len(y), 2)), y)
    train, test = split_train_test(ds, seed=8)
    again = split_train_test(ds, seed=8)
    assert np.array_equal(train, again[0]) and np.array_equal(test, again[1])
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(len(y)))
    for c, n_test in ((0, 4), (1, 1), (2, 2)):
        assert (y[test] == c).sum() == n_test
        assert (y[train] == c).sum() == (y == c).sum() - n_test


def test_split_small_class_rejected():
    ds = LabeledDataset(np.zeros((6, 2)), np.array([0, 0, 0, 0, 1, 1]))
    with pytest.raises(ConfigurationError):
        split_train_test(ds, seed=9)


# ---------------------------------------------------------------------------
# task streams


def whole_stream(ds, c_m, seed):
    return build_task_stream(ds, np.arange(len(ds)), c_m, seed)


def test_task_rows_gather_the_rows_of_its_ids():
    x = np.random.default_rng(4).normal(size=(9, 3, 2))
    task = Task(index=1, classes=[0], x=x, ids=np.array([7, 2, 5, 0]),
                y_task=np.zeros(4, dtype=int), y_global=np.zeros(4, dtype=int))
    assert len(task) == 4
    assert np.array_equal(task.rows(), x[[7, 2, 5, 0]])
    assert np.array_equal(task.rows(slice(1, 3)), x[[2, 5]])
    assert np.array_equal(task.rows(np.array([3, 0, 3])), x[[0, 7, 0]])
    assert task.rows(np.array([], dtype=int)).shape == (0, 3, 2)
    assert not np.shares_memory(task.rows(slice(1, 3)), x)


def test_stream_tasks_hold_ids_of_the_handed_rows():
    ds = synth_blobs(classes=4, per_class=10, dim=3, separation=2.0, seed=9)
    train, _ = split_train_test(ds, seed=10)
    stream = build_task_stream(ds, train, 2, seed=11)
    assert np.array_equal(np.sort(np.concatenate([t.ids for t in stream.tasks])), np.sort(train))
    for task in stream.tasks:
        assert task.x is ds.x
        assert np.array_equal(ds.y[task.ids], task.y_global)


def test_stream_counts():
    ds10 = synth_blobs(classes=10, per_class=8, dim=6, separation=2.0, seed=10)
    assert len(whole_stream(ds10, 2, seed=11)) == 5
    ds100 = LabeledDataset(np.zeros((600, 2)), np.repeat(np.arange(100), 6))
    assert len(whole_stream(ds100, 10, seed=12)) == 10
    ds5 = synth_blobs(classes=5, per_class=8, dim=4, separation=2.0, seed=13)
    stream = whole_stream(ds5, 2, seed=14)
    assert len(stream) == 3
    assert stream.tasks[-1].classes == [4]


def test_stream_invariants():
    ds = synth_blobs(classes=6, per_class=10, dim=4, separation=2.0, seed=15)
    stream = whole_stream(ds, 2, seed=16)
    seen = set()
    for task in stream.tasks:
        assert not (seen & set(task.classes))
        seen |= set(task.classes)
        assert np.array_equal(stream.within_task_label(task.y_global), task.y_task)
        assert set(np.unique(task.y_global)) == set(task.classes)
    assert seen == set(range(6))


def test_stream_reproducible():
    ds = synth_blobs(classes=4, per_class=10, dim=4, separation=2.0, seed=17)
    s1 = whole_stream(ds, 2, seed=18)
    s2 = whole_stream(ds, 2, seed=18)
    for a, b in zip(s1.tasks, s2.tasks):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.y_task, b.y_task)


def test_stream_validation():
    ds = synth_blobs(classes=4, per_class=10, dim=4, separation=2.0, seed=19)
    with pytest.raises(ConfigurationError, match="c_m"):
        whole_stream(ds, 5, seed=21)


def test_class_to_task_mapping():
    ds = synth_blobs(classes=6, per_class=10, dim=4, separation=2.0, seed=22)
    stream = whole_stream(ds, 2, seed=23)
    assert stream.task_of_class(0) == 1
    assert stream.task_of_class(3) == 2
    assert stream.task_of_class(5) == 3
    assert stream.within_task_label(3) == 1
    assert stream.classes_seen(2) == [0, 1, 2, 3]
    # label arrays map row by row; the last task keeps the one leftover class
    ds = synth_blobs(classes=5, per_class=10, dim=4, separation=2.0, seed=22)
    stream = whole_stream(ds, 2, seed=23)
    assert stream.tasks[-1].classes == [4]
    for task in stream.tasks:
        assert np.array_equal(stream.task_of_class(task.y_global),
                              np.full(len(task), task.index))
        assert np.array_equal(stream.within_task_label(task.y_global), task.y_task)


def test_parse_dataset_spec():
    ds = parse_dataset_spec("blobs:classes=4,dim=5,sep=3,per_class=7", seed=24)
    assert ds.num_classes == 4
    assert ds.x.shape == (28, 5)
    with pytest.raises(ConfigurationError):
        parse_dataset_spec("unknown:foo=1", seed=24)
    with pytest.raises(ConfigurationError):
        parse_dataset_spec("blobs:classes", seed=24)
    with pytest.raises(ConfigurationError, match="blobs argument classes = 'x' is not a valid int"):
        parse_dataset_spec("blobs:classes=x", seed=24)
    with pytest.raises(ConfigurationError, match="unknown blobs argument 'clases'"):
        parse_dataset_spec("blobs:clases=4", seed=24)
    with pytest.raises(ConfigurationError, match="unknown mnist argument 'image'"):
        parse_dataset_spec("mnist:image=a,labels=b", seed=24)


@pytest.mark.parametrize("key,value", [("classes", 0), ("per_class", 0), ("dim", 0),
                                       ("per_class", -3)])
def test_blobs_spec_rejects_empty_sizes_naming_the_argument(key, value):
    args = {"classes": 4, "dim": 5, "per_class": 7, key: value}
    spec = "blobs:" + ",".join(f"{k}={v}" for k, v in args.items())
    with pytest.raises(ConfigurationError, match=f"blobs argument {key} must be >= 1"):
        parse_dataset_spec(spec, seed=24)


@pytest.mark.parametrize("sep", ["nan", "inf", "0", "-2"])
def test_blobs_spec_rejects_a_sep_that_is_not_finite_and_positive(sep):
    # a NaN or infinite separation would only surface as a NaN loss
    with pytest.raises(ConfigurationError, match="blobs argument sep must be finite and > 0"):
        parse_dataset_spec(f"blobs:classes=4,dim=5,per_class=7,sep={sep}", seed=24)


@pytest.mark.parametrize("spec,message", [
    ("blobs:classes=10,classes=4", "blobs argument classes is given twice"),
    ("blobs:dim=5,sep=3,dim=5", "blobs argument dim is given twice"),
    ("mnist:images=a,labels=b,images=c", "mnist argument images is given twice"),
    ("mnist:dir=d,images=a", "mnist argument images cannot be given with dir"),
    ("mnist:labels=b,dir=d", "mnist argument labels cannot be given with dir"),
])
def test_spec_rejects_a_repeated_or_conflicting_argument(spec, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        parse_dataset_spec(spec, seed=24)
