"""Datasets, deterministic splits and ordered task streams.

Every dataset is (n, dim) float64 rows: an IDX image becomes one row of
its height * width pixels scaled to [0, 1]. Labels are global integers
0..C-1. A split and a task stream read only the labels: the split gives
the row ids of each part, and a stream groups consecutive labels into
tasks, each a set of row ids into the dataset's one array with its
within-task labels. A stream is fully determined by the labels, the
classes-per-task count and the seed.
"""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .rng import Rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ConfigurationError("sample and label counts differ")

    def __len__(self):
        return len(self.x)

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass
class Task:
    """Rows `ids` of the dataset's array `x`, which every task of every
    stream shares, in stream order; `rows` is their only reader."""

    index: int              # 1-based position in the stream
    classes: list           # global labels owned by this task
    x: np.ndarray
    ids: np.ndarray
    y_task: np.ndarray
    y_global: np.ndarray

    def __len__(self):
        return len(self.ids)

    def rows(self, idx=slice(None)) -> np.ndarray:
        """A gathered copy of the task's rows at positions `idx`."""
        return self.x[self.ids[idx]]


@dataclass
class TaskStream:
    tasks: list
    num_classes: int
    classes_per_task: int

    def __len__(self):
        return len(self.tasks)

    def classes_seen(self, through_task: int) -> list:
        seen = []
        for task in self.tasks[:through_task]:
            seen.extend(task.classes)
        return seen

    # both take a global label or an array of them
    def task_of_class(self, label):
        return label // self.classes_per_task + 1

    def within_task_label(self, label):
        return label - (self.task_of_class(label) - 1) * self.classes_per_task


# ---------------------------------------------------------------------------
# IDX ingestion


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(path) -> np.ndarray:
    """Parse one IDX file. Image files (magic 0x803) come back as (n, h*w)
    float64 rows scaled by 1/255; label files (magic 0x801) come back as
    int64 vectors."""
    with _open_maybe_gzip(path) as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ConfigurationError(f"{path}: file too short for an IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == LABELS_MAGIC:
        ndim = 1
    elif magic == IMAGES_MAGIC:
        ndim = 3
    else:
        raise ConfigurationError(f"{path}: bad magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise ConfigurationError(f"{path}: truncated header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = int(np.prod(dims))
    if len(raw) - header_len != expected:
        raise ConfigurationError(
            f"{path}: expected {expected} payload bytes, found {len(raw) - header_len}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    if magic == LABELS_MAGIC:
        return data.astype(np.int64)
    images = data.astype(np.float64).reshape(dims[0], dims[1] * dims[2])
    images /= 255.0
    return images


def load_mnist(images_path, labels_path) -> LabeledDataset:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 2:
        raise ConfigurationError(f"{images_path}: not an image file")
    if labels.ndim != 1:
        raise ConfigurationError(f"{labels_path}: not a label file")
    return LabeledDataset(images, labels)


# ---------------------------------------------------------------------------
# synthetic data


def synth_blobs(classes: int, per_class: int, dim: int, separation: float,
                seed: int, span: int | None = None) -> LabeledDataset:
    """Unit-variance Gaussian clusters at antipodal vertices scaled by
    `separation`: classes (2p, 2p+1) sit at +/- separation * v_p, so the
    two classes of a task are always 2*separation apart regardless of how
    hard the stream is elsewhere.

    The pair directions v_p live in a randomly rotated `span`-dimensional
    subspace (default: the full space, where they are orthonormal, i.e.
    the vertices of a rotated cross-polytope). A small span forces the
    pair directions of different tasks to overlap, which makes sequential
    tasks compete for the same features; that is the knob that turns
    interference on at desk scale."""
    if not 0.0 < separation < np.inf:  # NaN fails too
        raise ConfigurationError(f"blobs argument sep must be finite and > 0, got {separation}")
    if span is None:
        span = dim
    if not 1 <= span <= dim:
        raise ConfigurationError(f"span must be in 1..{dim}, got {span}")
    rng = Rng(seed).fork("blobs")
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    basis = basis[:, :span]
    pairs = (classes + 1) // 2
    directions = np.empty((pairs, dim))
    for p in range(pairs):
        if p < span:
            directions[p] = basis[:, p]
        else:
            combo = rng.normal(size=span)
            combo /= np.linalg.norm(combo)
            directions[p] = basis @ combo
    x = np.empty((classes * per_class, dim))
    for k in range(classes):
        center = separation * directions[k // 2] * (1.0 if k % 2 == 0 else -1.0)
        # the draw is added into its rows in place: no second temporary
        np.add(rng.normal(size=(per_class, dim)), center, out=x[k * per_class:(k + 1) * per_class])
    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return LabeledDataset(x, y)


# ---------------------------------------------------------------------------
# splits and streams


def split_train_test(dataset: LabeledDataset, seed: int):
    """Row ids of a label-balanced 80/20 split; the test share is rounded
    down per class."""
    rng = Rng(seed)
    train_ids, test_ids = [], []
    for c in np.unique(dataset.y):
        idx = np.flatnonzero(dataset.y == c)
        if len(idx) < 5:
            raise ConfigurationError(f"class {c} has only {len(idx)} samples; need >= 5")
        idx = idx[rng.fork(f"class{c}").permutation(len(idx))]
        n_test = int(len(idx) * 0.2)
        test_ids.append(idx[:n_test])
        train_ids.append(idx[n_test:])
    return np.concatenate(train_ids), np.concatenate(test_ids)


def build_task_stream(dataset: LabeledDataset, ids: np.ndarray, classes_per_task: int,
                      seed: int) -> TaskStream:
    """Group the ascending labels of rows `ids` into tasks of
    `classes_per_task` classes; the last task keeps the remainder."""
    y = dataset.y[ids]
    num_classes = int(y.max()) + 1 if len(y) else 0
    if classes_per_task > num_classes:
        raise ConfigurationError(
            f"c_m = {classes_per_task} classes per task exceeds the dataset's "
            f"{num_classes} classes")
    if not np.array_equal(np.unique(y), np.arange(num_classes)):
        raise ConfigurationError("labels must form a contiguous 0..C-1 range")
    rng = Rng(seed)
    num_tasks = -(-num_classes // classes_per_task)
    tasks = []
    for t in range(1, num_tasks + 1):
        offset = (t - 1) * classes_per_task
        classes = list(range(offset, min(offset + classes_per_task, num_classes)))
        idx = np.flatnonzero(np.isin(y, classes))
        idx = idx[rng.fork(f"task{t}").permutation(len(idx))]
        y_global = y[idx]
        tasks.append(Task(
            index=t,
            classes=classes,
            x=dataset.x,
            ids=ids[idx],
            y_task=y_global - offset,
            y_global=y_global,
        ))
    return TaskStream(
        tasks=tasks,
        num_classes=num_classes,
        classes_per_task=classes_per_task,
    )


# ---------------------------------------------------------------------------
# config-string addressing


_SPEC_ARGS = {
    "blobs": {"classes": int, "per_class": int, "dim": int, "sep": float, "span": int},
    "mnist": {"dir": str},
}


def parse_dataset_spec(spec: str, seed: int) -> LabeledDataset:
    """Build a dataset from a config string such as
    ``blobs:classes=10,dim=20,sep=6,per_class=200`` or
    ``mnist:dir=PATH``."""
    kind, _, argstr = spec.partition(":")
    if kind not in _SPEC_ARGS:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    types, args = _SPEC_ARGS[kind], {}
    for item in argstr.split(",") if argstr else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if not key or not value:
            raise ConfigurationError(f"malformed dataset argument {item!r}")
        if key not in types:
            raise ConfigurationError(
                f"unknown {kind} argument {key!r}; expected one of {', '.join(types)}")
        if key in args:
            raise ConfigurationError(f"{kind} argument {key} is given twice")
        try:
            args[key] = types[key](value)
        except ValueError:
            raise ConfigurationError(
                f"{kind} argument {key} = {value!r} is not a valid {types[key].__name__}"
            ) from None
    if kind == "blobs":
        # an empty dataset would only fail later, naming no argument
        for key in ("classes", "per_class", "dim"):
            if args.get(key, 1) < 1:
                raise ConfigurationError(f"blobs argument {key} must be >= 1, got {args[key]}")
        return synth_blobs(
            classes=args.get("classes", 10),
            per_class=args.get("per_class", 200),
            dim=args.get("dim", 20),
            separation=args.get("sep", 6.0),
            seed=seed,
            span=args.get("span"),
        )
    if "dir" not in args:
        raise ConfigurationError("mnist spec needs dir=PATH")
    base = args["dir"].rstrip("/")
    for suffix in ("", ".gz"):
        try:
            return load_mnist(f"{base}/train-images-idx3-ubyte{suffix}",
                              f"{base}/train-labels-idx1-ubyte{suffix}")
        except FileNotFoundError:
            continue
    raise ConfigurationError(f"no MNIST IDX files found under {base}: expected "
                             "train-images-idx3-ubyte and train-labels-idx1-ubyte, plain or .gz")
