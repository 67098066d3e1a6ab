"""Span tracer for the benchmark's traced mode.

The tracer patches public functions and methods of the `prer` modules
from outside the program: every wrapped call records one span (name,
start, end, parent) and, where a quantity is worth counting, adds to a
counter at the same boundary. Spans live in flat arrays while the pass
runs and are turned into per-layer metrics, and written to disk, once it
has ended. Nothing under `src/` knows about the tracer.
"""

import functools
import os
import sys
import time
from array import array
from contextlib import ExitStack, contextmanager

import numpy as np


class Tracer:
    """Spans of one pass, kept as parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.counts = {}

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        """Name of the innermost open span, or None at the top level."""
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    @contextmanager
    def span(self, name):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))


def self_times(start, end, parent):
    """Each span's duration minus the time its children cover, children
    clipped to their parent's interval. Spans recorded from one call
    stack never overlap their siblings, so the self times of a tree sum
    to the duration of its root; overlapping siblings are refused."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    order = np.lexsort((lo, p))
    siblings = p[order][1:] == p[order][:-1]
    if np.any(siblings & (lo[order][1:] < hi[order][:-1])):
        raise ValueError("sibling spans overlap; spans must come from one call stack")
    covered = np.bincount(p, weights=np.clip(hi - lo, 0.0, None), minlength=len(start))
    return end - start - covered


# ---------------------------------------------------------------------------
# counters: each gets (tracer, positional arguments, result) after the call


def _dense_gflop(factor):
    # forward is one (n, in) x (in, out) product; backward is two
    def count(tracer, args, out):
        layer, x = args[0], args[1]
        tracer.add("nn.Dense.gflop", factor * len(x) * layer.in_dim * layer.out_dim / 1e9)
    return count


def _adam_step(tracer, args, out):
    tracer.add("nn.Adam.step.calls", 1)
    tracer.add("nn.Adam.step.floats", sum(p.size for p, _ in args[0].pairs))


def _calls(key):
    def count(tracer, args, out):
        tracer.add(key, 1)
    return count


def _rows(key, pos):
    def count(tracer, args, out):
        tracer.add(key, len(args[pos]))
    return count


def _epochs(key):
    def count(tracer, args, out):
        tracer.add(key, out["epochs"])
    return count


def _knn_predict(tracer, args, out):
    probe, x = args[0], args[1]
    tracer.add("metrics.KnnProbe.predict.queries", len(x))
    tracer.peak("metrics.KnnProbe.predict.dist_mb", 8.0 * len(x) * len(probe._x) / 1e6)


def _hausdorff_pairs(tracer, args, out):
    tracer.add("metrics.hausdorff_distance.pairs", len(args[0]) * len(args[1]))


def _coverage_sampled(tracer, args, out):
    # flow samples drawn by the runner itself are the coverage pool;
    # those drawn under generate_memory are rehearsal memory
    if tracer.parent_name() == "runner.run_experiment":
        tracer.add("coverage.sampled", len(out))


def _coverage_kept(tracer, args, out):
    tracer.add("coverage.kept", sum(len(g) for g in args[1].values()))


def _checkpoint_mb(tracer, args, out):
    tracer.add("checkpoint.save_run_state.mb", os.path.getsize(args[0]) / 1e6)


# (module, qualified name, counter); the span is named "<module>.<qualname>"
TARGETS = (
    ("nn", "Adam.step", _adam_step),
    ("nn", "Dense.forward", _dense_gflop(2)),
    ("nn", "Dense.backward", _dense_gflop(4)),
    ("nn", "Relu.forward", None),
    ("nn", "Relu.backward", None),
    ("nn", "Network.forward", _calls("nn.Network.forward.calls")),
    ("flow", "FlowStack.normalize", None),
    ("flow", "FlowStack.backward_normalizing", None),
    ("flow", "FlowStack.generate", _coverage_sampled),
    ("flow", "Coupling.apply", None),
    ("flow", "Coupling.backward_normalizing", None),
    ("flow", "BatchNorm.apply", None),
    ("flow", "Permutation.apply", None),
    ("model", "ContinualModel.encode_classify",
     _rows("model.ContinualModel.encode_classify.rows", 1)),
    ("model", "ContinualModel.decode", None),
    ("pipeline", "train_classifier_phase", None),
    ("pipeline", "train_autoencoder_phase", _epochs("pipeline.train_autoencoder_phase.epochs")),
    ("pipeline", "train_flow_phase", _epochs("pipeline.train_flow_phase.epochs")),
    ("pipeline", "generate_memory", None),
    ("metrics", "KnnProbe.predict", _knn_predict),
    ("metrics", "KnnProbe.fit", _rows("metrics.KnnProbe.fit.rows", 1)),
    ("metrics", "hausdorff_distance", _hausdorff_pairs),
    ("metrics", "coverage_hausdorff", _coverage_kept),
    ("metrics", "task_accuracy", None),
    ("metrics", "generation_quality", None),
    ("checkpoint", "save_run_state", _checkpoint_mb),
    ("checkpoint", "load_run_state", None),
    ("data", "parse_dataset_spec", None),
    ("data", "split_train_test", None),
    ("data", "build_task_stream", None),
    ("runner", "run_experiment", None),
    ("runner", "write_record", None),
)

# name, unit, better; every one is printed in traced mode, as 0 where the
# workload never calls the module (see README)
PER_LAYER = (
    ("nn.Adam.step.s", "s", "lower"),
    ("nn.Adam.step.calls", "count", "lower"),
    ("nn.Adam.step.floats", "count", "lower"),
    ("nn.Dense.forward.s", "s", "lower"),
    ("nn.Dense.backward.s", "s", "lower"),
    ("nn.Dense.gflop", "GFLOP", "lower"),
    ("nn.Relu.forward.s", "s", "lower"),
    ("nn.Relu.backward.s", "s", "lower"),
    ("nn.Network.forward.calls", "count", "lower"),
    ("flow.FlowStack.normalize.s", "s", "lower"),
    ("flow.FlowStack.backward_normalizing.s", "s", "lower"),
    ("flow.FlowStack.generate.s", "s", "lower"),
    ("flow.Coupling.apply.s", "s", "lower"),
    ("flow.Coupling.backward_normalizing.s", "s", "lower"),
    ("flow.BatchNorm.apply.s", "s", "lower"),
    ("flow.Permutation.apply.s", "s", "lower"),
    ("model.ContinualModel.encode_classify.s", "s", "lower"),
    ("model.ContinualModel.encode_classify.rows", "count", "lower"),
    ("model.ContinualModel.decode.s", "s", "lower"),
    ("pipeline.train_classifier_phase.s", "s", "lower"),
    ("pipeline.train_autoencoder_phase.s", "s", "lower"),
    ("pipeline.train_autoencoder_phase.epochs", "count", "lower"),
    ("pipeline.train_flow_phase.s", "s", "lower"),
    ("pipeline.train_flow_phase.epochs", "count", "lower"),
    ("pipeline.generate_memory.s", "s", "lower"),
    ("metrics.KnnProbe.predict.s", "s", "lower"),
    ("metrics.KnnProbe.predict.queries", "count", "lower"),
    ("metrics.KnnProbe.predict.dist_mb", "MB", "lower"),
    ("metrics.KnnProbe.fit.rows", "count", "lower"),
    ("runner.coverage_pool_use", "ratio", "higher"),
    ("metrics.hausdorff_distance.s", "s", "lower"),
    ("metrics.hausdorff_distance.pairs", "count", "lower"),
    ("metrics.task_accuracy.s", "s", "lower"),
    ("metrics.generation_quality.s", "s", "lower"),
    ("checkpoint.save_run_state.s", "s", "lower"),
    ("checkpoint.save_run_state.mb", "MB", "lower"),
    ("checkpoint.load_run_state.s", "s", "lower"),
    ("data.parse_dataset_spec.s", "s", "lower"),
    ("data.split_train_test.s", "s", "lower"),
    ("data.build_task_stream.s", "s", "lower"),
    ("runner.run_experiment.s", "s", "lower"),
    ("runner.write_record.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _traced(tracer, name, fn, count):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, args, out)  # the counted arguments are always positional
        return out

    return wrapper


@contextmanager
def patched(module_name, qualname, make_wrapper):
    """Replace prer.<module>.<qualname> by make_wrapper(original) wherever
    the program looks it up: on its class for a method, and in every
    prer module that bound the function by name for a function."""
    module = sys.modules[f"prer.{module_name}"]
    owner_path, _, attr = qualname.rpartition(".")
    if owner_path:
        owner = getattr(module, owner_path)
        if attr not in vars(owner):
            raise LookupError(f"{module_name}.{qualname} is not defined on its class")
        original = vars(owner)[attr]
        sites = [owner]
    else:
        original = getattr(module, attr)
        sites = [m for key, m in list(sys.modules.items())
                 if key.startswith("prer.") and getattr(m, attr, None) is original]
    wrapper = make_wrapper(original)
    for site in sites:
        setattr(site, attr, wrapper)
    try:
        yield
    finally:
        for site in sites:
            setattr(site, attr, original)


@contextmanager
def tracing(tracer):
    """Wrap every target in TARGETS for the duration of the block."""
    with ExitStack() as stack:
        for module_name, qualname, count in TARGETS:
            name = f"{module_name}.{qualname}"
            stack.enter_context(patched(
                module_name, qualname,
                lambda fn, name=name, count=count: _traced(tracer, name, fn, count)))
        yield tracer


def summarize(tracer):
    """Per-layer metrics of one traced pass, and (name, duration, summed
    self time of its tree) for each top-level span.

    The metrics are the self seconds per callable plus the counters, with
    the coverage pool use as rows kept / rows sampled."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    name_id = np.asarray(tracer.name_id)
    per_name = np.bincount(name_id, weights=selfs, minlength=len(tracer.names))
    metrics = {f"{name}.s": float(v) for name, v in zip(tracer.names, per_name)}
    metrics.update(tracer.counts)
    sampled = tracer.counts.get("coverage.sampled", 0.0)
    if sampled:
        metrics["runner.coverage_pool_use"] = tracer.counts.get("coverage.kept", 0.0) / sampled

    parent = np.asarray(tracer.parent)
    root = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:  # climb one level per round until every span names its root
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            break
        root = up
    totals = np.bincount(root, weights=selfs, minlength=len(parent))
    roots = [(tracer.names[name_id[r]], tracer.end[r] - tracer.start[r], float(totals[r]))
             for r in np.flatnonzero(parent < 0)]
    return metrics, roots
