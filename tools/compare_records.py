"""Check that the working tree writes the same run records as a base revision.

    python3 tools/compare_records.py --base REV

Extracts REV with ``git archive`` into a temp directory, then runs one
small grid under each tree's ``src/``, each tree in its own process with
the four BLAS thread variables set to 1. The grid is ``configs/blobs.cfg``
at seed 1 (taken from this checkout, so both trees read the same config):

- all five strategies under the config's conditioning;
- prer and prer_r with conditioning both, flow and none;
- replay, er and prer under the config's conditioning and prer_r with
  conditioning both, each with ``checkpoints = true``, crashed at the
  start of task 3 and resumed from its checkpoint: replay and er resume
  their stored memory of real rows, prer and prer_r regenerate theirs;
- prer on a tiny IDX image pair of 4 classes, which the worker writes
  into its temp dir under MNIST's file names and reads as ``mnist:dir=.``,
  so both trees read the same files under the same dataset string;
- prer_r with ``batch_size = 239``: each task has 240 rows, so every
  autoencoder and flow epoch ends on a one-row batch, which the flow
  skips and the autoencoder trains on;
- prer_r with ``batch_size = 215``: the classifier holds out 24 of each
  task's 240 rows, so every classifier epoch ends on a one-row batch;
- prer_r on 5 rows per class: each task has 8 training rows, fewer than
  the 10 that hold out one validation row, so the classifier keeps its
  last epoch instead of restoring a snapshot;
- prer on 784-dim blobs (60 rows per class) with two epochs per phase:
  its encoder and decoder buffers hold about 25 k floats each, so every
  Adam step crosses a chunk edge (``nn.ADAM_CHUNK``), which no other
  run's buffers reach;
- prer with a 64-dim embedding: the coverage pool of its unconditioned
  flow (720 to 3,600 rows at tasks 1-5) is generated and labelled in
  2 to 6 chunks of at most 682 rows, sized by ``metrics.CHUNK_FLOATS``
  and ``runner.SAMPLING_ACTIVATIONS`` (the old one-activation budget
  gave two chunks at tasks 3-5), while every other run's pool but the
  next run's fits in one;
- prer with the ``mnist.cfg`` flow shape (a 100-dim embedding, two
  levels) on 784-dim blobs (60 rows per class) with two epochs per
  phase: its 200-wide coupling nets cut the 1,440-row pool of task 5
  into four chunks of 360 rows, the only run with a 100-dim flow;
- prer with ``c_m = 3``: tasks of 3, 3, 3 and 1 classes, so the last
  task of each stream keeps the remainder, where every other run has
  5 tasks of 2 classes;
- prer with three flow levels on a 14-dim embedding: levels of width 14,
  7 and 3, so it has more than one level and an odd-width split;
- the same flow under prer_r with conditioning both: the only run whose
  conditioned flow has more than one level;
- prer with a flow conditioned on the class and an 8-dim embedding,
  twice: the generated sets of a conditioned flow reach the Hausdorff
  distance in a layout that is not C-ordered (a permutation's column
  gather), and 8 dimensions are enough for numpy's pairwise summation
  order to differ from a sequential one, which no other run has. The
  first run uses the config's dataset; the second has 800 rows per class
  (``coverage_cap = 700``), so its 640-row classes split each Hausdorff
  call into two row chunks (``metrics.CHUNK_FLOATS``), which no other
  run does;
- each knob that keeps the memory from a phase, at 0: er and prer with
  ``beta = 0``, prer and prer_r with ``replay_fraction = 0``, replay and
  prer with ``memory_size = 0``;
- replay and prer_r with ``replay_fraction = 0.99``: ceil(0.99 n) = n
  for every batch of at most 100 rows, so each classifier batch from
  task 2 on holds memory rows only, and the current task's head scores
  none of them;
- prer, and prer_r with conditioning both, each with ``coverage_cap = 50``:
  the config leaves 120 training rows per class, so the coverage step
  draws the capped rows of every class, which no other run does;
- prer_r with conditioning both on 784-dim blobs (300 rows per class)
  with two epochs per phase: each task has 480 training rows, so the
  label probe encodes every past task in two row chunks of 240 (input
  chunks of ``metrics.CHUNK_FLOATS`` floats, 334 rows at 784 dims),
  where every other prer_r run's task fits in one.

That is 38 runs.

Records are compared without ``timings`` and ``config_hash``, the same
rule as ``bench/checks.digest``. Exits 1 on any difference. Uses only the
standard library here; the workers import the program and numpy.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE_CONFIG = ROOT / "configs" / "blobs.cfg"
SEED = 1
CRASH_AT = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
IGNORED = ("timings", "config_hash")
IDX_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")


def grid():
    """(name, config overrides, crash task or None), in run order."""
    runs = [(s, {"strategy": s}, None) for s in ("naive", "replay", "er", "prer", "prer_r")]
    for strategy in ("prer", "prer_r"):
        for mode in ("both", "flow", "none"):
            runs.append((f"{strategy}-{mode}", {"strategy": strategy, "conditioning": mode},
                         None))
    for strategy in ("replay", "er", "prer"):
        runs.append((f"{strategy}-resumed-at-task{CRASH_AT}",
                     {"strategy": strategy, "checkpoints": "true"}, CRASH_AT))
    runs.append((f"prer_r-both-resumed-at-task{CRASH_AT}",
                 {"strategy": "prer_r", "conditioning": "both", "checkpoints": "true"},
                 CRASH_AT))
    runs.append(("prer-idx", {
        "strategy": "prer", "dataset": "mnist:dir=.",
        "embedding_dim": 6, "classifier_epochs": 4,
        "ae_max_epochs": 8, "flow_max_epochs": 8, "memory_size": 10, "coverage_cap": 10,
    }, None))
    runs.append(("prer_r-lone-row-batches", {"strategy": "prer_r", "batch_size": 239}, None))
    runs.append(("prer_r-lone-row-classifier-batches",
                 {"strategy": "prer_r", "batch_size": 215}, None))
    runs.append(("prer_r-no-validation-rows", {
        "strategy": "prer_r", "dataset": "blobs:classes=10,dim=20,sep=5,per_class=5,span=3",
    }, None))
    runs.append(("prer-multi-chunk-adam", {
        "strategy": "prer", "dataset": "blobs:classes=10,dim=784,sep=6,per_class=60",
        "classifier_epochs": 2, "ae_max_epochs": 2, "flow_max_epochs": 2,
    }, None))
    runs.append(("prer-multi-chunk-coverage", {"strategy": "prer", "embedding_dim": 64}, None))
    runs.append(("prer-100dim-flow-coverage-chunks", {
        "strategy": "prer", "dataset": "blobs:classes=10,dim=784,sep=6,per_class=60",
        "embedding_dim": 100, "flow_levels": 2,
        "classifier_epochs": 2, "ae_max_epochs": 2, "flow_max_epochs": 2,
    }, None))
    runs.append(("prer-c_m3-remainder-task", {"strategy": "prer", "c_m": 3}, None))
    runs.append(("prer-three-level-flow",
                 {"strategy": "prer", "flow_levels": 3, "embedding_dim": 14}, None))
    runs.append(("prer_r-both-three-level-flow", {"strategy": "prer_r", "conditioning": "both",
                                                   "flow_levels": 3, "embedding_dim": 14}, None))
    runs.append(("prer-flow-8dim", {"strategy": "prer", "conditioning": "flow",
                                    "embedding_dim": 8}, None))
    runs.append(("prer-flow-8dim-two-chunk-hausdorff", {
        "strategy": "prer", "conditioning": "flow", "embedding_dim": 8,
        "dataset": "blobs:classes=10,dim=20,sep=5,per_class=800,span=3", "coverage_cap": 700,
    }, None))
    for strategy, knob in (("er", "beta"), ("prer", "beta"), ("prer", "replay_fraction"),
                           ("prer_r", "replay_fraction"), ("replay", "memory_size"),
                           ("prer", "memory_size")):
        runs.append((f"{strategy}-{knob}-0", {"strategy": strategy, knob: 0}, None))
    for strategy in ("replay", "prer_r"):
        runs.append((f"{strategy}-replay_fraction-0.99",
                     {"strategy": strategy, "replay_fraction": 0.99}, None))
    runs.append(("prer-cap50", {"strategy": "prer", "coverage_cap": 50}, None))
    runs.append(("prer_r-both-cap50",
                 {"strategy": "prer_r", "conditioning": "both", "coverage_cap": 50}, None))
    runs.append(("prer_r-multi-chunk-probe", {
        "strategy": "prer_r", "conditioning": "both",
        "dataset": "blobs:classes=10,dim=784,sep=6,per_class=300",
        "classifier_epochs": 2, "ae_max_epochs": 2, "flow_max_epochs": 2,
    }, None))
    return runs


def config_text(base: str, overrides: dict) -> str:
    """The config text of one grid run: ``base`` with the line of each
    overridden key replaced, and the overrides of keys it lacks appended,
    so that every key is set once."""
    rest, lines = dict(overrides), []
    for line in base.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        lines.append(f"{key} = {rest.pop(key)}" if key in rest else line)
    return "\n".join(lines + [f"{k} = {v}" for k, v in rest.items()]) + "\n"


def write_idx_pair(directory):
    """48 random 6x6 uint8 images in 4 classes, each class with a bright
    row of its own, as an IDX image file and an IDX label file."""
    import struct

    import numpy as np

    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(48, 6, 6)).astype(np.uint8)
    labels = (np.arange(48) % 4).astype(np.uint8)
    for c in range(4):
        images[labels == c, c, :] = 255
    image_file, label_file = (Path(directory) / name for name in IDX_FILES)
    image_file.write_bytes(struct.pack(">IIII", 0x803, 48, 6, 6) + images.tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, 48) + labels.tobytes())


class _Crash(Exception):
    pass


def worker():
    """Run the grid read from stdin under the ``prer`` on sys.path and print
    {name: record} as JSON."""
    from dataclasses import asdict

    from prer import config, runner

    job = json.load(sys.stdin)
    out = {}
    train = runner.strategy_train_task
    with tempfile.TemporaryDirectory() as data_dir:
        write_idx_pair(data_dir)
        os.chdir(data_dir)  # the IDX run names its directory relative to here
        for name, overrides, crash_at in job["runs"]:
            cfg = config.parse_config_text(config_text(job["config"], overrides))
            with tempfile.TemporaryDirectory() as out_dir:
                if crash_at is not None:
                    def crashing(state):
                        if state.completed_tasks + 1 == crash_at:
                            raise _Crash
                        return train(state)
                    runner.strategy_train_task = crashing
                    try:
                        runner.run_experiment(cfg, SEED, out_dir=out_dir)
                    except _Crash:
                        pass
                    finally:
                        runner.strategy_train_task = train
                record = runner.run_experiment(cfg, SEED, out_dir=out_dir,
                                               resume=crash_at is not None)
            out[name] = {k: v for k, v in asdict(record).items() if k not in IGNORED}
    json.dump(out, sys.stdout, sort_keys=True)


def run_tree(tree: Path, job: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(job),
                          capture_output=True, text=True, env=env, cwd=tree, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"grid failed under {tree}")
    return json.loads(proc.stdout)


def differences(base: dict, head: dict) -> list:
    """One line per field that differs, named by its full path: dicts are
    descended into, so ``<run>.footprints.prer_r`` names one footprint."""
    lines = []

    def walk(path, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                walk(f"{path}.{key}", a.get(key), b.get(key))
        elif a != b:
            lines.append(f"{path}: base {a!r} != working tree {b!r}")

    for name in base.keys() | head.keys():
        a, b = base.get(name), head.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'base' if b is None else 'working tree'}")
        else:
            walk(name, a, b)
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker()
    if not args.base:
        parser.error("--base is required")
    job = {"config": BASE_CONFIG.read_text(encoding="utf-8"), "runs": grid()}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        base = run_tree(Path(tmp), job)
    head = run_tree(ROOT, job)
    diffs = differences(base, head)
    for line in diffs:
        print(line)
    print(f"{len(head)} runs compared against {args.base}: "
          f"{'records differ' if diffs else 'records identical'} "
          f"(ignoring {', '.join(IGNORED)})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
