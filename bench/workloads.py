"""The benchmark's workloads and the counter of training rows.

Each workload starts from a config in `configs/`, applies a few
overrides, and runs a fixed list of strategies on experiment seeds
derived from the benchmark seed. Importing this module imports the
program, so the thread variables must be set before it is imported.
"""

from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from prer import config as prer_config

from spans import patched

ROOT = Path(__file__).resolve().parent.parent

STRATEGIES = ("naive", "replay", "er", "prer", "prer_r")

# 784-dim blobs through the configs/mnist.cfg model: MNIST-shaped
# without a download, two epochs per phase so a run fits in a pass
MNIST784 = {
    "dataset": "blobs:classes=10,dim=784,sep=6,per_class=1000",
    "classifier_epochs": 2,
    "ae_max_epochs": 2,
    "flow_max_epochs": 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    strategies: tuple
    seeds_per_pass: int
    # about how long one pass takes on the reference machine (README);
    # it fixes the pass count for a given --seconds, so that the count
    # never depends on how loaded the machine happens to be
    pass_seconds: float
    overrides: dict = field(default_factory=dict)
    # which record checks apply beyond the ones every record gets
    forgetting: bool = False
    learning: bool = False

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_seconds))

    def experiment_seeds(self, seed, pass_index):
        """Experiment seeds of one pass. Every pass of every benchmark seed
        gets its own, so no pass can reuse work a previous one left behind."""
        first = 10_000 * seed + pass_index * self.seeds_per_pass
        return tuple(range(first, first + self.seeds_per_pass))

    def configs(self, out_dir):
        """One validated config per strategy, built as `prer run` builds it."""
        out = []
        for strategy in self.strategies:
            cfg = prer_config.load_config(ROOT / self.config_file)
            for key, value in self.overrides.items():
                setattr(cfg, key, value)
            cfg.strategy = strategy
            cfg.out_dir = str(out_dir)
            out.append(cfg.validate())
        return out


WORKLOADS = {w.name: w for w in (
    # one blobs seed takes about 4 s over the five strategies, too short
    # to average out the shared machine's speed swings: six per pass
    Workload("blobs_sweep", "configs/blobs.cfg", STRATEGIES, seeds_per_pass=6,
             pass_seconds=26.0, forgetting=True),
    Workload("mnist784_prer", "configs/mnist.cfg", ("prer",), seeds_per_pass=1,
             pass_seconds=14.0, overrides=MNIST784, learning=True),
    Workload("mnist784_prer_r_cond", "configs/mnist.cfg", ("prer_r",), seeds_per_pass=1,
             pass_seconds=10.0, overrides=dict(MNIST784, conditioning="both", checkpoints=True),
             learning=True),
)}


def _held_in(task, cfg):
    return len(task) - int(len(task) * cfg.validation_fraction)


def _whole(task, cfg):
    return len(task)


def _without_lone_row(task, cfg):
    # the flow phase skips a trailing batch of one row
    return len(task) - (1 if len(task) % cfg.batch_size == 1 else 0)


# phase, position of its `task` argument (`cfg` follows it), rows per epoch
PHASES = (
    ("train_classifier_phase", 1, _held_in),
    ("train_autoencoder_phase", 1, _whole),
    ("train_flow_phase", 2, _without_lone_row),
)


class TrainRows:
    """Pass-through wrappers on the three training phases that add up the
    rows each phase pushed through a training step: rows per epoch times
    the epochs the phase reports. They time nothing."""

    def __init__(self):
        self.rows = 0

    def _counter(self, task_at, per_epoch):
        def make(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                task, cfg = args[task_at], args[task_at + 1]
                self.rows += per_epoch(task, cfg) * len(out["loss_history"])
                return out
            return wrapper
        return make

    def counting(self):
        stack = ExitStack()
        for phase, task_at, per_epoch in PHASES:
            stack.enter_context(patched("pipeline", phase, self._counter(task_at, per_epoch)))
        return stack
