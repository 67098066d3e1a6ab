"""Which steps of one benchmark pass raised the process's peak RSS.

    python3 tools/rss_marks.py --workload blobs_sweep --seed 1

Runs the first pass of a workload of ``bench/workloads.py`` through
``bench/run.py``'s own ``load_program`` and ``run_pass``, as ``bench/run.py
--trace 0`` runs it: BLAS on one thread, every (experiment seed, strategy)
of the pass through ``runner.run_experiment`` and ``runner.write_record``,
and ``checkpoint.load_run_state`` for a config with checkpoints. The
benchmark reads its ``peak_rss_mb`` after that first pass; before it, the
benchmark also times its set-up probes and reads its provenance, which
this tool does not, so its marks can sit a little below the benchmark's.

The program's steps named in ``STEPS`` are wrapped from outside, as
``bench/spans.py`` wraps its targets, and each wrapper reads
``ru_maxrss`` before and after its call. Every call during which the mark
rose is printed in the order the calls ended, indented by how many
wrapped steps enclose it, as ``<strategy> seed <s> task <t> <step>: <mark
after> MB (+<rise>)``; task 0 is the run's set-up before its first task.
A rise inside a nested step also counts for the steps around it. The
mark after the imports and the peak come first and last, and the last
line of standard output is one JSON object with the same numbers, in MB
(``ru_maxrss / 1024``, as the benchmark reads it).
"""

import argparse
import functools
import json
import resource
import shutil
import sys
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, qualified name) of every step whose rise is reported
STEPS = (
    ("runner", "_task_streams"),
    ("pipeline", "generate_memory"),
    ("pipeline", "_past_task_probe"),
    ("metrics", "KnnProbe.predict"),
    ("pipeline", "train_classifier_phase"),
    ("pipeline", "train_autoencoder_phase"),
    ("pipeline", "train_flow_phase"),
    ("metrics", "task_accuracy"),
    ("runner", "_coverage"),
    ("checkpoint", "save_run_state"),
    ("checkpoint", "load_run_state"),
)


def mark_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Marks:
    """The rises of ``ru_maxrss`` over one pass, one per wrapped call
    that raised it: (depth, label, mark after the call, rise)."""

    def __init__(self):
        self.run = ""
        self.task = 0
        self.depth = 0
        self.rises = []

    def step(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = mark_mb()
                self.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.depth -= 1
                    after = mark_mb()
                    if after > before:
                        label = f"{self.run} task {self.task} {name}"
                        self.rises.append((self.depth, label, after, after - before))
            return wrapper
        return make

    def runs(self, fn):
        """Wrap ``run_experiment`` so that later steps know their run."""
        @functools.wraps(fn)
        def wrapper(cfg, seed, *args, **kwargs):
            self.run, self.task = f"{cfg.strategy} seed {seed}", 0
            return fn(cfg, seed, *args, **kwargs)
        return wrapper

    def tasks(self, fn):
        """Wrap ``strategy_train_task`` so that later steps know their task."""
        @functools.wraps(fn)
        def wrapper(state):
            self.task = state.completed_tasks + 1
            return fn(state)
        return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    run.load_program()
    from spans import patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"rss_marks: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    imports = mark_mb()
    print(f"imports: {imports:.2f} MB")
    workload = WORKLOADS[args.workload]
    shutil.rmtree(run.OUT / workload.name, ignore_errors=True)
    marks = Marks()
    with ExitStack() as stack:
        for module, qualname in STEPS:
            stack.enter_context(patched(module, qualname, marks.step(f"{module}.{qualname}")))
        stack.enter_context(patched("runner", "run_experiment", marks.runs))
        stack.enter_context(patched("pipeline", "strategy_train_task", marks.tasks))
        run.run_pass(workload.configs(run.OUT / workload.name),
                     workload.experiment_seeds(args.seed, 0))
    for depth, label, after, rise in marks.rises:
        print(f"{'  ' * depth}{label}: {after:.2f} MB (+{rise:.2f})")
    peak = mark_mb()
    print(f"peak: {peak:.2f} MB")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "imports_mb": imports,
                      "peak_mb": peak, "rises": marks.rises}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
