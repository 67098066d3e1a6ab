"""Benchmark of prer: one workload, one process, a fixed measuring time.

    python3 bench/run.py --workload blobs_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. A pass runs every (strategy, seed) of
the workload once through the calls `prer run` makes: config, then
`runner.run_experiment`, then `runner.write_record`. `--seconds` sets
the number of passes, each on fresh seeds. Traced mode makes a warm-up
pass and a pass that runs each (strategy, seed) untraced, then traced.
Every record is checked (see checks.py) and its digest printed. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of spans.py with `--trace 1`.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("train_rows_per_s", "rows/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the program, build the configs and exit")
    return parser.parse_args(argv)


def load_program():
    """Pin BLAS to one thread, then import numpy and the program from
    this checkout's src/ (never from an installed copy)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "prer" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import prer.checkpoint  # noqa: F401  (patched in traced mode)
    import prer.runner  # noqa: F401


def measure_setup(workload):
    """Median seconds from spawning a fresh interpreter to it having
    imported the program and built the workload's configs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_run(cfg, seed, tracer, rows):
    """One `run_experiment` plus its `write_record`, traced when a tracer
    is given and counting training rows when not. Returns the seconds
    taken and the record as written."""
    from prer import runner
    from spans import tracing

    with tracing(tracer) if tracer else rows.counting():
        start = time.perf_counter()
        with tracer.span("run") if tracer else nullcontext():
            record = runner.run_experiment(cfg, seed, out_dir=cfg.out_dir)
            path = runner.write_record(record, cfg.out_dir)
        seconds = time.perf_counter() - start
    return seconds, json.loads(path.read_text(encoding="utf-8"))


def run_pass(configs, seeds, tracer=None):
    """Every (strategy, seed) of a pass once. With a tracer, each run is
    repeated traced right after its untraced twin, so that both see the
    same machine state and the overhead is their difference."""
    from prer import checkpoint
    from spans import tracing
    from workloads import TrainRows

    rows = TrainRows()
    result = {"wall": 0.0, "traced_wall": 0.0, "records": [], "restored": {},
              "attempted": 0, "failed": 0}
    for seed in seeds:
        for cfg in configs:
            ran = False
            for twin in (None, tracer) if tracer else (None,):
                result["attempted"] += 1
                try:
                    seconds, record = timed_run(cfg, seed, twin, rows)
                except Exception:  # counted as failed; the pass goes on
                    traceback.print_exc()
                    result["failed"] += 1
                    continue
                ran = True
                result["traced_wall" if twin else "wall"] += seconds
                result["records"].append(((cfg.strategy, seed), record))
            if cfg.checkpoints and ran:  # read back outside the timed runs
                path = next(Path(cfg.out_dir).glob(f"state_{cfg.strategy}_*_seed{seed}.npz"))
                with tracing(tracer) if tracer else nullcontext():
                    result["restored"][cfg.strategy, seed] = checkpoint.load_run_state(path)
    result["rows"] = rows.rows
    return result


def check_pass(workload, configs, result, digests):
    """Every output check of one pass; returns error messages."""
    import checks

    errors = []
    cfg_of = {c.strategy: c for c in configs}
    latest = {}
    for (strategy, seed), rec in result["records"]:
        where = f"{strategy} seed {seed}"
        errors += [f"{where}: {e}" for e in checks.check_record(rec, cfg_of[strategy])]
        if workload.learning:
            errors += [f"{where}: {e}" for e in checks.check_learning(rec)]
        if (strategy, seed) in result["restored"]:
            errors += [f"{where}: {e}" for e in
                       checks.check_checkpoint(result["restored"][strategy, seed], rec)]
        digest = checks.digest(rec)
        if digests.setdefault((strategy, seed), digest) != digest:
            errors.append(f"{where}: two runs of one seed gave different records")
        latest[strategy, seed] = rec
    if workload.forgetting:
        errors += checks.check_forgetting(list(latest.values()))
    return errors


def check_spans(roots):
    """Self times of every traced tree must add up to its root's span."""
    return [f"span tree {name}: self times sum to {total:.9f} s, span is {span:.9f} s"
            for name, span, total in roots if abs(total - span) > 1e-9 + 1e-9 * span]


def main(argv=None):
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    configs = workload.configs(out_dir)
    if args.setup_probe:
        return 0

    import resource

    from spans import PER_LAYER, Tracer, summarize

    setup_s = measure_setup(workload.name) if not args.trace else None
    shutil.rmtree(out_dir, ignore_errors=True)
    if args.trace:
        # a warm-up pass, then a pass of untraced and traced twins: the
        # overhead compares warm runs doing equal work
        plan = [(0, None), (0, Tracer())]
    else:
        plan = [(k, None) for k in range(workload.passes(args.seconds))]
    print(f"# workload {workload.name}, {len(plan)} passes, "
          f"provenance {json.dumps(provenance())}", flush=True)

    results, errors, digests = [], [], {}
    for k, tracer in plan:
        result = run_pass(configs, workload.experiment_seeds(args.seed, k), tracer)
        if not results:
            # later passes add the allocator's fragmentation from earlier
            # ones, which varies from seed to seed; the first pass is what
            # one `prer run` process pays
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors += check_pass(workload, configs, result, digests)
        if tracer is not None:
            result["layers"], roots = summarize(tracer)
            errors += check_spans(roots)
            tracer.save(out_dir / "spans.npz")
        del result["records"], result["restored"]
        results.append(result)
        gc.collect()  # no pass starts with the previous one's uncollected cycles
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    for (strategy, seed), digest in sorted(digests.items()):
        print(f"digest {workload.name} {strategy} seed {seed} {digest}")
    for message in errors:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(f"# pass walls {[round(r['wall'], 3) for r in results]} s, traced "
          f"{[round(r['traced_wall'], 3) for r in results if r['traced_wall']]} s")

    if args.trace:
        layers = results[-1]["layers"]
        measured = {name: layers.get(name, 0.0) for name, _, _ in PER_LAYER}
        measured["trace.overhead_s"] = results[-1]["traced_wall"] - results[-1]["wall"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        measured = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in results),
            "train_rows_per_s": statistics.median(r["rows"] / r["wall"] for r in results),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in measured.items()}
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
