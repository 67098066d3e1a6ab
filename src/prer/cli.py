"""Command-line interface: run experiments, aggregate records, inspect
a flow topology.

The PRER_NUM_THREADS environment variable, when set, caps the BLAS
thread pools before numpy is imported, which makes timing comparisons
across strategies deterministic.
"""

import argparse
import os
import sys


def _apply_thread_cap():
    cap = os.environ.get("PRER_NUM_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _cmd_run(args):
    from .config import load_config
    from .runner import run_experiment, write_record

    cfg = load_config(args.config)
    if args.strategy:
        cfg.strategy = args.strategy
    if args.out:
        cfg.out_dir = args.out
    seeds = [args.seed] if args.seed is not None else list(cfg.seeds)
    for seed in seeds:
        record = run_experiment(cfg, seed, out_dir=cfg.out_dir, resume=args.resume)
        path = write_record(record, cfg.out_dir)
        bwt = "n/a" if record.bwt is None else f"{record.bwt:.2f}"
        print(f"seed {seed}: accuracy {record.accuracy:.2f} bwt {bwt} -> {path}")
    return 0


def _cmd_aggregate(args):
    from .runner import aggregate, read_records, summary_table

    records = read_records(args.in_dir)
    if not records:
        print(f"no run records found in {args.in_dir}", file=sys.stderr)
        return 1
    table = summary_table(aggregate(records))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(table, end="")
    return 0


def _cmd_inspect_flow(args):
    from .config import load_config
    from .data import parse_dataset_spec
    from .rng import Rng
    from .runner import build_flow_from_config, build_model_from_config

    cfg = load_config(args.config)
    seed = cfg.seeds[0]
    dataset = parse_dataset_spec(cfg.dataset, seed)
    rng = Rng(seed)
    model = build_model_from_config(cfg, dataset.sample_shape, dataset.num_classes,
                                    rng.fork("model-init"))
    flow = build_flow_from_config(cfg, dataset.num_classes, rng.fork("flow-init"))
    print(f"flow: dim={flow.dim} cond_width={flow.cond_width} params={flow.param_count()}")
    for level in flow.level_summary():
        print(f"  level {level['level']}: width {level['width']}, "
              f"emits {level['emitted']}, {level['layers']} layers")
    print(f"decoder params: {model.decoder.param_count()}")
    print(f"model params (encoder+projections+decoder): {model.param_count()}")
    return 0


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = argparse.ArgumentParser(prog="prer",
                                     description="Continual-learning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config, one or all seeds")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="run a single seed")
    p_run.add_argument("--strategy", default=None, help="override the config strategy")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from the latest per-task checkpoint")
    p_run.set_defaults(func=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="summarize run records into a table")
    p_agg.add_argument("--in", dest="in_dir", required=True, help="directory of run records")
    p_agg.add_argument("--out", default=None, help="also write the table to this file")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_ins = sub.add_parser("inspect-flow", help="print flow parameter counts and level dims")
    p_ins.add_argument("--config", required=True)
    p_ins.set_defaults(func=_cmd_inspect_flow)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
