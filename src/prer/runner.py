"""Experiment runner: builds everything from a config, trains the task
stream, evaluates the result matrix and persists per-run records.

A run is a pure function of (config, seed): datasets, splits, weight
initialization and every training draw derive from the seed, so
re-running reproduces the record exactly.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint, metrics, nn
from .config import ExperimentConfig
from .data import build_task_stream, parse_dataset_spec, split_train_test
from .exceptions import ConfigurationError
from .flow import build_flow
from .model import build_model
from .pipeline import STRATEGIES, RunState, strategy_train_task
from .rng import Rng


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    strategy: str
    dataset: str
    num_tasks: int
    r_matrix: list
    accuracy: float
    bwt: float | None
    d_t: dict = field(default_factory=dict)
    q_t: dict = field(default_factory=dict)
    memory_floats: float = 0.0
    footprints: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    flow_params: int = 0
    decoder_params: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        data = json.loads(text)
        return cls(**data)


# hidden activations of the widest coupling net that sampling a pool chunk
# holds at once: about three (6.14 MiB above the call's entry for a chunk
# of 1,286 rows through a 200-wide net, 1.96 MiB each)
SAMPLING_ACTIVATIONS = 3


def _coverage(state, through_task, cap, rng):
    """Class-averaged Hausdorff distance between real reconstruction
    embeddings and flow samples, per class seen so far."""
    model = state.model
    classes = sorted(state.stream.classes_seen(through_task))
    picked = {}
    for c in classes:
        # a class's rows all lie in the task that owns it; the cap picks
        # positions in them, and only the picked rows are gathered
        task = state.stream.tasks[state.stream.task_of_class(c) - 1]
        rows = np.flatnonzero(task.y_global == c)
        if len(rows) > cap:
            rows = rows[rng.fork(f"cap{c}").choice(len(rows), size=cap, replace=False)]
        picked[c] = task, rows
    # each class's embeddings are a row slice of one matrix the probe fits
    counts = [len(picked[c][1]) for c in classes]
    real = np.empty((sum(counts), state.flow.dim))
    real_by_class = {}
    for c, end in zip(classes, np.cumsum(counts)):
        task, rows = picked[c]
        real_by_class[c] = real[end - len(rows):end]
        real_by_class[c][:] = model.encode_reconstruct(task.rows(rows))

    gen_by_class = {}
    if state.cfg.flow_conditioned:
        for c in classes:
            n_c = len(real_by_class[c])
            gen_by_class[c] = state.flow.sample(n_c, rng.fork(f"gen{c}"), cond=np.full(n_c, c))
    else:
        needed = dict(zip(classes, counts))
        total = len(real)
        probe = metrics.KnnProbe().fit(real, np.repeat(classes, counts))
        # sampling is row-independent, so a pool of 3 * total rows is sampled
        # and labelled in chunks until each class has its first needed[c] rows;
        # a chunk's SAMPLING_ACTIVATIONS activations of the widest coupling net
        # hold at most CHUNK_FLOATS floats together
        flow = state.flow
        pool_rng = rng.fork("gen-pool")
        kept = {c: np.empty((needed[c], flow.dim)) for c in classes}
        filled = dict.fromkeys(classes, 0)
        widest = max(getattr(layer, "hidden", 0) for lvl in flow.levels for layer in lvl)
        for rows in metrics._row_chunks(3 * total, SAMPLING_ACTIVATIONS * widest):
            chunk = flow.sample(rows.stop - rows.start, pool_rng)
            labels = probe.predict(chunk)
            for c in classes:
                take = np.flatnonzero(labels == c)[:needed[c] - filled[c]]
                kept[c][filled[c]:filled[c] + len(take)] = chunk[take]
                filled[c] += len(take)
            if filled == needed:
                break
        for c in classes:
            got = kept[c][:filled[c]]
            if len(got) == 0:
                # the flow assigns this class no mass at all; worst case,
                # drop it from the average rather than fail the run
                del real_by_class[c]
                continue
            if len(got) < needed[c]:
                keep = rng.fork(f"trim{c}").choice(needed[c], size=len(got), replace=False)
                real_by_class[c] = real_by_class[c][keep]
            gen_by_class[c] = got
    return metrics.coverage_hausdorff(real_by_class, gen_by_class)


def _checkpoint_path(out_dir, cfg, strategy, seed) -> Path:
    return Path(out_dir) / f"state_{strategy}_{cfg.config_hash()}_seed{seed}.npz"


def _task_streams(cfg, seed):
    """The train and test task streams of the run's dataset, and its
    sample shape. Every task holds row ids into the dataset's one array."""
    dataset = parse_dataset_spec(cfg.dataset, seed)
    train, test = (build_task_stream(dataset, ids, cfg.c_m, seed)
                   for ids in split_train_test(dataset, seed))
    return train, test, dataset.sample_shape


def run_experiment(cfg: ExperimentConfig, seed: int, out_dir=None, resume=False) -> RunRecord:
    cfg.validate()
    nn.reset_run_warnings()
    strategy = cfg.strategy
    keeps_flow = STRATEGIES[strategy].flow

    train_stream, test_stream, sample_shape = _task_streams(cfg, seed)
    num_tasks = len(train_stream)
    num_classes = train_stream.num_classes

    rng = Rng(seed)
    model = build_model(cfg, sample_shape, num_classes, rng.fork("model-init"))
    # every record prices each strategy's flow, so every strategy builds
    # it; only a strategy that keeps one trains it
    flow = build_flow(cfg, num_classes, rng.fork("flow-init"))

    state = RunState(model=model, flow=flow if keeps_flow else None, stream=train_stream,
                     cfg=cfg, rng=rng)

    ckpt_path = None
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        ckpt_path = _checkpoint_path(out_dir, cfg, strategy, seed)
    if resume and ckpt_path is not None and ckpt_path.exists():
        # the model and flow just built from (config, seed) take its arrays
        checkpoint.restore_run_state(state, checkpoint.load_run_state(ckpt_path))

    for t in range(state.completed_tasks + 1, num_tasks + 1):
        strategy_train_task(state)
        with state.timed("evaluation"):
            for j in range(1, t + 1):
                state.r[t - 1, j - 1] = metrics.task_accuracy(model, test_stream.tasks[j - 1])
            if keeps_flow:
                state.d_t[str(t)] = _coverage(state, t, cfg.coverage_cap, rng.fork(f"coverage{t}"))
                if state.memory is not None:
                    state.q_t[str(t)] = metrics.generation_quality(state.memory, model)
        if cfg.checkpoints and ckpt_path is not None:
            checkpoint.save_run_state(ckpt_path, state)

    image_floats = int(np.prod(sample_shape))
    decoder_params = model.decoder.param_count()
    footprints = {
        name: metrics.memory_footprint(kind, num_tasks, cfg.memory_size, image_floats,
                                       cfg.embedding_dim, decoder_params + flow.param_count())
        for name, kind in STRATEGIES.items()
    }

    r_matrix = [[None if math.isnan(v) else float(v) for v in row] for row in state.r]
    return RunRecord(
        config_hash=cfg.config_hash(),
        seed=seed,
        strategy=strategy,
        dataset=cfg.dataset,
        num_tasks=num_tasks,
        r_matrix=r_matrix,
        accuracy=metrics.accuracy(state.r),
        bwt=metrics.bwt(state.r) if num_tasks >= 2 else None,
        d_t=dict(state.d_t),
        q_t=dict(state.q_t),
        memory_floats=footprints[strategy],
        footprints=footprints,
        timings=dict(state.timings),
        flow_params=flow.param_count() if keeps_flow else 0,
        decoder_params=decoder_params,
    )


# ---------------------------------------------------------------------------
# record IO and aggregation


def record_path(out_dir, record: RunRecord) -> Path:
    return Path(out_dir) / (
        f"run_{record.strategy}_{record.config_hash}_seed{record.seed}.json"
    )


def write_record(record: RunRecord, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = record_path(out, record)
    checkpoint.atomic_write(path, lambda fh: fh.write(record.to_json().encode("utf-8")))
    return path


def read_records(in_dir) -> list:
    records = []
    for path in sorted(Path(in_dir).glob("run_*.json")):
        try:
            records.append(RunRecord.from_json(path.read_text(encoding="utf-8")))
        except (ValueError, TypeError) as err:
            raise ConfigurationError(f"{path} is not a run record: {err}") from None
    if not records:
        raise ConfigurationError(f"no run records found in {in_dir}")
    return records


def aggregate(records) -> list:
    """Mean and population standard deviation per (strategy, dataset, config_hash)."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.dataset, rec.config_hash), []).append(rec)
    rows = []
    for (strategy, dataset, config_hash), recs in sorted(groups.items()):
        accs = np.array([r.accuracy for r in recs])
        bwts = [r.bwt for r in recs]
        has_bwt = all(b is not None for b in bwts)
        bwt_arr = np.array(bwts, dtype=float) if has_bwt else None
        rows.append({
            "strategy": strategy,
            "dataset": dataset,
            "seed_count": len(recs),
            "accuracy_mean": float(accs.mean()),
            "accuracy_std": float(accs.std()),
            "bwt_mean": float(bwt_arr.mean()) if has_bwt else None,
            "bwt_std": float(bwt_arr.std()) if has_bwt else None,
            "memory_floats": float(np.mean([r.memory_floats for r in recs])),
            "config_hash": config_hash,
        })
    return rows


SUMMARY_COLUMNS = ("strategy", "dataset", "seed_count", "accuracy_mean", "accuracy_std",
                   "bwt_mean", "bwt_std", "memory_floats", "config_hash")


def summary_table(rows) -> str:
    lines = ["\t".join(SUMMARY_COLUMNS)]
    for row in rows:
        cells = []
        for col in SUMMARY_COLUMNS:
            value = row[col]
            cells.append("" if value is None else repr(value) if isinstance(value, float)
                         else str(value))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
