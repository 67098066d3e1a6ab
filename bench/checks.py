"""Output checks on run records.

Every expected value here is recomputed from the config and the dataset
string, or is a property the method must have; none is read back from
the program's own helpers. Each check returns a list of messages, empty
when the record passes.
"""

import hashlib
import json
import math

FLOW_STRATEGIES = ("prer", "prer_r")
REHEARSAL_STRATEGIES = ("replay", "er", "prer", "prer_r")
TEST_SHARE = 0.2


def parse_blobs(spec):
    """classes, per_class and dim of a ``blobs:`` dataset string, with the
    defaults the README documents."""
    kind, _, argstr = spec.partition(":")
    if kind != "blobs":
        raise ValueError(f"only blobs datasets are checked, got {spec!r}")
    args = dict(item.split("=", 1) for item in argstr.split(",") if item)
    return {"classes": int(args.get("classes", 10)),
            "per_class": int(args.get("per_class", 200)),
            "dim": int(args.get("dim", 20))}


def task_classes(num_classes, c_m):
    """Class count of each task: consecutive groups of c_m, remainder last."""
    return [min(c_m, num_classes - start) for start in range(0, num_classes, c_m)]


def holdout_sizes(cfg):
    """n_j, the test-split size of each task: 20% of every class, rounded down."""
    blobs = parse_blobs(cfg.dataset)
    per_class = int(blobs["per_class"] * TEST_SHARE)
    return [n * per_class for n in task_classes(blobs["classes"], cfg.c_m)]


def _dense_stack(widths):
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def decoder_params(cfg):
    blobs = parse_blobs(cfg.dataset)
    if cfg.encoder != "mlp":
        raise ValueError("only the mlp decoder is counted")
    hidden = cfg.decoder_hidden or tuple(reversed(cfg.encoder_hidden))
    first = cfg.embedding_dim + (blobs["classes"] if cfg.decoder_conditioned else 0)
    return _dense_stack((first,) + tuple(hidden) + (blobs["dim"],))


def flow_params(cfg):
    """Two two-layer nets per coupling; at width w the coupling reads
    ceil(w/2) coordinates and writes floor(w/2), with hidden width
    multiplier * w. The last coupling of level 0 also reads the class
    one-hot when the flow is conditioned. Every non-final level emits
    ceil(w/2) coordinates."""
    classes = parse_blobs(cfg.dataset)["classes"]
    total, w = 0, cfg.embedding_dim
    for level in range(cfg.flow_levels):
        for block in range(cfg.flow_blocks):
            a, b, h = (w + 1) // 2, w // 2, cfg.flow_hidden_multiplier * w
            if b == 0:
                continue
            cond = classes if (cfg.flow_conditioned and level == 0
                               and block == cfg.flow_blocks - 1) else 0
            total += 2 * _dense_stack((a + cond, h, b))
        w -= (w + 1) // 2
    return total


def expected_footprints(cfg):
    blobs = parse_blobs(cfg.dataset)
    tasks = len(task_classes(blobs["classes"], cfg.c_m))
    m, d, e = cfg.memory_size, blobs["dim"], cfg.embedding_dim
    return {"naive": 0.0,
            "replay": float(tasks * m * d),
            "er": float(tasks * m * (d + e)),
            "prer": float(decoder_params(cfg) + flow_params(cfg))}


def recompute_accuracy(r):
    last = r[-1]
    return sum(last) / len(last)


def recompute_bwt(r):
    t = len(r)
    drops = [r[i][j] - r[j][j] for i in range(1, t) for j in range(i)]
    return sum(drops) / len(drops)


def _close(a, b, tol=1e-9):
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def check_record(rec, cfg):
    """Result matrix, summary numbers, footprints, coverage and quality."""
    errors = []
    sizes = holdout_sizes(cfg)
    t = len(sizes)
    r = rec["r_matrix"]
    if rec["num_tasks"] != t or len(r) != t or any(len(row) != t for row in r):
        return [f"R is not {t} x {t}"]
    for i in range(t):
        for j in range(t):
            v = r[i][j]
            if j > i:
                if v is not None:
                    errors.append(f"R[{i + 1},{j + 1}] above the diagonal is set")
                continue
            if v is None or not math.isfinite(v):
                errors.append(f"R[{i + 1},{j + 1}] is missing")
                continue
            if not 0.0 <= v <= 100.0:
                errors.append(f"R[{i + 1},{j + 1}] = {v} outside [0, 100]")
            hits = v * sizes[j] / 100.0
            if abs(hits - round(hits)) > 1e-6:
                errors.append(f"R[{i + 1},{j + 1}] = {v} is off the grid 100/{sizes[j]}")
    if errors:
        return errors

    if not _close(rec["accuracy"], recompute_accuracy(r)):
        errors.append(f"accuracy {rec['accuracy']} != mean of the last row of R")
    if t >= 2 and not _close(rec["bwt"], recompute_bwt(r)):
        errors.append(f"bwt {rec['bwt']} != {recompute_bwt(r)} recomputed from R")

    strategy = rec["strategy"]
    want = expected_footprints(cfg)
    got = rec["footprints"]
    names = ("naive", "replay", "er") + (("prer",) if strategy in FLOW_STRATEGIES else ())
    for name in names:
        if not _close(got.get(name), want[name]):
            errors.append(f"footprint {name} = {got.get(name)}, expected {want[name]}")
    if strategy == "prer_r" and not got.get("prer_r", -1.0) >= want["prer"]:
        errors.append(f"footprint prer_r = {got.get('prer_r')} is below prer {want['prer']}")
    if rec["memory_floats"] != got.get(strategy):
        errors.append(f"memory_floats {rec['memory_floats']} != footprint of {strategy}")

    if strategy in FLOW_STRATEGIES:
        if sorted(rec["d_t"], key=int) != [str(k) for k in range(1, t + 1)]:
            errors.append(f"d_t covers tasks {sorted(rec['d_t'])}, expected 1..{t}")
        if cfg.memory_size and sorted(rec["q_t"], key=int) != [str(k) for k in range(2, t + 1)]:
            errors.append(f"q_t covers tasks {sorted(rec['q_t'])}, expected 2..{t}")
    elif rec["d_t"] or rec["q_t"]:
        errors.append(f"{strategy} has no flow but reports d_t or q_t")
    for k, v in rec["d_t"].items():
        if not (math.isfinite(v) and v > 0.0):
            errors.append(f"d_t[{k}] = {v} is not finite and positive")
    for k, v in rec["q_t"].items():
        if not (math.isfinite(v) and -100.0 <= v <= 100.0):
            errors.append(f"q_t[{k}] = {v} is not finite within [-100, 100]")
    return errors


def check_learning(rec, chance=50.0):
    """Every task is learned above the chance level of a two-class task."""
    return [f"R[{t + 1},{t + 1}] = {row[t]} is not above chance {chance}"
            for t, row in enumerate(rec["r_matrix"]) if not row[t] > chance]


def check_forgetting(records):
    """Each rehearsal strategy's mean BWT over the seeds lies above naive's."""
    by_strategy = {}
    for rec in records:
        by_strategy.setdefault(rec["strategy"], []).append(rec["bwt"])
    mean = {s: sum(v) / len(v) for s, v in by_strategy.items()}
    if "naive" not in mean:
        return ["no naive records to compare forgetting against"]
    return [f"mean bwt of {s} ({mean[s]:.3f}) is not above naive's ({mean['naive']:.3f})"
            for s in REHEARSAL_STRATEGIES if s in mean and not mean[s] > mean["naive"]]


def check_checkpoint(restored, rec):
    """The last checkpoint holds every task and the record's R."""
    t = rec["num_tasks"]
    errors = []
    if restored["completed_tasks"] != t:
        errors.append(f"checkpoint has {restored['completed_tasks']} tasks, expected {t}")
    saved = restored["result_matrix"].tolist()
    want = [[math.nan if v is None else v for v in row] for row in rec["r_matrix"]]
    same = len(saved) == t and all(
        len(a) == len(b) and all(x == y or (math.isnan(x) and math.isnan(y))
                                 for x, y in zip(a, b))
        for a, b in zip(saved, want))
    if not same:
        errors.append("checkpoint result matrix differs from the record's R")
    return errors


def digest(rec):
    """Hash of the record without wall-clock timings and without
    config_hash, which also covers the output directory."""
    kept = {k: v for k, v in rec.items() if k not in ("timings", "config_hash")}
    text = json.dumps(kept, sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()
