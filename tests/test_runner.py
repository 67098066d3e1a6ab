"""Tests for the experiment runner: record determinism, aggregation,
round-trips and the config surface."""

import io
import re
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from _helpers import layers_holding_a_cache
from prer import metrics, runner
from prer.checkpoint import load_run_state, state_arrays
from prer.config import ExperimentConfig, load_config, parse_config_text
from prer.data import LabeledDataset, build_task_stream, parse_dataset_spec, split_train_test
from prer.exceptions import ConfigurationError
from prer.model import build_model
from prer.pipeline import STRATEGIES
from prer.rng import Rng
from prer.runner import (
    RunRecord,
    aggregate,
    read_records,
    run_experiment,
    summary_table,
    write_record,
)

TINY = dict(
    dataset="blobs:classes=4,dim=6,sep=5,per_class=40",
    c_m=2,
    strategy="prer",
    seeds=(1, 2),
    embedding_dim=4,
    encoder_hidden=(12,),
    head_hidden=(8,),
    classifier_epochs=4,
    ae_max_epochs=8,
    flow_max_epochs=8,
    memory_size=30,
    batch_size=32,
    coverage_cap=50,
)


def tiny_config(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs).validate()


def without_wallclock(record):
    data = vars(record).copy()
    data.pop("timings")
    return data


def test_run_record_deterministic():
    cfg = tiny_config()
    a = run_experiment(cfg, seed=1)
    b = run_experiment(cfg, seed=1)
    assert without_wallclock(a) == without_wallclock(b)


def test_single_task_run_reports_no_bwt():
    cfg = tiny_config(dataset="blobs:classes=2,dim=6,sep=5,per_class=40",
                      strategy="naive")
    record = run_experiment(cfg, seed=1)
    assert record.num_tasks == 1
    assert record.bwt is None
    assert record.accuracy == record.r_matrix[0][0]


def test_prer_record_contains_per_task_metrics():
    cfg = tiny_config()
    record = run_experiment(cfg, seed=1)
    assert set(record.d_t) == {"1", "2"}
    assert set(record.q_t) == {"2"}
    assert record.flow_params > 0
    assert record.memory_floats == record.footprints["prer"]
    assert record.footprints["replay"] == 2 * 30 * 6
    assert record.footprints["er"] == 2 * 30 * (6 + 4)


def test_prer_memory_stays_constant_as_tasks_grow():
    """A single decoder and flow whatever the stream's length, where the
    rehearsal memories grow by one task's rows per task. Without
    conditioning: a conditioned decoder or flow takes a one-hot of every
    class, so it grows with the class count."""
    memory = {}
    for classes in (10, 20):
        for strategy in ("prer", "replay", "er"):
            cfg = tiny_config(dataset=f"blobs:classes={classes},dim=6,sep=5,per_class=10",
                              strategy=strategy, conditioning="none", memory_size=4,
                              classifier_epochs=1, ae_max_epochs=1, flow_max_epochs=1)
            record = run_experiment(cfg, seed=1)
            memory[strategy, record.num_tasks] = record.memory_floats
    assert memory["prer", 5] == memory["prer", 10] > 0
    for strategy in ("replay", "er"):
        assert memory[strategy, 10] == 2 * memory[strategy, 5] > 0


def test_naive_record_footprint_zero():
    record = run_experiment(tiny_config(strategy="naive"), seed=1)
    assert record.memory_floats == 0.0
    assert record.q_t == {}


def test_every_strategy_reports_the_same_footprints():
    records = [run_experiment(tiny_config(strategy=s), seed=1) for s in STRATEGIES]
    assert all(r.footprints == records[0].footprints for r in records)
    assert records[0].footprints["prer"] > 0
    # flow_params describes the run's own flow: none for naive, replay and er
    assert [r.flow_params > 0 for r in records] == [STRATEGIES[s].flow for s in STRATEGIES]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_every_strategy_builds_one_flow_from_the_flow_init_fork(strategy, monkeypatch):
    seeds = []
    build = runner.build_flow

    def counted(cfg, num_classes, rng):
        seeds.append(rng.seed)
        return build(cfg, num_classes, rng)

    monkeypatch.setattr(runner, "build_flow", counted)
    run_experiment(tiny_config(strategy=strategy), seed=1)
    assert seeds == [Rng(1).fork("flow-init").seed]


def test_record_json_roundtrip(tmp_path):
    record = run_experiment(tiny_config(), seed=2)
    assert RunRecord.from_json(record.to_json()) == record
    write_record(record, tmp_path)
    loaded = read_records(tmp_path)
    assert loaded == [record]


THREE_TASKS = "blobs:classes=6,dim=6,sep=5,per_class=40"


class Crash(Exception):
    """Stands in for an interrupt."""


def trained_tasks(monkeypatch, crash_at=None):
    """Route the runner's per-task training through a wrapper that logs
    each task index and the run state, and raises on task `crash_at`."""
    train = runner.strategy_train_task
    log = {"tasks": [], "state": None}

    def wrapper(state):
        t = state.completed_tasks + 1
        if t == crash_at:
            raise Crash
        log["tasks"].append(t)
        log["state"] = state
        return train(state)

    monkeypatch.setattr(runner, "strategy_train_task", wrapper)
    return log


def final_arrays(state):
    """Every array the run ends with: the state arrays and the memory.
    Records of small runs round accuracies coarsely, these do not."""
    arrays = dict(state_arrays(state))
    if state.memory is not None:
        arrays.update({f"memory/{k}": v for k, v in vars(state.memory).items()
                       if v is not None})
    return arrays


@pytest.mark.parametrize("strategy,conditioning", [
    ("naive", "decoder"), ("replay", "decoder"), ("er", "decoder"), ("prer", "decoder"),
    ("prer_r", "both"), ("prer_r", "flow"), ("prer_r", "none"),
])
def test_checkpoint_resume_reproduces_record(tmp_path, monkeypatch, strategy, conditioning):
    cfg = tiny_config(dataset=THREE_TASKS, strategy=strategy, conditioning=conditioning,
                      checkpoints=True)
    with monkeypatch.context() as patch:
        log = trained_tasks(patch)
        straight = without_wallclock(run_experiment(cfg, seed=1))
    expected = final_arrays(log["state"])
    for crash_at in (2, 3):
        out = tmp_path / f"crash{crash_at}"
        with monkeypatch.context() as patch:
            trained_tasks(patch, crash_at)
            with pytest.raises(Crash):
                run_experiment(cfg, seed=1, out_dir=out)
        with monkeypatch.context() as patch:
            log = trained_tasks(patch)
            resumed = run_experiment(cfg, seed=1, out_dir=out, resume=True)
        assert log["tasks"] == list(range(crash_at, 4))
        assert without_wallclock(resumed) == straight
        got = final_arrays(log["state"])
        assert got.keys() == expected.keys()
        for name, array in expected.items():
            assert np.array_equal(got[name], array), name


def test_coverage_pool_in_uneven_chunks_gives_the_one_chunk_bits(monkeypatch):
    cfg = tiny_config(embedding_dim=64, conditioning="decoder")
    with monkeypatch.context() as patch:
        log = trained_tasks(patch)
        run_experiment(cfg, seed=1)
    state = log["state"]
    flow = state.flow
    widest = max(getattr(layer, "hidden", 0) for lvl in flow.levels for layer in lvl)
    assert not state.cfg.flow_conditioned and widest >= 64
    generate, outputs = flow.generate, []

    def recording(u, cond=None):
        outputs.append(generate(u, cond=cond))
        return outputs[-1]

    monkeypatch.setattr(flow, "generate", recording)

    def coverage(budget):
        outputs.clear()
        monkeypatch.setattr(metrics, "CHUNK_FLOATS", budget)
        return runner._coverage(state, 2, cfg.coverage_cap, Rng(7)), list(outputs)

    one, [pool] = coverage(10 ** 9)
    n = len(pool)
    # a step whose near-equal slices are uneven, and which cut into full
    # steps would leave a tail of 1-48 rows, the block lengths that
    # changed flow samples in the last bits
    step = next(s for s in range(n // 3, 0, -1)
                if 0 < n % s <= 48 and n % -(-n // s) != 0)
    chunked, parts = coverage(runner.SAMPLING_ACTIVATIONS * widest * step)
    lengths = [len(part) for part in parts]
    assert len(lengths) >= 3 and max(lengths) - min(lengths) == 1
    assert np.array_equal(np.concatenate(parts), pool)
    assert chunked == one


@pytest.mark.parametrize("strategy", ["prer", "prer_r"])
def test_a_finished_run_leaves_no_network_a_cache(monkeypatch, strategy):
    # evaluation ends every task, and no pass of it is backpropagated
    log = trained_tasks(monkeypatch)
    run_experiment(tiny_config(strategy=strategy), seed=1)
    assert layers_holding_a_cache(log["state"].model) == []


def trained_state(monkeypatch):
    """The final run state of a tiny prer run with an unconditioned flow."""
    cfg = tiny_config(conditioning="decoder")
    with monkeypatch.context() as patch:
        log = trained_tasks(patch)
        run_experiment(cfg, seed=1)
    assert not log["state"].cfg.flow_conditioned
    return cfg, log["state"]


def scripted_coverage(monkeypatch, state, cap, label_of):
    """Run the coverage step of task 2 with the k-NN labels replaced by
    `label_of(pool positions)`. Returns the d_t, the flow outputs in call
    order, and the real and generated sets the distance was taken on."""
    seen, outputs, compared = [0], [], {}
    generate, hausdorff = state.flow.generate, metrics.coverage_hausdorff

    def predict(self, x):
        positions = np.arange(seen[0], seen[0] + len(x))
        seen[0] += len(x)
        return label_of(positions)

    def recording(u, cond=None):
        outputs.append(generate(u, cond=cond))
        return outputs[-1]

    def comparing(real, gen):
        compared.update(real=dict(real), gen=dict(gen))
        return hausdorff(real, gen)

    with monkeypatch.context() as patch:
        patch.setattr(metrics.KnnProbe, "predict", predict)
        patch.setattr(state.flow, "generate", recording)
        patch.setattr(metrics, "coverage_hausdorff", comparing)
        d_t = runner._coverage(state, 2, cap, Rng(7))
    return d_t, outputs, compared["real"], compared["gen"]


def test_coverage_stops_drawing_once_every_class_is_full(monkeypatch):
    cfg, state = trained_state(monkeypatch)
    flow = state.flow
    widest = max(getattr(layer, "hidden", 0) for lvl in flow.levels for layer in lvl)
    classes = state.stream.classes_seen(2)
    # every class has fewer training rows than the cap, so all are compared
    total = sum(int(np.isin(t.y_global, classes).sum()) for t in state.stream.tasks[:2])
    # a pool of 3 * total rows in three chunks; cycling labels fill every
    # class within the first, so the other two are never drawn
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", runner.SAMPLING_ACTIVATIONS * widest * total)
    d_t, outputs, real, gen = scripted_coverage(
        monkeypatch, state, cfg.coverage_cap, lambda pos: np.asarray(classes)[pos % 4])
    assert [len(out) for out in outputs] == [total]
    [pool] = outputs
    for i, c in enumerate(classes):
        assert np.array_equal(gen[c], pool[i::4])
        assert len(real[c]) == len(gen[c])
    assert d_t == metrics.coverage_hausdorff(real, gen)


def test_coverage_drops_an_unlabelled_class_and_trims_a_short_one(monkeypatch):
    cfg, state = trained_state(monkeypatch)
    classes = state.stream.classes_seen(2)
    _, _, full_real, _ = scripted_coverage(
        monkeypatch, state, cfg.coverage_cap, lambda pos: np.asarray(classes)[pos % 4])
    needed = {c: len(full_real[c]) for c in classes}

    # class 3 is never labelled: it leaves the average, every draw is made
    _, outputs, real, gen = scripted_coverage(
        monkeypatch, state, cfg.coverage_cap, lambda pos: np.asarray(classes)[pos % 3])
    pool = np.concatenate(outputs)
    assert len(pool) == 3 * sum(needed.values())
    assert sorted(real) == sorted(gen) == classes[:3]
    for i, c in enumerate(classes[:3]):
        assert np.array_equal(gen[c], pool[i::3][:needed[c]])
        assert np.array_equal(real[c], full_real[c])

    # class 3 gets the five rows of positions 3, 7, .., 19 and no more:
    # its real rows are trimmed to five by the "trim3" fork
    def short(pos):
        return np.asarray(classes)[np.where(pos < 20, pos % 4, pos % 3)]

    _, outputs, real, gen = scripted_coverage(monkeypatch, state, cfg.coverage_cap, short)
    pool = np.concatenate(outputs)
    assert sorted(real) == sorted(gen) == classes
    assert np.array_equal(gen[classes[3]], pool[3:20:4])
    keep = Rng(7).fork(f"trim{classes[3]}").choice(needed[classes[3]], size=5, replace=False)
    assert np.array_equal(real[classes[3]], full_real[classes[3]][keep])
    for c in classes[:3]:
        assert np.array_equal(real[c], full_real[c]) and len(gen[c]) == needed[c]


def _assert_same_streams(got, expected):
    assert (got.num_classes, got.classes_per_task) == (expected.num_classes,
                                                        expected.classes_per_task)
    assert len(got.tasks) == len(expected.tasks)
    for a, b in zip(got.tasks, expected.tasks):
        assert (a.index, a.classes) == (b.index, b.classes)
        for name, x, y in (("rows", a.rows(), b.rows()), ("y_task", a.y_task, b.y_task),
                           ("y_global", a.y_global, b.y_global)):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.flags.c_contiguous, name
            assert np.array_equal(x, y), name


def reference_streams(cfg, seed):
    """The streams of each split part gathered into its own dataset."""
    dataset = parse_dataset_spec(cfg.dataset, seed)
    parts = [LabeledDataset(dataset.x[ids], dataset.y[ids])
             for ids in split_train_test(dataset, seed)]
    return tuple(build_task_stream(part, np.arange(len(part)), cfg.c_m, seed)
                 for part in parts), dataset.dim


def test_task_streams_in_place_match_the_gathered_streams(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(48, 6, 5)).astype(np.uint8)
    labels = (np.arange(48) % 4).astype(np.uint8)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x803, 48, 6, 5) + images.tobytes())
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x801, 48) + labels.tobytes())
    streams = {}
    for name, cfg in (
        ("blobs", tiny_config(dataset="blobs:classes=10,dim=7,sep=5,per_class=13", c_m=3)),
        ("idx", tiny_config(dataset=f"mnist:dir={tmp_path}", c_m=2)),
    ):
        train, test, dim = runner._task_streams(cfg, seed=3)
        (ref_train, ref_test), ref_dim = reference_streams(cfg, seed=3)
        assert dim == ref_dim
        _assert_same_streams(train, ref_train)
        _assert_same_streams(test, ref_test)
        streams[name] = train
    # 10 classes in tasks of 3, 3, 3 and a last task keeping the remainder
    assert [len(task.classes) for task in streams["blobs"].tasks] == [3, 3, 3, 1]
    assert streams["idx"].tasks[0].rows().shape[1:] == (30,)


def test_task_streams_hold_one_copy_of_the_rows():
    # many small classes: one class's draw in the dataset build is small
    # next to the dataset, so the peak is the rows plus little else
    cfg = tiny_config(dataset="blobs:classes=40,dim=64,sep=5,per_class=40")
    runner._task_streams(cfg, seed=1)  # the first call imports numpy.ma lazily
    tracemalloc.start()
    try:
        streams = runner._task_streams(cfg, seed=1)[:2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tasks = [task for stream in streams for task in stream.tasks]
    # every task of both streams reads the one array
    assert all(task.x is tasks[0].x for task in tasks)
    task_bytes = tasks[0].x.nbytes + sum(getattr(task, name).nbytes for task in tasks
                                         for name in ("ids", "y_task", "y_global"))
    assert peak < 1.5 * task_bytes


def test_interrupted_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    cfg = tiny_config(dataset=THREE_TASKS, checkpoints=True)
    straight = without_wallclock(run_experiment(cfg, seed=1))
    savez = np.savez
    calls = []

    def interrupted_savez(fh, **arrays):
        calls.append(fh)
        if len(calls) == 2:  # the second checkpoint stops halfway through
            buf = io.BytesIO()
            savez(buf, **arrays)
            fh.write(buf.getvalue()[:buf.tell() // 2])
            raise Crash
        savez(fh, **arrays)

    with monkeypatch.context() as patch:
        patch.setattr(np, "savez", interrupted_savez)
        with pytest.raises(Crash):
            run_experiment(cfg, seed=1, out_dir=tmp_path)
    [path] = tmp_path.iterdir()  # the first checkpoint, and no temp file
    assert path.name.startswith("state_prer_")
    assert load_run_state(path)["completed_tasks"] == 1
    resumed = run_experiment(cfg, seed=1, out_dir=tmp_path, resume=True)
    assert without_wallclock(resumed) == straight


def test_empty_decoder_hidden_mirrors_the_encoder():
    cfg = tiny_config(decoder_hidden=(), encoder_hidden=(12, 10))
    model = build_model(cfg, 36, 4, Rng(3))
    widths = [layer.out_dim for layer in model.decoder.layers if hasattr(layer, "out_dim")]
    assert widths == [10, 12, 36]


# ---------------------------------------------------------------------------
# aggregation


def fake_record(strategy, seed, acc, bwt_value):
    return RunRecord(config_hash="x", seed=seed, strategy=strategy, dataset="d",
                     num_tasks=2, r_matrix=[[acc, None], [acc, acc]],
                     accuracy=acc, bwt=bwt_value)


def test_aggregate_single_record_zero_std():
    rows = aggregate([fake_record("naive", 1, 90.0, -5.0)])
    assert rows[0]["accuracy_std"] == 0.0
    assert rows[0]["seed_count"] == 1


def test_aggregate_hand_computed():
    rows = aggregate([fake_record("naive", 1, 1.0, -1.0),
                      fake_record("naive", 2, 3.0, -3.0)])
    assert rows[0]["accuracy_mean"] == 2.0
    assert rows[0]["accuracy_std"] == 1.0
    assert rows[0]["bwt_mean"] == -2.0


def test_aggregate_permutation_invariant():
    records = [fake_record("naive", s, 80.0 + s, -s) for s in range(1, 5)]
    assert aggregate(records) == aggregate(list(reversed(records)))


def test_aggregate_groups_by_strategy():
    records = [fake_record("naive", 1, 80.0, -5.0), fake_record("prer", 1, 95.0, -1.0)]
    rows = aggregate(records)
    assert [r["strategy"] for r in rows] == ["naive", "prer"]


def test_aggregate_never_pools_two_configs():
    records = [fake_record("er", 1, 80.0, -6.0), fake_record("er", 1, 74.0, -17.0)]
    records[1].config_hash = "y"
    rows = aggregate(records)
    assert [(r["config_hash"], r["seed_count"], r["accuracy_mean"]) for r in rows] == [
        ("x", 1, 80.0), ("y", 1, 74.0)]


def test_summary_table_shape():
    rows = aggregate([fake_record("naive", 1, 90.0, -5.0)])
    table = summary_table(rows)
    lines = table.strip().split("\n")
    header = lines[0].split("\t")
    assert header == ["strategy", "dataset", "seed_count", "accuracy_mean",
                      "accuracy_std", "bwt_mean", "bwt_std", "memory_floats", "config_hash"]
    assert lines[1].split("\t")[0] == "naive"
    # floats are serialized shortest-round-trip: parse back exactly
    assert float(lines[1].split("\t")[3]) == 90.0


def test_read_records_of_an_empty_dir_is_refused(tmp_path):
    (tmp_path / "state_x.npz").write_bytes(b"")  # only run_*.json files are records
    for in_dir in (tmp_path, tmp_path / "missing"):
        message = re.escape(f"no run records found in {in_dir}")
        with pytest.raises(ConfigurationError, match=message):
            read_records(in_dir)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_full():
    cfg = parse_config_text("""
        # comment
        dataset = blobs:classes=4,dim=6,sep=5,per_class=40
        strategy = er
        seeds = 3,4,5
        embedding_dim = 4
        encoder_hidden = 12,6
        beta = 0.5
        checkpoints = true
    """)
    assert cfg.strategy == "er"
    assert cfg.seeds == (3, 4, 5)
    assert cfg.encoder_hidden == (12, 6)
    assert cfg.beta == 0.5
    assert cfg.checkpoints is True


@pytest.mark.parametrize("key", ["no_such_key", "lr", "patience", "min_delta", "head_dropout",
                                 "flow_hidden_multiplier", "encoder", "conv_channels"])
def test_parse_config_rejects_unknown_key(key):
    with pytest.raises(ConfigurationError, match=f"unknown config key '{key}'"):
        parse_config_text(f"{key} = 1")


def test_parse_config_rejects_a_repeated_key():
    # the second line is refused rather than silently winning
    text = (Path(__file__).parent.parent / "configs" / "blobs.cfg").read_text(encoding="utf-8")
    first = text.splitlines().index("strategy = prer") + 1
    last = len(text.splitlines()) + 1
    with pytest.raises(ConfigurationError,
                       match=f"^line {last}: config key strategy is already set on line {first}$"):
        parse_config_text(text + "strategy = naive\nembedding_dim = 3\n")


def test_parse_config_rejects_bad_line():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config_text("just some words")


@pytest.mark.parametrize("line,pattern", [
    ("batch_size = abc", r"line 2: batch_size = 'abc' is not a valid int"),
    ("beta = nope", r"line 2: beta = 'nope' is not a valid float"),
    ("seeds = 1,a", r"line 2: seeds = '1,a' is not a valid tuple"),
    ("checkpoints = maybe", r"line 2: checkpoints = 'maybe' is not a valid bool"),
])
def test_parse_config_rejects_bad_value(line, pattern):
    with pytest.raises(ConfigurationError, match=pattern):
        parse_config_text(f"strategy = er\n{line}\n")


def test_config_text_round_trips_every_hashed_field():
    cfg = tiny_config(strategy="prer_r", conditioning="both", encoder_hidden=(3, 5),
                      decoder_hidden=(), flow_blocks=3)
    text = cfg.canonical_text()
    assert "decoder_hidden = \n" in text
    parsed = parse_config_text(text)
    assert parsed.canonical_text() == text
    for line in text.splitlines():
        key = line.split(" = ")[0]
        assert getattr(parsed, key) == getattr(cfg, key), key
        assert type(getattr(parsed, key)) is type(getattr(cfg, key)), key


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(seeds=())
    with pytest.raises(ConfigurationError):
        tiny_config(seeds=(1, 1))
    with pytest.raises(ConfigurationError):
        tiny_config(strategy="sgd")
    with pytest.raises(ConfigurationError):
        tiny_config(conditioning="sideways")
    with pytest.raises(ConfigurationError):
        tiny_config(c_m=1)


@pytest.mark.parametrize("key,value", [
    ("embedding_dim", 0),
    ("coverage_cap", 0),
    # a tuple's default id is its position in this list: pinned, so that
    # each case keeps its name when the list changes
    pytest.param("encoder_hidden", (12, 0), id="encoder_hidden-value7"),
    pytest.param("head_hidden", (0,), id="head_hidden-value8"),
    pytest.param("decoder_hidden", (-1,), id="decoder_hidden-value9"),
    ("beta", float("nan")),
])
def test_config_rejects_nonsense_value_naming_the_key(key, value):
    with pytest.raises(ConfigurationError, match=key):
        tiny_config(**{key: value})


@pytest.mark.parametrize("embedding_dim,flow_levels", [(1, 1), (2, 3), (3, 3)])
def test_config_rejects_a_flow_too_deep_for_the_embedding(embedding_dim, flow_levels):
    # a flowless strategy still prices the flow in every record
    with pytest.raises(ConfigurationError, match=r"embedding_dim = \d+ .*flow_levels = \d+"):
        tiny_config(strategy="naive", embedding_dim=embedding_dim, flow_levels=flow_levels)


@pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_configs_validate(path):
    load_config(path)  # validates


def test_readme_config_table_lists_every_key():
    # the key column of README's `| key | default | meaning |` table,
    # where one row may document several keys
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    documented = set()
    for row in table.split("\n\n", 1)[0].splitlines():
        documented.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert documented == {f.name for f in fields(ExperimentConfig)}


def test_flow_topology_takes_any_size_that_fits():
    # any levels x blocks >= 1 is a valid flow once the embedding can hold it
    assert tiny_config(flow_blocks=3).flow_blocks == 3
    assert tiny_config(flow_levels=4, embedding_dim=16).flow_levels == 4
    for key in ("flow_levels", "flow_blocks"):
        with pytest.raises(ConfigurationError, match=f"{key} must be >= 1"):
            tiny_config(**{key: 0})


def test_config_hash_stable_and_sensitive():
    assert tiny_config().config_hash() == tiny_config().config_hash()
    assert tiny_config().config_hash() != tiny_config(beta=0.9).config_hash()
    # where records go, which seeds a sweep runs and checkpointing change no record
    assert tiny_config(out_dir="runs/a").config_hash() == \
        tiny_config(out_dir="runs/b").config_hash()
    assert tiny_config(seeds=(3,), checkpoints=True).config_hash() == \
        tiny_config().config_hash()


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset = blobs:classes=4,dim=6,sep=5,per_class=40\nstrategy = naive\n")
    cfg = load_config(path)
    assert cfg.strategy == "naive"
    assert cfg.c_m == 2
