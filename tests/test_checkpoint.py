"""Checkpoint round-trips: a state saved, loaded and restored into a
state freshly built from the same (config, seed) must come back
bit-exact, and a resumed run must continue from the stored task. A
checkpoint this run could not have written is refused at ``--resume``
in one line, before any task trains."""

import io
import json
import shutil

import numpy as np
import pytest

from _helpers import flow_config, param_arrays
from prer import cli, runner
from prer.checkpoint import (PROGRESS, load_run_state, restore_run_state, save_run_state,
                             state_arrays)
from prer.config import ExperimentConfig
from prer.data import build_task_stream, split_train_test, synth_blobs
from prer.exceptions import ConfigurationError
from prer.flow import build_flow
from prer.model import build_model
from prer.nn import ConcatCondition
from prer.pipeline import RunState, strategy_train_task
from prer.rng import Rng


def fresh_state(seed=1, conditioning="none", encoder_hidden=(10,), with_flow=True):
    """What the runner builds from a config: a model, a flow from the
    seed's "flow-init" fork, so the permutations match across rebuilds,
    and a two-task stream of 2 classes each, which the heads are rebuilt
    from."""
    cfg = flow_config(3, embedding_dim=6, encoder_hidden=encoder_hidden,
                      conditioning=conditioning, flow_levels=2)
    model = build_model(cfg, 6, 4, Rng(seed))
    flow = None
    if with_flow:
        flow = build_flow(cfg, 4, Rng(seed).fork("flow-init"))
    ds = synth_blobs(classes=4, per_class=10, dim=6, separation=5.0, seed=seed)
    stream = build_task_stream(ds, split_train_test(ds, seed)[0], 2, seed)
    return RunState(model=model, flow=flow, stream=stream, cfg=cfg, rng=Rng(seed))


def trained_state(seed=1, **kwargs):
    """A fresh state with two heads, random parameters everywhere,
    batch-norm statistics from one train-mode pass and a filled R."""
    state = fresh_state(seed, **kwargs)
    state.model.ensure_head(1, 2, Rng(7))
    state.model.ensure_head(2, 2, Rng(8))
    rng = Rng(seed + 100)
    owners = list(state.model.all_networks().values())
    if state.flow is not None:
        owners.append(state.flow)
    for owner in owners:
        owner.params[...] = rng.uniform(-0.5, 0.5, owner.params.shape)
    if state.flow is not None:
        cond = rng.integers(0, 4, size=64) if state.cfg.flow_conditioned else None
        state.flow.normalize(rng.normal(size=(64, 6)), cond=cond, train=True)
    # after its two tasks, R is filled at and below the diagonal
    state.r[np.tril_indices(2)] = 90.0
    state.completed_tasks = 2
    return state


def roundtrip(state, tmp_path, seed=1, **kwargs):
    path = tmp_path / "state.npz"
    save_run_state(path, state)
    return restore_run_state(fresh_state(seed, **kwargs), load_run_state(path))


def test_flow_roundtrip_bit_exact(tmp_path):
    flow = trained_state().flow
    restored = roundtrip(trained_state(), tmp_path).flow
    assert np.array_equal(flow.params, restored.params)
    z = Rng(2).normal(size=(8, 6))
    u1, ld1 = flow.normalize(z)
    u2, ld2 = restored.normalize(z)
    assert np.array_equal(u1, u2)
    assert np.array_equal(ld1, ld2)
    u = Rng(3).normal(size=(8, 6))
    assert np.array_equal(flow.generate(u), restored.generate(u))


def test_conditioned_flow_roundtrip(tmp_path):
    flow = trained_state(seed=4, conditioning="flow").flow
    restored = roundtrip(trained_state(seed=4, conditioning="flow"), tmp_path,
                         seed=4, conditioning="flow").flow
    z = Rng(5).normal(size=(4, 6))
    cond = np.array([0, 1, 2, 0])
    assert np.array_equal(flow.log_prob(z, cond=cond), restored.log_prob(z, cond=cond))


def test_model_roundtrip(tmp_path):
    model = trained_state(seed=6, conditioning="decoder").model
    restored = roundtrip(trained_state(seed=6, conditioning="decoder"), tmp_path,
                         seed=6, conditioning="decoder").model
    x = Rng(9).normal(size=(5, 6))
    assert np.array_equal(model.encode_classify(x), restored.encode_classify(x))
    assert np.array_equal(model.classify(x, 2), restored.classify(x, 2))
    cond = np.array([0, 1, 2, 3, 0])
    z = model.encode_reconstruct(x)
    assert np.array_equal(model.decode(z, cond), restored.decode(z, cond))
    assert isinstance(restored.decoder.layers[0], ConcatCondition)
    assert sorted(restored.heads) == [1, 2]


def test_restore_rejects_another_config(tmp_path):
    path = tmp_path / "state.npz"
    save_run_state(path, trained_state())
    restored = load_run_state(path)
    with pytest.raises(ConfigurationError,
                       match=r"'model/encoder' is \(70,\) in the file, \(84,\) in this run"):
        restore_run_state(fresh_state(encoder_hidden=(12,)), restored)
    with pytest.raises(ConfigurationError,
                       match=r"'flow/bn0/mean' is \(6,\) in the file, absent in this run"):
        restore_run_state(fresh_state(with_flow=False), restored)
    other_format = tmp_path / "other.npz"
    np.savez(other_format, manifest=np.array("{}"), result_matrix=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError, match="no 'meta' entry"):
        load_run_state(other_format)
    for meta in ("not json", "5"):
        np.savez(other_format, meta=np.array(meta), result_matrix=np.zeros((2, 2)))
        with pytest.raises(ConfigurationError, match="the checkpoint meta is not a JSON object"):
            load_run_state(other_format)


@pytest.mark.parametrize("damage", ["truncated", "text", "empty", "npy"])
def test_a_file_that_is_not_an_npz_is_refused(tmp_path, damage):
    path = tmp_path / "state.npz"
    save_run_state(path, trained_state())
    npy = io.BytesIO()
    np.save(npy, np.arange(6.0))  # a plain array loads, but is no archive
    content = {"truncated": path.read_bytes()[:100], "text": b"not a checkpoint\n",
               "empty": b"", "npy": npy.getvalue()}[damage]
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match="not a checkpoint of this format"):
        load_run_state(path)


def test_per_array_layout_is_refused(tmp_path):
    # the layout before flat parameter buffers: one entry per weight and bias
    state = trained_state()
    path = tmp_path / "state.npz"
    save_run_state(path, state)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if not k.startswith(("model/", "flow/p"))}
    for name, net in state.model.all_networks().items():
        for i, p in enumerate(param_arrays(net)):
            arrays[f"model/{name}/p{i}"] = p
    for i, p in enumerate(param_arrays(state.flow)):
        arrays[f"flow/p{i}"] = p
    np.savez(path, **arrays)
    with pytest.raises(ConfigurationError,
                       match=r"'model/encoder' is absent in the file, \(70,\) in this run"):
        restore_run_state(fresh_state(), load_run_state(path))


def test_state_arrays_hold_one_vector_per_owner():
    state = trained_state()
    arrays = state_arrays(state)
    params = {name: a for name, a in arrays.items() if "/bn" not in name}
    assert sorted(params) == ["flow/params", "model/decoder", "model/encoder", "model/head_1",
                              "model/head_2", "model/proj_classify", "model/proj_reconstruct"]
    assert sum(a.size for a in params.values()) == (state.model.param_count()
                                                     + state.flow.param_count())
    assert len(arrays) - len(params) == 2 * len(state.flow.batch_norms())


def run_tasks(seed, n_tasks, checkpoint_path=None, resume_path=None):
    ds = synth_blobs(classes=4, per_class=60, dim=6, separation=5.0, seed=seed)
    train, _ = split_train_test(ds, seed)
    stream = build_task_stream(ds, train, 2, seed)
    cfg = ExperimentConfig(strategy="prer", classifier_epochs=4, ae_max_epochs=8,
                           flow_max_epochs=8, memory_size=40, batch_size=32,
                           embedding_dim=4, encoder_hidden=(12,), conditioning="none",
                           flow_levels=1).validate()
    model = build_model(cfg, 6, 4, Rng(seed))
    flow = build_flow(cfg, 4, Rng(seed).fork("flow-init"))
    state = RunState(model=model, flow=flow, stream=stream, cfg=cfg, rng=Rng(seed))
    if resume_path is not None:
        restore_run_state(state, load_run_state(resume_path))
    for t in range(state.completed_tasks + 1, n_tasks + 1):
        strategy_train_task(state)
        state.r[t - 1, :t] = 100.0  # where the runner writes its evaluation
    if checkpoint_path is not None:
        save_run_state(checkpoint_path, state)
    return state


def test_run_state_resume_matches_straight_run(tmp_path):
    # train both tasks in one go
    straight = run_tasks(11, n_tasks=2)

    # train task 1, checkpoint, restore into a rebuilt state, train task 2
    path = tmp_path / "state.npz"
    run_tasks(11, n_tasks=1, checkpoint_path=path)
    restored = load_run_state(path)
    assert restored["completed_tasks"] == 1
    assert restored["d_t"] == restored["q_t"] == {}
    resumed = run_tasks(11, n_tasks=2, resume_path=path)

    assert np.array_equal(straight.model.encoder.params, resumed.model.encoder.params)
    assert np.array_equal(straight.flow.params, resumed.flow.params)
    assert np.array_equal(straight.memory.images, resumed.memory.images)


def test_meta_holds_exactly_the_progress_fields(tmp_path):
    state = trained_state()
    state.d_t, state.q_t = {"1": 0.5, "2": 0.25}, {"2": 99.0}
    path = tmp_path / "state.npz"
    save_run_state(path, state)
    with np.load(path) as data:
        meta = json.loads(str(data["meta"][()]))
    assert sorted(meta) == sorted(PROGRESS) == ["completed_tasks", "d_t", "q_t", "timings"]
    restored = restore_run_state(fresh_state(), load_run_state(path))
    assert (restored.completed_tasks, restored.d_t, restored.q_t) == (2, state.d_t, state.q_t)


def test_checkpoint_with_an_extra_block_is_refused_by_name(tmp_path):
    # the layout before PROGRESS: head class counts and a free-form
    # block holding the seed, the config hash and d_t, q_t
    path = tmp_path / "state.npz"
    save_run_state(path, trained_state())
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = {"completed_tasks": 2, "head_classes": {"1": 2, "2": 2}, "timings": {},
            "extra": {"seed": 1, "config_hash": "0" * 16, "d_t": {"1": 0.5}, "q_t": {}}}
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ConfigurationError, match="checkpoint meta has no 'd_t' field"):
        load_run_state(path)


def rewrite_checkpoint(path, change):
    """Load a checkpoint's entries, let ``change`` edit the dict, save it back."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    change(arrays)
    np.savez(path, **arrays)


def test_reshaped_result_matrix_is_refused_by_name(tmp_path):
    path = tmp_path / "state.npz"
    save_run_state(path, trained_state())
    rewrite_checkpoint(path, lambda arrays: arrays.update(result_matrix=np.zeros((3, 3))))
    with pytest.raises(ConfigurationError,
                       match=r"'result_matrix' is \(3, 3\) in the file, \(2, 2\) in this run"):
        restore_run_state(fresh_state(), load_run_state(path))


def test_missing_result_matrix_is_refused_by_name(tmp_path):
    path = tmp_path / "state.npz"
    save_run_state(path, trained_state())
    rewrite_checkpoint(path, lambda arrays: arrays.pop("result_matrix"))
    with pytest.raises(ConfigurationError, match="no 'result_matrix' entry"):
        restore_run_state(fresh_state(), load_run_state(path))


# ---------------------------------------------------------------------------
# refusals at --resume, through the command line

RESUME_CONFIG = """
dataset = blobs:classes=4,dim=6,sep=5,per_class=40
c_m = 2
embedding_dim = 4
encoder_hidden = 12
head_hidden = 8
classifier_epochs = 2
ae_max_epochs = 2
flow_max_epochs = 2
memory_size = 10
batch_size = 32
coverage_cap = 20
checkpoints = true
"""


class _Crash(Exception):
    pass


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    """Strategy -> directory of a two-task run of it that crashed in task 2,
    holding its config and the checkpoint it wrote after task 1."""
    train = runner.strategy_train_task

    def crash_in_task_2(state):
        if state.completed_tasks == 1:
            raise _Crash
        return train(state)

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "strategy_train_task", crash_in_task_2)
        for strategy in ("prer", "er", "replay"):
            base = tmp_path_factory.mktemp(strategy)
            (base / "run.cfg").write_text(RESUME_CONFIG + f"strategy = {strategy}\n")
            with pytest.raises(_Crash):
                cli.main(run_args(base))
            runs[strategy] = base
    return runs


def run_args(base):
    return ["run", "--config", str(base / "run.cfg"), "--seed", "1", "--out", str(base / "out")]


def crashed_copy(crashed, strategy, tmp_path, change):
    """A copy of the crashed run of ``strategy``, whose checkpoint entries
    ``change`` edits (see ``rewrite_checkpoint``); returns its directory."""
    base = shutil.copytree(crashed[strategy], tmp_path / strategy)
    (path,) = (base / "out").glob("state_*.npz")
    rewrite_checkpoint(path, change)
    return base


def assert_refused(base, monkeypatch, capsys, *names):
    """Resuming the run in ``base`` through ``cli.main`` ends in one
    ``prer: error:`` line naming each of ``names``, with exit code 2,
    before any task trains."""
    trained, real_train = [], runner.strategy_train_task

    def train(state):
        trained.append(state.completed_tasks + 1)
        return real_train(state)

    monkeypatch.setattr(runner, "strategy_train_task", train)
    code = cli.main([*run_args(base), "--resume"])
    err = capsys.readouterr().err.splitlines()
    assert (code, trained) == (2, []), err
    assert len(err) == 1 and err[0].startswith("prer: error: "), err
    for name in names:
        assert name in err[0], err


def set_meta(field, value):
    def change(arrays):
        meta = json.loads(str(arrays["meta"][()]))
        meta[field] = value
        arrays["meta"] = np.array(json.dumps(meta))
    return change


@pytest.mark.parametrize("field,value,names", [
    ("completed_tasks", "1", ("completed_tasks is str, not int",)),
    ("completed_tasks", True, ("completed_tasks is bool, not int",)),
    ("completed_tasks", -1, ("completed_tasks is -1", "2 tasks")),
    ("timings", [], ("timings is list, not dict",)),
    ("d_t", 0.5, ("d_t is float, not dict",)),
    ("q_t", "none", ("q_t is str, not dict",)),
], ids=["completed_tasks-str", "completed_tasks-bool", "completed_tasks-negative", "timings",
        "d_t", "q_t"])
def test_a_bad_meta_field_is_refused(crashed, tmp_path, monkeypatch, capsys, field, value, names):
    base = crashed_copy(crashed, "prer", tmp_path, set_meta(field, value))
    assert_refused(base, monkeypatch, capsys, *names)


def set_entry(i, j, value):
    def change(arrays):
        arrays["result_matrix"][i, j] = value
    return change


@pytest.mark.parametrize("i,j,value,names", [
    (0, 0, np.nan, ("R[1,1] is nan", "completed_tasks 1", "finite")),
    (0, 0, np.inf, ("R[1,1] is inf",)),
    (1, 0, 50.0, ("R[2,1] is 50.0", "NaN")),
], ids=["nan-diagonal", "inf-diagonal", "unfinished-row"])
def test_an_r_entry_that_completed_tasks_rules_out_is_refused(crashed, tmp_path, monkeypatch,
                                                              capsys, i, j, value, names):
    base = crashed_copy(crashed, "prer", tmp_path, set_entry(i, j, value))
    assert_refused(base, monkeypatch, capsys, *names)


def edit_memory(name, edit):
    def change(arrays):
        key = f"er_memory/{name}"
        arrays[key] = edit(arrays.get(key))
        if arrays[key] is None:
            del arrays[key]
    return change


def unseen_class(y):
    """A class of task 2 that task 1's stored rows do not hold."""
    y = y.copy()
    y[0] = min(set(range(4)) - set(y.tolist()))
    return y


@pytest.mark.parametrize("strategy,name,edit,names", [
    ("replay", "images", lambda x: x[:, :5],
     ("'er_memory/images' is (10, 5) in the file, (10, 6) in this run",)),
    ("replay", "y_global", lambda y: y[:5],
     ("'er_memory/y_global' is (5,) in the file, (10,) in this run",)),
    ("replay", "y_global", unseen_class, ("'er_memory/y_global' holds", "first 1 tasks")),
    ("replay", "y_global", lambda y: y.astype(float), ("'er_memory/y_global' holds",)),
    ("replay", "embeddings", lambda _: np.zeros((10, 4)),
     ("'er_memory/embeddings' is (10, 4) in the file, absent in this run",)),
    ("er", "embeddings", lambda _: None,
     ("'er_memory/embeddings' is absent in the file, (10, 4) in this run",)),
    ("er", "embeddings", lambda z: z[:, :3],
     ("'er_memory/embeddings' is (10, 3) in the file, (10, 4) in this run",)),
    ("prer", "images", lambda _: np.zeros((10, 6)),
     ("'er_memory/images' is (10, 6) in the file, absent in this run",)),
], ids=["narrow-images", "short-classes", "unseen-class", "float-classes",
        "embeddings-without-penalty", "penalty-without-embeddings", "narrow-embeddings",
        "real-rows-in-a-flow-run"])
def test_a_misshapen_memory_is_refused(crashed, tmp_path, monkeypatch, capsys, strategy, name,
                                       edit, names):
    base = crashed_copy(crashed, strategy, tmp_path, edit_memory(name, edit))
    assert_refused(base, monkeypatch, capsys, *names)
