"""Checkpoint round-trips: a state saved, loaded and restored into a
state freshly built from the same (config, seed) must come back
bit-exact, and a resumed run must continue from the stored task."""

import io
import json

import numpy as np
import pytest

from _helpers import flow_config, param_arrays
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
    """A fresh state with two heads, random parameters everywhere and
    batch-norm statistics from one train-mode pass."""
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
    for _ in range(state.completed_tasks, n_tasks):
        strategy_train_task(state)
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
