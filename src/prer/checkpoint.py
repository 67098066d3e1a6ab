"""Run-state checkpoints: the arrays training changed, not the structure.

A run is a pure function of (config, seed), so the config fixes the
shape of the model and the flow. A checkpoint is one .npz holding the
arrays that ``state_arrays`` names, the memory of real rows, the result
matrix ``r`` and a JSON "meta" entry holding exactly the RunState fields
that ``PROGRESS`` names. Resuming rebuilds the run from its config and
seed, and the finished tasks' heads from its stream, then copies the
arrays back bit-exactly and sets every ``PROGRESS`` field. Flow
permutations are not stored, since the "flow-init" fork redraws them,
and neither is a flow's memory, which every task after the first
regenerates. A checkpoint resumes only the config that wrote it: an
array missing, extra or reshaped, a ``PROGRESS`` field missing (as in
checkpoints older than these meta entries) or mistyped, an R entry or
a stored class that ``completed_tasks`` rules out each raise a
ConfigurationError naming it, before anything is copied.
"""

import json
import os
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError
from .pipeline import STRATEGIES, Memory, RunState

# the RunState fields a checkpoint's JSON meta holds, each under its own name
PROGRESS = ("completed_tasks", "timings", "d_t", "q_t")


def state_arrays(state) -> dict:
    """Name -> live array, for every array training changes: the flat
    parameter vector of each model network and of the flow, and the
    running statistics of each flow batch norm."""
    arrays = {f"model/{name}": net.params for name, net in state.model.all_networks().items()}
    if state.flow is not None:
        arrays["flow/params"] = state.flow.params
        for i, bn in enumerate(state.flow.batch_norms()):
            arrays[f"flow/bn{i}/mean"] = bn.mean
            arrays[f"flow/bn{i}/var"] = bn.var
    return arrays


def field_type_error(cls, data):
    """Name the first key of ``data`` whose value is not of the type the
    dataclass ``cls`` annotates its field with, or return None. A bool is
    no int."""
    for f in fields(cls):
        if f.name in data:
            value = data[f.name]
            if not isinstance(value, f.type) or (isinstance(value, bool) and f.type is int):
                return (f"{f.name} is {type(value).__name__}, not "
                        f"{getattr(f.type, '__name__', f.type)}")
    return None


def atomic_write(path, write):
    """Call ``write(fh)`` on a binary temp file beside ``path``, then move
    it over ``path``: an interrupt leaves the old file or the new one,
    never a truncated one. The temp name starts with a dot, so no
    ``state_*`` or ``run_*`` glob picks it up."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_run_state(path, state):
    """Persist everything needed to resume after the last finished task:
    the state arrays, the result matrix, the memory of real rows and the
    ``PROGRESS`` fields."""
    arrays = state_arrays(state)
    arrays["result_matrix"] = state.r
    if state.flow is None and state.memory is not None:
        arrays.update({f"er_memory/{k}": v for k, v in vars(state.memory).items()
                       if v is not None})
    arrays["meta"] = np.array(json.dumps({name: getattr(state, name) for name in PROGRESS}))
    atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_run_state(path):
    """Read a checkpoint into a dict: the ``PROGRESS`` fields, of their
    ``RunState`` types, "result_matrix" and the named "arrays".
    ``restore_run_state`` checks and puts it into a rebuilt run."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None  # a plain .npy array loads, but is no archive either
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigurationError(
            f"{path}: not an .npz archive; not a checkpoint of this format")
    with data:
        for name in ("meta", "result_matrix"):
            if name not in data.files:
                raise ConfigurationError(
                    f"{path}: no {name!r} entry; not a checkpoint of this format")
        try:
            meta = json.loads(str(data["meta"][()]))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise ConfigurationError(f"{path}: the checkpoint meta is not a JSON object")
        for name in PROGRESS:
            if name not in meta:
                raise ConfigurationError(f"{path}: the checkpoint meta has no {name!r} field")
        out = {name: meta[name] for name in PROGRESS}
        if (err := field_type_error(RunState, out)) is not None:
            raise ConfigurationError(f"{path}: in the checkpoint meta, {err}")
        out["result_matrix"] = data["result_matrix"]
        out["arrays"] = {k: data[k] for k in data.files
                         if k.startswith(("model/", "flow/", "er_memory/"))}
        return out


def restore_run_state(state, restored):
    """Copy a loaded checkpoint into ``state``, freshly built from the
    (config, seed) that wrote it, once every array is what this run
    holds after ``completed_tasks`` tasks."""
    done = restored["completed_tasks"]
    if not 0 <= done <= len(state.stream):
        raise ConfigurationError(
            f"the checkpoint's completed_tasks is {done}; this run has {len(state.stream)} tasks")
    for task in state.stream.tasks[:done]:
        # the initial weights are overwritten below, so any rng will do
        state.model.ensure_head(task.index, len(task.classes), state.rng.fork("restored-head"))
    want = {**state_arrays(state), "result_matrix": state.r}
    got = {**restored["arrays"], "result_matrix": restored["result_matrix"]}
    shapes = {name: array.shape for name, array in want.items()}
    strategy = STRATEGIES[state.cfg.strategy]
    if "er_memory/images" in got and not strategy.flow and (strategy.penalty or strategy.replay):
        k = got["er_memory/images"].shape[:1]
        shapes.update({"er_memory/images": (*k, state.model.input_dim), "er_memory/y_global": k})
        if strategy.penalty:
            shapes["er_memory/embeddings"] = (*k, state.model.embedding_dim)
    for name in [*shapes, *sorted(got.keys() - shapes.keys())]:
        saved = got[name].shape if name in got else "absent"
        needed = shapes.get(name, "absent")
        if saved != needed:
            raise ConfigurationError(
                f"checkpoint array {name!r} is {saved} in the file, {needed} in this run")
    r = got["result_matrix"]
    filled = np.tri(len(r), dtype=bool) & (np.arange(len(r)) < done)[:, None]
    bad = np.argwhere(~np.where(filled, np.isfinite(r), np.isnan(r)))
    if len(bad):
        i, j = bad[0]
        raise ConfigurationError(f"checkpoint result matrix entry R[{i + 1},{j + 1}] is "
                                 f"{r[i, j]}; with completed_tasks {done} it must be "
                                 f"{'finite' if filled[i, j] else 'NaN'}")
    y = got.get("er_memory/y_global", np.empty(0, int))
    wrong = y[~np.isin(y, state.stream.classes_seen(done))] if y.dtype.kind in "iu" else y
    if len(wrong):
        raise ConfigurationError(f"checkpoint array 'er_memory/y_global' holds {wrong[0]}, "
                                 f"not a class of the first {done} tasks")
    for name, array in want.items():
        array[...] = got[name]
    if state.flow is not None:
        # checkpoints follow finished tasks, whose flow phase set them all
        for bn in state.flow.batch_norms():
            bn.initialized = True
    for name in PROGRESS:
        setattr(state, name, restored[name])
    memory = {f.name: got.get(f"er_memory/{f.name}") for f in fields(Memory)}
    state.memory = Memory(**memory) if memory["images"] is not None else None
    return state
