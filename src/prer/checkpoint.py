"""Run-state checkpoints: the arrays training changed, not the structure.

A run is a pure function of (config, seed), so the config fixes the
shape of the model and the flow. A checkpoint is one .npz holding the
arrays that ``state_arrays`` names, the rehearsal memory of a run without
a flow, the partial result matrix and a JSON "meta" entry. Resuming
rebuilds the run from its config and seed and copies the arrays back
bit-exactly. Flow permutations are not stored, since the "flow-init" fork
redraws them, and neither is a flow's memory, since every task after the
first regenerates it before reading it. A checkpoint resumes only the
config that wrote it: an array that is missing, extra or reshaped raises
a ConfigurationError naming it.
"""

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError
from .pipeline import Memory


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


def save_run_state(path, state, result_matrix, extra: dict):
    """Persist everything needed to resume after the last finished task:
    the state arrays, the memory of real rows, the partial result matrix
    and a free-form JSON block (seed, partial metrics)."""
    meta = {
        "completed_tasks": state.completed_tasks,
        "head_classes": {str(k): v for k, v in state.model.head_classes.items()},
        "timings": state.timings,
        "extra": extra,
    }
    arrays = state_arrays(state)
    arrays["result_matrix"] = np.asarray(result_matrix, dtype=float)
    if state.flow is None and state.memory is not None:
        for f in fields(Memory):
            value = getattr(state.memory, f.name)
            if value is not None:  # the key prefix is kept so older files load
                arrays[f"er_memory/{f.name}"] = value
    arrays["meta"] = np.array(json.dumps(meta))
    atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_run_state(path):
    """Read a checkpoint into a dict: "completed_tasks", "result_matrix",
    "timings", "extra", "head_classes", the named "arrays" and
    "memory". ``restore_run_state`` puts it into a rebuilt run."""
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise ConfigurationError(f"{path}: no 'meta' entry; not a checkpoint of this format")
        meta = json.loads(str(data["meta"][()]))
        out = {
            "completed_tasks": meta["completed_tasks"],
            "head_classes": {int(k): v for k, v in meta["head_classes"].items()},
            "timings": meta["timings"],
            "extra": meta["extra"],
            "result_matrix": data["result_matrix"],
            "arrays": {k: data[k] for k in data.files if k.startswith(("model/", "flow/"))},
        }
        memory = {f.name: data.get(f"er_memory/{f.name}") for f in fields(Memory)}
        out["memory"] = Memory(**memory) if memory["images"] is not None else None
        return out


def restore_run_state(state, restored):
    """Copy a loaded checkpoint into ``state``, freshly built from the
    (config, seed) that wrote it."""
    for task_id, n_classes in restored["head_classes"].items():
        # the initial weights are overwritten below, so any rng will do
        state.model.ensure_head(task_id, n_classes, state.rng.fork("restored-head"))
    want, got = state_arrays(state), restored["arrays"]
    for name in [*want, *sorted(got.keys() - want.keys())]:
        saved = got[name].shape if name in got else "absent"
        needed = want[name].shape if name in want else "absent"
        if saved != needed:
            raise ConfigurationError(
                f"checkpoint array {name!r} is {saved} in the file, {needed} in this run")
    for name, array in want.items():
        array[...] = got[name]
    if state.flow is not None:
        # checkpoints follow finished tasks, whose flow phase set them all
        for bn in state.flow.batch_norms():
            bn.initialized = True
    state.completed_tasks = restored["completed_tasks"]
    state.timings = restored["timings"]
    state.memory = restored["memory"]
    return state
