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
regenerates. A checkpoint resumes only the config that wrote it: a
state array or the result matrix missing or reshaped, an extra array,
or a ``PROGRESS`` field the meta lacks, as in any checkpoint written
before these fields had their own meta entries, raises a
ConfigurationError naming it.
"""

import json
import os
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError
from .pipeline import Memory

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
    """Read a checkpoint into a dict: the ``PROGRESS`` fields,
    "result_matrix", the named "arrays" and "memory".
    ``restore_run_state`` puts it into a rebuilt run."""
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
        meta = json.loads(str(data["meta"][()]))
        for name in PROGRESS:
            if name not in meta:
                raise ConfigurationError(f"{path}: the checkpoint meta has no {name!r} field")
        out = {name: meta[name] for name in PROGRESS}
        out["result_matrix"] = data["result_matrix"]
        out["arrays"] = {k: data[k] for k in data.files if k.startswith(("model/", "flow/"))}
        memory = {f.name: data.get(f"er_memory/{f.name}") for f in fields(Memory)}
        out["memory"] = Memory(**memory) if memory["images"] is not None else None
        return out


def restore_run_state(state, restored):
    """Copy a loaded checkpoint into ``state``, freshly built from the
    (config, seed) that wrote it."""
    for task in state.stream.tasks[:restored["completed_tasks"]]:
        # the initial weights are overwritten below, so any rng will do
        state.model.ensure_head(task.index, len(task.classes), state.rng.fork("restored-head"))
    want = {**state_arrays(state), "result_matrix": state.r}
    got = {**restored["arrays"], "result_matrix": restored["result_matrix"]}
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
    for name in PROGRESS:
        setattr(state, name, restored[name])
    state.memory = restored["memory"]
    return state
