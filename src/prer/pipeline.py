"""Per-task training: the three-phase procedure, rehearsal-memory
construction, mini-batch overwrite replay and the baseline strategies.

One task is trained in strict phase order: (1) classifier, (2)
autoencoder with the backbone frozen, (3) density model on the
reconstruction embeddings. A single flow and a single decoder persist
across all tasks. There is one memory type: strategies without a flow
extend it with real rows at task end, flow strategies regenerate it at
every task start. `strategy_train_task` alone decides which memory each
phase mixes in; a phase mixes in exactly what it is handed.
"""

import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .exceptions import ConfigurationError, DivergenceError
from .flow import FlowStack, nll_loss_and_backward
from .metrics import KnnProbe, _row_chunks, right_rows
from .model import ContinualModel
from .rng import Rng

# what each strategy is made of: does it keep a flow (and train phases 2
# and 3 on generated memory), apply the embedding-retention penalty to
# its memory rows, replay them into the classifier's mini-batches; a
# strategy without a flow keeps real rows, with embeddings for a penalty
Strategy = namedtuple("Strategy", "flow penalty replay")
STRATEGIES = {
    "naive": Strategy(flow=False, penalty=False, replay=False),
    "replay": Strategy(flow=False, penalty=False, replay=True),
    "er": Strategy(flow=False, penalty=True, replay=False),
    "prer": Strategy(flow=True, penalty=True, replay=False),
    "prer_r": Strategy(flow=True, penalty=False, replay=True),
}


@dataclass
class Memory:
    """Rehearsal rows: images, the embeddings the model assigned them when
    they were stored or generated (None for real rows no penalty reads),
    and their global classes. Real rows carry their true class, generated
    rows the class they were asked for, or None when nothing is
    conditioned. Task labels are derived from the classes by the stream."""

    images: np.ndarray
    embeddings: np.ndarray | None
    y_global: np.ndarray | None

    def extend(self, rows: "Memory") -> "Memory":
        """This memory of real rows followed by `rows`; embeddings that
        are None stay None."""
        embeddings = None
        if self.embeddings is not None:
            embeddings = np.concatenate([self.embeddings, rows.embeddings])
        return Memory(np.concatenate([self.images, rows.images]), embeddings,
                      np.concatenate([self.y_global, rows.y_global]))


class EarlyStop:
    """Stop once `patience` consecutive epochs fail to improve the best
    loss by at least `min_delta`."""

    patience = 5
    min_delta = 1e-4

    def __init__(self):
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, loss: float) -> bool:
        if loss < self.best - self.min_delta:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _overwrite_rows(batch, memory, fraction, rng):
    """Returns `batch` with the first ceil(fraction * n) rows of each array
    overwritten in place by rows drawn, with one draw for all of them,
    from the memory array paired with it; an array whose memory array is
    None is kept. Callers hand fresh gathers that nothing else reads."""
    n = len(batch[0])
    k = min(int(np.ceil(fraction * n)), n)
    pick = rng.choice(len(memory[0]), size=k, replace=len(memory[0]) < k)
    for rows, source in zip(batch, memory):
        if source is not None:
            rows[:k] = source[pick]
    return batch


def _mixed_batch(task, idx, memory, fraction, rng):
    """The images and classes of task rows `idx`, with a `fraction` of
    them overwritten from a handed `memory`."""
    xb, y_cond = task.rows(idx), task.y_global[idx]
    if memory is None:
        return xb, y_cond
    return _overwrite_rows((xb, y_cond), (memory.images, memory.y_global), fraction, rng)


def _check_finite(loss, owners):
    """Stop a phase whose epoch loss or parameters have left the finite
    numbers. Both are checked: the loss of a step is taken before its
    update, so the last update of an epoch can leave non-finite weights
    behind a finite epoch loss."""
    if not np.isfinite(loss):
        raise DivergenceError(f"loss {loss}")
    if not all(np.isfinite(owner.params).all() for owner in owners):
        raise DivergenceError("non-finite parameters")


def _train_epochs(phase, task, cfg, rng, owners, max_epochs, n_rows, step, end_epoch):
    """The epoch loop of every phase, which trains `owners` (the networks
    of the phase, or the flow). They hold gradient vectors for the length
    of the loop only. Each epoch shuffles `n_rows` rows into mini-batches
    from the "batches" fork; before each `step(idx)` the gradients are
    zeroed, and after it Adam updates the parameters, unless the step
    returned None for a batch it skipped. `end_epoch(mean_loss)` runs
    after each epoch and stops the phase by returning True. Returns the
    mean step loss of every epoch run; each phase runs a fresh Adam."""
    batch_rng = rng.fork("batches")
    history = []
    with nn.gradients(owners) as pairs:
        adam = nn.Adam(pairs)
        for epoch in range(max_epochs):
            epoch_loss, steps = 0.0, 0
            try:
                for idx in _batches(n_rows, cfg.batch_size, batch_rng):
                    for _, grad in pairs:
                        grad[...] = 0.0
                    loss = step(idx)
                    if loss is None:
                        continue
                    adam.step()
                    epoch_loss += loss
                    steps += 1
                if steps == 0:
                    raise ConfigurationError(
                        f"task {task.index} too small for {phase} training "
                        f"at batch size {cfg.batch_size}")
                _check_finite(epoch_loss, owners)
            except DivergenceError as err:
                raise DivergenceError(
                    f"{phase} phase, task {task.index}, epoch {epoch}: {err}") from None
            history.append(epoch_loss / steps)
            if end_epoch(history[-1]):
                break
    return history


def _classifier_step(model, current_task_id, x, y_task, task_ids, dropout_rng):
    """Cross-entropy over a batch whose rows may belong to different
    tasks. Each row is scored by its own task's head, and `task_ids` None
    scores them all as the current task's, in one group. Every head runs
    a training pass, since gradients flow through the frozen past heads
    into the shared encoder, but only the current head is handed
    `dropout_rng` and draws dropout masks. A past head holds no gradient
    vector, so its backward pass computes only its input gradient."""
    z = model.encode_classify(x, train=True)
    dz = np.empty_like(z)  # the groups partition the rows
    if task_ids is None:
        groups = [(current_task_id, slice(None))]
    else:
        groups = [(int(tid), np.flatnonzero(task_ids == tid)) for tid in np.unique(task_ids)]
    total = 0.0
    for tid, rows in groups:
        head = model.head(tid)
        logits = head.forward(z[rows], train=True,
                              rng=dropout_rng if tid == current_task_id else None)
        weight = len(logits) / len(x)
        loss, dlogits = nn.cross_entropy(logits, y_task[rows])
        total += loss * weight
        dlogits *= weight
        dz[rows] = head.backward(dlogits)
    dh = model.proj_classify.backward(dz)
    # the encoder's input is data: nothing reads its gradient
    model.encoder.backward(dh, input_grad=False)
    return total


def train_classifier_phase(model: ContinualModel, task, cfg, rng: Rng,
                           penalty=None, replay=None) -> dict:
    """Phase 1. Trains the backbone, the classification projection and
    the current task head. `penalty` is (images, embeddings) for the
    retention term; `replay` is (images, y_task, task_ids) for mini-batch
    overwriting; each is used whenever it is handed. The epoch snapshot
    with the best held-out accuracy on the current task is kept."""
    model.ensure_head(task.index, len(task.classes), rng.fork("head-init"))
    nets = model.classifier_networks(task.index)

    n_val = int(len(task) * cfg.validation_fraction)
    order = rng.fork("val-split").permutation(len(task))
    val_idx, fit_idx = order[:n_val], order[n_val:]

    dropout_rng = rng.fork("dropout")
    mem_rng = rng.fork("memory")

    def step(idx):
        rows = fit_idx[idx]
        xb, yb, tids = task.rows(rows), task.y_task[rows], None
        if replay is not None:
            xb, yb, tids = _overwrite_rows((xb, yb, np.full(len(idx), task.index)), replay,
                                           cfg.replay_fraction, mem_rng)
        loss = _classifier_step(model, task.index, xb, yb, tids, dropout_rng)

        if penalty is not None:
            mem_x, mem_z = penalty
            k = min(cfg.batch_size, len(mem_x))
            pick = mem_rng.choice(len(mem_x), size=k, replace=False)
            z = model.encode_classify(mem_x[pick], train=True)
            reg, dz = nn.mean_cosine_distance(z, mem_z[pick])
            dh = model.proj_classify.backward(cfg.beta * dz)
            model.encoder.backward(dh, input_grad=False)
            loss += cfg.beta * reg
        return loss

    best_acc = -1.0
    best_params = None

    def validate(_mean_loss):
        nonlocal best_acc, best_params
        if len(val_idx):
            # the held-out rows are gathered a chunk at a time, as in
            # evaluation, so no step holds them all
            acc = right_rows(model, task, val_idx) / len(val_idx)
            # ties go to the later epoch: equally accurate but further trained
            if acc >= best_acc:
                best_acc = acc
                # one snapshot, overwritten in place: no second copy at a swap
                if best_params is None:
                    best_params = [np.empty_like(net.params) for net in nets]
                for saved, net in zip(best_params, nets):
                    saved[...] = net.params
        return False

    history = _train_epochs("classifier", task, cfg, rng, nets, cfg.classifier_epochs,
                            len(fit_idx), step, validate)
    if best_params is not None:
        for net, saved in zip(nets, best_params):
            net.params[...] = saved
    return {"loss_history": history, "best_val_accuracy": best_acc}


def train_autoencoder_phase(model: ContinualModel, task, cfg, rng: Rng,
                            memory: Memory | None = None) -> dict:
    """Phase 2. Trains the reconstruction projection and the decoder on
    pixel MSE; the backbone and the classification projection stay
    untouched. When a `memory` is handed, a fraction of every mini-batch
    is overwritten with its images."""
    mem_rng = rng.fork("memory")

    def step(idx):
        xb, y_cond = _mixed_batch(task, idx, memory, cfg.replay_fraction, mem_rng)
        h = model.encoder.forward(xb)  # frozen: no backward into the backbone
        z = model.proj_reconstruct.forward(h, train=True)
        flat = model.decoder.forward(z, train=True, cond=y_cond)
        loss, dflat = nn.mse(flat, xb)
        dz = model.decoder.backward(dflat)
        model.proj_reconstruct.backward(dz, input_grad=False)
        return loss

    history = _train_epochs("autoencoder", task, cfg, rng, model.autoencoder_networks(),
                            cfg.ae_max_epochs, len(task), step, EarlyStop().update)
    return {"loss_history": history, "epochs": len(history)}


def train_flow_phase(flow: FlowStack, model: ContinualModel, task, cfg,
                     rng: Rng, memory: Memory | None = None) -> dict:
    """Phase 3. Fits the single persistent flow to the reconstruction
    embeddings of the current task, mixed with the images of a handed
    `memory` so that the density keeps covering earlier tasks."""
    mem_rng = rng.fork("memory")

    def step(idx):
        if len(idx) < 2:  # batch norm needs a real batch
            return None
        xb, y_cond = _mixed_batch(task, idx, memory, cfg.replay_fraction, mem_rng)
        return nll_loss_and_backward(flow, model.encode_reconstruct(xb), cond=y_cond)

    history = _train_epochs("flow", task, cfg, rng, [flow], cfg.flow_max_epochs,
                            len(task), step, EarlyStop().update)
    return {"loss_history": history, "epochs": len(history)}


def class_schedule(classes_seen, n: int, rng: Rng) -> np.ndarray:
    """n class labels spread as evenly as possible over the classes seen
    so far, in shuffled order."""
    classes = sorted(set(int(c) for c in classes_seen))
    base, extra = divmod(n, len(classes))
    counts = np.full(len(classes), base)
    if extra:
        counts[rng.choice(len(classes), size=extra, replace=False)] += 1
    schedule = np.repeat(classes, counts)
    return schedule[rng.permutation(len(schedule))]


def generate_memory(flow: FlowStack, model: ContinualModel, n: int, schedule,
                    rng: Rng) -> Memory:
    """Sample embeddings from the flow, decode them and re-encode the
    decoded images; the resulting rows are the rehearsal memory for the
    upcoming task. `schedule` holds the class of each row, for the flow
    and the decoder when they are conditioned, or None. A flow not yet
    trained on any task has no batch-norm statistics and raises a
    StateError."""
    z = flow.sample(n, rng, cond=schedule)
    images = model.decode(z, schedule)
    embeddings = model.encode_classify(images)
    return Memory(images, embeddings, schedule)


# ---------------------------------------------------------------------------
# strategy dispatch


@dataclass
class RunState:
    """Everything a run has done so far. ``r`` is the result matrix, NaN
    until evaluated; ``d_t`` and ``q_t`` are keyed as the record keys them."""

    model: ContinualModel
    flow: FlowStack | None
    stream: object
    cfg: object  # the run's ExperimentConfig
    rng: Rng
    completed_tasks: int = 0
    memory: Memory | None = None
    timings: dict = field(default_factory=dict)
    d_t: dict = field(default_factory=dict)
    q_t: dict = field(default_factory=dict)
    r: np.ndarray = field(init=False)

    def __post_init__(self):
        self.r = np.full((len(self.stream),) * 2, np.nan)

    @contextmanager
    def timed(self, phase):
        """Add the wall-clock seconds of the block to ``timings[phase]``."""
        start = time.perf_counter()
        yield
        self.timings[phase] = self.timings.get(phase, 0.0) + (time.perf_counter() - start)


def _past_task_probe(state: RunState, through_task: int) -> KnnProbe:
    """Probe fitted on current-model embeddings of real data from the
    tasks before `through_task`; used to label generated replay rows.
    Each task is encoded a row chunk at a time into one matrix, so no
    step holds a whole task's activations."""
    model, tasks = state.model, state.stream.tasks[:through_task - 1]
    x = np.empty((sum(map(len, tasks)), model.embedding_dim))
    start = 0
    for task in tasks:
        for rows in _row_chunks(len(task), model.input_dim):
            x[start + rows.start:start + rows.stop] = model.encode_classify(task.rows(rows))
        start += len(task)
    return KnnProbe().fit(x, np.concatenate([task.y_global for task in tasks]))


def strategy_train_task(state: RunState) -> RunState:
    """Train the state's next task under the strategy of ``state.cfg``
    and advance the state."""
    cfg, model, t = state.cfg, state.model, state.completed_tasks + 1
    task = state.stream.tasks[t - 1]
    strategy = STRATEGIES[cfg.strategy]
    rng_t = state.rng.fork(f"task{t}")

    if strategy.flow and t > 1 and cfg.memory_size > 0:
        with state.timed("memory"):
            schedule = None
            if cfg.conditioning != "none":
                schedule = class_schedule(state.stream.classes_seen(t - 1),
                                          cfg.memory_size, rng_t.fork("schedule"))
            state.memory = generate_memory(
                state.flow, model, cfg.memory_size, schedule, rng_t.fork("memory-gen"))

    # a memory is None or holds rows (memory_size > 0 above, k > 0 below, or
    # restored from a saved one); a knob at 0 hands its phases no memory
    memory = state.memory
    mixed = memory if cfg.replay_fraction > 0.0 else None
    penalty = replay = None
    if memory is not None and strategy.penalty and cfg.beta > 0.0:
        penalty = (memory.images, memory.embeddings)
    elif mixed is not None and strategy.replay:
        # a generated row's label must describe what the image actually
        # contains, and the requested condition class is only a request;
        # the nearest-class probe over real past-task embeddings labels the
        # content itself, so it is used in every conditioning mode
        labels = memory.y_global
        if strategy.flow:
            with state.timed("memory"):
                labels = _past_task_probe(state, t).predict(memory.embeddings)
        replay = (memory.images, state.stream.within_task_label(labels),
                  state.stream.task_of_class(labels))

    with state.timed("classifier"):
        train_classifier_phase(model, task, cfg, rng_t.fork("classifier"),
                               penalty=penalty, replay=replay)

    if strategy.flow:
        with state.timed("autoencoder"):
            train_autoencoder_phase(model, task, cfg, rng_t.fork("autoencoder"), memory=mixed)
        with state.timed("flow"):
            train_flow_phase(state.flow, model, task, cfg, rng_t.fork("flow"), memory=mixed)
    elif strategy.penalty or strategy.replay:
        # real rows of the finished task, with their embeddings for a penalty
        k = min(cfg.memory_size, len(task))
        if k > 0:
            pick = rng_t.fork("store").choice(len(task), size=k, replace=False)
            images = task.rows(pick)
            embeddings = model.encode_classify(images) if strategy.penalty else None
            rows = Memory(images, embeddings, task.y_global[pick])
            state.memory = rows if state.memory is None else state.memory.extend(rows)

    state.completed_tasks = t
    return state
