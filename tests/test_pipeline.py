"""Tests for the per-task training pipeline: loss reductions, strategy
equivalences, memory construction and end-to-end conditioning probes."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from _helpers import config_with_constants, flow_config, get_params, same_bits
from prer import metrics, nn
from prer.config import ExperimentConfig
from prer.data import Task, TaskStream, build_task_stream, split_train_test, synth_blobs
from prer.exceptions import ConfigurationError, DivergenceError, StateError
from prer.flow import build_flow
from prer.metrics import task_accuracy
from prer.model import build_model
from prer.nn import one_hot
from prer.pipeline import (
    EarlyStop,
    RunState,
    _classifier_step,
    _past_task_probe,
    class_schedule,
    generate_memory,
    strategy_train_task,
    train_autoencoder_phase,
    train_classifier_phase,
    train_flow_phase,
)
from prer.rng import Rng


def make_streams(seed, classes=4, dim=8, per_class=80, sep=6.0, c_m=2, span=None):
    ds = synth_blobs(classes=classes, per_class=per_class, dim=dim,
                     separation=sep, seed=seed, span=span)
    return tuple(build_task_stream(ds, ids, c_m, seed) for ids in split_train_test(ds, seed))


def make_model(seed, dim=8, classes=4, conditioning="decoder", embedding=8):
    cfg = ExperimentConfig(embedding_dim=embedding, encoder_hidden=(24,), head_hidden=(16,),
                           conditioning=conditioning)
    return build_model(cfg, dim, classes, Rng(seed))


def make_state(seed, strategy="prer", conditioning="decoder", **cfg_kwargs):
    train_stream, test_stream = make_streams(seed)
    model = make_model(seed, conditioning=conditioning)
    defaults = dict(strategy=strategy, classifier_epochs=10, ae_max_epochs=40,
                    flow_max_epochs=40, memory_size=120, batch_size=32,
                    conditioning=conditioning, embedding_dim=model.embedding_dim,
                    flow_levels=1)
    defaults.update(cfg_kwargs)
    cfg = config_with_constants(**defaults).validate()
    flow = None
    if strategy in ("prer", "prer_r"):
        flow = build_flow(cfg, 4, Rng(seed).fork("flow-init"))
    state = RunState(model=model, flow=flow, stream=train_stream, cfg=cfg, rng=Rng(seed))
    return state, train_stream, test_stream


def classifier_params(model, task_id):
    return [net.params.copy() for net in model.classifier_networks(task_id)]


# ---------------------------------------------------------------------------
# loss reductions


def train_one_task(seed, penalty=None, **cfg_kwargs):
    """Classifier parameters and loss history after phase 1 on task 1."""
    state, train_stream, _ = make_state(seed, strategy="er", classifier_epochs=3, **cfg_kwargs)
    stats = train_classifier_phase(state.model, train_stream.tasks[0], state.cfg, Rng(seed),
                                   penalty=penalty)
    return stats["loss_history"], classifier_params(state.model, 1)


def same_training(a, b):
    return a[0] == b[0] and all(np.array_equal(p, q) for p, q in zip(a[1], b[1]))


def test_removing_penalty_term_reproduces_plain_loss_exactly():
    rng = Rng(7)
    penalty = (rng.normal(size=(10, 8)), rng.normal(size=(10, 8)))
    plain = train_one_task(5)
    assert same_training(train_one_task(5, penalty=penalty, beta=0.0), plain)
    full = train_one_task(5, penalty=penalty, beta=1.0)
    assert not same_training(full, plain)
    assert full[0][0] > plain[0][0]  # the first epoch adds a positive distance


# ---------------------------------------------------------------------------
# trajectory equivalences


@pytest.mark.parametrize("strategy,knob", [
    ("er", "beta"), ("prer", "beta"), ("replay", "replay_fraction"),
    ("prer_r", "replay_fraction"),
])
def test_beta_zero_matches_naive_trajectory(strategy, knob):
    # each strategy's memory reaches the classifier through one knob: at
    # 0 it trains as naive does, bit for bit; at the default it does not
    def trained(strategy, **kwargs):
        state, train_stream, _ = make_state(11, strategy=strategy, classifier_epochs=4,
                                            ae_max_epochs=8, flow_max_epochs=8, **kwargs)
        for task in train_stream.tasks[:2]:
            strategy_train_task(state)
        return (get_params(state.model.encoder) + get_params(state.model.proj_classify)
                + get_params(state.model.heads[1]) + get_params(state.model.heads[2]))

    naive = trained("naive")
    assert all(np.array_equal(a, b) for a, b in zip(naive, trained(strategy, **{knob: 0.0})))
    assert not all(np.array_equal(a, b) for a, b in zip(naive, trained(strategy)))


def test_prer_r_without_replay_builds_no_label_probe(monkeypatch):
    # with replay_fraction = 0 the classifier reads no replay, so nothing
    # may re-encode the past tasks' real rows to label one
    import prer.pipeline as pipeline

    def probe(state, through_task):
        raise AssertionError(f"label probe built at task {through_task}")

    monkeypatch.setattr(pipeline, "_past_task_probe", probe)
    state, train_stream, _ = make_state(11, strategy="prer_r", classifier_epochs=2,
                                        ae_max_epochs=4, flow_max_epochs=4,
                                        replay_fraction=0.0)
    for task in train_stream.tasks[:2]:
        strategy_train_task(state)
    assert state.completed_tasks == 2 and len(state.memory.images) > 0


@pytest.mark.parametrize("strategy", [
    "naive", "replay", "er", "prer",
    pytest.param("prer_r", marks=pytest.mark.xfail(strict=True, reason=(
        "_past_task_probe re-encodes every past task's real rows at each task "
        "start to label the generated replay rows"))),
])
def test_training_a_task_reads_only_its_own_rows(strategy, monkeypatch):
    # the abstract's bounded overhead: a task's training reads no real row
    # of an earlier task, so its cost does not grow with the tasks seen
    train_stream, _ = make_streams(21, classes=10, per_class=20)
    model = make_model(21, classes=10)
    cfg = ExperimentConfig(strategy=strategy, classifier_epochs=2, ae_max_epochs=2,
                           flow_max_epochs=2, memory_size=20, batch_size=16,
                           embedding_dim=model.embedding_dim).validate()
    flow = None
    if strategy in ("prer", "prer_r"):
        flow = build_flow(cfg, 10, Rng(21).fork("flow-init"))
    state = RunState(model=model, flow=flow, stream=train_stream, cfg=cfg, rng=Rng(21))
    reads, rows = [], Task.rows

    def recording(task, idx=slice(None)):
        reads.append((state.completed_tasks + 1, task.index))
        return rows(task, idx)

    monkeypatch.setattr(Task, "rows", recording)
    for _ in train_stream.tasks:
        strategy_train_task(state)
    assert len(train_stream) == 5 and {t for t, _ in reads} == {1, 2, 3, 4, 5}
    assert [(t, index) for t, index in reads if index != t] == []


def mnist_shaped_state(stream, seed):
    """A prer_r state over ``stream`` with the configs/mnist.cfg encoder
    (784 -> 256 -> 100), untrained."""
    model = build_model(ExperimentConfig(embedding_dim=100, encoder_hidden=(256,),
                                         head_hidden=(16,), conditioning="none"),
                        784, stream.num_classes, Rng(seed))
    cfg = ExperimentConfig(strategy="prer_r").validate()
    return RunState(model=model, flow=None, stream=stream, cfg=cfg, rng=Rng(seed))


def test_past_task_probe_fits_whole_task_embeddings_bit_for_bit():
    # 400 rows of 784 floats per task span two input chunks, and the
    # probe's chunked encoding must give the bits of one call per task
    stream, _ = make_streams(14, classes=6, dim=784, per_class=250)
    assert len(list(metrics._row_chunks(len(stream.tasks[0]), 784))) == 2
    state = mnist_shaped_state(stream, 14)
    probe = _past_task_probe(state, 3)
    tasks = stream.tasks[:2]
    assert np.array_equal(probe._x, np.concatenate(
        [state.model.encode_classify(task.rows()) for task in tasks]))
    assert np.array_equal(probe._y, np.concatenate([task.y_global for task in tasks]))


@pytest.mark.parametrize("chunk_rows", [1, 7])
def test_task_accuracy_counts_right_rows_chunk_by_chunk(monkeypatch, chunk_rows):
    # a test task's ids are scattered over the dataset's rows; counting its
    # right rows a chunk at a time must give the percentage of one
    # whole-task call, with the same rounding order (19 of 30 right here,
    # where 100 * 19 / 30 would differ in the last bit)
    _, test_stream = make_streams(17, per_class=75)
    task = test_stream.tasks[1]
    model = make_model(17)
    model.ensure_head(task.index, len(task.classes), Rng(18))
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", chunk_rows * model.input_dim)
    chunks = list(metrics._row_chunks(len(task), model.input_dim))
    assert len(chunks) == -(-len(task) // chunk_rows) > 1
    pred = model.classify(task.rows(), task.index).argmax(axis=1)
    right = int((pred == task.y_task).sum())
    assert 0 < right < len(task)
    assert task_accuracy(model, task) == 100.0 * (right / len(task))


def test_validation_classifies_its_rows_a_chunk_at_a_time(monkeypatch):
    # the held-out rows are gathered and classified a row chunk at a time,
    # never all at once, and the best epoch's count of right rows is the
    # one a whole-set call gives on the parameters kept
    state, train_stream, _ = make_state(19, classifier_epochs=2)
    model, task = state.model, train_stream.tasks[0]
    monkeypatch.setattr(metrics, "CHUNK_FLOATS", 7 * model.input_dim)
    sizes = []
    classify = model.classify

    def recording(x, task_id):
        sizes.append(len(x))
        return classify(x, task_id)

    model.classify = recording
    out = train_classifier_phase(model, task, state.cfg, Rng(1))
    n_val = int(len(task) * state.cfg.validation_fraction)
    assert sum(sizes) == 2 * n_val and max(sizes) <= 7 < n_val
    val_idx = Rng(1).fork("val-split").permutation(len(task))[:n_val]
    pred = classify(task.rows(val_idx), task.index).argmax(axis=1)
    assert out["best_val_accuracy"] == int((pred == task.y_task[val_idx]).sum()) / n_val


def test_classifier_step_without_task_ids_is_the_one_head_step(monkeypatch):
    # a batch without task ids is scored as the current task's in one
    # group: it gives the losses, gradients and dropout masks of an id
    # array that marks every row as the current task's, and of the
    # one-head step written out, bit for bit
    def one_head(model, current_task_id, x, y, task_ids, dropout):
        head = model.head(current_task_id)
        logits = head.forward(model.encode_classify(x, train=True), train=True, rng=dropout)
        loss, dlogits = nn.cross_entropy(logits, y)
        dh = model.proj_classify.backward(head.backward(dlogits))
        model.encoder.backward(dh, input_grad=False)
        return loss

    def run(step, ids):
        model = make_model(42)
        model.ensure_head(1, 2, Rng(43))
        model.ensure_head(2, 2, Rng(44))
        data, dropout = Rng(45), Rng(46)
        out = []
        with nn.gradients(model.classifier_networks(2)) as pairs:
            for n in (16, 16, 7):
                x, y = data.normal(size=(n, 8)), data.integers(0, 2, size=n)
                for _, g in pairs:
                    g[...] = 0.0
                masks.clear()
                loss = step(model, 2, x, y, ids(n), dropout)
                out += [loss, *(g.copy() for _, g in pairs), *masks]
        return out

    masks = []
    forward = nn.Dropout.forward

    def recording(layer, x, **kwargs):
        out = forward(layer, x, **kwargs)
        masks.append(layer._cache)
        return out

    monkeypatch.setattr(nn.Dropout, "forward", recording)
    merged = run(_classifier_step, lambda n: None)
    # per batch: the loss, three gradient vectors and one dropout mask
    assert len(merged) == 3 * 5 and np.ndim(merged[4]) == 2
    for other in (run(_classifier_step, lambda n: np.full(n, 2)), run(one_head, lambda n: None)):
        assert len(other) == len(merged)
        assert all(same_bits(a, b) for a, b in zip(merged, other))


def test_replay_step_runs_past_heads_without_gradients(monkeypatch):
    # a past head scores its replayed rows and passes their gradient on to
    # the encoder, but holds no gradient vector, so none of its Dense
    # layers computes a weight product; the trained networks get the bits
    # they get when the past head is trained as well
    def grouped_step(train_past):
        model = make_model(37)
        model.ensure_head(1, 2, Rng(38))
        model.ensure_head(2, 2, Rng(39))
        data = Rng(40)
        x, y = data.normal(size=(16, 8)), data.integers(0, 2, size=16)
        tids = data.permutation(np.repeat([1, 2], 8))
        past, trained = model.heads[1], model.classifier_networks(2)

        def passing(grad):
            passed.append(nn.Network.backward(past, grad))
            return passed[-1]

        past.backward = passing
        with nn.gradients(trained + [past] if train_past else trained) as pairs:
            _classifier_step(model, 2, x, y, tids, Rng(41))
        return model, [g for _, g in pairs[:len(trained)]]

    weighted, passed = [], []
    backward = nn.Dense.backward

    def spying(layer, grad, **kwargs):
        weighted.append((layer, bool(layer.grads)))
        return backward(layer, grad, **kwargs)

    monkeypatch.setattr(nn.Dense, "backward", spying)
    model, grads = grouped_step(train_past=False)
    past = [layer for layer in model.heads[1].layers if isinstance(layer, nn.Dense)]
    assert [has for layer, has in weighted if any(layer is p for p in past)] == [False] * len(past)
    assert all(has for layer, has in weighted if not any(layer is p for p in past))
    # the past head's input gradient reaches the encoder
    assert passed[0].shape == (8, model.embedding_dim) and passed[0].any()
    _, reference = grouped_step(train_past=True)
    for a, b in zip(grads, reference):
        assert same_bits(a, b)


@pytest.mark.parametrize("chunks", [2, 6])
def test_past_task_probe_excess_memory_does_not_grow_with_task_rows(chunks):
    # two past tasks whose rows span `chunks` input chunks each; beyond
    # its fitted matrix the probe may hold one chunk's work, whatever the
    # task's size
    rows = chunks * (metrics.CHUNK_FLOATS // 784)
    rng = Rng(15)
    stream = TaskStream([
        Task(index=i + 1, classes=[2 * i, 2 * i + 1], x=rng.normal(size=(rows, 784)),
             ids=np.arange(rows), y_task=np.arange(rows) % 2,
             y_global=2 * i + np.arange(rows) % 2)
        for i in range(2)], num_classes=4, classes_per_task=2)
    state = mnist_shaped_state(stream, 15)
    tracemalloc.start()
    try:
        probe = _past_task_probe(state, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(probe._x) == 2 * rows
    assert peak - probe._x.nbytes < 2 * 8 * metrics.CHUNK_FLOATS


def test_replay_and_er_match_naive_on_first_task():
    finals = {}
    for strategy in ("naive", "replay", "er"):
        state, train_stream, _ = make_state(12, strategy=strategy, classifier_epochs=5)
        strategy_train_task(state)
        finals[strategy] = classifier_params(state.model, 1)
    for strategy in ("replay", "er"):
        for a, b in zip(finals["naive"], finals[strategy]):
            assert np.array_equal(a, b)


def test_beta_one_retains_first_task_at_least_as_well_as_beta_zero():
    acc = {0.0: [], 1.0: []}
    for seed in range(1, 6):
        for beta in (0.0, 1.0):
            state, train_stream, test_stream = make_state(
                20 + seed, strategy="prer", beta=beta, classifier_epochs=10)
            for task in train_stream.tasks[:2]:
                strategy_train_task(state)
            acc[beta].append(task_accuracy(state.model, test_stream.tasks[0]))
    assert np.mean(acc[1.0]) >= np.mean(acc[0.0])


# ---------------------------------------------------------------------------
# phase behaviour


def test_classifier_phase_empty_task_rejected():
    state, train_stream, _ = make_state(13)
    task = train_stream.tasks[0]
    empty = type(task)(index=1, classes=task.classes,
                       x=task.x, ids=task.ids[:0], y_task=task.y_task[:0],
                       y_global=task.y_global[:0])
    with pytest.raises(ConfigurationError):
        train_classifier_phase(state.model, empty, state.cfg, Rng(1))


@pytest.mark.parametrize("phase", ["autoencoder", "flow"])
def test_later_phase_empty_task_rejected(phase):
    state, train_stream, _ = make_state(13)
    task = train_stream.tasks[0]
    empty = type(task)(index=1, classes=task.classes,
                       x=task.x, ids=task.ids[:0], y_task=task.y_task[:0],
                       y_global=task.y_global[:0])
    with pytest.raises(ConfigurationError, match=f"^task 1 too small for {phase} training"):
        if phase == "autoencoder":
            train_autoencoder_phase(state.model, empty, state.cfg, Rng(1))
        else:
            train_flow_phase(state.flow, state.model, empty, state.cfg, Rng(1))


@pytest.mark.parametrize("conditioning", ["both", "flow", "decoder", "none"])
@pytest.mark.parametrize("strategy", ["prer", "prer_r"])
def test_generated_memory_carries_classes_for_every_conditioned_network(strategy,
                                                                         conditioning):
    # the phases read memory.y_global for a conditioned flow or decoder
    # without checking it: the memory generated at task 2's start holds
    # one past class per row exactly when something is conditioned
    state, train_stream, _ = make_state(14, strategy=strategy, conditioning=conditioning,
                                        classifier_epochs=2, ae_max_epochs=4,
                                        flow_max_epochs=4)
    for task in train_stream.tasks[:2]:
        strategy_train_task(state)
    y = state.memory.y_global
    if conditioning == "none":
        assert y is None
    else:
        assert len(y) == state.cfg.memory_size
        assert set(y.tolist()) <= set(state.stream.classes_seen(1))


def test_flow_phase_decreases_nll():
    state, train_stream, _ = make_state(15, flow_max_epochs=60)
    task = train_stream.tasks[0]
    train_classifier_phase(state.model, task, state.cfg, Rng(2))
    train_autoencoder_phase(state.model, task, state.cfg, Rng(3))
    stats = train_flow_phase(state.flow, state.model, task, state.cfg, Rng(4))
    losses = stats["loss_history"]
    assert losses[-1] < losses[0]


def test_flow_phase_divergence_carries_task_context():
    state, train_stream, _ = make_state(16)
    task = train_stream.tasks[0]
    # a translation net shooting to 1e200 overflows the prior term
    coupling = state.flow.levels[0][2]
    coupling.translate_net.layers[-1].b[...] = 1e200
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="task 1"):
        train_flow_phase(state.flow, state.model, task, state.cfg, Rng(5))


@pytest.mark.parametrize("phase", ["autoencoder", "flow"])
@pytest.mark.parametrize("patience", [1, 3])
def test_no_improvement_stops_after_patience_epochs(phase, patience, monkeypatch):
    # no later epoch can beat the first by a huge min_delta, so the phase
    # stops after the first epoch plus `patience` bad ones
    monkeypatch.setattr(EarlyStop, "patience", patience)
    monkeypatch.setattr(EarlyStop, "min_delta", 1e300)
    state, train_stream, _ = make_state(19)
    task = train_stream.tasks[0]
    if phase == "autoencoder":
        out = train_autoencoder_phase(state.model, task, state.cfg, Rng(1))
    else:
        out = train_flow_phase(state.flow, state.model, task, state.cfg, Rng(1))
    assert out["epochs"] == len(out["loss_history"]) == patience + 1


def test_classifier_keeps_best_validation_epoch_and_later_ties():
    # scripted validation accuracies: epochs 1 and 3 tie for the best, so
    # the parameters after epoch 3 must come back, not those of epoch 4
    state, train_stream, _ = make_state(18, classifier_epochs=5)
    model, task = state.model, train_stream.tasks[0]
    label = {row.tobytes(): y for row, y in zip(task.rows(), task.y_task)}
    correct = iter([3, 9, 6, 9, 1])
    snapshots = []
    classify = model.classify

    def scripted(x, task_id):
        logits = classify(x, task_id)
        snapshots.append(classifier_params(model, task_id))
        y = np.array([label[row.tobytes()] for row in x])
        predicted = np.where(np.arange(len(y)) < next(correct), y, (y + 1) % logits.shape[1])
        return one_hot(predicted, logits.shape[1])

    model.classify = scripted
    out = train_classifier_phase(model, task, state.cfg, Rng(1))
    assert len(snapshots) == 5 and out["best_val_accuracy"] == 9 / 12
    final = classifier_params(model, 1)
    assert all(np.array_equal(a, b) for a, b in zip(final, snapshots[3]))
    assert not all(np.array_equal(a, b) for a, b in zip(final, snapshots[1]))
    assert not all(np.array_equal(a, b) for a, b in zip(final, snapshots[4]))


def test_flow_skips_a_lone_row_batch(monkeypatch):
    # batch norm needs two rows: the trailing one-row batch of every epoch
    # is skipped, and a task of one row has nothing to train on
    import prer.pipeline as pipeline

    state, train_stream, _ = make_state(20, flow_max_epochs=3)
    task = train_stream.tasks[0]
    state.cfg.batch_size = len(task) - 1
    rows = []
    nll = pipeline.nll_loss_and_backward

    def counting(flow, z, **kwargs):
        rows.append(len(z))
        return nll(flow, z, **kwargs)

    monkeypatch.setattr(pipeline, "nll_loss_and_backward", counting)
    out = train_flow_phase(state.flow, state.model, task, state.cfg, Rng(1))
    assert out["epochs"] == 3 and rows == [len(task) - 1] * 3

    lone = type(task)(index=1, classes=task.classes,
                      x=task.x, ids=task.ids[:1], y_task=task.y_task[:1],
                      y_global=task.y_global[:1])
    with pytest.raises(ConfigurationError, match="too small"):
        train_flow_phase(state.flow, state.model, lone, state.cfg, Rng(1))


@pytest.mark.parametrize("phase", ["classifier", "autoencoder", "flow"])
def test_nan_row_stops_every_phase(phase):
    # no validation split, so the NaN row is surely trained on, and no
    # hidden encoder layer, whose Relu would turn it into zeros
    state, train_stream, _ = make_state(17, validation_fraction=0.0)
    state.model = build_model(ExperimentConfig(embedding_dim=8, encoder_hidden=(),
                                               head_hidden=(16,), conditioning="none"),
                              8, 4, Rng(17))
    task = train_stream.tasks[0]
    task.x[task.ids[5]] = np.nan
    train = {
        "classifier": lambda: train_classifier_phase(state.model, task, state.cfg, Rng(1)),
        "autoencoder": lambda: train_autoencoder_phase(state.model, task, state.cfg, Rng(1)),
        "flow": lambda: train_flow_phase(state.flow, state.model, task, state.cfg, Rng(1)),
    }[phase]
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(DivergenceError, match=f"^{phase} phase, task 1, epoch 0: "):
        train()


def test_mnist_scale_flow_parameter_count():
    # embedding width 100, 2 levels of 5 blocks, 2x hidden
    flow = build_flow(ExperimentConfig(embedding_dim=100, flow_levels=2),
                      10, Rng(16))
    assert 200_000 <= flow.param_count() <= 300_000


# ---------------------------------------------------------------------------
# synthetic memory


def conditioned_state(seed, n_tasks=1):
    """PRER state trained on the first task(s) of a flow-conditioned
    4-class blob stream, with enough data and flow epochs to converge."""
    train_stream, test_stream = make_streams(seed, per_class=120)
    model = make_model(seed, conditioning="flow")
    cfg = ExperimentConfig(strategy="prer", classifier_epochs=25, ae_max_epochs=150,
                           flow_max_epochs=600, memory_size=120, batch_size=32,
                           conditioning="flow", embedding_dim=model.embedding_dim,
                           flow_levels=1).validate()
    flow = build_flow(cfg, 4, Rng(seed).fork("flow-init"))
    state = RunState(model=model, flow=flow, stream=train_stream, cfg=cfg, rng=Rng(seed))
    with mock.patch.multiple(EarlyStop, patience=15, min_delta=1e-5):
        for task in train_stream.tasks[:n_tasks]:
            strategy_train_task(state)
    return state, train_stream, test_stream


def test_generate_memory_embeddings_recompute_exactly():
    state, train_stream, _ = conditioned_state(17)
    schedule = class_schedule(train_stream.classes_seen(1), 50, Rng(18))
    memory = generate_memory(state.flow, state.model, 50, schedule, Rng(19))
    recomputed = state.model.encode_classify(memory.images)
    assert np.array_equal(recomputed, memory.embeddings)
    assert len(memory.images) == 50
    assert set(memory.y_global) <= {0, 1}


def test_generate_memory_of_conditioned_flow_and_decoder_keeps_its_bits():
    # digests taken while callers still built the one-hots themselves
    model = build_model(ExperimentConfig(embedding_dim=4, encoder_hidden=(12,),
                                         conditioning="decoder"), 6, 4, Rng(40))
    flow = build_flow(flow_config(2, embedding_dim=4, flow_levels=1, conditioning="flow"),
                      4, Rng(41))
    rng = Rng(42)
    flow.params[...] = rng.uniform(-0.5, 0.5, flow.params.shape)
    flow.normalize(rng.normal(size=(64, 4)), cond=rng.integers(0, 4, size=64), train=True)
    schedule = class_schedule([0, 1, 2, 3], 20, Rng(43))
    memory = generate_memory(flow, model, 20, schedule, Rng(44))
    assert hashlib.sha256(memory.images.tobytes()).hexdigest() == (
        "e6e7c1dfc9ad42bdd77c9d8915aa1c5b08b36fd0903d5202200600e0354f0866")
    assert hashlib.sha256(memory.embeddings.tobytes()).hexdigest() == (
        "cc336f8ecd3e6ce4421ed5d51bf9f9a83fb71e2baeb5f8f28fb5479aac67baaa")
    assert np.array_equal(memory.y_global, schedule)


def test_generate_memory_at_first_task_rejected():
    state, _, _ = make_state(20)
    with pytest.raises(StateError):
        generate_memory(state.flow, state.model, 10, None, Rng(1))


def test_zero_memory_degenerates_to_naive():
    # at memory_size = 0 no strategy makes a memory, so no phase is handed
    # one, and the classifier trains as naive does, bit for bit
    finals = {}
    for strategy in ("naive", "replay", "er", "prer", "prer_r"):
        state, train_stream, _ = make_state(21, strategy=strategy, memory_size=0,
                                            classifier_epochs=4, ae_max_epochs=6,
                                            flow_max_epochs=6)
        for task in train_stream.tasks[:2]:
            strategy_train_task(state)
            assert state.memory is None, (strategy, task.index)
        finals[strategy] = (
            get_params(state.model.encoder) + get_params(state.model.proj_classify)
        )
    for strategy in ("replay", "er", "prer", "prer_r"):
        assert all(np.array_equal(a, b) for a, b in zip(finals["naive"], finals[strategy]))


def test_generated_images_classify_to_requested_class():
    # class steering requires the flow itself to be conditioned; the
    # decoder's one-hot alone cannot override a fully informative
    # embedding on blob geometry
    state, _, _ = conditioned_state(22)
    schedule = class_schedule([0, 1], 100, Rng(23))
    memory = generate_memory(state.flow, state.model, 100, schedule, Rng(24))
    logits = state.model.classify(memory.images, 1)
    hit = (logits.argmax(axis=1) == memory.y_global).mean()
    assert hit >= 0.8, f"only {hit:.0%} of generated images match their requested class"


def test_flow_samples_survive_second_task():
    state, _, _ = conditioned_state(25, n_tasks=2)
    schedule = class_schedule([0, 1], 100, Rng(26))
    memory = generate_memory(state.flow, state.model, 100, schedule, Rng(27))
    logits = state.model.classify(memory.images, 1)
    hit = (logits.argmax(axis=1) == memory.y_global).mean()
    assert hit >= 0.9, f"only {hit:.0%} of task-1 samples survive task 2"


# ---------------------------------------------------------------------------
# strategies


def test_er_default_memory_size_matches_reference_setup():
    assert ExperimentConfig().memory_size == 200


def test_naive_stream_shows_negative_bwt():
    # a single extra task barely moves the shared weights at desk scale;
    # forgetting accumulates over a longer stream, so the oracle runs the
    # full 5-task stream in the overlapping-directions regime
    bwts = []
    for seed in range(1, 6):
        train_stream, test_stream = make_streams(seed, classes=10, dim=20,
                                                 per_class=100, sep=5.0, span=3)
        model = build_model(ExperimentConfig(embedding_dim=2, encoder_hidden=(32,),
                                             head_hidden=(16,), conditioning="none"),
                            20, 10, Rng(seed))
        cfg = ExperimentConfig(strategy="naive", classifier_epochs=30, batch_size=64).validate()
        state = RunState(model=model, flow=None, stream=train_stream, cfg=cfg, rng=Rng(seed))
        r = np.full((5, 5), np.nan)
        for task in train_stream.tasks:
            strategy_train_task(state)
            for j in range(task.index):
                r[task.index - 1, j] = task_accuracy(state.model, test_stream.tasks[j])
        from prer.metrics import bwt
        bwts.append(bwt(r))
    assert all(b < 0 for b in bwts), bwts


def test_er_memory_grows_per_task_and_stores_embeddings():
    state, train_stream, _ = make_state(33, strategy="er", classifier_epochs=3,
                                        memory_size=40)
    strategy_train_task(state)
    assert len(state.memory.images) == 40
    assert state.memory.embeddings.shape == (40, state.model.embedding_dim)
    strategy_train_task(state)
    assert len(state.memory.images) == 80
    assert len(state.memory.embeddings) == 80
    # each task's rows keep their own task's global classes
    assert set(state.memory.y_global[:40]) <= set(train_stream.tasks[0].classes)
    assert set(state.memory.y_global[40:]) <= set(train_stream.tasks[1].classes)


def test_replay_memory_has_no_embeddings():
    state, train_stream, _ = make_state(34, strategy="replay", classifier_epochs=3,
                                        memory_size=25)
    strategy_train_task(state)
    assert state.memory.embeddings is None
    assert set(state.memory.y_global) <= set(train_stream.tasks[0].classes)


def test_past_heads_never_mutated():
    state, train_stream, _ = make_state(35, strategy="replay", classifier_epochs=5)
    strategy_train_task(state)
    head1_before = get_params(state.model.heads[1])
    strategy_train_task(state)
    for a, b in zip(head1_before, get_params(state.model.heads[1])):
        assert np.array_equal(a, b)


def test_single_flow_and_decoder_persist_across_tasks():
    state, train_stream, _ = make_state(36, classifier_epochs=3, ae_max_epochs=6,
                                        flow_max_epochs=6)
    flow_id = id(state.flow)
    decoder_id = id(state.model.decoder)
    for task in train_stream.tasks[:2]:
        strategy_train_task(state)
    assert id(state.flow) == flow_id
    assert id(state.model.decoder) == decoder_id


def test_class_schedule_balanced():
    schedule = class_schedule([0, 1, 2], 10, Rng(37))
    counts = np.bincount(schedule, minlength=3)
    assert counts.sum() == 10
    assert counts.min() >= 3 and counts.max() <= 4


def interference_state(seed, strategy, conditioning="decoder"):
    train_stream, test_stream = make_streams(seed, classes=10, dim=20,
                                             per_class=100, sep=5.0, span=3)
    model = build_model(ExperimentConfig(embedding_dim=2, encoder_hidden=(32,), head_hidden=(16,),
                                         conditioning=conditioning), 20, 10, Rng(seed))
    cfg = ExperimentConfig(strategy=strategy, classifier_epochs=30, batch_size=64,
                           memory_size=150, conditioning=conditioning, embedding_dim=2,
                           flow_levels=1).validate()
    flow = None
    if strategy in ("prer", "prer_r"):
        flow = build_flow(cfg, 10, Rng(seed).fork("flow-init"))
    state = RunState(model=model, flow=flow, stream=train_stream, cfg=cfg, rng=Rng(seed))
    return state, train_stream, test_stream


def stream_bwt(state, strategy, train_stream, test_stream):
    m = len(train_stream.tasks)
    r = np.full((m, m), np.nan)
    for task in train_stream.tasks:
        strategy_train_task(state)
        for j in range(task.index):
            r[task.index - 1, j] = task_accuracy(state.model, test_stream.tasks[j])
    from prer.metrics import bwt
    return bwt(r)


def test_er_baseline_retains_more_than_naive():
    naive_state, tr, te = interference_state(3, "naive")
    naive_bwt = stream_bwt(naive_state, "naive", tr, te)
    er_state, tr, te = interference_state(3, "er")
    er_bwt = stream_bwt(er_state, "er", tr, te)
    assert er_bwt > naive_bwt, (er_bwt, naive_bwt)


def test_prer_r_conditioned_replays_generated_images():
    state, tr, te = interference_state(4, "prer_r")
    b = stream_bwt(state, "prer_r", tr, te)
    # generated at the start of task 5, for the classes of tasks 1-4
    assert set(state.memory.y_global) == set(range(8))
    naive_state, tr, te = interference_state(4, "naive")
    assert b > stream_bwt(naive_state, "naive", tr, te)


def test_prer_r_unconditioned_uses_probe_labels():
    # with no conditioning the memory has no classes; replay labels come
    # from the nearest-class probe over real past-task embeddings
    state, tr, te = interference_state(5, "prer_r", conditioning="none")
    for task in tr.tasks[:3]:
        strategy_train_task(state)
    assert state.memory.y_global is None
    assert state.completed_tasks == 3


def test_autoencoder_rho_zero_trains_on_task_only(monkeypatch):
    # at rho = 0 phases 2 and 3 are handed no memory, while the state
    # keeps the memory generated at task 2's start for the penalty
    import prer.pipeline as pipeline

    handed = []
    for name in ("train_autoencoder_phase", "train_flow_phase"):
        def spy(*args, phase=getattr(pipeline, name), **kwargs):
            handed.append(kwargs["memory"])
            return phase(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, spy)
    state, train_stream, _ = make_state(40, classifier_epochs=2, ae_max_epochs=4,
                                        flow_max_epochs=4, replay_fraction=0.0)
    for task in train_stream.tasks[:2]:
        strategy_train_task(state)
    assert state.memory is not None and handed == [None] * 4
