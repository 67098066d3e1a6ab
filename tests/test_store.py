"""Tests for the flat parameter store: every network and the flow keep
their parameters and gradients in one buffer each, and one Adam step
over those buffers reproduces the per-array update bit for bit."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from _helpers import ReferenceAdam, array_pairs
from prer import nn
from prer.config import load_config
from prer.flow import nll_loss_and_backward
from prer.model import build_conv_model
from prer.rng import Rng
from prer.runner import build_flow_from_config, build_model_from_config

CONFIGS = Path(__file__).parent.parent / "configs"


def blobs_run():
    """The model and flow of a configs/blobs.cfg run (20-dim inputs, 10
    classes), with the first task's head."""
    cfg = load_config(CONFIGS / "blobs.cfg")
    model = build_model_from_config(cfg, (20,), 10, Rng(1).fork("model-init"))
    model.ensure_head(1, 2, Rng(2))
    return model, build_flow_from_config(cfg, 10, Rng(1).fork("flow-init"))


def conv_model():
    model = build_conv_model((1, 8, 8), 4, Rng(3), embedding_dim=6, conv_channels=(2, 3),
                             decoder_hidden=(12,), decoder_conditioned=True)
    model.ensure_head(1, 2, Rng(4))
    return model


def owners(model, flow=None):
    return list(model.all_networks().values()) + ([flow] if flow is not None else [])


@pytest.mark.parametrize("build", ["mlp", "conv"])
def test_layer_arrays_tile_their_owners_buffers(build):
    if build == "mlp":
        model, flow = blobs_run()
    else:
        model, flow = conv_model(), None
    for owner in owners(model, flow):
        pairs = array_pairs(owner)
        assert pairs, "every owner here has parameters"
        for p, g in pairs:
            assert np.shares_memory(p, owner.params) and np.shares_memory(g, owner.grads)
        # writing 0..n-1 into the buffers shows the views cover them in order, once each
        n = owner.params.size
        owner.params[...] = np.arange(n)
        owner.grads[...] = -np.arange(n)
        assert np.array_equal(np.concatenate([p.ravel() for p, _ in pairs]), np.arange(n))
        assert np.array_equal(np.concatenate([g.ravel() for _, g in pairs]), -np.arange(n))


def test_no_two_buffers_overlap_and_none_is_allocated_twice():
    model, flow = blobs_run()
    model.ensure_head(2, 2, Rng(5))
    everything = owners(model, flow)
    buffers = [b for owner in everything for b in (owner.params, owner.grads)]
    for a, b in combinations(buffers, 2):
        assert not np.shares_memory(a, b)
    # the coupling nets hold slices of the flow's buffers and nothing of their own
    for net in flow.networks():
        assert net.params.base is flow.params and net.grads.base is flow.grads
    layer_total = sum(p.size for owner in everything for p, _ in array_pairs(owner))
    buffer_total = sum(owner.params.size for owner in everything)
    assert buffer_total == layer_total == model.param_count() + flow.param_count()


def test_late_head_gets_its_own_buffer():
    model, flow = blobs_run()
    before = owners(model, flow)
    head = model.ensure_head(3, 2, Rng(6))
    assert head.params.base is None and head.grads.base is None
    assert head.params.size == sum(p.size for p, _ in array_pairs(head)) > 0
    for owner in before:
        assert not np.shares_memory(head.params, owner.params)
        assert not np.shares_memory(head.grads, owner.grads)


def test_adam_pairs_are_the_phase_buffers():
    model, flow = blobs_run()
    phases = {
        "classifier": (model.classifier_parameters(1),
                       [model.encoder, model.proj_classify, model.heads[1]]),
        "autoencoder": (model.autoencoder_parameters(), [model.proj_reconstruct, model.decoder]),
        "flow": (flow.parameters(), [flow]),
    }
    for name, (pairs, trained) in phases.items():
        adam = nn.Adam(pairs)
        assert len(adam.pairs) == len(trained), name
        for (p, g), owner in zip(adam.pairs, trained):
            assert p is owner.params and g is owner.grads and p.ndim == 1
        assert sum(p.size for p, _ in adam.pairs) == sum(o.param_count() for o in trained)


def _train_flow(flow, make_adam, steps=50):
    adam = make_adam(flow)
    data = Rng(7)
    for _ in range(steps):
        flow.grads[...] = 0.0
        nll_loss_and_backward(flow, data.normal(size=(64, flow.dim)))
        adam.step()
    return flow.params.copy()


def test_fused_step_matches_per_array_adam_on_the_blobs_flow():
    fused = _train_flow(blobs_run()[1], lambda f: nn.Adam(f.parameters(), lr=1e-3))
    looped = _train_flow(blobs_run()[1], lambda f: ReferenceAdam(array_pairs(f), lr=1e-3))
    assert np.array_equal(fused, looped)


def _train_classifier(pairs_of, steps=50):
    cfg = load_config(CONFIGS / "mnist.cfg")
    model = build_model_from_config(cfg, (1, 28, 28), 10, Rng(8).fork("model-init"))
    head = model.ensure_head(1, 2, Rng(9))
    adam = pairs_of(model)
    data, dropout = Rng(10), Rng(11)
    for _ in range(steps):
        x, y = data.random(size=(32, 1, 28, 28)), data.integers(0, 2, size=32)
        for owner in (model.encoder, model.proj_classify, head):
            owner.grads[...] = 0.0
        logits = model.classify(x, 1, train=True, rng=dropout)
        dz = head.backward(nn.cross_entropy(logits, y)[1])
        model.encoder.backward(model.proj_classify.backward(dz))
        adam.step()
    return [p.copy() for p, _ in model.classifier_parameters(1)]


def test_fused_step_matches_per_array_adam_on_an_mnist_shaped_classifier():
    fused = _train_classifier(lambda m: nn.Adam(m.classifier_parameters(1), lr=1e-3))
    looped = _train_classifier(lambda m: ReferenceAdam(
        [pair for net in (m.encoder, m.proj_classify, m.heads[1]) for pair in array_pairs(net)],
        lr=1e-3))
    assert sum(p.size for p in fused) > 200_000
    for a, b in zip(fused, looped):
        assert np.array_equal(a, b)
