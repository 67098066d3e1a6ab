"""Tests for the flat parameter store: every network and the flow keep
their parameters in one buffer each, a training phase binds one gradient
buffer to each owner it trains, and one Adam step over those buffers
reproduces the per-array update bit for bit."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from _helpers import ReferenceAdam, array_pairs, param_arrays
from prer import nn
from prer.config import ExperimentConfig, load_config
from prer.flow import build_flow, nll_loss_and_backward
from prer.model import build_model
from prer.rng import Rng

CONFIGS = Path(__file__).parent.parent / "configs"


def blobs_run():
    """The model and flow of a configs/blobs.cfg run (20-dim inputs, 10
    classes), with the first task's head."""
    cfg = load_config(CONFIGS / "blobs.cfg")
    model = build_model(cfg, 20, 10, Rng(1).fork("model-init"))
    model.ensure_head(1, 2, Rng(2))
    return model, build_flow(cfg, 10, Rng(1).fork("flow-init"))


def owners(model, flow=None):
    return list(model.all_networks().values()) + ([flow] if flow is not None else [])


def test_layer_arrays_tile_their_owners_buffers():
    model, flow = blobs_run()
    everything = owners(model, flow)
    with nn.gradients(everything) as phase_pairs:
        for owner, (params, grads) in zip(everything, phase_pairs):
            assert params is owner.params and grads.shape == params.shape
            pairs = array_pairs(owner)
            assert pairs, "every owner here has parameters"
            for p, g in pairs:
                assert np.shares_memory(p, owner.params) and np.shares_memory(g, grads)
            # writing 0..n-1 into the buffers shows the views cover them in order, once each
            n = owner.params.size
            owner.params[...] = np.arange(n)
            grads[...] = -np.arange(n)
            assert np.array_equal(np.concatenate([p.ravel() for p, _ in pairs]), np.arange(n))
            assert np.array_equal(np.concatenate([g.ravel() for _, g in pairs]), -np.arange(n))


def test_no_two_buffers_overlap_and_none_is_allocated_twice():
    model, flow = blobs_run()
    model.ensure_head(2, 2, Rng(5))
    everything = owners(model, flow)
    with nn.gradients(everything) as pairs:
        buffers = [b for pair in pairs for b in pair]
        for a, b in combinations(buffers, 2):
            assert not np.shares_memory(a, b)
        # the coupling nets hold slices of the flow's buffers and nothing of their own
        flow_grads = pairs[-1][1]
        for net in flow.networks():
            assert net.params.base is flow.params
            assert all(g.base is flow_grads for layer in net.layers for g in layer.grads)
    layer_total = sum(p.size for owner in everything for p in param_arrays(owner))
    buffer_total = sum(owner.params.size for owner in everything)
    assert buffer_total == layer_total == model.param_count() + flow.param_count()


def test_late_head_gets_its_own_buffer():
    model, flow = blobs_run()
    before = owners(model, flow)
    head = model.ensure_head(3, 2, Rng(6))
    assert head.params.base is None
    assert head.params.size == sum(p.size for p in param_arrays(head)) > 0
    for owner in before:
        assert not np.shares_memory(head.params, owner.params)


def test_adam_pairs_are_the_phase_buffers():
    model, flow = blobs_run()
    phases = {
        "classifier": [model.encoder, model.proj_classify, model.heads[1]],
        "autoencoder": [model.proj_reconstruct, model.decoder],
        "flow": [flow],
    }
    assert model.classifier_networks(1) == phases["classifier"]
    assert model.autoencoder_networks() == phases["autoencoder"]
    for name, trained in phases.items():
        with nn.gradients(trained) as pairs:
            adam = nn.Adam(pairs)
            assert len(adam.pairs) == len(trained), name
            for (p, g), owner in zip(adam.pairs, trained):
                assert p is owner.params and g.shape == p.shape and p.ndim == 1
                assert g.base is None and not g.any()
            assert sum(p.size for p, _ in adam.pairs) == sum(o.param_count() for o in trained)


def _train_flow(flow, make_adam, steps=50):
    data = Rng(7)
    with nn.gradients([flow]) as pairs:
        adam = make_adam(flow, pairs)
        for _ in range(steps):
            pairs[0][1][...] = 0.0
            nll_loss_and_backward(flow, data.normal(size=(64, flow.dim)))
            adam.step()
    return flow.params.copy()


def test_fused_step_matches_per_array_adam_on_the_blobs_flow():
    fused = _train_flow(blobs_run()[1], lambda f, pairs: nn.Adam(pairs))
    looped = _train_flow(blobs_run()[1],
                         lambda f, pairs: ReferenceAdam(array_pairs(f), lr=1e-3))
    assert np.array_equal(fused, looped)


def _train_classifier(make_adam, steps=50):
    cfg = load_config(CONFIGS / "mnist.cfg")
    model = build_model(cfg, 784, 10, Rng(8).fork("model-init"))
    head = model.ensure_head(1, 2, Rng(9))
    nets = model.classifier_networks(1)
    data, dropout = Rng(10), Rng(11)
    with nn.gradients(nets) as pairs:
        adam = make_adam(nets, pairs)
        for _ in range(steps):
            x, y = data.random(size=(32, 784)), data.integers(0, 2, size=32)
            for _, g in pairs:
                g[...] = 0.0
            logits = head.forward(model.encode_classify(x, train=True), train=True, rng=dropout)
            dz = head.backward(nn.cross_entropy(logits, y)[1])
            model.encoder.backward(model.proj_classify.backward(dz))
            adam.step()
    return [net.params.copy() for net in nets]


def test_fused_step_matches_per_array_adam_on_an_mnist_shaped_classifier():
    fused = _train_classifier(lambda nets, pairs: nn.Adam(pairs))
    looped = _train_classifier(lambda nets, pairs: ReferenceAdam(
        [pair for net in nets for pair in array_pairs(net)], lr=1e-3))
    assert sum(p.size for p in fused) > 200_000
    for a, b in zip(fused, looped):
        assert np.array_equal(a, b)
