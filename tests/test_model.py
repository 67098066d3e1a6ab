"""Tests for the shared-backbone model: head separation, conditioning
contracts, freezing behaviour and the parameter partition."""

import hashlib

import numpy as np
import pytest

from _helpers import array_pairs, get_params, layers_holding_a_cache
from prer import nn
from prer.config import ExperimentConfig
from prer.data import Task
from prer.exceptions import ConfigurationError
from prer.model import build_model
from prer.pipeline import EarlyStop, train_autoencoder_phase
from prer.rng import Rng


def small_model(decoder_conditioned=False, num_classes=4, embedding_dim=8):
    cfg = ExperimentConfig(embedding_dim=embedding_dim, encoder_hidden=(12,),
                           conditioning="decoder" if decoder_conditioned else "none")
    return build_model(cfg, 6, num_classes, Rng(1))


def test_encode_classify_deterministic_in_eval():
    model = small_model()
    x = Rng(2).normal(size=(5, 6))
    assert np.array_equal(model.encode_classify(x), model.encode_classify(x))


def test_mnist_scale_embedding_width():
    cfg = ExperimentConfig(encoder_hidden=(256,), embedding_dim=100, conditioning="none")
    model = build_model(cfg, 784, 10, Rng(3))
    assert model.embedding_dim == 100
    x = Rng(4).random(size=(2, 784))
    assert model.encode_classify(x).shape == (2, 100)


def test_head_separation():
    model = small_model()
    x = Rng(5).normal(size=(4, 6))
    # perturbing the reconstruction projection must not move z_c
    z_c = model.encode_classify(x)
    for p, _ in model.proj_reconstruct.parameters():
        p += 1.0
    assert np.array_equal(model.encode_classify(x), z_c)
    # and perturbing the classification projection must not move x_hat
    x_hat = model.decode(model.encode_reconstruct(x))
    for p, _ in model.proj_classify.parameters():
        p += 1.0
    assert np.array_equal(model.decode(model.encode_reconstruct(x)), x_hat)


def test_decoder_conditioning_contract():
    z = Rng(6).normal(size=(3, 8))
    conditioned = small_model(decoder_conditioned=True)
    # none, too few, a column instead of a vector, out of range
    for y in (None, np.array([0, 1]), np.array([[0], [1], [2]]), np.array([0, 1, 4])):
        with pytest.raises(ConfigurationError):
            conditioned.decode(z, y)
    out = conditioned.decode(z, np.array([0, 1, 3]))
    assert out.shape == (3, 6)
    assert not np.array_equal(out, conditioned.decode(z, np.array([1, 1, 3])))
    # an unconditioned decoder ignores the classes
    plain = small_model(decoder_conditioned=False)
    assert np.array_equal(plain.decode(z), plain.decode(z, np.array([0, 1, 2])))


def test_classify_width_and_determinism():
    model = small_model()
    model.ensure_head(1, 2, Rng(7))
    x = Rng(8).normal(size=(5, 6))
    logits = model.classify(x, 1)
    assert logits.shape == (5, 2)
    assert np.array_equal(logits, model.classify(x, 1))
    with pytest.raises(ConfigurationError):
        model.classify(x, 99)


def test_eval_passes_leave_no_layer_cache():
    cfg = ExperimentConfig(encoder_hidden=(12,), embedding_dim=5, conditioning="decoder")
    model = build_model(cfg, 36, 4, Rng(41))
    model.ensure_head(1, 2, Rng(42))
    x = Rng(43).normal(size=(5, 36))
    passes = {
        "encode_classify": lambda: model.encode_classify(x),
        "encode_reconstruct": lambda: model.encode_reconstruct(x),
        "classify": lambda: model.classify(x, 1),
        "decode": lambda: model.decode(Rng(44).normal(size=(5, 5)), np.array([0, 1, 2, 3, 0])),
    }
    for name, run in passes.items():
        run()
        assert layers_holding_a_cache(model) == [], name


def test_train_pass_keeps_the_caches_backward_consumes():
    model = small_model()
    model.ensure_head(1, 2, Rng(45))
    x = Rng(46).normal(size=(5, 6))
    z = model.encode_classify(x, train=True)
    dh = model.proj_classify.backward(np.ones_like(z))
    assert model.encoder.backward(dh, input_grad=False) is None
    logits = model.classify(x, 1, train=True, rng=Rng(47))
    dz = model.head(1).backward(np.ones_like(logits))
    model.encoder.backward(model.proj_classify.backward(dz), input_grad=False)
    assert layers_holding_a_cache(model) == []


def test_untrained_head_mean_softmax_near_uniform():
    # averaged over fresh untrained heads so no class is preferred
    model = small_model()
    x = Rng(10).normal(size=(1000, 6))
    z = model.encode_classify(x)
    probs = []
    for i in range(20):
        head = model.ensure_head(i + 1, 2, Rng(900 + i))
        e = np.exp(head.forward(z[i * 50:(i + 1) * 50]))
        probs.append(e / e.sum(axis=1, keepdims=True))
    mean = np.concatenate(probs).mean(axis=0)
    assert np.abs(mean - 0.5).max() < 0.05


def test_parameter_partition_disjoint_and_complete():
    model = small_model()
    model.ensure_head(1, 2, Rng(11))
    model.ensure_head(2, 2, Rng(12))
    groups = [model.encoder, model.proj_classify, model.proj_reconstruct,
              model.decoder, model.heads[1], model.heads[2]]
    ids = [id(p) for net in groups for p, _ in net.parameters()]
    assert len(ids) == len(set(ids))
    all_ids = {id(p) for net in model.all_networks().values() for p, _ in net.parameters()}
    assert set(ids) == all_ids


def param_digest(model):
    h = hashlib.sha256()
    for name, net in model.all_networks().items():
        h.update(name.encode())
        h.update(net.params.tobytes())
    return h.hexdigest()


def test_built_parameters_keep_their_bits():
    # digests taken before the two builders shared their projections and
    # decoder: the draw order from the "model-build" fork is unchanged
    mlp = build_model(ExperimentConfig(embedding_dim=5, encoder_hidden=(12, 10),
                                       conditioning="decoder"), 6, 4, Rng(11))
    assert mlp.param_count() == 634
    assert param_digest(mlp) == (
        "61dedefc0a5988fab60c27695a178afb7c3d3ae105fe5e2717b43d2bcf60f87e")


def test_encoder_backward_without_input_gradient():
    cfg = ExperimentConfig(encoder_hidden=(12, 10), conditioning="none")
    model = build_model(cfg, 36, 4, Rng(31))
    data = Rng(32)
    x = data.normal(size=(7, 36))
    net = model.encoder
    dh = data.normal(size=net.forward(x).shape)
    net.backward(dh)
    full = net.grads.copy()
    net.grads[...] = 0.0
    net.forward(x)
    assert net.backward(dh, input_grad=False) is None
    assert np.array_equal(net.grads.view(np.int64), full.view(np.int64))
    assert all(layer._cache is None for layer in net.layers)


def make_task(x, y_global, index=1, classes=(0, 1)):
    offset = classes[0]
    return Task(index=index, classes=list(classes), x=x, ids=np.arange(len(x)),
                y_task=y_global - offset, y_global=y_global)


def test_autoencoder_phase_freezes_encoder_and_classifier_projection():
    model = small_model()
    rng = Rng(13)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 2, size=40)
    task = make_task(x, y)
    enc_before = get_params(model.encoder)
    fc_before = get_params(model.proj_classify)
    cfg = ExperimentConfig(strategy="prer", ae_max_epochs=10).validate()
    train_autoencoder_phase(model, task, cfg, Rng(14))
    for before, (p, g) in zip(enc_before, array_pairs(model.encoder)):
        assert np.array_equal(before, p)
        assert np.all(g == 0.0)
    for before, (p, g) in zip(fc_before, array_pairs(model.proj_classify)):
        assert np.array_equal(before, p)
        assert np.all(g == 0.0)
    # the frozen encoder's pass is never backpropagated, and keeps nothing
    assert layers_holding_a_cache(model) == []


def test_autoencoder_overfits_four_samples(monkeypatch):
    model = build_model(ExperimentConfig(embedding_dim=8, encoder_hidden=(16,),
                                         conditioning="none"), 6, 4, Rng(15))
    rng = Rng(16)
    x = rng.random(size=(4, 6))
    y = np.array([0, 1, 2, 3])
    task = make_task(x, y, classes=(0, 1, 2, 3))
    monkeypatch.setattr(EarlyStop, "patience", 200)
    monkeypatch.setattr(EarlyStop, "min_delta", 1e-9)
    cfg = ExperimentConfig(strategy="prer", ae_max_epochs=4000, batch_size=4).validate()
    train_autoencoder_phase(model, task, cfg, Rng(17))
    x_hat = model.decode(model.encode_reconstruct(x))
    assert nn.mse(x_hat, x)[0] < 1e-3
