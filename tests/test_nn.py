"""Tests for the network substrate: forward/backward correctness, the
optimizer, losses and determinism."""

import hashlib
import logging

import numpy as np
import pytest

from _helpers import (
    ReferenceAdam,
    check_network_gradients,
    get_params,
    random_layer_instance,
    reference_cross_entropy,
    reference_cross_entropy_grad,
    reference_mean_cosine_distance,
    reference_mean_cosine_distance_grad,
    reference_mse,
    reference_mse_grad,
    rel_err,
    same_bits,
)
from prer import nn
from prer.exceptions import ConfigurationError, StateError
from prer.nn import Adam, Dense, Dropout, Network, Relu
from prer.rng import Rng


def make_dense(w, b):
    rng = Rng(0)
    layer = Dense(np.shape(w)[1], np.shape(w)[0], rng)
    layer.w[...] = w
    layer.b[...] = b
    return layer


# ---------------------------------------------------------------------------
# forward


def test_identity_dense_forward():
    net = Network([make_dense(np.eye(3), np.zeros(3))])
    out = net.forward(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[1.0, 2.0, 3.0]])


def test_relu_forward():
    net = Network([Relu()])
    out = net.forward(np.array([[-1.0, 0.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 0.0, 2.0]])


def test_relu_propagates_nan_and_clears_negative_zero():
    out = Network([Relu()]).forward(np.array([[np.nan, -1.0, -0.0, 2.0]]))
    assert np.isnan(out[0, 0])
    assert np.array_equal(out[0, 1:], [0.0, 0.0, 2.0])
    assert not np.signbit(out[0, 1:]).any()


@pytest.mark.parametrize("x_order", [(0, 1), (1, 0)])
def test_relu_backward_is_where_bit_for_bit(x_order):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.5, 3e-310]
    data = Rng(22)
    x = data.normal(size=(6, 16))
    x[0, :8] = special
    x[1, :8], x[2, :8] = 1.0, -1.0  # each special gradient meets both mask values
    x = x.transpose(x_order).copy().transpose(x_order)  # same values, another memory order
    wide = data.normal(size=(6, 32))
    grad = wide[:, ::2]  # not contiguous
    grad[:, :8] = special
    assert not grad.flags.c_contiguous
    layer = Relu()
    layer.forward(x)
    got = layer.backward(grad)
    want = np.where(x > 0, grad, 0.0)
    assert got.dtype == want.dtype and got.strides == want.strides
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dense_forward_hand_computed():
    net = Network([make_dense([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.0])])
    out = net.forward(np.array([[2.0, 3.0]]))
    assert np.allclose(out, [[5.5, 3.0]])


def test_shape_mismatch_names_layer_index():
    rng = Rng(1)
    net = Network([Dense(3, 4, rng), Relu(), Dense(4, 2, rng)], name="mlp")
    for x in (np.ones((2, 5)), np.ones(3)):  # a 1-D row is not a batch
        with pytest.raises(ConfigurationError, match="layer 0"):
            net.forward(x)
    bad = Network([Dense(3, 4, rng), Dense(5, 2, rng)])
    with pytest.raises(ConfigurationError, match="layer 1"):
        bad.forward(np.ones((2, 3)))


# classes a conditioned layer must refuse for two rows and 3 classes:
# none, too few, a column instead of a vector, out of range
BAD_CLASSES = (None, np.array([0]), np.array([[0], [1]]), np.array([0, 3]), np.array([-1, 0]))


def test_condition_contract():
    rng = Rng(2)
    x = Rng(3).normal(size=(2, 2))
    conditioned = Network([nn.ConcatCondition(3), Dense(5, 2, rng)])
    for cond in BAD_CLASSES:
        with pytest.raises(ConfigurationError):
            conditioned.forward(x, cond=cond)
    dense = conditioned.layers[1]
    appended = np.concatenate([x, nn.one_hot(np.array([0, 2]), 3)], axis=1)
    assert np.array_equal(conditioned.forward(x, cond=np.array([0, 2])),
                          appended @ dense.w.T + dense.b)
    # a network without a conditioned layer ignores the classes
    plain = Network([Dense(2, 2, rng)])
    assert np.array_equal(plain.forward(x), plain.forward(x, cond=np.array([0, 2])))


# ---------------------------------------------------------------------------
# backward


def test_zero_upstream_gives_zero_gradients():
    rng = Rng(3)
    net = Network([Dense(4, 3, rng), Relu(), Dense(3, 2, rng)])
    y = net.forward(rng.normal(size=(5, 4)))
    net.grads[...] = 0.0
    dx = net.backward(np.zeros_like(y))
    assert np.all(dx == 0.0)
    for _, g in net.parameters():
        assert np.all(g == 0.0)


def test_scalar_dense_product_rule():
    layer = make_dense([[2.0]], [0.0])
    net = Network([layer])
    net.forward(np.array([[3.0]]))
    net.grads[...] = 0.0
    dx = net.backward(np.array([[1.0]]))
    assert layer.grads[0][0, 0] == pytest.approx(3.0)  # dL/dw = x
    assert dx[0, 0] == pytest.approx(2.0)              # dL/dx = w


def test_backward_without_forward_raises():
    net = Network([Dense(2, 2, Rng(4))])
    with pytest.raises(StateError):
        net.backward(np.ones((1, 2)))


def test_mlp_finite_difference():
    rng = Rng(5)
    net = Network([Dense(4, 6, rng), Relu(), Dense(6, 3, rng)])
    x = rng.normal(size=(5, 4))
    assert check_network_gradients(net, x) < 1e-4


def test_gradient_property_all_layer_kinds():
    # >= 100 random instances cycling through every layer kind
    worst = 0.0
    for seed in range(105):
        net, x, kwargs = random_layer_instance(seed)
        worst = max(worst, check_network_gradients(net, x, **kwargs))
    assert worst < 1e-4, f"worst relative error {worst}"


def test_loss_gradients_finite_difference():
    rng = Rng(6)
    h = 1e-6
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 2])
    _, g = nn.cross_entropy(logits, labels)
    for idx in np.ndindex(logits.shape):
        orig = logits[idx]
        logits[idx] = orig + h
        lp, _ = nn.cross_entropy(logits, labels)
        logits[idx] = orig - h
        lm, _ = nn.cross_entropy(logits, labels)
        logits[idx] = orig
        assert rel_err(g[idx], (lp - lm) / (2 * h)) < 1e-4

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    _, g = nn.mse(a, b)
    for idx in np.ndindex(a.shape):
        orig = a[idx]
        a[idx] = orig + h
        lp, _ = nn.mse(a, b)
        a[idx] = orig - h
        lm, _ = nn.mse(a, b)
        a[idx] = orig
        assert rel_err(g[idx], (lp - lm) / (2 * h)) < 1e-4

    _, g = nn.mean_cosine_distance(a, b)
    for idx in np.ndindex(a.shape):
        orig = a[idx]
        a[idx] = orig + h
        lp, _ = nn.mean_cosine_distance(a, b)
        a[idx] = orig - h
        lm, _ = nn.mean_cosine_distance(a, b)
        a[idx] = orig
        assert rel_err(g[idx], (lp - lm) / (2 * h)) < 1e-4


# ---------------------------------------------------------------------------
# optimizer


def make_scalar_param(value):
    p = np.array([value])
    g = np.zeros(1)
    return p, g


def test_adam_zero_gradient_keeps_params():
    p, g = make_scalar_param(1.5)
    adam = Adam([(p, g)])
    adam.step()
    assert p[0] == 1.5


def test_adam_first_step_hand_computed():
    p, g = make_scalar_param(1.0)
    adam = Adam([(p, g)])
    g[0] = 1.0
    adam.step()
    assert p[0] == pytest.approx(0.999, abs=1e-6)


def test_adam_statefulness():
    p1, g1 = make_scalar_param(1.0)
    adam1 = Adam([(p1, g1)])
    g1[0] = 1.0
    adam1.step()
    one_step = p1[0]

    p2, g2 = make_scalar_param(1.0)
    adam2 = Adam([(p2, g2)])
    g2[0] = 1.0
    adam2.step()
    adam2.step()
    assert p2[0] != one_step
    assert adam2.t == 2


def test_adam_shape_mismatch():
    p, g = make_scalar_param(1.0)
    with pytest.raises(ConfigurationError, match="does not match"):
        Adam([(p, g), (np.zeros(2), np.zeros(3))])


def test_adam_takes_flat_buffers_only():
    with pytest.raises(ConfigurationError, match="1-D"):
        Adam([(np.zeros((2, 3)), np.zeros((2, 3)))])


@pytest.mark.parametrize("sizes", [
    (5 * nn.ADAM_CHUNK // 2 + 7, 300),  # crosses two chunk edges, then a short buffer
    (300,),  # smaller than one chunk
])
def test_adam_matches_whole_array_update_bitwise(monkeypatch, sizes):
    data = Rng(21)
    start = [data.normal(size=n) for n in sizes]
    fused = [(p.copy(), np.zeros_like(p)) for p in start]
    looped = [(p.copy(), np.zeros_like(p)) for p in start]
    monkeypatch.setattr(Adam, "lr", 0.01)
    adam = Adam(fused)
    reference = ReferenceAdam(looped, lr=0.01)
    for step in range(5):
        for (_, g1), (_, g2) in zip(fused, looped):
            g1[...] = data.normal(scale=10.0 ** (step - 2), size=g1.size)
            g1[::7] = 0.0
            g2[...] = g1
        adam.step()
        reference.step()
        for (p1, _), (p2, _), m1, m2, v1, v2 in zip(fused, looped, adam.m, reference.m,
                                                   adam.v, reference.v):
            assert np.array_equal(p1, p2) and np.array_equal(m1, m2)
            assert np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_hand_computed():
    assert nn.cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))[0] == pytest.approx(np.log(2.0))


def test_mse_hand_computed():
    assert nn.mse(np.array([1.0, 2.0]), np.array([1.0, 4.0]))[0] == pytest.approx(2.0)


def test_cosine_distance_self_and_orthogonal():
    # one-row inputs: the mean over rows is that row's distance
    rng = Rng(8)
    for _ in range(5):
        v = rng.normal(size=(1, 6))
        assert nn.mean_cosine_distance(v, v)[0] == pytest.approx(0.0, abs=1e-12)
    e0, e1 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    assert nn.mean_cosine_distance(e0, e1)[0] == pytest.approx(1.0)
    assert nn.mean_cosine_distance(e0, -e0)[0] == pytest.approx(2.0)


def test_cross_entropy_matches_its_two_call_reference_bitwise():
    rng = Rng(13)
    for n, width in ((64, 10), (7, 2), (1, 5)):
        logits = rng.normal(size=(n, width)) * 5.0
        labels = rng.integers(0, min(width, 3), size=n)  # labels repeat
        loss, grad = nn.cross_entropy(logits, labels)
        assert same_bits(loss, reference_cross_entropy(logits, labels))
        assert same_bits(grad, reference_cross_entropy_grad(logits, labels))


def test_mse_matches_its_two_call_reference_bitwise():
    rng = Rng(14)
    a, b = rng.random(size=(64, 784)), rng.random(size=(64, 784))
    loss, grad = nn.mse(a, b)
    assert same_bits(loss, reference_mse(a, b))
    assert same_bits(grad, reference_mse_grad(a, b))


def test_cosine_distance_matches_its_two_call_reference_bitwise():
    rng = Rng(15)
    a, b = rng.normal(size=(32, 12)), rng.normal(size=(32, 12))
    a[3] = 0.0
    b[17] = 0.0
    b[20] = -2.5 * a[20]  # a distance of exactly 2 before rounding
    loss, grad = nn.mean_cosine_distance(a, b)
    assert same_bits(loss, reference_mean_cosine_distance(a, b))
    assert same_bits(grad, reference_mean_cosine_distance_grad(a, b))
    assert not grad[3].any() and not grad[17].any()


def test_cosine_zero_vector_convention_logged_once(caplog):
    nn.reset_run_warnings()
    with caplog.at_level(logging.WARNING, logger="prer.nn"):
        zero, e0 = np.zeros((1, 2)), np.array([[1.0, 0.0]])
        assert nn.mean_cosine_distance(zero, e0)[0] == 1.0
        assert nn.mean_cosine_distance(zero, zero)[0] == 1.0
    warnings = [r for r in caplog.records if "zero vector" in r.message]
    assert len(warnings) == 1


# ---------------------------------------------------------------------------
# dropout and determinism


def test_dropout_eval_is_identity():
    layer = Dropout()
    x = Rng(9).normal(size=(4, 5))
    assert np.array_equal(layer.forward(x, train=False), x)


def test_dropout_inverted_scaling_expectation():
    layer = Dropout()
    rng = Rng(10)
    x = np.ones((1, 8))
    total = np.zeros_like(x)
    n = 10_000
    for _ in range(n):
        total += layer.forward(x, train=True, rng=rng)
    assert np.abs(total / n - x).max() < 1e-2


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(ConfigurationError):
        Dropout().forward(np.ones((1, 2)), train=True)


def test_training_determinism_bitwise():
    def run(seed):
        rng = Rng(seed)
        net = Network([Dense(6, 8, rng.fork("init")), Relu(),
                       Dropout(), Dense(8, 3, rng.fork("init2"))])
        adam = Adam(net.parameters())
        data_rng = rng.fork("data")
        drop_rng = rng.fork("dropout")
        for _ in range(20):
            x = data_rng.normal(size=(8, 6))
            y = data_rng.integers(0, 3, size=8)
            net.grads[...] = 0.0
            logits = net.forward(x, train=True, rng=drop_rng)
            net.backward(nn.cross_entropy(logits, y)[1])
            adam.step()
        return get_params(net)

    for p1, p2 in zip(run(123), run(123)):
        assert np.array_equal(p1, p2)


def test_forked_rng_draws_are_a_pcg64_generator_seeded_by_the_digest():
    # values taken from the wrapper that forwarded each draw to its own
    # Generator, so subclassing Generator changes no stream
    digest = hashlib.blake2b(b"7/golden", digest_size=8).digest()
    bare = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
    forked = Rng(7).fork("golden")
    assert forked.seed == 16997757624660138951
    for gen in (forked, bare):
        assert gen.normal(size=3).tolist() == [
            1.5577943216228036, 1.149009125913869, -0.6023483536889279]
        assert gen.uniform(-1.0, 1.0, size=3).tolist() == [
            0.7449041737667885, 0.6976432127936307, 0.41830275970639685]
        assert gen.permutation(6).tolist() == [3, 5, 1, 4, 2, 0]
        assert gen.choice(10, size=3, replace=False).tolist() == [2, 7, 8]
        assert gen.integers(0, 100, size=4).tolist() == [54, 81, 87, 74]
        assert gen.random(size=3).tolist() == [
            0.4333125362531042, 0.15060502344401605, 0.6077448403335932]


def test_backward_without_input_gradient_through_no_parameters():
    net = Network([Relu(), Dropout()])
    net.forward(Rng(12).normal(size=(2, 12)))
    assert net.backward(np.ones((2, 12)), input_grad=False) is None
    assert all(layer._cache is None for layer in net.layers)
