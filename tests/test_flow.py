"""Tests for the invertible stack: coupling/batch-norm algebra, exact
log-determinants, multi-scale routing, sampling and conditioning."""

import numpy as np
import pytest

from _helpers import (array_pairs, auc_score, flow_config, reference_coupling_backward, rel_err,
                      same_bits)
from prer import nn
from prer.config import ExperimentConfig
from prer.exceptions import ConfigurationError, DivergenceError, StateError
from prer.flow import (
    LOG_SCALE_BOUND,
    BatchNorm,
    Coupling,
    FlowStack,
    Permutation,
    build_flow,
    level_widths,
    nll_loss_and_backward,
)
from prer.rng import Rng


def constant_coupling(dim, log_s_value, t_value):
    """Coupling whose nets ignore their input and emit constants."""
    layer = Coupling(dim, 4, Rng(0))
    for net in (layer.scale_net, layer.translate_net):
        first, last = net.layers[0], net.layers[-1]
        first.w[...] = 0.0
        first.b[...] = 0.0
        last.w[...] = 0.0
    # log_s = 2 * tanh(raw)  =>  raw = atanh(log_s / 2)
    layer.scale_net.layers[-1].b[...] = np.arctanh(log_s_value / 2.0)
    layer.translate_net.layers[-1].b[...] = t_value
    return layer


def randomize(stack, seed=991):
    rng = Rng(seed)
    stack.params[...] = rng.uniform(-0.5, 0.5, stack.params.shape)
    return stack


def initialize_batchnorms(stack, seed=992, batch=64):
    rng = Rng(seed)
    stack.normalize(rng.normal(size=(batch, stack.dim)), train=True)
    return stack


def numeric_logdet(stack, z0, cond=None, h=1e-6):
    d = stack.dim
    jac = np.zeros((d, d))
    for j in range(d):
        zp, zm = z0.copy(), z0.copy()
        zp[0, j] += h
        zm[0, j] -= h
        up, _ = stack.normalize(zp, cond=cond)
        um, _ = stack.normalize(zm, cond=cond)
        jac[:, j] = (up[0] - um[0]) / (2 * h)
    sign, value = np.linalg.slogdet(jac)
    assert sign != 0
    return value


# ---------------------------------------------------------------------------
# coupling layer


def test_fresh_coupling_is_identity():
    layer = Coupling(6, 12, Rng(1))
    x = Rng(2).normal(size=(4, 6))
    assert np.allclose(layer.invert(x), x)
    y, ld = layer.apply(x)
    assert np.allclose(y, x)
    assert np.allclose(ld, 0.0)


def test_coupling_hand_computed():
    layer = constant_coupling(2, 0.5, 1.0)
    x = np.array([[1.0, 2.0]])
    y = layer.invert(x)
    assert y[0, 0] == pytest.approx(1.0)            # first chunk passes through
    assert y[0, 1] == pytest.approx(np.exp(0.5) * 2.0 + 1.0, abs=1e-5)
    back, ld_inv = layer.apply(y)
    assert np.allclose(back, x, atol=1e-12)
    assert ld_inv[0] == pytest.approx(-0.5)


def test_coupling_roundtrip_random():
    rng = Rng(3)
    layer = Coupling(5, 10, rng)
    for net in layer.networks():
        net.params[...] = rng.uniform(-0.8, 0.8, net.params.shape)
    u = rng.normal(size=(16, 5))
    back, _ = layer.apply(layer.invert(u))
    assert np.abs(back - u).max() < 1e-8


@pytest.mark.parametrize("cond_width", [0, 3])
def test_coupling_invert_matches_the_affine_formula_bitwise(cond_width):
    # invert returns a followed by exp(LOG_SCALE_BOUND * tanh(s(a))) * b + t(a)
    rng = Rng(4)
    layer = Coupling(7, 10, rng, cond_width=cond_width)
    for net in layer.networks():
        net.params[...] = rng.uniform(-0.8, 0.8, net.params.shape)
    y = rng.normal(size=(16, 7))
    cond = rng.integers(0, 3, size=16) if cond_width else None
    a, b = y[:, :4], y[:, 4:]
    log_s = LOG_SCALE_BOUND * np.tanh(layer.scale_net.forward(a, cond=cond))
    expected = np.concatenate(
        [a, np.exp(log_s) * b + layer.translate_net.forward(a, cond=cond)], axis=1)
    assert same_bits(layer.invert(y, cond=cond), expected)


def test_coupling_divergence_reports():
    layer = Coupling(4, 8, Rng(5))
    layer.scale_net.layers[-1].b[0] = np.nan  # weights gone bad mid-training
    for direction in (layer.apply, layer.invert):
        with pytest.raises(DivergenceError):
            direction(np.ones((2, 4)))


def test_stack_divergence_names_layer():
    stack = build_flow(flow_config(2, embedding_dim=4, flow_levels=1), 0, Rng(50))
    stack.levels[0][5].scale_net.layers[-1].b[0] = np.nan  # second block's coupling
    with pytest.raises(DivergenceError, match="level 0, layer 5"):
        stack.normalize(np.ones((4, 4)), train=True)


# classes a conditioned flow must refuse for two rows and 3 classes:
# none, too few, a column instead of a vector, out of range
BAD_CLASSES = (None, np.array([0]), np.array([[0], [1]]), np.array([0, 3]), np.array([-1, 0]))


def test_coupling_condition_contract():
    layer = Coupling(4, 8, Rng(6), cond_width=3)
    x = Rng(8).normal(size=(2, 4))
    for cond in BAD_CLASSES:
        for direction in (layer.apply, layer.invert):
            with pytest.raises(ConfigurationError):
                direction(x, cond=cond)
    # an unconditioned coupling ignores the classes
    plain = Coupling(4, 8, Rng(7))
    for net in plain.networks():
        net.params[...] = Rng(9).uniform(-0.5, 0.5, net.params.shape)
    out, logdet = plain.apply(x)
    out_c, logdet_c = plain.apply(x, cond=np.array([0, 2]))
    assert np.array_equal(out, out_c) and np.array_equal(logdet, logdet_c)
    assert np.array_equal(plain.invert(x), plain.invert(x, cond=np.array([0, 2])))


@pytest.mark.parametrize("cond_width", [0, 3])
def test_coupling_backward_matches_recomputed_tanh_and_exp_bitwise(cond_width):
    # the normalizing pass caches tanh(raw) and exp(-log_s); its backward
    # must give the bits of one that takes them again
    rng = Rng(11)
    layer = Coupling(7, 10, rng, cond_width=cond_width)
    for net in layer.networks():
        net.params[...] = rng.uniform(-0.8, 0.8, net.params.shape)
    x = rng.normal(size=(32, 7))
    cond = rng.integers(0, 3, size=32) if cond_width else None
    grad, grad_logdet = rng.normal(size=(32, 7)), rng.normal(size=32)

    with nn.gradients(layer.networks()) as pairs:
        layer.apply(x, cond=cond)
        dx = layer.backward_normalizing(grad, grad_logdet)
        grads = [g.copy() for _, g in pairs]
        for _, g in pairs:
            g[...] = 0.0
        ref_dx = reference_coupling_backward(layer, x, grad, grad_logdet, cond=cond)
    assert same_bits(dx, ref_dx)
    for got, (_, g) in zip(grads, pairs):
        assert same_bits(got, g)


# ---------------------------------------------------------------------------
# batch norm


def test_batchnorm_matches_numpy_mean_and_var_bitwise():
    # outputs, log-determinants and running statistics keep the bits of
    # (x - x.mean(0)) / sqrt(x.var(0) + eps) and its blends
    bn = BatchNorm(5)
    rng = Rng(12)
    eps, m = bn.eps, bn.momentum
    run_mean = run_var = None
    for scale in (3.0, 0.5, 7.0):
        x = rng.normal(size=(40, 5)) * scale + 2.0
        mean, var = x.mean(axis=0), x.var(axis=0)
        y, ld = bn.apply(x, train=True)
        assert same_bits(y, (x - mean) / np.sqrt(var + eps))
        assert same_bits(ld, np.full(40, -0.5 * float(np.log(var + eps).sum())))
        if run_mean is None:
            run_mean, run_var = mean, var
        else:
            run_mean = (1.0 - m) * run_mean + m * mean
            run_var = (1.0 - m) * run_var + m * var
        assert same_bits(bn.mean, run_mean) and same_bits(bn.var, run_var)

    x = rng.normal(size=(9, 5))
    y, ld = bn.apply(x)
    assert same_bits(y, (x - run_mean) / np.sqrt(run_var + eps))
    assert same_bits(ld, np.full(9, -0.5 * float(np.log(run_var + eps).sum())))
    assert same_bits(bn.invert(x), x * np.sqrt(run_var + eps) + run_mean)
    assert same_bits(bn.mean, run_mean) and same_bits(bn.var, run_var)


def test_batchnorm_unit_stats_is_identity():
    bn = BatchNorm(3)
    bn.var[...] = 1.0 - bn.eps
    bn.mean[...] = 0.0
    bn.initialized = True
    x = Rng(8).normal(size=(5, 3))
    y, ld = bn.apply(x)
    assert np.allclose(y, x)
    assert np.allclose(ld, 0.0)


def test_batchnorm_logdet_hand_computed():
    bn = BatchNorm(1)
    bn.var[...] = np.exp(2.0) - bn.eps
    bn.initialized = True
    _, ld = bn.apply(np.array([[1.0], [2.0]]))
    assert np.allclose(ld, -1.0)


def test_batchnorm_roundtrip_frozen_stats():
    bn = BatchNorm(4)
    rng = Rng(9)
    bn.apply(rng.normal(size=(32, 4)) * 3.0 + 1.0, train=True)
    x = rng.normal(size=(6, 4))
    y, _ = bn.apply(x)
    back = bn.invert(y)
    assert np.abs(back - x).max() < 1e-10


def test_batchnorm_first_batch_initializes_then_blends():
    bn = BatchNorm(2)
    rng = Rng(10)
    b1 = rng.normal(size=(50, 2)) + 4.0
    bn.apply(b1, train=True)
    assert np.allclose(bn.mean, b1.mean(axis=0))
    assert np.allclose(bn.var, b1.var(axis=0))
    old_mean, old_var = bn.mean.copy(), bn.var.copy()
    b2 = rng.normal(size=(50, 2)) - 4.0
    bn.apply(b2, train=True)
    assert np.allclose(bn.mean, 0.9 * old_mean + 0.1 * b2.mean(axis=0))
    assert np.allclose(bn.var, 0.9 * old_var + 0.1 * b2.var(axis=0))


def test_batchnorm_state_errors():
    bn = BatchNorm(2)
    with pytest.raises(StateError):
        bn.apply(np.ones((3, 2)), train=False)
    with pytest.raises(StateError):
        bn.invert(np.ones((3, 2)))
    with pytest.raises(ConfigurationError):
        bn.apply(np.ones((1, 2)), train=True)


# ---------------------------------------------------------------------------
# stack-level density and sampling


def permutation_stack(dim, n_perms=3, seed=11):
    rng = Rng(seed)
    return FlowStack([[Permutation(dim, rng) for _ in range(n_perms)]], dim)


def test_log_prob_permutation_stack_at_origin():
    stack = permutation_stack(2)
    lp = stack.log_prob(np.array([[0.0, 0.0]]))
    assert lp[0] == pytest.approx(-np.log(2 * np.pi), abs=1e-12)


def test_log_prob_identity_stack_matches_standard_normal():
    stack = permutation_stack(4)
    z = Rng(12).normal(size=(10, 4))
    expected = -0.5 * (z ** 2).sum(axis=1) - 2.0 * np.log(2 * np.pi)
    assert np.allclose(stack.log_prob(z), expected)


def test_logdet_matches_numeric_jacobian_random_stack():
    stack = build_flow(flow_config(2, embedding_dim=4, flow_levels=1),
                       0, Rng(13))
    randomize(stack)
    initialize_batchnorms(stack)
    z0 = Rng(14).normal(size=(1, 4))
    _, ld = stack.normalize(z0)
    assert abs(ld[0] - numeric_logdet(stack, z0)) < 1e-5


def test_sample_identity_stack_matches_prior_moments():
    stack = permutation_stack(3, seed=15)
    samples = stack.sample(100_000, Rng(16))
    assert np.abs(samples.mean(axis=0)).max() < 0.02
    assert np.abs(samples.var(axis=0) - 1.0).max() < 0.05


def test_log_prob_of_samples_is_finite():
    stack = build_flow(flow_config(3, embedding_dim=6, flow_levels=2), 0, Rng(17))
    randomize(stack)
    initialize_batchnorms(stack)
    samples = stack.sample(256, Rng(18))
    assert np.isfinite(stack.log_prob(samples)).all()


def test_sampling_leaves_no_layer_cache():
    stack = build_flow(flow_config(3, embedding_dim=6, flow_levels=2), 0, Rng(21))
    randomize(stack)
    initialize_batchnorms(stack)  # a normalizing pass fills the caches
    stack.sample(50, Rng(23))
    couplings = [layer for level in stack.levels for layer in level
                 if isinstance(layer, Coupling)]
    layers = [layer for coupling in couplings
              for net in (coupling.scale_net, coupling.translate_net)
              for layer in net.layers]
    assert len(layers) == 2 * 3 * 2 * 3  # levels, blocks, nets, Dense/Relu/Dense
    assert all(layer._cache is None for layer in layers + couplings)


def test_bijectivity_random_stacks():
    for seed in range(10):
        rng = Rng(100 + seed)
        levels = int(rng.integers(1, 4))
        blocks = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 8))
        levels = min(levels, max(1, int(np.log2(dim)) + 1))
        stack = build_flow(flow_config(blocks, embedding_dim=dim, flow_levels=levels), 0, rng)
        randomize(stack, seed=200 + seed)
        initialize_batchnorms(stack, seed=300 + seed)
        z = Rng(400 + seed).normal(size=(12, dim))
        u, _ = stack.normalize(z)
        assert np.abs(stack.generate(u) - z).max() < 1e-6
        u2 = Rng(500 + seed).normal(size=(12, dim))
        z2 = stack.generate(u2)
        u_back, _ = stack.normalize(z2)
        assert np.abs(u_back - u2).max() < 1e-6


def test_multi_scale_preserves_dimensionality():
    cfg = flow_config(2, embedding_dim=10, flow_levels=3)
    stack = build_flow(cfg, 0, Rng(19))
    assert stack.level_widths == [10, 5, 2]
    assert stack.emit_widths == [5, 3, 2]
    assert sum(stack.emit_widths) == 10
    z = Rng(20).normal(size=(4, 10))
    u, _ = stack.normalize(z, train=True)
    assert u.shape == (4, 10)


@pytest.mark.parametrize("conditioning", ["none", "flow"])
def test_width_one_level_holds_no_coupling_and_stays_exact(conditioning):
    # a width-1 level has nothing to split: its blocks are a permutation
    # and a batch norm each, and the stack still inverts with the exact
    # log-determinant
    cfg = flow_config(2, embedding_dim=7, flow_levels=3, conditioning=conditioning)
    stack = build_flow(cfg, 3, Rng(60))
    assert stack.level_widths == [7, 3, 1]
    assert [[type(layer) for layer in layers] for layers in stack.levels[1:]] == [
        [Permutation, BatchNorm, Coupling] * 2, [Permutation, BatchNorm] * 2]
    randomize(stack, seed=61)
    rng = Rng(62)
    stack.normalize(rng.normal(size=(64, 7)), cond=rng.integers(0, 3, size=64), train=True)
    z = rng.normal(size=(12, 7))
    cond = rng.integers(0, 3, size=12)
    u, _ = stack.normalize(z, cond=cond)
    assert np.abs(stack.generate(u, cond=cond) - z).max() < 1e-6
    _, ld = stack.normalize(z[:1], cond=cond[:1])
    assert abs(ld[0] - numeric_logdet(stack, z[:1], cond=cond[:1])) < 1e-5


def test_level_widths_match_the_halving_loop():
    for dim in range(2, 65):
        for levels in range(1, 5):
            # the loop FlowStack and build_flow each ran before level_widths
            widths, w = [], dim
            for _ in range(levels):
                widths.append(w)
                w -= (w + 1) // 2
            assert level_widths(dim, levels) == widths
            if widths[-1] >= 1:
                stack = build_flow(flow_config(1, embedding_dim=dim, flow_levels=levels),
                                   0, Rng(dim))
                assert stack.level_widths == widths
                assert sum(stack.emit_widths) == dim


def test_conditioning_placement():
    stack = build_flow(flow_config(3, embedding_dim=8, flow_levels=2, conditioning="flow"),
                       5, Rng(21))
    conditioned = [
        (li, bi) for li, layers in enumerate(stack.levels)
        for bi, layer in enumerate(layers)
        if isinstance(layer, Coupling) and layer.cond_width
    ]
    # exactly one conditioned coupling, in the full-width level, sitting at
    # the prior side (the first coupling applied when generating)
    assert conditioned == [(0, 8)]
    assert isinstance(stack.levels[0][0], Permutation)
    assert isinstance(stack.levels[0][1], BatchNorm)


def test_flow_condition_required_and_rejected():
    stack = build_flow(flow_config(1, embedding_dim=4, flow_levels=1, conditioning="flow"),
                       3, Rng(22))
    z = Rng(24).normal(size=(2, 4))
    stack.normalize(Rng(25).normal(size=(8, 4)), cond=np.arange(8) % 3, train=True)
    for cond in BAD_CLASSES:
        with pytest.raises(ConfigurationError):
            stack.normalize(z, cond=cond)
        with pytest.raises(ConfigurationError):
            stack.generate(z, cond=cond)
    # an unconditioned flow ignores the classes
    plain = build_flow(flow_config(2, embedding_dim=4, flow_levels=1), 3, Rng(23))
    plain.params[...] = Rng(26).uniform(-0.5, 0.5, plain.params.shape)
    plain.normalize(Rng(25).normal(size=(8, 4)), train=True)
    u, logdet = plain.normalize(z)
    u_c, logdet_c = plain.normalize(z, cond=np.array([0, 2]))
    assert np.array_equal(u, u_c) and np.array_equal(logdet, logdet_c)
    assert np.array_equal(plain.generate(z), plain.generate(z, cond=np.array([0, 2])))


# ---------------------------------------------------------------------------
# NLL loss


def test_nll_identity_stack_on_standard_normal():
    stack = permutation_stack(2, seed=24)
    z = Rng(25).normal(size=(20_000, 2))
    expected = np.log(2 * np.pi * np.e)  # differential entropy, d=2
    assert -stack.log_prob(z).mean() == pytest.approx(expected, abs=0.05)


def test_nll_gradient_matches_finite_differences():
    stack = build_flow(flow_config(2, embedding_dim=4, flow_levels=1), 0, Rng(26))
    randomize(stack, seed=27)
    z = Rng(29).normal(size=(16, 4))
    # the train-mode pass holds its batch statistics constant in the
    # gradient; on fresh batch norms it also makes them the running ones,
    # which the eval-mode log_prob below reads
    with nn.gradients([stack]):
        nll_loss_and_backward(stack, z)
        pairs = array_pairs(stack)
    check_rng = Rng(30)
    h = 1e-6
    for p, g in pairs[:6]:
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in check_rng.choice(flat_p.size, size=min(4, flat_p.size), replace=False):
            orig = flat_p[k]
            flat_p[k] = orig + h
            lp = -stack.log_prob(z).mean()
            flat_p[k] = orig - h
            lm = -stack.log_prob(z).mean()
            flat_p[k] = orig
            assert rel_err(flat_g[k], (lp - lm) / (2 * h), floor=1e-6) < 1e-4


def gaussian_mixture(n, rng, centers=((-3.0, 0.0), (3.0, 0.0)), weights=(0.5, 0.5)):
    comps = rng.choice(len(weights), size=n)
    means = np.array(centers)[comps]
    return means + rng.normal(size=(n, 2)), comps


def train_flow_on(stack, data, steps, rng, cond=None, batch=128):
    losses = []
    with nn.gradients([stack]) as pairs:
        adam = nn.Adam(pairs)
        for _ in range(steps):
            idx = rng.choice(len(data), size=batch, replace=False)
            pairs[0][1][...] = 0.0
            c = cond[idx] if cond is not None else None
            losses.append(nll_loss_and_backward(stack, data[idx], cond=c))
            adam.step()
    return losses


def test_nll_training_curve_decreases_to_plateau():
    rng = Rng(31)
    data, _ = gaussian_mixture(2048, rng)
    stack = build_flow(ExperimentConfig(embedding_dim=2, flow_levels=1), 0, Rng(32))
    epoch_losses = []
    with nn.gradients([stack]) as pairs:
        adam = nn.Adam(pairs)
        for _ in range(120):
            order = rng.permutation(len(data))
            batch_losses = []
            for start in range(0, len(data), 128):
                idx = order[start:start + 128]
                pairs[0][1][...] = 0.0
                batch_losses.append(nll_loss_and_backward(stack, data[idx]))
                adam.step()
            epoch_losses.append(np.mean(batch_losses))
    smoothed = np.convolve(epoch_losses, np.ones(5) / 5, mode="valid")
    assert smoothed[-1] < smoothed[0] - 0.25
    # decreasing per epoch, up to residual mini-batch noise at the plateau
    assert (np.diff(smoothed) < 0.02).all()


def test_nll_invariant_to_appended_permutation_at_identity_init():
    rng = Rng(33)
    base_layers = [Permutation(4, rng), Coupling(4, 8, rng)]
    z = Rng(34).normal(size=(50, 4))
    before = -FlowStack([list(base_layers)], 4).log_prob(z).mean()
    extended = FlowStack([base_layers + [Permutation(4, rng)]], 4)
    assert -extended.log_prob(z).mean() == pytest.approx(before, abs=1e-12)


def test_conditioned_flow_separates_classes(monkeypatch):
    rng = Rng(35)
    data, comps = gaussian_mixture(1024, rng, centers=((-4.0, 0.0), (4.0, 0.0)))
    stack = build_flow(ExperimentConfig(embedding_dim=2, flow_levels=1,
                                        conditioning="flow"), 2, Rng(36))
    train_flow_on(stack, data, steps=800, rng=rng, cond=comps)

    # linear probe fitted on the real labelled data
    probe = nn.Network([nn.Dense(2, 2, Rng(37))])
    monkeypatch.setattr(nn.Adam, "lr", 0.01)
    with nn.gradients([probe]) as pairs:
        adam = nn.Adam(pairs)
        for _ in range(300):
            idx = rng.choice(len(data), size=128, replace=False)
            pairs[0][1][...] = 0.0
            logits = probe.forward(data[idx])
            probe.backward(nn.cross_entropy(logits, comps[idx])[1])
            adam.step()

    n = 300
    samples0 = stack.sample(n, Rng(38), cond=np.zeros(n, dtype=int))
    samples1 = stack.sample(n, Rng(39), cond=np.ones(n, dtype=int))
    score0 = probe.forward(samples0)
    score1 = probe.forward(samples1)
    auc = auc_score(score0[:, 1] - score0[:, 0], score1[:, 1] - score1[:, 0])
    assert auc > 0.9, f"AUC {auc}"
