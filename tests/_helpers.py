"""Shared test utilities: finite-difference gradient checking and small
builders used across the suite."""

import numpy as np

from prer.flow import LOG_SCALE_BOUND, FlowStack
from prer.nn import ConcatCondition, Dense, Dropout, Network, Relu
from prer.rng import Rng


def array_pairs(owner):
    """(parameter, gradient) views, one pair per Dense weight and
    bias of a network, or of every coupling net of a flow, in buffer
    order."""
    nets = owner.networks() if isinstance(owner, FlowStack) else [owner]
    return [(getattr(layer, name), g) for net in nets for layer in net.layers
            for name, g in zip(layer.param_names, layer.grads)]


def get_params(net):
    """Copies of every parameter array of a network, in buffer order."""
    return [p.copy() for p, _ in array_pairs(net)]


def layers_holding_a_cache(model):
    """(network name, layer index) of every model layer that still holds a
    cached forward pass."""
    return [(name, i) for name, net in model.all_networks().items()
            for i, layer in enumerate(net.layers) if layer._cache is not None]


class ReferenceAdam:
    """Adam run as a Python loop over separate arrays: the per-array
    update the flat optimizer must reproduce bit for bit."""

    def __init__(self, pairs, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.pairs = list(pairs)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p, _ in self.pairs]
        self.v = [np.zeros_like(p) for p, _ in self.pairs]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for (p, g), m, v in zip(self.pairs, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def same_bits(x, y) -> bool:
    """Whether two floats or float arrays are equal bit for bit: same
    shape, and -0.0 differs from 0.0."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# The loss formulas as two calls each, value and gradient apart: the
# references the one-call losses must reproduce bit for bit.

def reference_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_cross_entropy(logits, labels) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def reference_cross_entropy_grad(logits, labels):
    g = reference_softmax(logits)
    g[np.arange(len(labels)), labels] -= 1.0
    return g / len(labels)


def reference_mse(a, b) -> float:
    return float(((a - b) ** 2).mean())


def reference_mse_grad(a, b):
    return 2.0 * (a - b) / a.size


def reference_mean_cosine_distance(a, b) -> float:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    zero = (na == 0.0) | (nb == 0.0)
    denom = np.where(zero, 1.0, na * nb)
    sims = np.clip((a * b).sum(axis=1) / denom, -1.0, 1.0)
    return float((1.0 - np.where(zero, 0.0, sims)).mean())


def reference_mean_cosine_distance_grad(a, b):
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    zero = (na == 0.0) | (nb == 0.0)
    na_safe = np.where(zero, 1.0, na)
    nb_safe = np.where(zero, 1.0, nb)
    a_hat = a / na_safe
    b_hat = b / nb_safe
    cos = (a_hat * b_hat).sum(axis=1, keepdims=True)
    grad = (cos * a_hat - b_hat) / na_safe
    grad = np.where(zero, 0.0, grad)
    return grad / len(a)


def reference_coupling_backward(coupling, x, grad, grad_logdet, cond=None):
    """A coupling's normalizing forward and backward with ``tanh`` and
    ``exp`` taken again in the backward, from the raw scale output and
    the log-scales; gradients accumulate in its nets. Returns the input
    gradient."""
    a_dim = coupling.a_dim
    a, b = x[:, :a_dim], x[:, a_dim:]
    raw = coupling.scale_net.forward(a, cond=cond)
    log_s = LOG_SCALE_BOUND * np.tanh(raw)
    t = coupling.translate_net.forward(a, cond=cond)
    y_b = (b - t) * np.exp(-log_s)
    da = grad[:, :a_dim].copy()
    db_out = grad[:, a_dim:]
    d_in_b = db_out * np.exp(-log_s)
    dt = -d_in_b
    dlog_s = -db_out * y_b - grad_logdet[:, None]
    draw = dlog_s * LOG_SCALE_BOUND * (1.0 - np.tanh(raw) ** 2)
    da += coupling.scale_net.backward(draw) + coupling.translate_net.backward(dt)
    return np.concatenate([da, d_in_b], axis=1)


def rel_err(a, b, floor=1e-7):
    a, b = float(a), float(b)
    if abs(a) < floor and abs(b) < floor:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def check_network_gradients(net: Network, x, *, cond=None, train=False,
                            dropout_seed=None, h=1e-5, max_entries=8,
                            probe_seed=424242):
    """Backprop a fixed random upstream gradient through `net` and compare
    every parameter gradient (subsampled) and the input gradient against
    central finite differences of the scalar loss sum(y * w).

    `dropout_seed`, when given, rebuilds the same rng for every forward so
    stochastic layers redraw identical masks.
    """
    def fwd():
        rng = Rng(dropout_seed) if dropout_seed is not None else None
        return net.forward(x, train=train, rng=rng, cond=cond)

    probe_rng = Rng(probe_seed)
    y = fwd()
    w = probe_rng.normal(size=y.shape)

    net.grads[...] = 0.0
    dx = net.backward(w)
    if dx.ndim != np.asarray(x).ndim:
        dx = dx[0]

    worst = 0.0
    for p, g in array_pairs(net):
        flat_p = p.ravel()
        flat_g = g.ravel()
        n = flat_p.size
        idx = range(n) if n <= max_entries else probe_rng.choice(n, size=max_entries,
                                                                 replace=False)
        for k in idx:
            orig = flat_p[k]
            flat_p[k] = orig + h
            yp = fwd()
            flat_p[k] = orig - h
            ym = fwd()
            flat_p[k] = orig
            fd = float(((yp - ym) * w).sum() / (2 * h))
            worst = max(worst, rel_err(flat_g[k], fd))

    flat_x = np.asarray(x).ravel()
    flat_dx = np.asarray(dx).ravel()
    n = flat_x.size
    idx = range(n) if n <= max_entries else probe_rng.choice(n, size=max_entries,
                                                             replace=False)
    for k in idx:
        orig = flat_x[k]
        flat_x[k] = orig + h
        yp = fwd()
        flat_x[k] = orig - h
        ym = fwd()
        flat_x[k] = orig
        fd = float(((yp - ym) * w).sum() / (2 * h))
        worst = max(worst, rel_err(flat_dx[k], fd))
    return worst


def random_layer_instance(seed: int):
    """One random (network, input, kwargs) triple covering every layer kind."""
    rng = Rng(seed)
    kind = ["dense", "relu", "dropout", "concat", "mlp"][seed % 5]
    if kind == "dense":
        d_in = int(rng.integers(1, 6))
        d_out = int(rng.integers(1, 6))
        net = Network([Dense(d_in, d_out, rng)])
        x = rng.normal(size=(int(rng.integers(1, 5)), d_in))
        return net, x, {}
    if kind == "relu":
        d = int(rng.integers(1, 8))
        net = Network([Dense(d, d, rng), Relu()])
        x = rng.normal(size=(3, d))
        return net, x, {}
    if kind == "dropout":
        d = int(rng.integers(2, 8))
        net = Network([Dense(d, d, rng), Dropout()])
        x = rng.normal(size=(3, d))
        return net, x, {"train": True, "dropout_seed": seed * 31 + 7}
    if kind == "concat":
        d = int(rng.integers(1, 6))
        cw = int(rng.integers(1, 4))
        net = Network([ConcatCondition(cw), Dense(d + cw, 3, rng)])
        x = rng.normal(size=(3, d))
        cond = rng.integers(0, cw, size=3)
        return net, x, {"cond": cond}
    d = int(rng.integers(2, 6))
    hidden = int(rng.integers(2, 8))
    net = Network([Dense(d, hidden, rng), Relu(), Dense(hidden, 2, rng)])
    x = rng.normal(size=(4, d))
    return net, x, {}


def auc_score(scores_neg, scores_pos) -> float:
    """Rank-based AUC of positive scores against negative scores."""
    scores = np.concatenate([scores_neg, scores_pos])
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    n_pos = len(scores_pos)
    n_neg = len(scores_neg)
    rank_sum = ranks[n_neg:].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
