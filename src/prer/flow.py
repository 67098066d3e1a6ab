"""Invertible multi-scale stack of permutation / batch-norm / coupling blocks.

Each layer has one method per direction. ``apply`` normalizes: it maps
data (embeddings) to the isotropic normal prior, for density evaluation
and training, with exact per-sample log-determinants, which keep the
log-likelihood tractable. ``invert`` generates: it maps prior draws back
to data space for sampling and returns only the rows.

Backpropagation exists only for the normalizing direction (the one that
is trained). Batch statistics inside the batch-norm layers are treated
as constants in the gradient.

Layer cache slots serve the single training thread: a backward pass must
follow its own forward pass. Concurrent sampling or density evaluation
on a frozen stack returns correct values regardless (results never read
the caches), training concurrently with anything is not supported.
"""

import numpy as np

from .exceptions import ConfigurationError, DivergenceError, StateError
from .nn import ConcatCondition, Dense, Network, Relu, bind_slices
from .rng import Rng

LOG_2PI = float(np.log(2.0 * np.pi))

# tanh bound on log-scales; keeps exp(log s) in a sane range so a badly
# initialized or diverging net cannot blow up the whole stack
LOG_SCALE_BOUND = 2.0


class Permutation:
    """Fixed random reordering of the dimensions. Volume preserving.

    The draw is rejected while it maps the pass-through half of the
    following coupling onto itself: a permutation that shuffles within
    the halves would leave the next block transforming the same
    coordinates again, which for small widths happens often enough to
    cripple the stack (at width 2 a uniform draw is the identity half
    the time).
    """

    def __init__(self, dim: int, rng: Rng):
        self.dim = int(dim)
        half = set(range((dim + 1) // 2))
        self.perm = rng.permutation(dim)
        if dim > 1:
            for _ in range(100):
                if set(int(p) for p in self.perm[:len(half)]) != half:
                    break
                self.perm = rng.permutation(dim)
        self.inv = np.argsort(self.perm)

    def apply(self, x, cond=None, train=False):
        return x[:, self.perm], np.zeros(len(x))

    def invert(self, y, cond=None):
        return y[:, self.inv]

    def backward_normalizing(self, grad, grad_logdet):
        return grad[:, self.inv]


class BatchNorm:
    """Per-dimension normalization with running statistics, no trainable
    affine part. Invertible with a closed-form log-determinant.

    Train mode normalizes with the current batch statistics and then
    folds them into the running estimates (the very first batch simply
    initializes them). Eval mode and ``invert`` always use the running
    statistics.
    """

    momentum = 0.1  # weight of the new batch
    eps = 1e-5

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.initialized = False
        self._cache = None

    def _require_init(self):
        if not self.initialized:
            raise StateError("batch norm used in eval/generating mode before any statistics exist")

    def apply(self, x, cond=None, train=False):
        if train:
            n = len(x)
            if n < 2:
                raise ConfigurationError("batch norm needs batch size >= 2 in train mode")
            # numpy's mean and variance formulas, bit for bit, with the
            # sum and the centring taken once
            mean = x.sum(axis=0) / n
            centred = x - mean
            var = (centred ** 2).sum(axis=0) / n
            if not self.initialized:
                self.mean[...] = mean
                self.var[...] = var
                self.initialized = True
            else:
                m = self.momentum
                self.mean[...] = (1.0 - m) * self.mean + m * mean
                self.var[...] = (1.0 - m) * self.var + m * var
        else:
            self._require_init()
            mean, var = self.mean, self.var
            centred = x - mean
        var_eps = var + self.eps
        self._cache = np.sqrt(var_eps)
        return centred / self._cache, np.full(len(x), -0.5 * float(np.log(var_eps).sum()))

    def invert(self, y, cond=None):
        self._require_init()
        return y * np.sqrt(self.var + self.eps) + self.mean

    def backward_normalizing(self, grad, grad_logdet):
        # batch statistics are constants for the gradient, so the logdet
        # term contributes nothing and the map is a fixed rescaling
        if self._cache is None:
            raise StateError("BatchNorm.backward called without a cached forward pass")
        denom, self._cache = self._cache, None
        return grad / denom


class Coupling:
    """Affine coupling: the first chunk passes through untouched and
    parameterizes an elementwise scale/shift of the second chunk.

    The scale/translation nets are two-layer MLPs; the raw scale output
    is squashed through tanh into [-LOG_SCALE_BOUND, LOG_SCALE_BOUND].
    Their final layers start at zero so a fresh coupling is the identity.
    It needs a width of at least 2, so that the second chunk is not empty.
    With ``cond_width`` classes the nets also read the one-hot of each
    row's class ``cond``; without, ``cond`` is ignored.
    """

    def __init__(self, dim: int, hidden: int, rng: Rng, cond_width: int = 0):
        self.dim = int(dim)
        self.hidden = int(hidden)
        self.cond_width = int(cond_width)
        self.a_dim = (dim + 1) // 2
        self.b_dim = dim // 2
        in_dim = self.a_dim + self.cond_width
        # each net reads the class through a ConcatCondition of its own,
        # since a layer caches its own forward pass
        self.scale_net, self.translate_net = (
            Network(([ConcatCondition(cond_width)] if cond_width else [])
                    + [Dense(in_dim, hidden, rng), Relu(), Dense(hidden, self.b_dim, rng)],
                    name=name)
            for name in ("coupling-scale", "coupling-translate"))
        for net in (self.scale_net, self.translate_net):
            last = net.layers[-1]
            last.w[...] = 0.0
            last.b[...] = 0.0
        self._cache = None

    def apply(self, x, cond=None, train=False):
        a, b = x[:, :self.a_dim], x[:, self.a_dim:]
        tanh_raw = np.tanh(self.scale_net.forward(a, cond=cond))
        log_s = LOG_SCALE_BOUND * tanh_raw
        if not np.isfinite(log_s).all():
            raise DivergenceError("coupling produced non-finite log-scales")
        t = self.translate_net.forward(a, cond=cond)
        inv_s = np.exp(-log_s)
        out_b = (b - t) * inv_s
        self._cache = (tanh_raw, inv_s, out_b)
        return np.concatenate([a, out_b], axis=1), -log_s.sum(axis=1)

    def invert(self, y, cond=None):
        # sampling is never backpropagated: what a net or a normalizing
        # pass cached would only keep a large sample's activations resident,
        # so each net forgets its own before the next one runs
        a, b = y[:, :self.a_dim], y[:, self.a_dim:]
        tanh_raw = np.tanh(self.scale_net.forward(a, cond=cond))
        self.scale_net.drop_caches()
        log_s = LOG_SCALE_BOUND * tanh_raw
        if not np.isfinite(log_s).all():
            raise DivergenceError("coupling produced non-finite log-scales")
        t = self.translate_net.forward(a, cond=cond)
        self.translate_net.drop_caches()
        self._cache = None
        return np.concatenate([a, np.exp(log_s) * b + t], axis=1)

    def backward_normalizing(self, grad, grad_logdet):
        if self._cache is None:
            raise StateError("Coupling.backward called without a cached normalizing pass")
        tanh_raw, inv_s, y_b = self._cache
        self._cache = None
        da = grad[:, :self.a_dim].copy()
        db_out = grad[:, self.a_dim:]
        d_in_b = db_out * inv_s
        dt = -d_in_b
        dlog_s = -db_out * y_b - grad_logdet[:, None]
        draw = dlog_s * LOG_SCALE_BOUND * (1.0 - tanh_raw ** 2)
        da += self.scale_net.backward(draw) + self.translate_net.backward(dt)
        return np.concatenate([da, d_in_b], axis=1)

    def networks(self):
        return [self.scale_net, self.translate_net]


def level_widths(dim: int, levels: int) -> list:
    """The width entering each level of a multi-scale flow on ``dim``
    dimensions: every level halves what the one before kept, rounding down."""
    return [dim // 2 ** lvl for lvl in range(levels)]


class FlowStack:
    """Levels of invertible blocks with multi-scale splits and an
    isotropic standard-normal prior over the concatenated outputs.

    At the end of every non-final level the vector is split: the first
    half is emitted straight to the output, the rest continues into the
    next level. The emitted chunks concatenated in level order form the
    prior variable, so the total dimensionality never changes. All
    coupling nets live in two flat vectors, ``params`` and ``grads``.
    Every layer receives the rows' classes ``cond``; only a conditioned
    coupling reads them.
    """

    def __init__(self, levels, dim: int):
        self.levels = [list(lvl) for lvl in levels]
        self.dim = int(dim)
        self.level_widths = level_widths(self.dim, len(self.levels))
        # each level but the last emits the larger half of its width
        self.emit_widths = [w - rest for w, rest in zip(self.level_widths, self.level_widths[1:])]
        self.emit_widths.append(self.level_widths[-1])
        self.params, self.grads = bind_slices(self.networks())

    def normalize(self, z, cond=None, train=False):
        """Data to prior. Returns (u, per-sample log-determinant)."""
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ConfigurationError(
                f"flow expects (batch, {self.dim}) input, got shape {z.shape}")
        h = z
        logdet = np.zeros(len(z))
        outs = []
        for lvl, layers in enumerate(self.levels):
            for i, layer in enumerate(layers):
                try:
                    h, ld = layer.apply(h, cond=cond, train=train)
                except DivergenceError as err:
                    raise DivergenceError(f"level {lvl}, layer {i}: {err}") from None
                logdet += ld
            if lvl < len(self.levels) - 1:
                emit = self.emit_widths[lvl]
                outs.append(h[:, :emit])
                h = h[:, emit:]
        outs.append(h)
        return np.concatenate(outs, axis=1), logdet

    def _walk_back(self, u, step):
        """Carry the prior-side array ``u`` back through the levels, last
        layer first, as ``h = step(layer, h)``; before each level but the
        last, the chunk that level emitted is put back in front."""
        chunks = np.split(u, np.cumsum(self.emit_widths)[:-1], axis=1)
        h = chunks[-1]
        for lvl in range(len(self.levels) - 1, -1, -1):
            for layer in reversed(self.levels[lvl]):
                h = step(layer, h)
            if lvl > 0:
                h = np.concatenate([chunks[lvl - 1], h], axis=1)
        return h

    def generate(self, u, cond=None):
        """Prior to data, using running batch-norm statistics."""
        if u.ndim != 2 or u.shape[1] != self.dim:
            raise ConfigurationError(
                f"flow expects (batch, {self.dim}) input, got shape {u.shape}")
        return self._walk_back(u, lambda layer, h: layer.invert(h, cond=cond))

    def backward_normalizing(self, grad_u, grad_logdet):
        """Backpropagate through the cached normalizing pass.

        grad_u is the loss gradient w.r.t. the prior variable, grad_logdet
        the per-sample gradient w.r.t. the accumulated log-determinant.
        Parameter gradients accumulate inside the coupling nets; the
        return value is the gradient w.r.t. the flow input.
        """
        return self._walk_back(
            grad_u, lambda layer, g: layer.backward_normalizing(g, grad_logdet))

    def log_prob(self, z, cond=None):
        """Per-sample log-density under the flow, with running batch-norm
        statistics."""
        u, logdet = self.normalize(z, cond=cond)
        log_prior = -0.5 * (u ** 2).sum(axis=1) - 0.5 * self.dim * LOG_2PI
        return log_prior + logdet

    def sample(self, n: int, rng: Rng, cond=None):
        u = rng.normal(size=(n, self.dim))
        return self.generate(u, cond=cond)

    def networks(self):
        """The coupling nets, in level and layer order: the layout of the
        flat buffers."""
        return [net for layers in self.levels for layer in layers
                if isinstance(layer, Coupling) for net in layer.networks()]

    def parameters(self):
        return [(self.params, self.grads)]

    def batch_norms(self):
        return [layer for layers in self.levels for layer in layers
                if isinstance(layer, BatchNorm)]

    def param_count(self):
        return self.params.size


def nll_loss_and_backward(stack: FlowStack, z, cond=None) -> float:
    """One train-mode NLL forward/backward pass; gradients accumulate in the stack."""
    u, logdet = stack.normalize(z, cond=cond, train=True)
    n = len(z)
    nll = 0.5 * (u ** 2).sum(axis=1) + 0.5 * stack.dim * LOG_2PI - logdet
    grad_u = u / n
    grad_logdet = np.full(n, -1.0 / n)
    stack.backward_normalizing(grad_u, grad_logdet)
    return float(nll.mean())


def build_flow(cfg, num_classes: int, rng: Rng) -> FlowStack:
    """The flow an ``ExperimentConfig`` describes: ``cfg.flow_levels``
    levels of ``cfg.flow_blocks`` blocks on ``cfg.embedding_dim`` inputs,
    each block permutation -> batch norm -> coupling in normalizing order,
    a coupling on width w having ``cfg.flow_hidden_multiplier * w`` hidden
    units. A width-1 level has nothing to split and holds no coupling.

    Under ``cfg.flow_conditioned`` exactly one coupling reads the class
    one-hot of ``num_classes``: the first one met walking from the prior
    to the data, i.e. the last coupling of the full-width level 0. There
    every remaining block spreads the class over all dimensions during
    sampling; at the data side it would only steer the transformed half."""
    level_layers = []
    for lvl, w in enumerate(level_widths(cfg.embedding_dim, cfg.flow_levels)):
        layers = []
        for blk in range(cfg.flow_blocks):
            layers += [Permutation(w, rng), BatchNorm(w)]
            if w > 1:
                conditioned = cfg.flow_conditioned and lvl == 0 and blk == cfg.flow_blocks - 1
                layers.append(Coupling(w, cfg.flow_hidden_multiplier * w, rng,
                                       cond_width=num_classes if conditioned else 0))
        level_layers.append(layers)
    return FlowStack(level_layers, cfg.embedding_dim)
