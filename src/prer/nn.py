"""Dense network substrate with hand-written backpropagation.

Everything runs in float64 on (rows, features) arrays. Layers cache
their most recent forward pass; ``backward`` consumes the cache and
accumulates parameter gradients in place, so several loss terms can be
backpropagated before a single optimizer step. There is no general
autodiff: a network is an ordered list of layers and gradients flow back
through that list only. Each loss returns its value and its gradient
from one pass over the shared intermediates.
"""

import logging

import numpy as np

from .exceptions import ConfigurationError, StateError
from .rng import Rng

log = logging.getLogger(__name__)

_zero_cosine_logged = False


def reset_run_warnings():
    """Re-arm warnings that are emitted at most once per run."""
    global _zero_cosine_logged
    _zero_cosine_logged = False


def glorot_uniform(fan_in, fan_out, shape, rng: Rng) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def one_hot(labels, width: int) -> np.ndarray:
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= width):
        raise ConfigurationError(f"labels out of range for one-hot width {width}")
    out = np.zeros((len(labels), width))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class Layer:
    """Base layer. The attributes named in ``param_names`` hold its
    parameters; once its network binds it, they and ``grads`` are views
    of the network's flat buffers. ``forward`` receives the rows'
    classes ``cond`` as it receives ``rng``: only a layer that needs
    them reads them."""

    param_names = ()

    def __init__(self):
        self.grads: list[np.ndarray] = []
        self._cache = None

    def forward(self, x, train=False, rng=None, cond=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise StateError(
                f"{type(self).__name__}.backward called without a cached forward pass"
            )
        cache, self._cache = self._cache, None
        return cache

    def bind(self, params, grads):
        """Copy the parameters into the 1-D buffer ``params``; they and
        ``grads`` become reshaped views of the two buffers."""
        self.grads, start = [], 0
        for name in self.param_names:
            value = getattr(self, name)
            view = params[start:start + value.size].reshape(value.shape)
            view[...] = value
            setattr(self, name, view)
            self.grads.append(grads[start:start + value.size].reshape(value.shape))
            start += value.size

    def param_count(self) -> int:
        return sum(getattr(self, name).size for name in self.param_names)


def bind_slices(parts, params=None, grads=None):
    """Bind each part (a layer or a network) to its consecutive slice of
    the 1-D buffers ``params`` and ``grads``, which are allocated, the
    gradients zeroed, when not given; returns both."""
    if params is None:
        n = sum(part.param_count() for part in parts)
        params, grads = np.empty(n), np.zeros(n)
    start = 0
    for part in parts:
        stop = start + part.param_count()
        part.bind(params[start:stop], grads[start:stop])
        start = stop
    return params, grads


class Dense(Layer):
    """Affine map y = x W^T + b with weight shape (out, in)."""

    param_names = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, rng: Rng):
        super().__init__()
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.w = glorot_uniform(in_dim, out_dim, (out_dim, in_dim), rng)
        self.b = np.zeros(out_dim)

    def forward(self, x, train=False, rng=None, cond=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"expected input of width {self.in_dim}, got shape {x.shape}"
            )
        self._cache = x
        return x @ self.w.T + self.b

    def backward(self, grad, *, input_grad=True):
        x = self._take_cache()
        self.grads[0] += grad.T @ x
        self.grads[1] += grad.sum(axis=0)
        return grad @ self.w if input_grad else None


class Relu(Layer):
    def forward(self, x, train=False, rng=None, cond=None):
        self._cache = x > 0
        return np.maximum(x, 0.0)  # NaN stays NaN; -0.0 becomes 0.0

    def backward(self, grad):
        # np.where(mask, grad, 0.0) bit for bit (NaN, inf and -0.0
        # included) as an AND of grad's bits with 0 or -1 per element;
        # the cast happens here so eval-only forwards pay nothing for it.
        # The AND allocates its output as np.where does, in the memory
        # order both inputs imply: later sums depend on that order.
        keep = self._take_cache().astype(np.int64)
        np.negative(keep, out=keep)
        return np.bitwise_and(grad.view(np.int64), keep).view(np.float64)


class Dropout(Layer):
    """Inverted dropout: training scales kept units by 1/keep so that
    evaluation mode is the identity."""

    drop_prob = 0.2

    def forward(self, x, train=False, rng=None, cond=None):
        if not train:
            self._cache = 1.0
            return x
        if rng is None:
            raise ConfigurationError("dropout in train mode needs an rng")
        keep = 1.0 - self.drop_prob
        mask = (rng.random(x.shape) >= self.drop_prob) / keep
        self._cache = mask
        return x * mask

    def backward(self, grad):
        mask = self._take_cache()
        return grad * mask


class ConcatCondition(Layer):
    """Appends the one-hot of each row's class ``cond``, one class per
    row, to the features."""

    def __init__(self, num_classes: int):
        super().__init__()
        self.num_classes = int(num_classes)

    def forward(self, x, train=False, rng=None, cond=None):
        if cond is None or np.shape(cond) != (len(x),):
            got = "none" if cond is None else f"shape {np.shape(cond)}"
            raise ConfigurationError(f"a conditioned layer needs one class per row, got {got}")
        self._cache = x.shape[1]
        return np.concatenate([x, one_hot(cond, self.num_classes)], axis=1)

    def backward(self, grad):
        width = self._take_cache()
        return grad[:, :width]


class Network:
    """An ordered stack of layers sharing one forward/backward pass; the
    layers view its two flat vectors, ``params`` and ``grads``."""

    def __init__(self, layers, name="net"):
        self.layers = list(layers)
        self.name = name
        self.params, self.grads = bind_slices(self.layers)
        # the lowest layer with parameters, where a backward pass that
        # needs no input gradient stops
        self._lowest_trained = next(
            (i for i, l in enumerate(self.layers) if l.param_names), len(self.layers))

    def forward(self, x, train=False, rng=None, cond=None):
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x, train=train, rng=rng, cond=cond)
            except ValueError as err:
                raise ConfigurationError(
                    f"{self.name}: layer {i} ({type(layer).__name__}): {err}"
                ) from err
        return x

    def backward(self, grad, *, input_grad=True):
        """Accumulate the parameter gradients of the cached pass and return
        the input gradient. With ``input_grad=False`` the pass stops at
        the lowest layer with parameters, which skips its input product;
        the caches below it are dropped and None is returned."""
        if input_grad:
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        low = self._lowest_trained
        for layer in reversed(self.layers[low + 1:]):
            grad = layer.backward(grad)
        if low < len(self.layers):
            self.layers[low].backward(grad, input_grad=False)
        for layer in self.layers[:low]:
            layer._cache = None
        return None

    def bind(self, params, grads):
        """Move the network into 1-D ``params`` and ``grads`` buffers."""
        self.params, self.grads = bind_slices(self.layers, params, grads)

    def parameters(self):
        return [(self.params, self.grads)]

    def drop_caches(self):
        """Forget every layer's cached forward pass, for a pass that will
        never be backpropagated."""
        for layer in self.layers:
            layer._cache = None

    def param_count(self):
        return self.params.size


# ---------------------------------------------------------------------------
# losses


def cross_entropy(logits, labels):
    """Mean negative log-softmax of the true class, and its gradient
    w.r.t. the logits."""
    rows = np.arange(len(labels))
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1, keepdims=True)
    loss = float(-(z[rows, labels] - np.log(sums[:, 0])).mean())
    grad = e / sums
    grad[rows, labels] -= 1.0
    return loss, grad / len(labels)


def mse(a, b):
    """Mean squared elementwise difference, and its gradient w.r.t. ``a``."""
    diff = a - b
    return float((diff ** 2).mean()), 2.0 * diff / a.size


def _warn_zero_vector():
    global _zero_cosine_logged
    if not _zero_cosine_logged:
        log.warning("cosine distance saw a zero vector; treating it as orthogonal (distance 1)")
        _zero_cosine_logged = True


def _cosine_parts(a, b):
    """Per-row cosine similarity of two (n, d) arrays, zero rows giving 0,
    with the row norms of each and the mask of rows where one is zero."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    zero = (na == 0.0) | (nb == 0.0)
    if zero.any():
        _warn_zero_vector()
    denom = np.where(zero, 1.0, na * nb)
    sims = np.clip((a * b).sum(axis=1) / denom, -1.0, 1.0)
    return np.where(zero, 0.0, sims), na, nb, zero


def row_cosine_similarity(a, b) -> np.ndarray:
    """Per-row cosine similarity of two (n, d) arrays; zero rows give 0."""
    return _cosine_parts(a, b)[0]


def mean_cosine_distance(a, b):
    """Mean over rows of (1 - cosine similarity), and its gradient w.r.t.
    ``a``; a row where either vector is zero has distance 1 and no
    gradient."""
    sims, na, nb, zero = _cosine_parts(a, b)
    loss = float((1.0 - sims).mean())
    zero = zero[:, None]
    na_safe = np.where(zero, 1.0, na[:, None])
    a_hat = a / na_safe
    b_hat = b / np.where(zero, 1.0, nb[:, None])
    cos = (a_hat * b_hat).sum(axis=1, keepdims=True)
    grad = np.where(zero, 0.0, (cos * a_hat - b_hat) / na_safe)
    return loss, grad / len(a)


# ---------------------------------------------------------------------------
# optimizer

# floats per slice of an in-place Adam update: the two scratch vectors
# (2 x 128 kB) stay in cache
ADAM_CHUNK = 2 ** 14


class Adam:
    """Adam with bias correction over a fixed list of (param, grad) pairs:
    the flat buffers of the networks, or the flow, that a phase trains.

    Each step updates the buffers in place, ADAM_CHUNK floats at a time,
    through two scratch vectors allocated once; the operations and their
    order are those of the whole-array formula, so the bits are too."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    lr = 0.001

    def __init__(self, param_grad_pairs):
        self.pairs = list(param_grad_pairs)
        # gradients are only ever updated in place, so shapes checked
        # here hold for every step
        for p, g in self.pairs:
            if g.shape != p.shape:
                raise ConfigurationError(
                    f"gradient shape {g.shape} does not match parameter shape {p.shape}"
                )
            if p.ndim != 1:
                raise ConfigurationError(f"Adam takes 1-D buffers, got shape {p.shape}")
        self.t = 0
        self.m = [np.zeros_like(p) for p, _ in self.pairs]
        self.v = [np.zeros_like(p) for p, _ in self.pairs]
        # every chunk's views, taken once: the buffers never move
        width = min(max((p.size for p, _ in self.pairs), default=0), ADAM_CHUNK)
        s, t = np.empty(width), np.empty(width)
        self._chunks = []
        for (p, g), m, v in zip(self.pairs, self.m, self.v):
            for lo in range(0, p.size, ADAM_CHUNK):
                cut = slice(lo, lo + ADAM_CHUNK)
                n = p[cut].size
                self._chunks.append((p[cut], g[cut], m[cut], v[cut], s[:n], t[:n]))

    def step(self):
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1.0 - b1, 1.0 - b2
        b1c = 1.0 - b1 ** self.t
        b2c = 1.0 - b2 ** self.t
        for p, g, m, v, s, t in self._chunks:
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, c1, out=s)
            m += s
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(g, c2, out=s)
            s *= g
            v += s
            # p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
            np.divide(m, b1c, out=s)
            s *= lr
            np.divide(v, b2c, out=t)
            np.sqrt(t, out=t)
            t += eps
            s /= t
            p -= s
