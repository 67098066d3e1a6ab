"""Shared-backbone classifier/autoencoder with per-task heads.

The backbone encoder is shared by two projection heads: one feeds the
task classifiers, the other feeds the decoder. Task heads are created
lazily when their task starts and are never trained again after it ends.
"""

import numpy as np

from .exceptions import ConfigurationError
from .nn import (
    ConcatCondition,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Network,
    Relu,
)
from .rng import Rng


class ContinualModel:
    """Backbone encoder E, projection heads, per-task classifiers and a
    decoder. ``encode_classify`` and ``encode_reconstruct`` share E and
    nothing else."""

    head_dropout = 0.2  # drop probability between hidden head layers

    def __init__(self, encoder: Network, proj_classify: Network, proj_reconstruct: Network,
                 decoder: Network, *, input_shape, embedding_dim: int,
                 head_hidden=(64, 32), decoder_conditioned=False):
        self.encoder = encoder
        self.proj_classify = proj_classify
        self.proj_reconstruct = proj_reconstruct
        self.decoder = decoder
        self.heads: dict[int, Network] = {}
        self.input_shape = tuple(input_shape)
        self.embedding_dim = int(embedding_dim)
        self.head_hidden = tuple(head_hidden)
        self.decoder_conditioned = bool(decoder_conditioned)

    # -- heads --------------------------------------------------------

    def ensure_head(self, task_id: int, n_classes: int, rng: Rng) -> Network:
        if task_id in self.heads:
            return self.heads[task_id]
        layers = []
        prev = self.embedding_dim
        for width in self.head_hidden:
            layers += [Dense(prev, width, rng), Relu(), Dropout(self.head_dropout)]
            prev = width
        layers.append(Dense(prev, n_classes, rng))
        head = Network(layers, name=f"head-{task_id}")
        self.heads[task_id] = head
        return head

    def head(self, task_id: int) -> Network:
        try:
            return self.heads[task_id]
        except KeyError:
            raise ConfigurationError(f"no classifier head exists for task {task_id}") from None

    # -- forward paths --------------------------------------------------

    def encode_classify(self, x, train=False, rng=None) -> np.ndarray:
        h = self.encoder.forward(x, train=train, rng=rng)
        return self.proj_classify.forward(h, train=train, rng=rng)

    def encode_reconstruct(self, x) -> np.ndarray:
        return self.proj_reconstruct.forward(self.encoder.forward(x))

    def decode(self, z, y=None) -> np.ndarray:
        """Images decoded from ``z``; a conditioned decoder reads the rows'
        classes ``y``."""
        flat = self.decoder.forward(z, cond=y)
        return flat.reshape((len(flat),) + self.input_shape)

    def classify(self, x, task_id: int, train=False, rng=None) -> np.ndarray:
        z = self.encode_classify(x, train=train, rng=rng)
        return self.head(task_id).forward(z, train=train, rng=rng)

    # -- bookkeeping ----------------------------------------------------

    def classifier_parameters(self, task_id: int):
        return (self.encoder.parameters() + self.proj_classify.parameters()
                + self.head(task_id).parameters())

    def autoencoder_parameters(self):
        return self.proj_reconstruct.parameters() + self.decoder.parameters()

    def all_networks(self):
        nets = {
            "encoder": self.encoder,
            "proj_classify": self.proj_classify,
            "proj_reconstruct": self.proj_reconstruct,
            "decoder": self.decoder,
        }
        for task_id, head in self.heads.items():
            nets[f"head_{task_id}"] = head
        return nets

    def param_count(self):
        return sum(net.param_count() for net in self.all_networks().values())


def _with_tail(encoder, backbone_dim, input_shape, num_classes, init: Rng,
               embedding_dim, decoder_hidden, **options) -> ContinualModel:
    """The two projections and the decoder on top of ``encoder``, drawn
    from ``init`` in that order, and the model holding them all;
    ``options`` are ContinualModel's head and conditioning keywords."""
    proj_c = Network([Dense(backbone_dim, embedding_dim, init)], name="proj-classify")
    proj_r = Network([Dense(backbone_dim, embedding_dim, init)], name="proj-reconstruct")
    dec_layers = []
    dprev = embedding_dim
    if options.get("decoder_conditioned"):
        dec_layers.append(ConcatCondition(num_classes))
        dprev += num_classes
    for width in decoder_hidden:
        dec_layers += [Dense(dprev, width, init), Relu()]
        dprev = width
    dec_layers.append(Dense(dprev, int(np.prod(input_shape)), init))
    decoder = Network(dec_layers, name="decoder")
    return ContinualModel(
        encoder, proj_c, proj_r, decoder,
        input_shape=input_shape, embedding_dim=embedding_dim, **options)


def build_mlp_model(input_shape, num_classes, rng: Rng, *, embedding_dim=16,
                    encoder_hidden=(64,), decoder_hidden=(), **options) -> ContinualModel:
    """Dense encoder/decoder pair for vector or flattened-image inputs; an
    empty ``decoder_hidden`` mirrors the encoder's widths. ``options`` are
    ContinualModel's head and conditioning keywords."""
    input_shape = tuple(input_shape)
    init = rng.fork("model-build")

    enc_layers = [Flatten()]
    prev = int(np.prod(input_shape))
    for width in encoder_hidden:
        enc_layers += [Dense(prev, width, init), Relu()]
        prev = width
    encoder = Network(enc_layers, name="encoder")
    return _with_tail(encoder, prev, input_shape, num_classes, init, embedding_dim=embedding_dim,
                      decoder_hidden=decoder_hidden or tuple(reversed(encoder_hidden)), **options)


def build_conv_model(input_shape, num_classes, rng: Rng, *, embedding_dim=100,
                     conv_channels=(8, 16), decoder_hidden=(), **options) -> ContinualModel:
    """Small convolutional backbone for image inputs (channel-major): 3x3
    kernels at stride 2, each halving the height and width, rounding up.
    An empty ``decoder_hidden`` gives the decoder one 256-wide layer."""
    input_shape = tuple(input_shape)
    if len(input_shape) != 3:
        raise ConfigurationError("conv encoder needs (channels, height, width) inputs")
    init = rng.fork("model-build")

    enc_layers = []
    prev_c = input_shape[0]
    for ch in conv_channels:
        enc_layers += [Conv2d(prev_c, ch, 3, init, stride=2), Relu()]
        prev_c = ch
    enc_layers.append(Flatten())
    encoder = Network(enc_layers, name="encoder")
    backbone_dim = encoder.forward(np.zeros((1,) + input_shape)).shape[1]
    return _with_tail(encoder, backbone_dim, input_shape, num_classes, init,
                      embedding_dim=embedding_dim, decoder_hidden=decoder_hidden or (256,),
                      **options)
