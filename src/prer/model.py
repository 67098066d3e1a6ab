"""Shared-backbone classifier/autoencoder with per-task heads.

The backbone encoder is shared by two projection heads: one feeds the
task classifiers, the other feeds the decoder. Task heads are created
lazily when their task starts and are never trained again after it ends.
``build_model`` is the one builder: it builds the model a config describes.
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

    def __init__(self, encoder: Network, proj_classify: Network, proj_reconstruct: Network,
                 decoder: Network, *, input_shape, embedding_dim: int, head_hidden):
        self.encoder = encoder
        self.proj_classify = proj_classify
        self.proj_reconstruct = proj_reconstruct
        self.decoder = decoder
        self.heads: dict[int, Network] = {}
        self.input_shape = tuple(input_shape)
        self.embedding_dim = int(embedding_dim)
        self.head_hidden = tuple(head_hidden)

    # -- heads --------------------------------------------------------

    def ensure_head(self, task_id: int, n_classes: int, rng: Rng) -> Network:
        if task_id in self.heads:
            return self.heads[task_id]
        layers = []
        prev = self.embedding_dim
        for width in self.head_hidden:
            layers += [Dense(prev, width, rng), Relu(), Dropout()]
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

    def encode_classify(self, x) -> np.ndarray:
        return self.proj_classify.forward(self.encoder.forward(x))

    def encode_reconstruct(self, x) -> np.ndarray:
        return self.proj_reconstruct.forward(self.encoder.forward(x))

    def decode(self, z, y=None) -> np.ndarray:
        """Images decoded from ``z``; a conditioned decoder reads the rows'
        classes ``y``."""
        flat = self.decoder.forward(z, cond=y)
        return flat.reshape((len(flat),) + self.input_shape)

    def classify(self, x, task_id: int, train=False, rng=None) -> np.ndarray:
        return self.head(task_id).forward(self.encode_classify(x), train=train, rng=rng)

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


def build_model(cfg, input_shape, num_classes, rng: Rng) -> ContinualModel:
    """The model an ``ExperimentConfig`` describes: encoder, both
    projections, then decoder, drawn from one ``"model-build"`` fork. The
    mlp encoder is Dense layers of ``cfg.encoder_hidden`` widths; the conv
    encoder reads channel-major images, one 3x3 stride-2 kernel per
    ``cfg.conv_channels`` entry, each halving the height and width,
    rounding up. An empty ``cfg.decoder_hidden`` mirrors the mlp widths,
    and gives one 256-wide layer under conv."""
    input_shape = tuple(input_shape)
    init = rng.fork("model-build")
    if cfg.encoder == "mlp":
        layers = [Flatten()]
        backbone_dim = int(np.prod(input_shape))
        for width in cfg.encoder_hidden:
            layers += [Dense(backbone_dim, width, init), Relu()]
            backbone_dim = width
        encoder = Network(layers, name="encoder")
        decoder_hidden = cfg.decoder_hidden or tuple(reversed(cfg.encoder_hidden))
    else:
        if len(input_shape) != 3:
            raise ConfigurationError("conv encoder needs (channels, height, width) inputs")
        layers = []
        prev_c = input_shape[0]
        for ch in cfg.conv_channels:
            layers += [Conv2d(prev_c, ch, init), Relu()]
            prev_c = ch
        encoder = Network(layers + [Flatten()], name="encoder")
        backbone_dim = encoder.forward(np.zeros((1,) + input_shape)).shape[1]
        decoder_hidden = cfg.decoder_hidden or (256,)
    proj_c = Network([Dense(backbone_dim, cfg.embedding_dim, init)], name="proj-classify")
    proj_r = Network([Dense(backbone_dim, cfg.embedding_dim, init)], name="proj-reconstruct")
    layers = []
    prev = cfg.embedding_dim
    if cfg.decoder_conditioned:
        layers.append(ConcatCondition(num_classes))
        prev += num_classes
    for width in decoder_hidden:
        layers += [Dense(prev, width, init), Relu()]
        prev = width
    layers.append(Dense(prev, int(np.prod(input_shape)), init))
    decoder = Network(layers, name="decoder")
    return ContinualModel(
        encoder, proj_c, proj_r, decoder, input_shape=input_shape,
        embedding_dim=cfg.embedding_dim, head_hidden=cfg.head_hidden)
