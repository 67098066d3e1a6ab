"""Shared-backbone classifier/autoencoder with per-task heads.

The model reads and decodes (rows, input_dim) arrays. The backbone
encoder, a stack of Dense layers, is shared by two projection heads: one
feeds the task classifiers, the other feeds the decoder. Task heads are
created lazily when their task starts and are never trained again after
it ends.
``build_model`` is the one builder: it builds the model a config describes.

A forward path caches what its backward pass consumes only under
``train=True``, which ``encode_classify`` takes for the classifier
phase. Every other path is never backpropagated and writes no layer
state, so an evaluation keeps none of its rows or activations alive.
"""

import numpy as np

from .exceptions import ConfigurationError
from .nn import ConcatCondition, Dense, Dropout, Network, Relu
from .rng import Rng


class ContinualModel:
    """Backbone encoder E, projection heads, per-task classifiers and a
    decoder. ``encode_classify`` and ``encode_reconstruct`` share E and
    nothing else."""

    def __init__(self, encoder: Network, proj_classify: Network, proj_reconstruct: Network,
                 decoder: Network, *, input_dim: int, embedding_dim: int, head_hidden):
        self.encoder = encoder
        self.proj_classify = proj_classify
        self.proj_reconstruct = proj_reconstruct
        self.decoder = decoder
        self.heads: dict[int, Network] = {}
        self.input_dim = int(input_dim)
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

    def encode_classify(self, x, train=False) -> np.ndarray:
        return self.proj_classify.forward(self.encoder.forward(x, train=train), train=train)

    def encode_reconstruct(self, x) -> np.ndarray:
        return self.proj_reconstruct.forward(self.encoder.forward(x))

    def decode(self, z, y=None) -> np.ndarray:
        """Rows decoded from ``z``; a conditioned decoder reads the rows'
        classes ``y``."""
        return self.decoder.forward(z, cond=y)

    def classify(self, x, task_id: int) -> np.ndarray:
        return self.head(task_id).forward(self.encode_classify(x))

    # -- bookkeeping ----------------------------------------------------

    def classifier_networks(self, task_id: int):
        """The networks the classifier phase of task ``task_id`` trains."""
        return [self.encoder, self.proj_classify, self.head(task_id)]

    def autoencoder_networks(self):
        """The networks the autoencoder phase trains."""
        return [self.proj_reconstruct, self.decoder]

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


def build_model(cfg, input_dim, num_classes, rng: Rng) -> ContinualModel:
    """The model an ``ExperimentConfig`` describes for rows of ``input_dim``
    features: encoder, both projections, then decoder, drawn from one
    ``"model-build"`` fork. The encoder is Dense layers of
    ``cfg.encoder_hidden`` widths, and the decoder mirrors them."""
    init = rng.fork("model-build")
    layers = []
    backbone_dim = input_dim
    for width in cfg.encoder_hidden:
        layers += [Dense(backbone_dim, width, init), Relu()]
        backbone_dim = width
    encoder = Network(layers, name="encoder")
    proj_c = Network([Dense(backbone_dim, cfg.embedding_dim, init)], name="proj-classify")
    proj_r = Network([Dense(backbone_dim, cfg.embedding_dim, init)], name="proj-reconstruct")
    layers = []
    prev = cfg.embedding_dim
    if cfg.decoder_conditioned:
        layers.append(ConcatCondition(num_classes))
        prev += num_classes
    for width in reversed(cfg.encoder_hidden):
        layers += [Dense(prev, width, init), Relu()]
        prev = width
    layers.append(Dense(prev, input_dim, init))
    decoder = Network(layers, name="decoder")
    return ContinualModel(
        encoder, proj_c, proj_r, decoder, input_dim=input_dim,
        embedding_dim=cfg.embedding_dim, head_hidden=cfg.head_hidden)
