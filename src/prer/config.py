"""Experiment configuration: a flat key = value text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Lists are comma separated. The exact key set is documented in the README
and in the field list below; unknown keys are rejected so typos fail
loudly.
"""

import hashlib
from dataclasses import dataclass, field, fields

from .exceptions import ConfigurationError
from .pipeline import STRATEGIES, TrainConfig

CONDITIONING_MODES = ("both", "decoder", "flow", "none")
_NOT_HASHED = {"out_dir", "seeds", "checkpoints"}


@dataclass
class ExperimentConfig:
    dataset: str = "blobs:classes=10,dim=20,sep=6,per_class=200"
    c_m: int = 2
    strategy: str = "prer"
    seeds: tuple = (1, 2, 3, 4, 5)
    conditioning: str = "decoder"

    # model
    encoder: str = "mlp"
    encoder_hidden: tuple = (64,)
    conv_channels: tuple = (8, 16)
    decoder_hidden: tuple = ()          # empty: mirror encoder_hidden
    embedding_dim: int = 16
    head_hidden: tuple = (64, 32)
    head_dropout: float = 0.2

    # training
    classifier_epochs: int = 20
    ae_max_epochs: int = 150
    flow_max_epochs: int = 150
    patience: int = 5
    min_delta: float = 1e-4
    beta: float = 1.0
    memory_size: int = 200
    replay_fraction: float = 0.5
    batch_size: int = 64
    lr: float = 0.001
    validation_fraction: float = 0.1

    # flow topology
    flow_levels: int = 1
    flow_blocks: int = 5
    flow_hidden_multiplier: int = 2
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    flow_bounds_override: bool = False

    # evaluation / output
    coverage_cap: int = 500
    out_dir: str = "runs"
    checkpoints: bool = False

    def validate(self):
        if not self.seeds:
            raise ConfigurationError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.conditioning not in CONDITIONING_MODES:
            raise ConfigurationError(f"unknown conditioning mode {self.conditioning!r}")
        if self.c_m <= 1:
            raise ConfigurationError("c_m must be > 1")
        if self.encoder not in ("mlp", "conv"):
            raise ConfigurationError(f"unknown encoder kind {self.encoder!r}")
        if not self.flow_bounds_override:
            if not 1 <= self.flow_levels <= 3:
                raise ConfigurationError(
                    "flow_levels outside 1..3; set flow_bounds_override = true to allow"
                )
            if not 5 <= self.flow_blocks <= 10:
                raise ConfigurationError(
                    "flow_blocks outside 5..10; set flow_bounds_override = true to allow"
                )
        self.train_config()  # validates the shared fields
        return self

    @property
    def decoder_conditioned(self):
        return self.conditioning in ("both", "decoder")

    @property
    def flow_conditioned(self):
        return self.conditioning in ("both", "flow")

    def train_config(self, strategy=None) -> TrainConfig:
        return TrainConfig(
            strategy=strategy or self.strategy,
            classifier_epochs=self.classifier_epochs,
            ae_max_epochs=self.ae_max_epochs,
            flow_max_epochs=self.flow_max_epochs,
            patience=self.patience,
            min_delta=self.min_delta,
            beta=self.beta,
            memory_size=self.memory_size,
            replay_fraction=self.replay_fraction,
            batch_size=self.batch_size,
            lr=self.lr,
            validation_fraction=self.validation_fraction,
        ).validate()

    def canonical_text(self) -> str:
        """The fields that can change a record, one ``key = value`` line
        each. Where records go, which seeds a sweep runs and whether
        checkpoints are kept leave every record as it is, so they are
        left out: the hash names the experiment, not the run."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in _NOT_HASHED:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.blake2b(self.canonical_text().encode(), digest_size=8).hexdigest()


_INT_TUPLES = {"seeds", "encoder_hidden", "conv_channels", "decoder_hidden", "head_hidden"}
_BOOLS = {"flow_bounds_override", "checkpoints"}
_STRINGS = {"dataset", "strategy", "conditioning", "encoder", "out_dir"}
_INTS = {
    "c_m", "embedding_dim", "classifier_epochs", "ae_max_epochs", "flow_max_epochs",
    "patience", "memory_size", "batch_size", "flow_levels", "flow_blocks",
    "flow_hidden_multiplier", "coverage_cap",
}
_FLOATS = {
    "min_delta", "beta", "replay_fraction", "lr", "validation_fraction",
    "head_dropout", "bn_momentum", "bn_eps",
}


def _parse_value(key: str, raw: str):
    if key in _STRINGS:
        return raw
    if key in _BOOLS:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
    if key in _INTS:
        return int(raw)
    if key in _FLOATS:
        return float(raw)
    if key in _INT_TUPLES:
        raw = raw.strip()
        if not raw:
            return ()
        return tuple(int(v.strip()) for v in raw.split(","))
    raise ConfigurationError(f"unknown config key {key!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        values[key] = _parse_value(key, raw.strip())
    cfg = ExperimentConfig(**values)
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
