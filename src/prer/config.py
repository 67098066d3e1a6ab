"""Experiment configuration: a flat key = value text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
The keys are the fields of ``ExperimentConfig`` and each value is read
as its field's type (``tuple`` fields are comma-separated integers).
Unknown keys, repeated keys and unreadable values fail with the key and
the line.
"""

import hashlib
from dataclasses import dataclass, fields

from .exceptions import ConfigurationError
from .flow import level_widths
from .pipeline import STRATEGIES

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
    encoder = "mlp"  # not annotated: a constant, not a config key
    encoder_hidden: tuple = (64,)
    decoder_hidden: tuple = ()          # empty: mirrors encoder_hidden
    embedding_dim: int = 16
    head_hidden: tuple = (64, 32)

    # training
    classifier_epochs: int = 20
    ae_max_epochs: int = 150
    flow_max_epochs: int = 150
    beta: float = 1.0
    memory_size: int = 200
    replay_fraction: float = 0.5
    batch_size: int = 64
    validation_fraction: float = 0.1

    # flow topology
    flow_levels: int = 1
    flow_blocks: int = 5
    flow_hidden_multiplier = 2  # not annotated: a constant, not a config key

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
        if not 0.0 <= self.replay_fraction < 1.0:
            raise ConfigurationError("replay fraction must be in [0, 1)")
        if self.memory_size < 0:
            raise ConfigurationError("memory size must be >= 0")
        if min(self.classifier_epochs, self.ae_max_epochs, self.flow_max_epochs) < 1:
            raise ConfigurationError("epoch counts must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError("validation fraction must be in [0, 1)")
        # written so that a NaN fails too
        if not self.beta >= 0.0:
            raise ConfigurationError(f"beta must be >= 0, got {self.beta}")
        for key in ("embedding_dim", "coverage_cap", "flow_levels", "flow_blocks"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        # every record prices a flow of this topology, whether the run keeps one or not
        if self.embedding_dim < 2 or level_widths(self.embedding_dim, self.flow_levels)[-1] < 1:
            raise ConfigurationError(
                f"embedding_dim = {self.embedding_dim} cannot hold a flow of flow_levels = "
                f"{self.flow_levels}: it needs a width >= 2 that keeps >= 1 at its last level")
        for key in ("encoder_hidden", "head_hidden", "decoder_hidden"):
            widths = getattr(self, key)
            if any(width < 1 for width in widths):
                raise ConfigurationError(f"{key} entries must be >= 1, got {widths}")
        return self

    @property
    def decoder_conditioned(self):
        return self.conditioning in ("both", "decoder")

    @property
    def flow_conditioned(self):
        return self.conditioning in ("both", "flow")

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


_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(kind, raw: str):
    if kind is bool:
        return _BOOLS[raw.lower()]
    if kind is tuple:
        return tuple(int(v) for v in raw.split(",")) if raw else ()
    return kind(raw)


def parse_config_text(text: str) -> ExperimentConfig:
    values, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _TYPES:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigurationError(
                f"line {lineno}: config key {key} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _parse_value(_TYPES[key], raw)
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"line {lineno}: {key} = {raw!r} is not a valid {_TYPES[key].__name__}"
            ) from None
    cfg = ExperimentConfig(**values)
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"config {path} is not UTF-8 text: {err.reason}") from None
    return parse_config_text(text)
