"""The benchmark's own footprint counter (``bench/checks.py``) recounts
the prer footprint from the config alone. These tests pin that recount
to the builders, so a change to either side fails here first and not as
a refused benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from prer.config import CONDITIONING_MODES, load_config
from prer.data import parse_dataset_spec
from prer.exceptions import ConfigurationError
from prer.flow import build_flow
from prer.model import build_model
from prer.rng import Rng

ROOT = Path(__file__).resolve().parents[1]
# the 784-dim stand-in for MNIST that the benchmark drives mnist.cfg with
MNIST_SHAPED = "blobs:classes=10,dim=784,sep=6,per_class=20"


def load_bench_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load_bench_checks()


def footprint_cases():
    """Every valid config of blobs.cfg and of mnist.cfg on MNIST_SHAPED
    over the conditioning modes, 1-3 flow levels and the config's own or
    a two-layer encoder_hidden, which the decoder mirrors in reverse; a
    flow too deep for the embedding is not valid."""
    cases = []
    for name, dataset in (("blobs.cfg", None), ("mnist.cfg", MNIST_SHAPED)):
        for conditioning in CONDITIONING_MODES:
            for levels in (1, 2, 3):
                for encoder_hidden in (None, (48, 24)):
                    cfg = load_config(ROOT / "configs" / name)
                    cfg.dataset = dataset or cfg.dataset
                    cfg.conditioning, cfg.flow_levels = conditioning, levels
                    cfg.encoder_hidden = encoder_hidden or cfg.encoder_hidden
                    try:
                        cfg.validate()
                    except ConfigurationError:
                        continue
                    hidden = ",".join(map(str, encoder_hidden or ())) or "default"
                    cases.append(pytest.param(
                        cfg, id=f"{name}-{conditioning}-levels{levels}-encoder{hidden}"))
    return cases


CASES = footprint_cases()


def test_every_case_but_an_over_deep_flow_is_valid():
    # blobs.cfg's 2-dim embedding holds one flow level, every level being
    # at least 2 wide
    assert len(CASES) == (1 * 4 + 3 * 4) * 2


@pytest.mark.parametrize("cfg", CASES)
def test_bench_footprint_counter_matches_the_builders(cfg):
    dataset = parse_dataset_spec(cfg.dataset, cfg.seeds[0])
    rng = Rng(cfg.seeds[0])
    model = build_model(cfg, dataset.dim, dataset.num_classes, rng.fork("model-init"))
    flow = build_flow(cfg, dataset.num_classes, rng.fork("flow-init"))
    assert checks.decoder_params(cfg) == model.decoder.param_count()
    assert checks.flow_params(cfg) == flow.param_count()
