"""Tests of the benchmark itself: every record check rejects the fault it
guards against, the self-time arithmetic is right on hand-built spans,
tracing leaves the program as it found it, and BENCHMARK.json lists
exactly what the benchmark prints."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from prer import data, runner
from prer.config import ExperimentConfig
from spans import PER_LAYER, Tracer, self_times, summarize, tracing
from workloads import STRATEGIES, WORKLOADS, TrainRows

ROOT = Path(__file__).resolve().parent.parent

TINY = dict(
    dataset="blobs:classes=4,dim=6,sep=5,per_class=40",
    c_m=2,
    strategy="prer",
    seeds=(1,),
    embedding_dim=4,
    encoder_hidden=(12,),
    head_hidden=(8,),
    classifier_epochs=20,
    ae_max_epochs=4,
    flow_max_epochs=4,
    memory_size=30,
    batch_size=32,
    coverage_cap=50,
)


def tiny_config(**overrides):
    return ExperimentConfig(**dict(TINY, **overrides)).validate()


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    rows = TrainRows()
    with rows.counting(), tracing(tracer), tracer.span("pass"):
        record = runner.run_experiment(tiny_config(), seed=1)
    return tracer, rows, json.loads(record.to_json())


@pytest.fixture
def record(traced_run):
    return copy.deepcopy(traced_run[2])


def test_real_record_passes_every_check(record):
    assert checks.check_record(record, tiny_config()) == []
    assert checks.check_learning(record) == []


def test_off_grid_entry_is_rejected(record):
    # 16 test rows per task: accuracies move in steps of 6.25
    record["r_matrix"][1][0] = 90.0
    assert any("off the grid" in e for e in checks.check_record(record, tiny_config()))


def test_wrong_bwt_is_rejected(record):
    record["bwt"] += 6.25
    assert any(e.startswith("bwt") for e in checks.check_record(record, tiny_config()))


def test_wrong_prer_footprint_is_rejected(record):
    record["footprints"]["prer"] += 1.0
    record["memory_floats"] += 1.0
    assert any("footprint prer" in e for e in checks.check_record(record, tiny_config()))


def test_nan_coverage_is_rejected(record):
    record["d_t"]["2"] = math.nan
    assert any(e.startswith("d_t[2]") for e in checks.check_record(record, tiny_config()))


def test_quality_outside_range_is_rejected(record):
    record["q_t"]["2"] = 100.5
    assert any(e.startswith("q_t[2]") for e in checks.check_record(record, tiny_config()))


def test_prer_r_footprint_may_grow_but_not_shrink(record):
    cfg = tiny_config(strategy="prer_r")
    record["strategy"] = "prer_r"
    record["footprints"]["prer_r"] = record["footprints"]["prer"] + 500.0
    record["memory_floats"] = record["footprints"]["prer_r"]
    assert checks.check_record(record, cfg) == []
    record["footprints"]["prer_r"] = record["memory_floats"] = record["footprints"]["prer"] - 1
    assert any("below prer" in e for e in checks.check_record(record, cfg))


def test_chance_level_task_is_rejected(record):
    record["r_matrix"][1][1] = 50.0
    assert checks.check_learning(record) == ["R[2,2] = 50.0 is not above chance 50.0"]


def test_forgetting_check_compares_mean_bwt_with_naive():
    recs = [{"strategy": "naive", "bwt": -10.0}, {"strategy": "naive", "bwt": -2.0},
            {"strategy": "replay", "bwt": -3.0}, {"strategy": "er", "bwt": -6.0}]
    assert checks.check_forgetting(recs) == ["mean bwt of er (-6.000) is not above "
                                             "naive's (-6.000)"]


def test_checkpoint_check_compares_tasks_and_matrix(record):
    r = np.array([[np.nan if v is None else v for v in row] for row in record["r_matrix"]])
    assert checks.check_checkpoint({"completed_tasks": 2, "result_matrix": r}, record) == []
    stale = r.copy()
    stale[1, 0] = 0.0
    errors = checks.check_checkpoint({"completed_tasks": 1, "result_matrix": stale}, record)
    assert len(errors) == 2


def test_digest_ignores_timings_and_config_hash(record):
    other = copy.deepcopy(record)
    other["timings"] = {"flow": 123.0}
    other["config_hash"] = "0" * 16
    assert checks.digest(other) == checks.digest(record)
    other["accuracy"] += 1e-12
    assert checks.digest(other) != checks.digest(record)


@pytest.mark.parametrize("workload, expected", [
    ("mnist784_prer", 483_654),
    ("mnist784_prer_r_cond", 487_654),
])
def test_prer_footprint_matches_hand_count(tmp_path, workload, expected):
    (cfg,) = WORKLOADS[workload].configs(tmp_path)
    assert checks.expected_footprints(cfg)["prer"] == expected


def test_blobs_sweep_runs_every_strategy(tmp_path):
    configs = WORKLOADS["blobs_sweep"].configs(tmp_path)
    assert tuple(c.strategy for c in configs) == STRATEGIES
    assert checks.expected_footprints(configs[0])["prer"] == 1206


def test_every_pass_of_every_seed_gets_its_own_experiment_seeds():
    w = WORKLOADS["blobs_sweep"]
    blocks = [w.experiment_seeds(seed, k) for seed in (1, 2) for k in range(3)]
    seeds = [s for block in blocks for s in block]
    assert len(set(seeds)) == len(seeds) == 6 * w.seeds_per_pass
    assert w.experiment_seeds(1, 0) == w.experiment_seeds(1, 0)


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_clip_children_to_their_parent():
    # b [8, 12] sticks out of root [0, 10]: only [8, 10] is taken from the root
    assert list(self_times([0.0, 1.0, 8.0], [10.0, 4.0, 12.0], [-1, 0, 0])) == [5.0, 3.0, 4.0]


def test_self_times_refuse_overlapping_siblings():
    with pytest.raises(ValueError, match="overlap"):
        self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])


def test_traced_run_sums_to_its_span_and_counts(traced_run):
    tracer, rows, record = traced_run
    metrics, ((name, span, total),) = summarize(tracer)
    assert name == "pass"
    assert total == pytest.approx(span, rel=1e-9, abs=1e-9)
    assert metrics["runner.run_experiment.s"] > 0.0
    assert metrics["pipeline.train_flow_phase.epochs"] >= 2
    # unconditioned flow: the coverage pool is three times what it keeps
    assert 0.0 < metrics["runner.coverage_pool_use"] <= 1.0 / 3.0


def test_train_rows_are_rows_per_epoch_times_epochs(traced_run):
    tracer, rows, _ = traced_run
    metrics, _ = summarize(tracer)
    # 2 tasks of 64 training rows; the classifier holds out int(6.4) = 6
    # of them for 20 epochs, the autoencoder and the flow use all 64
    epochs = (metrics["pipeline.train_autoencoder_phase.epochs"]
              + metrics["pipeline.train_flow_phase.epochs"])
    assert rows.rows == 2 * 58 * 20 + 64 * epochs


def test_tracing_restores_the_program():
    before = (runner.build_task_stream, runner.run_experiment, data.build_task_stream)
    with tracing(Tracer()):
        assert runner.build_task_stream is not before[0]
        assert data.build_task_stream is runner.build_task_stream
    assert (runner.build_task_stream, runner.run_experiment, data.build_task_stream) == before


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)

