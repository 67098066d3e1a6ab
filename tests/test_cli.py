"""End-to-end CLI tests: each one runs ``python -m prer.cli`` in a child
process that imports ``prer`` from this checkout's ``src/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

CONFIG = """
dataset = blobs:classes=4,dim=6,sep=5,per_class=40
c_m = 2
strategy = prer
seeds = 1,2
embedding_dim = 4
encoder_hidden = 12
head_hidden = 8
classifier_epochs = 4
ae_max_epochs = 8
flow_max_epochs = 8
memory_size = 30
batch_size = 32
coverage_cap = 50
"""


def child_env():
    """The parent's environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*args, env=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=child_env() if env is None else env)


def run_cli(*args, env=None):
    return run_python("-m", "prer.cli", *args, env=env)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return path


def test_run_single_seed_writes_record(config_file, tmp_path):
    out = tmp_path / "runs"
    result = run_cli("run", "--config", str(config_file), "--seed", "1",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    records = list(out.glob("run_*.json"))
    assert len(records) == 1
    data = json.loads(records[0].read_text())
    assert data["seed"] == 1
    assert data["strategy"] == "prer"
    assert 0.0 <= data["accuracy"] <= 100.0


def test_run_all_seeds_strategy_override_and_aggregate(config_file, tmp_path):
    out = tmp_path / "runs"
    result = run_cli("run", "--config", str(config_file), "--strategy", "naive",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert len(list(out.glob("run_naive_*.json"))) == 2

    table_file = tmp_path / "summary.tsv"
    result = run_cli("aggregate", "--in", str(out), "--out", str(table_file))
    assert result.returncode == 0, result.stderr
    lines = table_file.read_text().strip().split("\n")
    assert lines[0].startswith("strategy\tdataset\tseed_count")
    row = lines[1].split("\t")
    assert row[0] == "naive"
    assert row[2] == "2"


def test_aggregate_empty_dir_fails(tmp_path):
    for in_dir in (tmp_path, tmp_path / "missing"):
        assert_one_line_error(run_cli("aggregate", "--in", str(in_dir)),
                              f"no run records found in {in_dir}")


def test_inspect_flow(config_file):
    result = run_cli("inspect-flow", "--config", str(config_file))
    assert result.returncode == 0, result.stderr
    assert "flow: dim=4" in result.stdout
    assert "level 0" in result.stdout
    assert "  level 0: width 4, emits 4, 15 layers\n" in result.stdout
    assert "decoder params" in result.stdout
    # two levels: each level but the last emits half its width
    config_file.write_text(CONFIG + "flow_levels = 2\n")
    result = run_cli("inspect-flow", "--config", str(config_file))
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stdout.splitlines() if "level" in line] == [
        "  level 0: width 4, emits 2, 15 layers",
        "  level 1: width 2, emits 2, 15 layers",
    ]



def assert_one_line_error(result, *names):
    """A bad input ends the CLI with code 2 and one stderr line that
    names what is at fault, not with a traceback."""
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("prer: error: "), result.stderr
    for name in names:
        assert name in lines[0]


def test_missing_mnist_files_end_in_one_line(tmp_path):
    missing = tmp_path / "no-mnist-here"
    config = tmp_path / "mnist.cfg"
    config.write_text(f"dataset = mnist:dir={missing}\n")
    assert_one_line_error(run_cli("inspect-flow", "--config", str(config)), str(missing))


def test_unknown_config_key_ends_in_one_line(config_file, tmp_path):
    config_file.write_text(CONFIG + "no_such_key = 3\n")
    result = run_cli("run", "--config", str(config_file), "--out", str(tmp_path / "runs"))
    assert_one_line_error(result, "no_such_key")


@pytest.mark.parametrize("command", ["run", "inspect-flow"])
def test_missing_config_file_ends_in_one_line(command, tmp_path):
    missing = tmp_path / "nope.cfg"
    assert_one_line_error(run_cli(command, "--config", str(missing)), str(missing))


@pytest.mark.parametrize("text", ["not json", '{"bad": 1}'])
def test_malformed_run_record_ends_in_one_line(text, tmp_path):
    record = tmp_path / "run_prer_1.json"
    record.write_text(text)
    assert_one_line_error(run_cli("aggregate", "--in", str(tmp_path)), str(record))


def test_non_utf8_config_ends_in_one_line(tmp_path):
    config = tmp_path / "binary.cfg"
    config.write_bytes(b"\xff\xfe\x00bad")
    assert_one_line_error(run_cli("run", "--config", str(config)), str(config))


def test_run_record_that_is_a_directory_ends_in_one_line(tmp_path):
    record = tmp_path / "run_x.json"
    record.mkdir()
    assert_one_line_error(run_cli("aggregate", "--in", str(tmp_path)), str(record))


def test_mnist_dir_without_its_label_file_ends_in_one_line(tmp_path):
    (tmp_path / "train-images-idx3-ubyte").write_bytes(bytes.fromhex("00000803") + bytes(12))
    config = tmp_path / "mnist.cfg"
    config.write_text(f"dataset = mnist:dir={tmp_path}\n")
    result = run_cli("run", "--config", str(config), "--out", str(tmp_path / "runs"))
    assert_one_line_error(result, str(tmp_path), "train-labels-idx1-ubyte")


@pytest.mark.parametrize("text,names", [
    (CONFIG + "encoder = conv\n", ("line 15", "unknown config key 'encoder'")),
    (CONFIG + "conv_channels = 8,16\n", ("line 15", "unknown config key 'conv_channels'")),
    ("dataset = mnist:images=a,labels=b\n", ("unknown mnist argument 'images'",)),
    (CONFIG + "strategy = naive\n", ("line 15", "config key strategy", "line 4")),
], ids=["encoder", "conv_channels", "mnist-images", "repeated-key"])
def test_refused_config_line_ends_in_one_line(config_file, tmp_path, text, names):
    # keys and dataset arguments the program does not take, and a key set
    # twice, each stop the run before it starts
    config_file.write_text(text)
    result = run_cli("run", "--config", str(config_file), "--out", str(tmp_path / "runs"))
    assert_one_line_error(result, *names)


def test_resume_over_truncated_checkpoint_ends_in_one_line(config_file, tmp_path):
    config_file.write_text(CONFIG + "checkpoints = true\n")
    out = tmp_path / "runs"
    args = ("run", "--config", str(config_file), "--seed", "1", "--out", str(out))
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    (ckpt,) = out.glob("state_*.npz")
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    assert_one_line_error(run_cli(*args, "--resume"), str(ckpt), "not a checkpoint")


# Runs prer.cli the way ``python -m prer.cli`` does and, at the first import
# of numpy (before any numpy code runs), writes the environment as JSON to
# the path given as the first argument.
THREAD_PROBE = """
import json, os, runpy, sys

out_path = sys.argv.pop(1)

def hook(event, args):
    if event == "import" and args[0] == "numpy" and not os.path.exists(out_path):
        with open(out_path, "w") as fh:
            json.dump(dict(os.environ), fh)

sys.addaudithook(hook)
runpy.run_module("prer.cli", run_name="__main__", alter_sys=True)
"""


def test_thread_cap_env(config_file, tmp_path):
    env = child_env()
    for var in THREAD_VARS:
        env.pop(var, None)
    env["PRER_NUM_THREADS"] = "1"
    seen_path = tmp_path / "env_at_numpy_import.json"
    result = run_python("-c", THREAD_PROBE, str(seen_path), "inspect-flow",
                        "--config", str(config_file), env=env)
    assert result.returncode == 0, result.stderr
    assert "flow: dim=4" in result.stdout
    assert seen_path.exists(), "the CLI never imported numpy"
    seen = json.loads(seen_path.read_text())
    assert {var: seen.get(var) for var in THREAD_VARS} == {var: "1" for var in THREAD_VARS}
