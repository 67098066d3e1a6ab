"""Smoke test of tools/rss_marks.py: one pass of a two-task blobs
workload in a fresh interpreter, every named step wrapped."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# registers a two-task workload beside the benchmark's and sends the
# pass's output to argv[1], then runs the tool on it
SCRIPT = """
import pathlib
import sys
import run
import workloads
run.OUT = pathlib.Path(sys.argv[1])
workloads.WORKLOADS["two_tasks"] = workloads.Workload(
    "two_tasks", "configs/blobs.cfg", ("prer", "prer_r"), seeds_per_pass=1, pass_seconds=1.0,
    overrides=dict(dataset="blobs:classes=4,dim=6,sep=5,per_class=40", classifier_epochs=2,
                   ae_max_epochs=2, flow_max_epochs=2, memory_size=30, checkpoints=True))
import rss_marks
sys.exit(rss_marks.main(["--workload", "two_tasks", "--seed", "5"]))
"""


def test_rss_marks_reports_each_rise_of_one_pass(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(ROOT / d) for d in ("src", "bench", "tools")), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert (out["workload"], out["seed"]) == ("two_tasks", 5)
    assert len(lines) == len(out["rises"]) + 3  # imports, one line per rise, peak, JSON

    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from rss_marks import STEPS
    finally:
        sys.path.remove(str(ROOT / "tools"))
    steps = {f"{module}.{qualname}" for module, qualname in STEPS}
    marks = [out["imports_mb"]]
    for depth, label, after, rise in out["rises"]:
        found = re.fullmatch(r"(prer|prer_r) seed 50000 task ([012]) (\S+)", label)
        assert found and found.group(3) in steps, label
        assert depth >= 0 and rise > 0
        marks.append(after)
    # ru_maxrss only grows, and the calls are listed in the order they ended
    assert marks == sorted(marks)
    assert out["peak_mb"] >= marks[-1]
