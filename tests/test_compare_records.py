"""Fast checks of the run grid of tools/compare_records.py, without
starting its workers: a grid run that set a key the config no longer has
would otherwise fail only when the tool runs."""

import importlib.util
import re
from pathlib import Path

from prer.config import parse_config_text

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_records.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_records", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_runs_parse_have_unique_names_and_match_the_documented_count():
    tool = load_tool()
    runs = tool.grid()
    base = tool.BASE_CONFIG.read_text(encoding="utf-8")
    for name, overrides, crash_at in runs:
        cfg = parse_config_text(tool.config_text(base, overrides))
        # a crashed run resumes from the checkpoint it wrote
        assert crash_at is None or cfg.checkpoints, name
    names = [name for name, _, _ in runs]
    assert len(set(names)) == len(names)
    documented = re.search(r"That is (\d+) runs\.", tool.__doc__)
    assert documented is not None
    assert int(documented.group(1)) == len(runs)


def test_differences_name_the_field_that_differs():
    tool = load_tool()
    base = {"prer_r": {"seed": 1, "footprints": {"prer": 5.0, "prer_r": 5.0},
                       "d_t": {"1": 0.5}},
            "prer": {"seed": 1}}
    head = {"prer_r": {"seed": 1, "footprints": {"prer": 5.0, "prer_r": 9.0},
                       "d_t": {"1": 0.5, "2": 0.25}},
            "naive": {"seed": 1}}
    assert tool.differences(base, head) == [
        "naive: only in working tree",
        "prer: only in base",
        "prer_r.d_t.2: base None != working tree 0.25",
        "prer_r.footprints.prer_r: base 5.0 != working tree 9.0",
    ]
    assert tool.differences(base, base) == []
