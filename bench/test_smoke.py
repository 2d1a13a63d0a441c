"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

# Appended to a copy of scores.py: cp_transform output no longer has the
# target correlation, which the benchmark's output checks must catch.
SABOTAGE = '''

_cp_transform = cp_transform


def cp_transform(*args, **kwargs):
    out = _cp_transform(*args, **kwargs)
    values = out.values.copy()
    values[:, 0] += 0.5 * values[:, -1]
    return out.replace_values(values)
'''


def run_bench(root, trace, workload="all"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric(tmp_path, trace, kind):
    proc, result = run_bench(copy_checkout(tmp_path), trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for wl, why in WORKLOADS.items():
        assert f"cpscores benchmark: {wl} ({why})" in proc.stdout
        for metric in SPEC[kind]:
            got = result["metrics"][f"{wl}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    for metric in SPEC[kind]:
        assert f" {metric['name']} " in proc.stdout
    if trace == 0:
        for info in (" wall_s ", " wall_tail_s ", " error_rate "):
            assert proc.stdout.count(info) == len(WORKLOADS)
        for metric in SPEC["end_to_end"]:
            for wl in WORKLOADS:
                assert result["metrics"][f"{wl}.{metric['name']}"]["value"] > 0


def test_failed_output_check_exits_nonzero(tmp_path):
    root = copy_checkout(tmp_path)
    with open(root / "src" / "cpscores" / "scores.py", "a", encoding="utf-8") as fh:
        fh.write(SABOTAGE)
    proc, result = run_bench(root, 0)
    assert proc.returncode == 1
    assert result is not None and not result["correct"] and result["failed"] > 0


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    proc, result = run_bench(copy_checkout(tmp_path, with_src=False), 0,
                             workload=next(iter(WORKLOADS)))
    assert proc.returncode != 0
    assert result is None
