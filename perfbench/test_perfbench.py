"""Checks of the benchmark itself (slow: about two minutes).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from upgradesim import cli  # noqa: E402
from upgradesim.scenario import parse_scenario  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(*args: str) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["fleet-hv", "fleet-ppu"])
@pytest.mark.parametrize("seed", range(6))
def test_generated_fleets_are_valid_and_complete(name, seed, tmp_path):
    path = workloads.write_fleet(name, seed, tmp_path / "a.json")
    again = workloads.write_fleet(name, seed, tmp_path / "b.json")
    assert path.read_bytes() == again.read_bytes()
    parse_scenario(json.loads(path.read_text()))
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    second = _result("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert first["correct"] and second["correct"]
    counts = [
        name for name, m in first["metrics"].items()
        if m["unit"] in ("count", "bytes", "sim_s") or name.endswith("_ratio")
    ]
    assert len(counts) >= 20
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bundled-coord", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
