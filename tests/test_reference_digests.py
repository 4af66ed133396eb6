"""Byte-identity guard: every benchmark workload at seed 0, run in process
through ``cli.main`` with the benchmark's own argv, writes artifacts whose
sha256 matches ``perfbench/reference_digests.json``; and every run of the
differential corpus (``tests/variants.py``) writes the artifacts, exit code and
last stderr line recorded in ``tests/variant_digests.json``.

The digests do not depend on the output directory, so a change that moves
any VM, action or timestamp of these runs shows here."""

import importlib.util
import json
from pathlib import Path

import pytest

import variants
from upgradesim import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())
CORPUS = "variants"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", [*sorted(REFERENCE), CORPUS])
def test_artifacts_match_the_reference_digests(workload, tmp_path):
    if workload == CORPUS:
        diff = variants.differences(variants.run_corpus(tmp_path), variants.load_reference())
        assert not diff, "\n".join(diff)
        return
    runs = _workloads().scenario_runs(workload, 0, ROOT, tmp_path / "scenarios")
    assert sorted(name for name, _ in runs) == sorted(REFERENCE[workload])
    for name, argv in runs:
        out = tmp_path / "out" / name
        cli.main(argv + ["--out", str(out)])
        digests = {artifact: variants.digest(out / artifact) for artifact in variants.ARTIFACTS}
        assert digests == REFERENCE[workload][name], name
