"""The differential corpus: variant runs of the bundled scenarios and the
digests of everything each run writes.

Each bundled scenario is run
- as it is, in coordinator mode;
- with failure profile P1 or P2 at seeds 0-11;
- with one host failure (the first compute host), one host addition
  (``hx-new``, capacity 4, with a hypervisor of the first compute host's
  product and version) or one admin undo (the first change set), at 30, 100
  or 300 s;
- as it is, in compare mode with ``--batch-sizes 1`` and ``--batch-sizes 2``.

Every run goes through ``upgradesim.cli.main`` in process. ``variant_digests.json``
records per run the sha256 of the four artifacts, the exit code and the last
line written to stderr. Known failures are recorded as they are, so a change of
behaviour shows as a list of changed entries.

This module needs only the standard library. With ``src`` on ``PYTHONPATH``:

    python3 tests/variants.py            # check every run, exit 1 on a mismatch
    python3 tests/variants.py --write    # record the digests anew
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from upgradesim import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "variant_digests.json"
ARTIFACTS = ("reports.jsonl", "events.jsonl", "metrics.json", "comparison.csv")

BUNDLED = (
    "dynamicity-burst",
    "fig1-analog",
    "ppu-storage",
    "suspension",
    "table1-scenario-a",
    "table1-scenario-b",
)
PROFILES = {
    "P1": {"install": 0.1, "migrate-vm": 0.05},
    "P2": {
        "install": 0.25,
        "migrate-vm": 0.1,
        "remove": 0.1,
        "spawn-vm": 0.1,
        "deactivate": 0.05,
        "activate": 0.05,
    },
}
SEEDS = range(12)
EVENT_TIMES = (30, 100, 300)


def _injected_events(scenario: dict, at: int) -> dict[str, dict]:
    """The one-event injections of ``scenario`` at ``at`` seconds, by name."""
    host = next(h for h in scenario["cluster"]["hosts"] if "compute" in h.get("roles", ["compute"]))
    hv = next(
        c for c in scenario["cluster"]["components"]
        if c["kind"] == "hypervisor" and c.get("host") == host["id"]
    )
    first_set = next(
        e["request"]["change_sets"][0]["id"]
        for e in scenario["events"] if e["kind"] == "upgrade-request"
    )
    return {
        "host-failure": {"at_seconds": at, "kind": "host-failure", "host": host["id"]},
        "host-addition": {
            "at_seconds": at, "kind": "host-addition", "host": "hx-new",
            "roles": ["compute"], "capacity": 4,
            "hypervisor": {"id": "hv-hx-new", "product": hv["product"], "version": hv["version"]},
        },
        "admin-undo": {"at_seconds": at, "kind": "admin-undo", "set": first_set},
    }


def variants() -> list[tuple[str, dict, list[str]]]:
    """(run name, scenario, ``cli.main`` argv without ``--scenario``/``--out``)."""
    out = []
    for name in BUNDLED:
        base = json.loads((SCENARIOS / f"{name}.json").read_text())
        out.append((f"{name}/base", base, ["--mode", "coordinator"]))
        for profile, rates in PROFILES.items():
            scenario = copy.deepcopy(base)
            scenario.setdefault("failures", {})["rates"] = rates
            for seed in SEEDS:
                out.append((f"{name}/{profile}/s{seed}", scenario,
                            ["--mode", "coordinator", "--seed", str(seed)]))
        for at in EVENT_TIMES:
            for kind, event in _injected_events(base, at).items():
                scenario = copy.deepcopy(base)
                scenario["events"].append(event)
                out.append((f"{name}/{kind}@{at}", scenario, ["--mode", "coordinator"]))
        for batch_size in ("1", "2"):
            out.append((f"{name}/compare-b{batch_size}", base,
                        ["--mode", "compare", "--batch-sizes", batch_size]))
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"


def run_variant(scenario: dict, argv: list[str], work: Path) -> dict:
    """Run one variant under ``work``; its digests, exit code and last stderr line."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["--scenario", str(path), *argv, "--out", str(work / "out")])
    lines = stderr.getvalue().splitlines()
    record = {artifact: digest(work / "out" / artifact) for artifact in ARTIFACTS}
    record["exit"] = code
    record["stderr"] = lines[-1] if lines else ""
    return record


def run_corpus(work: Path) -> dict[str, dict]:
    return {
        name: run_variant(scenario, argv, work / name.replace("/", "_"))
        for name, scenario, argv in variants()
    }


def load_reference() -> dict[str, dict]:
    return json.loads(REFERENCE.read_text())


def differences(got: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """One line per run that is missing, unexpected or different."""
    lines = []
    for name in sorted(set(got) | set(expected)):
        if name not in got:
            lines.append(f"{name}: not run")
        elif name not in expected:
            lines.append(f"{name}: not in the reference")
        elif got[name] != expected[name]:
            fields = sorted(k for k in got[name] if got[name][k] != expected[name].get(k))
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Check or record the differential corpus.")
    parser.add_argument("--write", action="store_true", help=f"record {REFERENCE.name} anew")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        got = run_corpus(Path(tmp))
    codes = sorted({r["exit"] for r in got.values()})
    split = ", ".join(f"{sum(r['exit'] == c for r in got.values())} exit {c}" for c in codes)
    if args.write:
        REFERENCE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} runs ({split}) to {REFERENCE}")
        return 0
    diff = differences(got, load_reference())
    for line in diff:
        print(line)
    print(f"{len(got)} runs ({split}): {'mismatch' if diff else 'all match'}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
