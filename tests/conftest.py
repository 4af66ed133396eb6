import dataclasses
import json
from pathlib import Path

import pytest

from upgradesim.cluster import ClusterState
from upgradesim.engine import EventLog
from upgradesim.planner import TimingConstants
from upgradesim.rolling import Fleet, RollingBaselineResult, RollingRun, run_single_ordering
from upgradesim.scenario import Scenario, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def scenario_a() -> Scenario:
    return load_scenario(SCENARIO_DIR / "table1-scenario-a.json")


@pytest.fixture(scope="session")
def scenario_b() -> Scenario:
    return load_scenario(SCENARIO_DIR / "table1-scenario-b.json")


@pytest.fixture(scope="session")
def scenario_ppu() -> Scenario:
    return load_scenario(SCENARIO_DIR / "ppu-storage.json")


@pytest.fixture(scope="session")
def scenario_fig1() -> Scenario:
    return load_scenario(SCENARIO_DIR / "fig1-analog.json")


@pytest.fixture(scope="session")
def scenario_burst() -> Scenario:
    return load_scenario(SCENARIO_DIR / "dynamicity-burst.json")


@pytest.fixture(scope="session")
def scenario_suspension() -> Scenario:
    return load_scenario(SCENARIO_DIR / "suspension.json")


def hypervisor_catalog() -> list[dict]:
    return [
        {
            "component_id": "qemu-1", "product": "qemu", "version": "1", "kind": "hypervisor",
            "provides": [["vm-runtime", 1]], "requires": [], "install_seconds": 41,
        },
        {
            "component_id": "qemu-2", "product": "qemu", "version": "2", "kind": "hypervisor",
            "provides": [["vm-runtime", 2]], "requires": [], "install_seconds": 41,
        },
        {
            "component_id": "qemu-0", "product": "qemu", "version": "0", "kind": "hypervisor",
            "provides": [["vm-runtime", 0]], "requires": [], "install_seconds": 41,
        },
    ]


def toy_scenario(
    host_count: int = 3,
    capacity: int = 2,
    tenants: list[dict] | None = None,
    events: list[dict] | None = None,
    failures: dict | None = None,
    policies: dict | None = None,
    max_retry: int = 2,
    max_completion_seconds: float = 100000,
    undo_threshold: int = 0,
    undo_version: str | None = None,
) -> Scenario:
    """A small all-compute cluster with one hypervisor upgrade request."""
    hosts = [
        {"id": f"h{i + 1}", "roles": ["compute"], "capacity": capacity}
        for i in range(host_count)
    ]
    components = [
        {"id": f"hv{i + 1}", "kind": "hypervisor", "product": "qemu", "version": "1",
         "host": f"h{i + 1}"}
        for i in range(host_count)
    ]
    change = {
        "id": "ch-qemu", "action": "upgrade", "product": "qemu", "version": "2",
        "selector": {"kind": "hypervisor"}, "undo_threshold": undo_threshold,
    }
    if undo_version is not None:
        change["undo_version"] = undo_version
    request_event = {
        "at_seconds": 0,
        "kind": "upgrade-request",
        "request": {
            "id": "req-1",
            "change_sets": [
                {
                    "id": "cs-1",
                    "max_completion_seconds": max_completion_seconds,
                    "max_retry": max_retry,
                    "changes": [change],
                }
            ],
        },
    }
    data = {
        "name": "toy",
        "cluster": {"hosts": hosts, "components": components},
        "tenants": tenants or [],
        "catalog": hypervisor_catalog(),
        "events": [request_event] + (events or []),
        "failures": failures or {"seed": 0, "rates": {}, "scripted": []},
        "policies": policies or {"tolerated_host_failures": 0, "dedicated_upgrade_hosts": 0},
    }
    return parse_scenario(data)


def scenario_json(scenario: Scenario) -> dict:
    return json.loads(scenario.to_json())


def ppu_vm_upgrade_json(duration_seconds: float) -> dict:
    """ppu-storage with each VM crossing to the new side upgraded to image 2."""
    data = json.loads((SCENARIO_DIR / "ppu-storage.json").read_text())
    data["vm_upgrade"] = {"product": "image", "version": "2", "duration_seconds": duration_seconds}
    return data


def of_kind(log: EventLog, kind: str) -> list[dict]:
    """The records of ``log`` of one kind, in log order."""
    return [r for r in log.records if r["kind"] == kind]


def clone(cluster: ClusterState) -> ClusterState:
    """A copy of ``cluster`` that shares no mutable state with it, rebuilt
    through ``add_resource`` and ``add_vm``."""
    twin = ClusterState()
    twin.clock = cluster.clock
    twin.tenants = {k: dataclasses.replace(t) for k, t in cluster.tenants.items()}
    for res in cluster.resources.values():
        twin.add_resource(dataclasses.replace(res, installed=dict(res.installed)))
    for vm in cluster.vms.values():
        twin.add_vm(dataclasses.replace(vm))
    return twin


def rerun_logs(
    cluster: ClusterState, result: RollingBaselineResult, timing: TimingConstants
) -> list[tuple[RollingRun, EventLog]]:
    """Each run of a rolling baseline paired with its ordering's event log,
    which the baseline does not keep: the ordering runs again on a log of its
    own, and the fresh run must equal the baseline's."""
    fleet = Fleet.of(cluster)
    pairs = []
    for run in result.runs:
        log = EventLog()
        assert run_single_ordering(fleet, run.ordering, result.config, timing, log) == run
        pairs.append((run, log))
    return pairs
