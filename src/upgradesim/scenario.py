"""Scenario files: the JSON schema, validation, and materialization.

A scenario bundles the cluster layout, vendor catalog entries, tenant SLAs
with initial VM placements, timestamped events, the failure model, policy
knobs, and timing constants. All durations in the file are seconds; they are
converted to integer milliseconds on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from upgradesim.actions import seconds_to_ms
from upgradesim.catalog import (
    CapabilityRange,
    StorageRequirement,
    UpgradeCatalog,
    build_description,
)
from upgradesim.cluster import ClusterState, SimResource, TenantSLA, VmState, host_kind
from upgradesim.engine import FailureModel, ScenarioEvent, ScriptedFailure
from upgradesim.errors import ScenarioError
from upgradesim.planner import Policies, TimingConstants
from upgradesim.requests import Change, ChangeSet, UpgradeRequest

_EVENT_KINDS = {
    "upgrade-request",
    "admin-undo",
    "scale-out",
    "scale-in",
    "host-failure",
    "host-addition",
}

_DEFAULT_TIMING = {
    "migration_seconds": 23.0,
    "migration_outage_seconds": 0.6,
    "iteration_overhead_seconds": 0.23,
    "failover_restart_seconds": 10.0,
}


@dataclass(frozen=True)
class Scenario:
    """A validated, normalized scenario; equality is structural."""

    data: dict

    @property
    def name(self) -> str:
        return self.data["name"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, kind=None, default=_fail):
    optional = default is not _fail
    if key not in obj or (optional and obj[key] is None):
        if optional:
            return default
        raise _fail(f"{path}.{key}", "missing required field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise _fail(f"{path}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    if not p.exists():
        raise ScenarioError(f"{p}: no such file")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON ({exc})") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise _fail("$", "scenario must be a JSON object")
    data: dict = {}
    data["name"] = _get(raw, "name", "$", str)

    cluster = _get(raw, "cluster", "$", dict)
    hosts = []
    host_ids = set()
    for i, h in enumerate(_get(cluster, "hosts", "$.cluster", list)):
        path = f"$.cluster.hosts[{i}]"
        host = {
            "id": _get(h, "id", path, str),
            "roles": sorted(_get(h, "roles", path, list)),
            "capacity": _get(h, "capacity", path, int, default=0),
        }
        host["capacity_after_upgrade"] = _get(
            h, "capacity_after_upgrade", path, int, default=host["capacity"]
        )
        if host["id"] in host_ids:
            raise _fail(path + ".id", f"duplicate host id {host['id']!r}")
        host_ids.add(host["id"])
        hosts.append(host)
    components = []
    component_ids = set()
    for i, c in enumerate(_get(cluster, "components", "$.cluster", list, default=[])):
        path = f"$.cluster.components[{i}]"
        comp = {
            "id": _get(c, "id", path, str),
            "kind": _get(c, "kind", path, str),
            "product": _get(c, "product", path, str),
            "version": _get(c, "version", path, str),
            "host": _get(c, "host", path, str, default=None),
            "constituents": sorted(_get(c, "constituents", path, list, default=[])),
            "serves": _get(c, "serves", path, default=[]),
            "peers": sorted(_get(c, "peers", path, list, default=[])),
        }
        if comp["id"] in component_ids or comp["id"] in host_ids:
            raise _fail(path + ".id", f"duplicate resource id {comp['id']!r}")
        component_ids.add(comp["id"])
        if comp["host"] is not None and comp["host"] not in host_ids:
            raise _fail(path + ".host", f"unknown host {comp['host']!r}")
        for ref in comp["constituents"]:
            if ref not in host_ids:
                raise _fail(path + ".constituents", f"unknown host {ref!r}")
        if comp["serves"] != "all-compute":
            for ref in comp["serves"]:
                if ref not in host_ids:
                    raise _fail(path + ".serves", f"unknown host {ref!r}")
            comp["serves"] = sorted(comp["serves"])
        components.append(comp)
    data["cluster"] = {"hosts": hosts, "components": components}

    tenants = []
    tenant_ids = set()
    vm_ids = set()
    for i, t in enumerate(_get(raw, "tenants", "$", list, default=[])):
        path = f"$.tenants[{i}]"
        tenant = {
            "id": _get(t, "id", path, str),
            "min_vms": _get(t, "min_vms", path, int),
            "max_vms": _get(t, "max_vms", path, int),
            "scaling_adjustment": _get(t, "scaling_adjustment", path, int),
            "cooldown_seconds": _get(t, "cooldown_seconds", path, (int, float)),
            "vms": [],
        }
        if tenant["id"] in tenant_ids:
            raise _fail(path + ".id", f"duplicate tenant id {tenant['id']!r}")
        tenant_ids.add(tenant["id"])
        for j, v in enumerate(_get(t, "vms", path, list, default=[])):
            vpath = f"{path}.vms[{j}]"
            vm = {
                "id": _get(v, "id", vpath, str),
                "host": _get(v, "host", vpath, str),
                "group": _get(v, "group", vpath, str, default="g1"),
            }
            if vm["host"] not in host_ids:
                raise _fail(vpath + ".host", f"unknown host {vm['host']!r}")
            if vm["id"] in vm_ids:
                raise _fail(vpath + ".id", f"duplicate vm id {vm['id']!r}")
            vm_ids.add(vm["id"])
            tenant["vms"].append(vm)
        tenants.append(tenant)
    data["tenants"] = tenants

    catalog = []
    for i, d in enumerate(_get(raw, "catalog", "$", list, default=[])):
        path = f"$.catalog[{i}]"
        entry = {
            "component_id": _get(d, "component_id", path, str),
            "product": _get(d, "product", path, str),
            "version": _get(d, "version", path, str),
            "kind": _get(d, "kind", path, str),
            "provides": [list(p) for p in _get(d, "provides", path, list, default=[])],
            "requires": [list(r) for r in _get(d, "requires", path, list, default=[])],
            "install_seconds": _get(d, "install_seconds", path, (int, float), default=41.0),
            "remove_seconds": _get(d, "remove_seconds", path, (int, float), default=0.0),
            "hardware": _get(d, "hardware", path, bool, default=False),
            "storage_requirement": _get(d, "storage_requirement", path, dict, default=None),
            "constituent_product": _get(d, "constituent_product", path, str, default=None),
        }
        catalog.append(entry)
    data["catalog"] = catalog

    events = []
    set_ids: set[str] = set()
    for i, e in enumerate(_get(raw, "events", "$", list, default=[])):
        path = f"$.events[{i}]"
        kind = _get(e, "kind", path, str)
        if kind not in _EVENT_KINDS:
            raise _fail(path + ".kind", f"unknown event kind {kind!r}")
        event = {"at_seconds": _get(e, "at_seconds", path, (int, float)), "kind": kind}
        if kind == "upgrade-request":
            event["request"] = _parse_request_schema(
                _get(e, "request", path, dict), path + ".request", set_ids
            )
        elif kind == "admin-undo":
            event["set"] = _get(e, "set", path, str)
        elif kind in ("scale-out", "scale-in"):
            event["tenant"] = _get(e, "tenant", path, str)
            if event["tenant"] not in tenant_ids:
                raise _fail(path + ".tenant", f"unknown tenant {event['tenant']!r}")
        elif kind == "host-failure":
            event["host"] = _get(e, "host", path, str)
            if event["host"] not in host_ids:
                raise _fail(path + ".host", f"unknown host {event['host']!r}")
        elif kind == "host-addition":
            event["host"] = _get(e, "host", path, str)
            event["roles"] = sorted(_get(e, "roles", path, list, default=["compute"]))
            event["capacity"] = _get(e, "capacity", path, int, default=0)
            event["capacity_after_upgrade"] = _get(
                e, "capacity_after_upgrade", path, int, default=event["capacity"]
            )
            event["hypervisor"] = _get(e, "hypervisor", path, dict, default=None)
        events.append(event)
    for event in events:
        if event["kind"] == "admin-undo" and event["set"] not in set_ids:
            raise _fail("$.events", f"admin-undo references unknown change set {event['set']!r}")
    data["events"] = events

    failures = _get(raw, "failures", "$", dict, default={})
    data["failures"] = {
        "seed": _get(failures, "seed", "$.failures", int, default=0),
        "rates": _get(failures, "rates", "$.failures", dict, default={}),
        "scripted": _get(failures, "scripted", "$.failures", list, default=[]),
    }

    policies = _get(raw, "policies", "$", dict, default={})
    data["policies"] = {
        "tolerated_host_failures": _get(
            policies, "tolerated_host_failures", "$.policies", int, default=None
        ),
        "dedicated_upgrade_hosts": _get(
            policies, "dedicated_upgrade_hosts", "$.policies", int, default=0
        ),
        "min_active_peers": _get(policies, "min_active_peers", "$.policies", int, default=1),
    }

    timing = dict(_DEFAULT_TIMING)
    raw_timing = _get(raw, "timing", "$", dict, default={})
    for key in raw_timing:
        if key not in _DEFAULT_TIMING:
            raise _fail(f"$.timing.{key}", "unknown timing constant")
        timing[key] = _get(raw_timing, key, "$.timing", (int, float), default=timing[key])
        if not math.isfinite(timing[key]) or timing[key] < 0:
            raise _fail(f"$.timing.{key}", "must be a non-negative number")
    data["timing"] = timing

    vm_upgrade = _get(raw, "vm_upgrade", "$", dict, default=None)
    if vm_upgrade is not None:
        path = "$.vm_upgrade"
        vm_upgrade = {
            "product": _get(vm_upgrade, "product", path, str),
            "version": _get(vm_upgrade, "version", path, str),
            "duration_seconds": _get(vm_upgrade, "duration_seconds", path, (int, float)),
        }
        if vm_upgrade["duration_seconds"] <= 0:
            raise _fail(f"{path}.duration_seconds", "must be positive")
    data["vm_upgrade"] = vm_upgrade
    return Scenario(data=data)


def _parse_request_schema(req: dict, path: str, set_ids: set[str]) -> dict:
    out = {"id": _get(req, "id", path, str), "change_sets": []}
    for i, cs in enumerate(_get(req, "change_sets", path, list)):
        cpath = f"{path}.change_sets[{i}]"
        change_set = {
            "id": _get(cs, "id", cpath, str),
            "max_completion_seconds": _get(cs, "max_completion_seconds", cpath, (int, float)),
            "max_retry": _get(cs, "max_retry", cpath, int, default=1),
            "changes": [],
        }
        set_ids.add(change_set["id"])
        for j, ch in enumerate(_get(cs, "changes", cpath, list)):
            hpath = f"{cpath}.changes[{j}]"
            change = {
                "id": _get(ch, "id", hpath, str),
                "action": _get(ch, "action", hpath, str, default="upgrade"),
                "product": _get(ch, "product", hpath, str),
                "version": _get(ch, "version", hpath, str),
                "targets": sorted(_get(ch, "targets", hpath, list, default=[])),
                "selector": _get(ch, "selector", hpath, dict, default=None),
                "undo_threshold": _get(ch, "undo_threshold", hpath, int, default=0),
                "undo_version": _get(ch, "undo_version", hpath, str, default=None),
                "new_resource_id": _get(ch, "new_resource_id", hpath, str, default=None),
            }
            change_set["changes"].append(change)
        out["change_sets"].append(change_set)
    return out


# -- materialization -----------------------------------------------------------------


def build_catalog(scenario: Scenario) -> UpgradeCatalog:
    catalog = UpgradeCatalog()
    for entry in scenario.data["catalog"]:
        requirement = None
        if entry["storage_requirement"] is not None:
            requirement = StorageRequirement(
                min_hosts_for_configuration=entry["storage_requirement"][
                    "min_hosts_for_configuration"
                ],
                min_hosts_for_capacity=entry["storage_requirement"]["min_hosts_for_capacity"],
            )
        catalog.register(
            build_description(
                component_id=entry["component_id"],
                product_id=entry["product"],
                version=entry["version"],
                kind=entry["kind"],
                provides=[(name, version) for name, version in entry["provides"]],
                requires=[
                    CapabilityRange(r[0], r[1], r[2] if len(r) > 2 else None)
                    for r in entry["requires"]
                ],
                install_time_ms=seconds_to_ms(entry["install_seconds"]),
                remove_time_ms=seconds_to_ms(entry["remove_seconds"]),
                hardware=entry["hardware"],
                storage_requirement=requirement,
                constituent_product=entry["constituent_product"],
            )
        )
    return catalog


def build_cluster(scenario: Scenario) -> ClusterState:
    cluster = ClusterState()
    compute_hosts = [
        h["id"] for h in scenario.data["cluster"]["hosts"] if "compute" in h["roles"]
    ]
    for h in scenario.data["cluster"]["hosts"]:
        roles = frozenset(h["roles"])
        cluster.add_resource(SimResource(
            resource_id=h["id"],
            kind=host_kind(roles),
            roles=roles,
            capacity=h["capacity"],
            capacity_after_upgrade=h["capacity_after_upgrade"],
        ))
    for c in scenario.data["cluster"]["components"]:
        serves = c["serves"]
        if serves == "all-compute":
            serves = list(compute_hosts)
        cluster.add_resource(SimResource(
            resource_id=c["id"],
            kind=c["kind"],
            installed={c["product"]: c["version"]},
            primary_product=c["product"],
            container=c["host"],
            constituents=tuple(c["constituents"]),
            serves=tuple(serves),
            peers=tuple(c["peers"]),
            initial_primary_version=c["version"],
        ))
    for t in scenario.data["tenants"]:
        cluster.tenants[t["id"]] = TenantSLA(
            tenant_id=t["id"],
            min_vms=t["min_vms"],
            max_vms=t["max_vms"],
            scaling_adjustment=t["scaling_adjustment"],
            cooldown_ms=seconds_to_ms(t["cooldown_seconds"]),
            committed=len(t["vms"]),
        )
        for v in t["vms"]:
            cluster.add_vm(VmState(
                vm_id=v["id"], tenant_id=t["id"], group_id=v["group"], host=v["host"]
            ))
    cluster.validate()
    return cluster


def build_events(scenario: Scenario) -> list[ScenarioEvent]:
    events = []
    for e in scenario.data["events"]:
        payload = {k: v for k, v in e.items() if k not in ("at_seconds", "kind")}
        events.append(ScenarioEvent(at=seconds_to_ms(e["at_seconds"]), kind=e["kind"], payload=payload))
    return events


def build_failure_model(scenario: Scenario, seed_override: int | None = None) -> FailureModel:
    spec = scenario.data["failures"]
    scripted = [
        ScriptedFailure(
            occurrence=s.get("occurrence", 1),
            action_id=s.get("action_id"),
            kind=s.get("action_kind"),
            target=s.get("target"),
        )
        for s in spec["scripted"]
    ]
    return FailureModel(
        seed=spec["seed"] if seed_override is None else seed_override,
        rates=dict(spec["rates"]),
        scripted=scripted,
    )


def build_policies(scenario: Scenario) -> Policies:
    p = scenario.data["policies"]
    return Policies(
        tolerated_host_failures=p["tolerated_host_failures"],
        dedicated_upgrade_hosts=p["dedicated_upgrade_hosts"],
        min_active_peers=p["min_active_peers"],
    )


def build_timing(scenario: Scenario) -> TimingConstants:
    t = scenario.data["timing"]
    return TimingConstants(
        migration_ms=seconds_to_ms(t["migration_seconds"]),
        migration_outage_ms=seconds_to_ms(t["migration_outage_seconds"]),
        iteration_overhead_ms=seconds_to_ms(t["iteration_overhead_seconds"]),
        failover_restart_ms=seconds_to_ms(t["failover_restart_seconds"]),
    )


def build_vm_upgrade(scenario: Scenario) -> tuple[str, str, int] | None:
    spec = scenario.data["vm_upgrade"]
    if spec is None:
        return None
    return (spec["product"], spec["version"], seconds_to_ms(spec["duration_seconds"]))


def parse_upgrade_request(payload: dict) -> UpgradeRequest:
    sets = []
    for cs in payload["change_sets"]:
        changes = []
        for ch in cs["changes"]:
            changes.append(
                Change(
                    change_id=ch["id"],
                    action=ch.get("action", "upgrade"),
                    product=ch["product"],
                    target_version=ch["version"],
                    targets=tuple(ch.get("targets", ())),
                    selector=ch.get("selector"),
                    undo_threshold=ch.get("undo_threshold", 0),
                    undo_version=ch.get("undo_version"),
                    new_resource_id=ch.get("new_resource_id"),
                )
            )
        sets.append(
            ChangeSet(
                set_id=cs["id"],
                changes=changes,
                max_completion_period_ms=seconds_to_ms(cs["max_completion_seconds"]),
                max_retry=cs.get("max_retry", 1),
            )
        )
    return UpgradeRequest(request_id=payload["id"], change_sets=sets)


def build_coordinator(scenario: Scenario, seed_override: int | None = None):
    from upgradesim.coordinator import Coordinator

    return Coordinator(
        cluster=build_cluster(scenario),
        catalog=build_catalog(scenario),
        events=build_events(scenario),
        failure_model=build_failure_model(scenario, seed_override),
        timing=build_timing(scenario),
        policies=build_policies(scenario),
        vm_upgrade=build_vm_upgrade(scenario),
    )
