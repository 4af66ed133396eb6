"""Workloads of the upgradesim benchmark and the seeded fleet generators.

A workload is a list of scenario runs, each one call of ``upgradesim.cli.main``.
The generated fleets are written as scenario JSON files; the program sees only
those files. The same seed always gives byte-identical scenario files.

Run ``python3 perfbench/workloads.py --write NAME --seed N --out FILE`` to write
one generated scenario, for example a reproducer of an excluded workload.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

BUNDLED = [
    "dynamicity-burst",
    "fig1-analog",
    "ppu-storage",
    "suspension",
    "table1-scenario-a",
    "table1-scenario-b",
]

_HV_CATALOG = [
    {
        "component_id": "qemu-1", "product": "qemu", "version": "1", "kind": "hypervisor",
        "provides": [["vm-runtime", 1]], "requires": [], "install_seconds": 41,
    },
    {
        "component_id": "qemu-2", "product": "qemu", "version": "2", "kind": "hypervisor",
        "provides": [["vm-runtime", 2]], "requires": [], "install_seconds": 41,
    },
]

_STORAGE_CATALOG = [
    {
        "component_id": "esxi-1", "product": "esxi", "version": "1", "kind": "hypervisor",
        "provides": [["vm-runtime", 1]], "requires": [["vm-storage", 1, 1]],
        "install_seconds": 41,
    },
    {
        "component_id": "kvm-2", "product": "kvm", "version": "2", "kind": "hypervisor",
        "provides": [["vm-runtime", 2]], "requires": [["vm-storage", 2, 2]],
        "install_seconds": 41,
    },
    {
        "component_id": "vsan-1d", "product": "vsan", "version": "1", "kind": "virtual-storage",
        "provides": [["vm-storage", 1]], "requires": [],
        "install_seconds": 60, "remove_seconds": 10,
        "storage_requirement": {"min_hosts_for_configuration": 2, "min_hosts_for_capacity": 2},
    },
    {
        "component_id": "ceph-2d", "product": "ceph", "version": "2", "kind": "virtual-storage",
        "provides": [["vm-storage", 2]], "requires": [["storage-daemon", 2, 2]],
        "install_seconds": 60, "remove_seconds": 10,
        "storage_requirement": {"min_hosts_for_configuration": 3, "min_hosts_for_capacity": 2},
        "constituent_product": "ceph-osd",
    },
    {
        "component_id": "ceph-osd-2", "product": "ceph-osd", "version": "2",
        "kind": "storage-host", "provides": [["storage-daemon", 2]], "requires": [],
        "install_seconds": 30,
    },
]

# Generator parameters of each generated workload and excluded reproducer.
FLEETS = {
    "fleet-hv": {"upgrade": "hypervisor", "hosts": 96, "capacity": 2, "packed": 0.6},
    "fleet-ppu": {
        "upgrade": "storage", "hosts": 80, "storage_hosts": 6, "capacity": 2, "packed": 0.5,
    },
    "churn": {
        "upgrade": "hypervisor", "hosts": 48, "capacity": 2, "packed": 0.6,
        "spare_vms": 1, "scale_events": 40,
    },
    "churn-failures": {
        "upgrade": "hypervisor", "hosts": 48, "capacity": 2, "packed": 0.6,
        "host_failures": 4, "failure_rates": {"install": 0.05, "activate": 0.05},
    },
    "spread": {"upgrade": "hypervisor", "hosts": 20, "capacity": 2, "packed": 1.0, "fill": 0.5},
    "spread-40": {"upgrade": "hypervisor", "hosts": 40, "capacity": 2, "packed": 1.0, "fill": 0.5},
}


def _tenants(rng: random.Random, slots: dict[str, int], spare_vms: int) -> list[dict]:
    """Fill every slot with tenants of 2 to 5 VMs in one anti-affinity group.

    Sizes repeat 2, 3, 4, 5 in an order the seed shuffles, so that every seed
    has the same mix of tenant sizes and only placement differs; a mix drawn
    at random made host time vary by a third between seeds.
    """
    sizes: list[int] = []
    while sum(sizes) < sum(slots.values()):
        sizes.append(2 + len(sizes) % 4)
    rng.shuffle(sizes)
    tenants: list[dict] = []
    while any(slots.values()):
        free = sorted(h for h, n in slots.items() if n > 0)
        if len(free) < 2:
            # one host left: give its slots to tenants that have no VM there
            host = free[0]
            for tenant in tenants:
                if slots[host] and all(vm["host"] != host for vm in tenant["vms"]):
                    tenant["vms"].append({"id": f"{tenant['id']}.{len(tenant['vms']) + 1}",
                                          "host": host})
                    tenant["min_vms"] += 1
                    tenant["max_vms"] += 1
                    slots[host] -= 1
            continue
        size = min(sizes.pop() if sizes else 2, len(free))
        tid = f"T{len(tenants) + 1:03d}"
        vms = []
        for j, host in enumerate(sorted(rng.sample(free, size))):
            slots[host] -= 1
            vms.append({"id": f"{tid}.{j + 1}", "host": host})
        tenants.append({
            "id": tid, "min_vms": size - spare_vms, "max_vms": size + 3,
            "scaling_adjustment": 1, "cooldown_seconds": 600, "vms": vms,
        })
    return tenants


def _request(upgrade: str) -> dict:
    if upgrade == "hypervisor":
        change = {"id": "ch-qemu", "action": "upgrade", "product": "qemu", "version": "2",
                  "selector": {"kind": "hypervisor"}, "undo_threshold": 0}
    else:
        change = {"id": "ch-storage", "action": "upgrade", "product": "ceph", "version": "2",
                  "targets": ["vsan-1"], "undo_threshold": 0, "new_resource_id": "ceph-1"}
    return {
        "at_seconds": 0,
        "kind": "upgrade-request",
        "request": {"id": f"req-{upgrade}", "change_sets": [{
            "id": f"cs-{upgrade}", "max_completion_seconds": 360000, "max_retry": 2,
            "changes": [change],
        }]},
    }


def generate_fleet(name: str, seed: int) -> dict:
    """The scenario of generated workload ``name`` (a key of FLEETS) for ``seed``."""
    p = FLEETS[name]
    rng = random.Random(f"{name}:{seed}")
    hosts = [f"h{i:03d}" for i in range(1, p["hosts"] + 1)]
    loaded = sorted(rng.sample(hosts, round(p["hosts"] * p["packed"])))
    slots = {h: p["capacity"] for h in loaded}
    if "fill" in p:  # spread VMs over every host, leaving none empty
        slots = {h: max(1, round(p["capacity"] * p["fill"])) for h in loaded}
    tenants = _tenants(rng, slots, p.get("spare_vms", 0))
    product = "qemu" if p["upgrade"] == "hypervisor" else "esxi"
    host_specs = [{"id": h, "roles": ["compute"], "capacity": p["capacity"]} for h in hosts]
    components = [
        {"id": f"hv-{h}", "kind": "hypervisor", "product": product, "version": "1", "host": h}
        for h in hosts
    ]
    catalog = _HV_CATALOG
    if p["upgrade"] == "storage":
        storage = [f"s{i}" for i in range(1, p["storage_hosts"] + 1)]
        host_specs += [{"id": s, "roles": ["storage"], "capacity": 0} for s in storage]
        components.append({
            "id": "vsan-1", "kind": "virtual-storage", "product": "vsan", "version": "1",
            "constituents": storage[:3], "serves": "all-compute",
        })
        catalog = _STORAGE_CATALOG
    events = [_request(p["upgrade"])]
    for _ in range(p.get("scale_events", 0)):
        events.append({
            "at_seconds": rng.randint(1, 400),
            "kind": rng.choice(["scale-out", "scale-in"]),
            "tenant": rng.choice(tenants)["id"],
        })
    for host in rng.sample(loaded, p.get("host_failures", 0)):
        events.append({"at_seconds": rng.randint(1, 400), "kind": "host-failure", "host": host})
    events.sort(key=lambda e: (e["at_seconds"], e["kind"], e.get("tenant", e.get("host", ""))))
    return {
        "name": f"{name}-s{seed}",
        "cluster": {"hosts": host_specs, "components": components},
        "tenants": tenants,
        "catalog": catalog,
        "events": events,
        "failures": {"seed": seed, "rates": p.get("failure_rates", {}), "scripted": []},
        "policies": {"tolerated_host_failures": 0, "dedicated_upgrade_hosts": 0},
    }


def write_fleet(name: str, seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(generate_fleet(name, seed), sort_keys=True, indent=1) + "\n")
    return path


def scenario_runs(workload: str, seed: int, root: Path, work: Path) -> list[tuple[str, list[str]]]:
    """(run name, cli.main argv without --out) for one pass of ``workload``.

    Generated scenario files are written under ``work`` once, here.
    """
    scenarios = root / "scenarios"
    if workload in ("fleet-hv", "fleet-ppu"):
        path = write_fleet(workload, seed, work / f"{workload}-s{seed}.json")
        return [(workload, ["--scenario", str(path), "--mode", "coordinator"])]
    if workload == "table1-compare":
        return [
            (name, ["--scenario", str(scenarios / f"{name}.json"), "--mode", "compare",
                    "--batch-sizes", "1,2,3,4", "--seed", str(seed)])
            for name in ("table1-scenario-a", "table1-scenario-b")
        ]
    if workload == "bundled-coord":
        return [
            (name, ["--scenario", str(scenarios / f"{name}.json"), "--mode", "coordinator",
                    "--seed", str(seed)])
            for name in BUNDLED
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fleet-hv", "fleet-ppu", "table1-compare", "bundled-coord")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", choices=sorted(FLEETS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(write_fleet(args.write, args.seed, Path(args.out)))


if __name__ == "__main__":
    main()
