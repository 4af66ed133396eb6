"""Per-iteration upgrade planning: consolidation, batch selection under
dependency and SLA constraints, schedule construction, and engine feedback.

The SLA arithmetic works on host counts: the window a batch may occupy a
host (upgrade plus recovery), the worst-case scaling burst inside that
window, and the host reservations that burst and tolerated failures imply.
Whatever is left of the free hosts is the out-of-service budget for the
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from upgradesim.actions import (
    ActionKind,
    Lane,
    ResolvedAction,
    RuntimeUpgradeSchedule,
    TimedAction,
)
from upgradesim.catalog import StorageRequirement, UpgradeCatalog
from upgradesim.cluster import ClusterState, TenantSLA, VmState
from upgradesim.control_graph import ResourceGroup
from upgradesim.errors import EmptyBatchError
from upgradesim.requests import UpgradeRequestModel
from upgradesim.resource_graph import (
    DependencyKind,
    ExecutionLevel,
    Presence,
    ResourceGraph,
    UpgradeMethod,
)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class TimingConstants:
    migration_ms: int = 23_000
    migration_outage_ms: int = 600
    iteration_overhead_ms: int = 230
    failover_restart_ms: int = 10_000
    vm_replacement_ms: int = 10_000


@dataclass(frozen=True)
class Policies:
    tolerated_host_failures: int | None = None  # None: 1 while old-side VMs exist
    dedicated_upgrade_hosts: int = 0
    min_active_peers: int = 1


@dataclass(frozen=True)
class PartitionView:
    """Host-set snapshot the budget equations operate on."""

    compute: frozenset[str]
    storage: frozenset[str]
    network: frozenset[str]
    controller: frozenset[str]
    compute_for_old: frozenset[str]
    compute_for_new: frozenset[str]
    used_compute: frozenset[str]
    used_compute_for_old: frozenset[str]
    used_compute_for_new: frozenset[str]
    vms_per_host: int
    vms_per_host_new: int
    partitioned: bool
    new_side_ready: bool

    def describe(self) -> dict:
        return {
            "compute": sorted(self.compute),
            "storage": sorted(self.storage),
            "compute_for_old": sorted(self.compute_for_old),
            "compute_for_new": sorted(self.compute_for_new),
            "used_compute": sorted(self.used_compute),
            "used_compute_for_old": sorted(self.used_compute_for_old),
            "used_compute_for_new": sorted(self.used_compute_for_new),
            "vms_per_host": self.vms_per_host,
            "vms_per_host_new": self.vms_per_host_new,
            "partitioned": self.partitioned,
            "new_side_ready": self.new_side_ready,
        }


@dataclass(frozen=True)
class Batch:
    groups: tuple[str, ...]
    kind: str  # "initial" | "final"

    def __bool__(self) -> bool:
        return bool(self.groups)


@dataclass(frozen=True)
class Elimination:
    group_id: str
    rule: str

    def describe(self) -> dict:
        return {"group": self.group_id, "rule": self.rule}


@dataclass(frozen=True)
class IterationBudget:
    window_ms: int
    max_scaling_vms: int
    tolerated_failures: int
    scaling_tenants_old: int
    scaling_reservation_old: int
    failover_reservation_old: int
    out_of_service_budget: int

    def describe(self) -> dict:
        return {
            "window_ms": self.window_ms,
            "max_scaling_vms": self.max_scaling_vms,
            "tolerated_failures": self.tolerated_failures,
            "scaling_tenants_old": self.scaling_tenants_old,
            "scaling_reservation_old": self.scaling_reservation_old,
            "failover_reservation_old": self.failover_reservation_old,
            "out_of_service_budget": self.out_of_service_budget,
        }


# -- partition view ---------------------------------------------------------------


def _host_partitions(
    cluster: ClusterState, rg: ResourceGraph, catalog: UpgradeCatalog
) -> tuple[bool, set[str], set[str], bool]:
    """Classify usable compute hosts into old/new sides.

    The cluster is partitioned while a local-parallel-universe unit's old side
    still exists, or while an incompatibility-bearing hypervisor upgrade is in
    flight. A host belongs to the side its current components are compatible
    with.
    """
    ppu_pairs: list[tuple[str, str]] = []
    for unit in rg.upgrade_units.values():
        if unit.method != UpgradeMethod.PPU or unit.partitions is None:
            continue
        old_ids, new_ids = unit.partitions
        for old_id in old_ids:
            old_sim = cluster.resources.get(old_id)
            if old_sim is not None and not old_sim.removed:
                ppu_pairs.append((old_id, new_ids[0] if new_ids else old_id))
    if not ppu_pairs:
        usable = {h for h in cluster.hosts_with_role("compute") if cluster.host_can_run_vms(h)}
        return False, set(usable), set(usable), True

    old_id, new_id = sorted(ppu_pairs)[0]
    old_sim = cluster.resources.get(old_id)
    new_sim = cluster.resources.get(new_id)
    old_set: set[str] = set()
    new_set: set[str] = set()
    for host_id in cluster.hosts_with_role("compute"):
        if not cluster.host_can_run_vms(host_id):
            continue
        hv = cluster.hypervisor_of(host_id)
        installed = dict(hv.installed) if hv is not None else {}
        for side, sim, bucket in (("old", old_sim, old_set), ("new", new_sim, new_set)):
            if sim is None or sim.removed or not sim.present or not sim.active:
                continue
            caps = catalog.capabilities_of(sim.installed)
            ranges = [r for r in catalog.requirements_of(installed) if r.name in caps]
            if ranges and all(r.accepts(caps[r.name]) for r in ranges):
                bucket.add(host_id)
            elif not ranges and side == "old":
                bucket.add(host_id)
    new_ready = (
        new_sim is not None
        and new_sim.present
        and new_sim.active
        and not new_sim.removed
    )
    return True, old_set, new_set, bool(new_ready and new_set)


def build_partition_view(
    cluster: ClusterState, rg: ResourceGraph, catalog: UpgradeCatalog
) -> PartitionView:
    partitioned, old_set, new_set, new_ready = _host_partitions(cluster, rg, catalog)
    used = {h for h in cluster.used_compute_hosts()}
    caps = [cluster.resource(h).capacity for h in cluster.hosts_with_role("compute")]
    caps_new = [
        cluster.resource(h).capacity_after_upgrade for h in cluster.hosts_with_role("compute")
    ]
    return PartitionView(
        compute=frozenset(cluster.hosts_with_role("compute")),
        storage=frozenset(cluster.hosts_with_role("storage")),
        network=frozenset(cluster.hosts_with_role("network")),
        controller=frozenset(cluster.hosts_with_role("controller")),
        compute_for_old=frozenset(old_set),
        compute_for_new=frozenset(new_set),
        used_compute=frozenset(used),
        used_compute_for_old=frozenset(used & old_set),
        used_compute_for_new=frozenset(used & new_set),
        vms_per_host=max(caps, default=0),
        vms_per_host_new=max(caps_new, default=0),
        partitioned=partitioned,
        new_side_ready=new_ready,
    )


# -- budget arithmetic -------------------------------------------------------------


def upgrade_recovery_window(batch_levels: list[ExecutionLevel]) -> int:
    """Worst time any batched resource may be out: its level plus its undo."""
    if not batch_levels:
        raise EmptyBatchError("cannot size an empty batch")
    return max(lvl.duration_ms() + lvl.undo_duration_ms() for lvl in batch_levels)


def max_scaling_adjustment(tenants: list[TenantSLA], window_ms: int) -> int:
    """Largest per-tenant VM burst the window admits: max of s * ceil(T/c)."""
    best = 0
    for tenant in tenants:
        if tenant.cooldown_ms <= 0:
            continue
        best = max(best, tenant.scaling_adjustment * ceil_div(window_ms, tenant.cooldown_ms))
    return best


def scaling_host_reservation(adjustment_vms: int, tenant_count: int, per_host: int) -> int:
    """Hosts reserved so every scale-capable tenant can burst at once."""
    if per_host < 1:
        raise ValueError("per-host VM capacity must be >= 1")
    return adjustment_vms * ceil_div(tenant_count, per_host)


def out_of_service_budget(
    view: PartitionView, scaling_reservation: int, failover_reservation: int
) -> int:
    """Compute hosts that may be taken out this iteration, floored at zero."""
    if not view.used_compute_for_old:
        return len(view.compute_for_old)
    free = len(view.compute_for_old - view.used_compute_for_old)
    return max(0, free - scaling_reservation - failover_reservation)


def storage_hosts_sufficient(
    view: PartitionView, old_req: StorageRequirement, new_req: StorageRequirement
) -> bool:
    """Enough storage hosts to keep old and new configurations alive at once."""
    return len(view.storage - view.used_compute) >= old_req.bound + new_req.bound


def tolerated_failures(view: PartitionView, policies: Policies) -> int:
    if not view.used_compute_for_old:
        return 0
    if policies.tolerated_host_failures is not None:
        return policies.tolerated_host_failures
    return 1


def scale_capable_tenants_old(cluster: ClusterState, view: PartitionView) -> int:
    """Tenants below their maximum whose VMs are all still on the old side."""
    count = 0
    for tenant_id in sorted(cluster.tenants):
        tenant = cluster.tenants[tenant_id]
        if tenant.committed >= tenant.max_vms:
            continue
        vms = [v for v in cluster.tenant_vms(tenant_id) if v.up and v.host]
        if not view.partitioned:
            count += 1
            continue
        if vms and all(v.host in view.compute_for_new for v in vms):
            continue  # counted on the new side instead
        count += 1
    return count


def compute_budget(
    cluster: ClusterState,
    view: PartitionView,
    batch_levels: list[ExecutionLevel],
    policies: Policies,
) -> IterationBudget:
    window = upgrade_recovery_window(batch_levels) if batch_levels else 0
    tenants = [cluster.tenants[t] for t in sorted(cluster.tenants)]
    eligible = [t for t in tenants if t.committed < t.max_vms]
    adjustment = max_scaling_adjustment(eligible, window)
    scale_tenants = scale_capable_tenants_old(cluster, view)
    reservation = (
        scaling_host_reservation(adjustment, scale_tenants, view.vms_per_host)
        if view.vms_per_host >= 1
        else 0
    )
    failover = tolerated_failures(view, policies)
    budget = out_of_service_budget(view, reservation, failover)
    return IterationBudget(
        window_ms=window,
        max_scaling_vms=adjustment,
        tolerated_failures=failover,
        scaling_tenants_old=scale_tenants,
        scaling_reservation_old=reservation,
        failover_reservation_old=failover,
        out_of_service_budget=budget,
    )


# -- consolidation -----------------------------------------------------------------


@dataclass(frozen=True)
class PlannedMigration:
    vm_id: str
    source: str
    dest: str
    tenant_id: str
    group_id: str
    forced: bool = False  # evacuation of storage/compute overlap hosts
    parked: bool = False  # destination still has pending work; temporary

    @property
    def group_key(self) -> tuple[str, str]:
        return (self.tenant_id, self.group_id)


def host_has_pending_work(rg: ResourceGraph, cluster: ClusterState, host_id: str) -> bool:
    res = rg.resources.get(host_id)
    if res is not None and res.levels:
        return True
    for comp in cluster.components_on(host_id):
        comp_res = rg.resources.get(comp.resource_id)
        if comp_res is not None and comp_res.levels:
            return True
    return False


def _side_of(view: PartitionView, host_id: str) -> str:
    if not view.partitioned:
        return "any"
    if host_id in view.compute_for_new:
        return "new"
    if host_id in view.compute_for_old:
        return "old"
    return "none"


def _pick_destination(
    cluster: ClusterState,
    vm: VmState,
    candidates: list[str],
    load: dict[str, int],
    placed_groups: dict[str, set[tuple[str, str]]],
) -> str | None:
    for host_id in candidates:
        if load[host_id] >= cluster.effective_capacity(host_id):
            continue
        if (vm.tenant_id, vm.group_id) in placed_groups[host_id]:
            continue
        return host_id
    return None


def plan_consolidation(
    cluster: ClusterState,
    rg: ResourceGraph,
    view: PartitionView,
    catalog: UpgradeCatalog,
) -> list[PlannedMigration]:
    """Pack VMs to free up hosts ahead of batch selection.

    Hosts serving both storage and compute are evacuated first while a
    storage upgrade running as a local parallel universe still needs its new
    configuration brought up, since those hosts must leave compute duty for
    the storage capacity check to pass. Opportunistic moves only target hosts
    with no pending work, so a consolidated VM is never displaced again by
    the host's own upgrade; once an incompatible partition has a ready new
    side, old-side VMs are left for the cross-partition waves instead.
    """
    ppu_pending = False
    for unit in rg.upgrade_units.values():
        if unit.method != UpgradeMethod.PPU or not rg.pending_unit_work(unit.unit_id):
            continue
        if unit.partitions is not None:
            add_side_building = any(
                (res := cluster.resources.get(rid)) is not None
                and not (res.present and res.active)
                for rid in unit.partitions[1]
            )
            if add_side_building:
                ppu_pending = True
        else:
            ppu_pending = True
    plan: list[PlannedMigration] = []
    load = {h: len(cluster.vms_on(h)) for h in cluster.hosts_with_role("compute")}
    placed_groups: dict[str, set[tuple[str, str]]] = {
        h: {(v.tenant_id, v.group_id) for v in cluster.vms_on(h)}
        for h in cluster.hosts_with_role("compute")
    }
    moved: set[str] = set()

    def commit(vm: VmState, source: str, dest: str, forced: bool, parked: bool) -> None:
        plan.append(
            PlannedMigration(
                vm_id=vm.vm_id,
                source=source,
                dest=dest,
                tenant_id=vm.tenant_id,
                group_id=vm.group_id,
                forced=forced,
                parked=parked,
            )
        )
        load[source] -= 1
        load[dest] += 1
        placed_groups[source].discard((vm.tenant_id, vm.group_id))
        placed_groups[dest].add((vm.tenant_id, vm.group_id))
        moved.add(vm.vm_id)

    if ppu_pending:
        overlap = sorted(view.storage & view.compute & view.used_compute)
        for host_id in overlap:
            side = _side_of(view, host_id)
            for vm in cluster.vms_on(host_id):
                if vm.vm_id in moved:
                    continue
                candidates = [
                    h
                    for h in cluster.hosts_with_role("compute")
                    if h != host_id
                    and h not in view.storage
                    and cluster.host_can_run_vms(h)
                    and _side_of(view, h) in ("any", side)
                ]
                candidates.sort(
                    key=lambda h: (host_has_pending_work(rg, cluster, h), -load[h], h)
                )
                dest = _pick_destination(cluster, vm, candidates, load, placed_groups)
                if dest is not None:
                    commit(vm, host_id, dest, forced=True, parked=host_has_pending_work(rg, cluster, dest))

    sources = [
        h
        for h in cluster.hosts_with_role("compute")
        if host_has_pending_work(rg, cluster, h) and load[h] > 0 and h not in view.storage
    ]
    sources.sort(key=lambda h: (load[h], h))
    for host_id in sources:
        side = _side_of(view, host_id)
        if view.partitioned and view.new_side_ready and side == "old":
            continue  # these VMs cross the partition instead
        vms = [v for v in cluster.vms_on(host_id) if v.vm_id not in moved]
        if not vms:
            continue
        tentative: list[tuple[VmState, str]] = []
        t_load = dict(load)
        t_groups = {h: set(g) for h, g in placed_groups.items()}
        feasible = True
        for vm in vms:
            candidates = [
                h
                for h in cluster.hosts_with_role("compute")
                if h != host_id
                and cluster.host_can_run_vms(h)
                and not host_has_pending_work(rg, cluster, h)
                and _side_of(view, h) in ("any", side)
            ]
            candidates.sort(key=lambda h: (-t_load[h], h))
            dest = _pick_destination(cluster, vm, candidates, t_load, t_groups)
            if dest is None:
                feasible = False
                break
            tentative.append((vm, dest))
            t_load[dest] += 1
            t_load[host_id] -= 1
            t_groups[dest].add((vm.tenant_id, vm.group_id))
            t_groups[host_id].discard((vm.tenant_id, vm.group_id))
        if feasible:
            for vm, dest in tentative:
                commit(vm, host_id, dest, forced=False, parked=False)
    return plan


# -- migration slotting -------------------------------------------------------------


def _slot_migrations(pairs: list[tuple[str, str]]) -> list[int]:
    """Assign each (lane, group) migration a slot so no lane or group repeats
    a slot. Bipartite edge coloring with alternating-path repair: the slot
    count never exceeds the largest lane/group multiplicity."""
    used: dict[str, dict[int, int]] = {}
    color_of: list[int | None] = [None] * len(pairs)

    def endpoint_names(i: int) -> tuple[str, str]:
        return ("L:" + pairs[i][0], "G:" + pairs[i][1])

    for i in range(len(pairs)):
        u, v = endpoint_names(i)
        used.setdefault(u, {})
        used.setdefault(v, {})
        cu = 0
        while cu in used[u]:
            cu += 1
        cv = 0
        while cv in used[v]:
            cv += 1
        if cu != cv:
            # free color cu at v by flipping the maximal cu/cv alternating path
            path = []
            node, color = v, cu
            while color in used[node]:
                edge = used[node][color]
                path.append(edge)
                a, b = endpoint_names(edge)
                node = b if node == a else a
                color = cv if color == cu else cu
            for edge in path:
                a, b = endpoint_names(edge)
                del used[a][color_of[edge]]
                del used[b][color_of[edge]]
            for edge in path:
                flipped = cv if color_of[edge] == cu else cu
                color_of[edge] = flipped
                a, b = endpoint_names(edge)
                used[a][flipped] = edge
                used[b][flipped] = edge
        color_of[i] = cu
        used[u][cu] = i
        used[v][cu] = i
    return [c if c is not None else 0 for c in color_of]


def migration_offsets(
    migrations: list[PlannedMigration], duration_ms: int
) -> list[int]:
    """Start offsets keeping lanes (source hosts) and anti-affinity groups
    serial, compacted so nothing waits longer than it must."""
    pairs = [(m.source, f"{m.tenant_id}/{m.group_id}") for m in migrations]
    slots = _slot_migrations(pairs)
    order = sorted(range(len(migrations)), key=lambda i: (slots[i], migrations[i].source, migrations[i].vm_id))
    lane_free: dict[str, int] = {}
    group_free: dict[tuple[str, str], int] = {}
    offsets = [0] * len(migrations)
    for i in order:
        m = migrations[i]
        start = max(lane_free.get(m.source, 0), group_free.get(m.group_key, 0))
        offsets[i] = start
        lane_free[m.source] = start + duration_ms
        group_free[m.group_key] = start + duration_ms
    return offsets


def migration_action(m: PlannedMigration, timing: TimingConstants, role: str | None = None) -> ResolvedAction:
    params = {
        "vm": m.vm_id,
        "from_host": m.source,
        "to_host": m.dest,
        "tenant": m.tenant_id,
        "group": m.group_id,
        "outage_ms": timing.migration_outage_ms,
    }
    if role:
        params["role"] = role
    undo = (
        ResolvedAction(
            action_id=f"migrate:{m.vm_id}:back",
            kind=ActionKind.MIGRATE_VM,
            target=m.vm_id,
            duration_ms=timing.migration_ms,
            params={
                "vm": m.vm_id,
                "from_host": m.dest,
                "to_host": m.source,
                "tenant": m.tenant_id,
                "group": m.group_id,
                "outage_ms": timing.migration_outage_ms,
            },
        ),
    )
    return ResolvedAction(
        action_id=f"migrate:{m.vm_id}",
        kind=ActionKind.MIGRATE_VM,
        target=m.vm_id,
        duration_ms=timing.migration_ms,
        params=params,
        undo=undo,
    )


def build_consolidation_schedule(
    plan: list[PlannedMigration],
    timing: TimingConstants,
    schedule_id: str,
    issued_at: int,
) -> RuntimeUpgradeSchedule:
    offsets = migration_offsets(plan, timing.migration_ms)
    lanes = []
    for m, offset in sorted(zip(plan, offsets), key=lambda t: (t[0].vm_id,)):
        lanes.append(
            Lane(
                lane_id=f"consolidate:{m.vm_id}",
                targets=(m.vm_id,),
                steps=(TimedAction(offset, migration_action(m, timing, role="consolidation")),),
            )
        )
    return RuntimeUpgradeSchedule(schedule_id=schedule_id, issued_at=issued_at, lanes=tuple(lanes))


# -- elimination rules and batch selection ------------------------------------------


def _installed_after_level(
    cluster: ClusterState, resource_id: str, level: ExecutionLevel
) -> dict[str, str]:
    sim = cluster.resources.get(resource_id)
    state = dict(sim.installed) if sim is not None else {}
    for action in level.actions:
        if action.kind == ActionKind.INSTALL:
            replaced = action.params.get("replaces_product")
            if replaced and replaced in state:
                del state[replaced]
            state[action.params["product"]] = action.params["version"]
        elif action.kind == ActionKind.REMOVE:
            state.pop(action.params.get("product", ""), None)
    return state


def _level_deactivates(level: ExecutionLevel) -> bool:
    return any(a.kind == ActionKind.DEACTIVATE for a in level.actions)


def _stays_deactivated(rg: ResourceGraph, resource_id: str, level: ExecutionLevel) -> bool:
    """Split-mode first-partition members come back up only at switchover."""
    unit = rg.upgrade_units.get(level.unit_id)
    if unit is None or unit.method != UpgradeMethod.SPLIT_MODE or unit.partitions is None:
        return False
    return not unit.switchover_done and resource_id in unit.partitions[0]


def held_deactivated(rg: ResourceGraph, resource_id: str) -> bool:
    """An upgraded first-partition member parked until its unit's switchover."""
    for unit in rg.upgrade_units.values():
        if (
            unit.method == UpgradeMethod.SPLIT_MODE
            and unit.partitions is not None
            and not unit.switchover_done
            and resource_id in unit.partitions[0]
            and rg.pending_unit_work(unit.unit_id)
        ):
            return True
    return False


def _hosts_deactivated_by(group: ResourceGroup, rg: ResourceGraph, cluster: ClusterState) -> list[str]:
    hosts: set[str] = set()
    for rid, level in group.first_levels(rg):
        if not _level_deactivates(level):
            continue
        sim = cluster.resources.get(rid)
        if sim is None:
            continue
        if sim.is_host:
            hosts.add(rid)
        elif sim.container is not None:
            hosts.add(sim.container)
    return sorted(h for h in hosts if "compute" in cluster.resources[h].roles)


def _plan_evacuations(
    group: ResourceGroup,
    rg: ResourceGraph,
    cluster: ClusterState,
    view: PartitionView,
    excluded_hosts: set[str],
    load: dict[str, int],
    placed_groups: dict[str, set[tuple[str, str]]],
) -> list[PlannedMigration] | None:
    """Assign destinations for every VM on hosts this group deactivates.

    Destinations prefer hosts with no pending work; hosts that still await
    their own upgrade are used as a last resort and mark the move as parked
    (the wrap-up brings those VMs back). Returns None when some VM cannot be
    placed at all.
    """
    moves: list[PlannedMigration] = []
    for host_id in _hosts_deactivated_by(group, rg, cluster):
        side = _side_of(view, host_id)
        for vm in cluster.vms_on(host_id):
            candidates = [
                h
                for h in cluster.hosts_with_role("compute")
                if h != host_id
                and h not in excluded_hosts
                and cluster.host_can_run_vms(h)
                and _side_of(view, h) in ("any", side)
            ]
            candidates.sort(
                key=lambda h: (host_has_pending_work(rg, cluster, h), -load.get(h, 0), h)
            )
            dest = _pick_destination(cluster, vm, candidates, load, placed_groups)
            if dest is None:
                return None
            moves.append(
                PlannedMigration(
                    vm_id=vm.vm_id,
                    source=host_id,
                    dest=dest,
                    tenant_id=vm.tenant_id,
                    group_id=vm.group_id,
                    parked=host_has_pending_work(rg, cluster, dest),
                )
            )
            load[dest] = load.get(dest, 0) + 1
            load[host_id] = load.get(host_id, 0) - 1
            placed_groups[dest].add((vm.tenant_id, vm.group_id))
            placed_groups[host_id].discard((vm.tenant_id, vm.group_id))
    return moves


def _fresh_load(cluster: ClusterState) -> tuple[dict[str, int], dict[str, set[tuple[str, str]]]]:
    load = {h: len(cluster.vms_on(h)) for h in cluster.hosts_with_role("compute")}
    groups = {
        h: {(v.tenant_id, v.group_id) for v in cluster.vms_on(h)}
        for h in cluster.hosts_with_role("compute")
    }
    return load, groups


def initial_batch(
    groups_by_id: dict[str, ResourceGroup],
    rg: ResourceGraph,
    cluster: ClusterState,
    catalog: UpgradeCatalog,
    view: PartitionView,
    policies: Policies,
) -> tuple[Batch, list[Elimination]]:
    """Groups upgradeable this iteration without breaking any dependency.

    Starts from every group with remaining changes or a deactivated member,
    then applies the elimination rules in a fixed order; survivors form the
    initial batch.
    """
    eliminations: list[Elimination] = []
    candidates: list[ResourceGroup] = []
    for group_id in sorted(groups_by_id):
        group = groups_by_id[group_id]
        kinds = {rg.resources[m].kind for m in group.members if m in rg.resources}
        if kinds <= {"vm"}:
            continue  # VM batches are chosen separately
        members = [rg.resources[m] for m in group.members if m in rg.resources]
        if all(m.is_failed for m in members):
            continue
        reactivatable = any(
            m.present and not m.active and not m.is_isolated
            and not held_deactivated(rg, m.resource_id)
            for m in members
        )
        if not (group.has_remaining_changes(rg) or reactivatable):
            continue
        blocked = False
        for member in members:
            level = member.first_level()
            if member.is_isolated and level is not None and not level.is_undo:
                blocked = True
        if blocked:
            eliminations.append(Elimination(group_id, "isolated-member"))
            continue
        candidates.append(group)

    survivors: list[ResourceGroup] = []
    for group in candidates:
        rule = _first_violated_rule(group, rg, cluster, catalog, view, policies)
        if rule is None:
            survivors.append(group)
        else:
            eliminations.append(Elimination(group.group_id, rule))
    return Batch(tuple(g.group_id for g in survivors), "initial"), eliminations


def _first_violated_rule(
    group: ResourceGroup,
    rg: ResourceGraph,
    cluster: ClusterState,
    catalog: UpgradeCatalog,
    view: PartitionView,
    policies: Policies,
) -> str | None:
    first_levels = group.first_levels(rg)

    # sponsor compatibility: upgrading now must not create a live incompatible
    # current dependency
    post: dict[str, dict[str, str]] = {
        rid: _installed_after_level(cluster, rid, level) for rid, level in first_levels
    }

    def installed(rid: str) -> dict[str, str]:
        if rid in post:
            return post[rid]
        sim = cluster.resources.get(rid)
        return dict(sim.installed) if sim is not None else {}

    def live(rid: str) -> bool:
        sim = cluster.resources.get(rid)
        res = rg.resources.get(rid)
        if sim is None or res is None:
            return False
        if rid in post:
            return True  # will be live once its level completes
        return sim.in_service and not res.is_isolated and not res.is_failed

    in_group = set(group.members)
    for rid, level in first_levels:
        if level.is_undo:
            continue
        unit = rg.upgrade_units.get(level.unit_id)
        # incompatibilities inside the level's own upgrade unit are the
        # method's to handle, not a reason to postpone
        shielded = set(unit.members) if unit is not None else set()
        for edge in rg.edges_from(rid):
            if edge.target in in_group or edge.target in shielded:
                continue
            if edge.presence == Presence.FUTURE or edge.kind == DependencyKind.MIGRATION:
                continue
            if live(edge.target) and not catalog.compatible(installed(rid), installed(edge.target)):
                return "sponsor-compatibility"
        for edge in rg.edges_to(rid):
            if edge.source in in_group or edge.source in shielded:
                continue
            if edge.presence == Presence.FUTURE or edge.kind == DependencyKind.MIGRATION:
                continue
            if live(edge.source) and not catalog.compatible(installed(edge.source), installed(rid)):
                return "sponsor-compatibility"

    # peer / aggregation availability while members are out of service
    deactivating = {rid for rid, level in first_levels if _level_deactivates(level)}
    unit_of = {rid: rg.upgrade_units.get(level.unit_id) for rid, level in first_levels}
    for rid in sorted(deactivating):
        unit = unit_of.get(rid)
        shielded = set(unit.members) if unit is not None else set()
        for edge in rg.edges_from(rid) + rg.edges_to(rid):
            if edge.kind != DependencyKind.PEER:
                continue
            other = edge.target if edge.source == rid else edge.source
            if other in shielded:
                continue  # the unit's method sequences these peers itself
            peer_set = {rid, other}
            for e2 in rg.edges_from(other):
                if e2.kind == DependencyKind.PEER:
                    peer_set.add(e2.target)
            active_left = [
                p
                for p in peer_set
                if p not in deactivating
                and p in cluster.resources
                and cluster.resources[p].in_service
            ]
            if len(active_left) < policies.min_active_peers:
                return "peer-availability"
    for edge in rg.edges:
        if edge.kind != DependencyKind.AGGREGATION or edge.presence == Presence.FUTURE:
            continue
        if edge.target not in deactivating:
            continue
        aggregate = edge.source
        min_needed = edge.min_sponsors or 0
        active_constituents = 0
        for e2 in rg.edges_from(aggregate):
            if e2.kind != DependencyKind.AGGREGATION or e2.presence == Presence.FUTURE:
                continue
            sponsor = e2.target
            if sponsor in deactivating:
                continue
            sim = cluster.resources.get(sponsor)
            if sim is not None and sim.in_service:
                active_constituents += 1
        if active_constituents < min_needed:
            return "aggregation-availability"

    # storage capacity for pending local-parallel-universe upgrades
    for unit_id in sorted(rg.upgrade_units):
        unit = rg.upgrade_units[unit_id]
        if unit.method != UpgradeMethod.PPU or not rg.pending_unit_work(unit_id):
            continue
        set_ids = {
            lvl.set_id
            for member in unit.members
            if member in rg.resources
            for lvl in rg.resources[member].levels
        }
        group_sets = {lvl.set_id for _, lvl in first_levels}
        if not (set_ids & group_sets):
            continue
        old_id, new_id = (unit.partitions or ((), ()))[0], (unit.partitions or ((), ()))[1]
        old_req = _storage_requirement_of(cluster, catalog, old_id)
        new_req = _storage_requirement_of(cluster, catalog, new_id, future=True, rg=rg)
        if old_req and new_req and not storage_hosts_sufficient(view, old_req, new_req):
            return "storage-capacity"

    # VM service: the group's hosts must be evacuable under anti-affinity
    load, placed = _fresh_load(cluster)
    if _plan_evacuations(group, rg, cluster, view, set(_hosts_deactivated_by(group, rg, cluster)), load, placed) is None:
        return "vm-evacuability"

    # dependency ordering for removals and additions
    for rid, level in first_levels:
        if level.kind == "remove":
            for edge in rg.edges_to(rid):
                if edge.presence == Presence.FUTURE or edge.source in in_group:
                    continue
                if edge.kind == DependencyKind.MIGRATION:
                    return "remove-ordering"
                if live(edge.source):
                    return "remove-ordering"
            if _dependent_vms_remain(cluster, rg, rid):
                return "remove-ordering"
        if level.kind == "add":
            requirements = catalog.requirements_of(installed(rid))
            for edge in rg.edges_from(rid):
                if edge.presence != Presence.FUTURE:
                    continue
                sponsor = cluster.resources.get(edge.target)
                if sponsor is None or not sponsor.in_service:
                    return "add-ordering"
                if edge.kind == DependencyKind.AGGREGATION:
                    # every constituent must already provide what the new
                    # aggregate requires, not merely avoid contradicting it
                    caps = catalog.capabilities_of(sponsor.installed)
                    for rng in requirements:
                        if rng.name not in caps or not rng.accepts(caps[rng.name]):
                            return "add-ordering"
                elif not catalog.compatible(installed(rid), installed(edge.target)):
                    return "add-ordering"

    # method ordering: second split-mode partition waits for the first
    for rid, level in first_levels:
        unit = rg.upgrade_units.get(level.unit_id)
        if unit is None or unit.method != UpgradeMethod.SPLIT_MODE or unit.partitions is None:
            continue
        if rid in unit.partitions[1]:
            for first_member in unit.partitions[0]:
                member = rg.resources.get(first_member)
                if member is None:
                    continue
                if any(lvl.unit_id == unit.unit_id for lvl in member.levels):
                    return "method-ordering"
    return None


def _dependent_vms_remain(cluster: ClusterState, rg: ResourceGraph, storage_id: str) -> bool:
    """True while any VM still runs on a host that depends on this resource."""
    for edge in rg.edges_to(storage_id):
        if edge.kind != DependencyKind.VM_SUPPORTING or edge.presence == Presence.FUTURE:
            continue
        if cluster.vms_on(edge.source):
            return True
    return False


def _storage_requirement_of(
    cluster: ClusterState,
    catalog: UpgradeCatalog,
    resource_ids,
    future: bool = False,
    rg: ResourceGraph | None = None,
) -> StorageRequirement | None:
    for rid in resource_ids:
        sim = cluster.resources.get(rid)
        if sim is None:
            continue
        state = sim.primary_state()
        if state is None and future and rg is not None:
            res = rg.resources.get(rid)
            if res is not None and res.levels:
                level = res.levels[0]
                for action in level.actions:
                    if action.kind == ActionKind.INSTALL:
                        state = (action.params["product"], action.params["version"])
                        break
        if state is not None and catalog.has(*state):
            req = catalog.find(*state).storage_requirement
            if req is not None:
                return req
    return None


def select_final_batch(
    batch: Batch,
    groups_by_id: dict[str, ResourceGroup],
    rg: ResourceGraph,
    cluster: ClusterState,
    view: PartitionView,
    budget: IterationBudget,
    policies: Policies,
) -> Batch:
    """Greedy, deterministic packing of the initial batch under the budget.

    Not-in-use groups first, then fewest affected compute hosts, then id.
    Groups whose method keeps them deactivated afterwards are additionally
    bounded by the dedicated upgrade pool. Evacuations are re-verified
    against the combined selection so a later pick cannot strand an earlier
    one's VMs.
    """
    groups = [groups_by_id[g] for g in batch.groups]

    def in_use(group: ResourceGroup) -> bool:
        return any(
            cluster.vms_on(h) for h in _hosts_deactivated_by(group, rg, cluster)
        )

    def affected(group: ResourceGroup) -> int:
        return len(_hosts_deactivated_by(group, rg, cluster))

    groups.sort(key=lambda g: (in_use(g), affected(g), g.group_id))

    selected: list[ResourceGroup] = []
    hosts_taken = 0
    dedicated_used = 0
    excluded: set[str] = set()
    load, placed = _fresh_load(cluster)
    for group in groups:
        cost = affected(group)
        if hosts_taken + cost > budget.out_of_service_budget:
            continue
        stays_down = sum(
            1 for rid, lvl in group.first_levels(rg) if _stays_deactivated(rg, rid, lvl)
        )
        if stays_down and dedicated_used + stays_down > policies.dedicated_upgrade_hosts:
            continue
        tentative_excluded = excluded | set(_hosts_deactivated_by(group, rg, cluster))
        t_load = dict(load)
        t_placed = {h: set(g) for h, g in placed.items()}
        moves = _plan_evacuations(group, rg, cluster, view, tentative_excluded, t_load, t_placed)
        if moves is None:
            continue
        selected.append(group)
        hosts_taken += cost
        dedicated_used += stays_down
        excluded = tentative_excluded
        load, placed = t_load, t_placed
    return Batch(tuple(g.group_id for g in selected), "final")


# -- schedule construction -----------------------------------------------------------


def build_schedule(
    final: Batch,
    groups_by_id: dict[str, ResourceGroup],
    rg: ResourceGraph,
    cluster: ClusterState,
    view: PartitionView,
    timing: TimingConstants,
    schedule_id: str,
    issued_at: int,
) -> RuntimeUpgradeSchedule:
    """One lane per selected group: evacuation migrations, the first-level
    actions of each member, and wrap-up returns for parked VMs.

    Migrations across lanes are slotted so no anti-affinity group has two
    in flight at once. A split-mode second partition gets the switchover
    (deactivate old side, activate the upgraded one) as its prologue.
    """
    groups = [groups_by_id[g] for g in final.groups]
    all_deactivated = {
        h for g in groups for h in _hosts_deactivated_by(g, rg, cluster)
    }
    load, placed = _fresh_load(cluster)
    evac_by_group: dict[str, list[PlannedMigration]] = {}
    flat: list[PlannedMigration] = []
    for group in groups:
        moves = _plan_evacuations(group, rg, cluster, view, set(all_deactivated), load, placed)
        moves = moves or []
        evac_by_group[group.group_id] = moves
        flat.extend(moves)
    lane_of_move = {m.vm_id: g for g, ms in evac_by_group.items() for m in ms}
    pairs = [
        PlannedMigration(
            vm_id=m.vm_id,
            source=lane_of_move[m.vm_id],  # slot by lane (group), not host
            dest=m.dest,
            tenant_id=m.tenant_id,
            group_id=m.group_id,
            parked=m.parked,
        )
        for m in flat
    ]
    offsets = migration_offsets(pairs, timing.migration_ms)
    offset_of = {m.vm_id: off for m, off in zip(flat, offsets)}

    lanes: list[Lane] = []
    for group in groups:
        steps: list[TimedAction] = []
        targets: list[str] = []
        cursor = 0

        # switchover prologue for a split-mode second partition
        prologue = _switchover_prologue(group, rg)
        for action in prologue:
            steps.append(TimedAction(cursor, action))
            cursor += action.duration_ms
            if action.target not in targets:
                targets.append(action.target)

        moves = evac_by_group[group.group_id]
        for m in sorted(moves, key=lambda m: offset_of[m.vm_id]):
            real = PlannedMigration(
                vm_id=m.vm_id,
                source=m.source,
                dest=m.dest,
                tenant_id=m.tenant_id,
                group_id=m.group_id,
                parked=m.parked,
            )
            steps.append(
                TimedAction(offset_of[m.vm_id], migration_action(real, timing, role="prerequisite"))
            )
            targets.append(m.vm_id)
            cursor = max(cursor, offset_of[m.vm_id] + timing.migration_ms)

        for rid, level in group.first_levels(rg):
            for action in level.actions:
                steps.append(TimedAction(cursor, action))
                cursor += action.duration_ms
            if rid not in targets:
                targets.append(rid)

        if not group.has_remaining_changes(rg):
            # deactivated stragglers: bring members back into service
            for rid in group.members:
                res = rg.resources.get(rid)
                if held_deactivated(rg, rid):
                    continue
                if res is not None and res.present and not res.active and not res.is_isolated:
                    steps.append(
                        TimedAction(
                            cursor,
                            ResolvedAction(
                                action_id=f"activate:{rid}",
                                kind=ActionKind.ACTIVATE,
                                target=rid,
                                duration_ms=0,
                            ),
                        )
                    )
                    if rid not in targets:
                        targets.append(rid)

        for m in moves:
            if not m.parked:
                continue
            back = PlannedMigration(
                vm_id=m.vm_id,
                source=m.dest,
                dest=m.source,
                tenant_id=m.tenant_id,
                group_id=m.group_id,
            )
            steps.append(TimedAction(cursor, migration_action(back, timing, role="wrapup")))
            cursor += timing.migration_ms

        if steps:
            lanes.append(Lane(lane_id=f"lane:{group.group_id}", targets=tuple(targets), steps=tuple(steps)))
    return RuntimeUpgradeSchedule(schedule_id=schedule_id, issued_at=issued_at, lanes=tuple(lanes))


def _switchover_prologue(group: ResourceGroup, rg: ResourceGraph) -> list[ResolvedAction]:
    for rid, level in group.first_levels(rg):
        unit = rg.upgrade_units.get(level.unit_id)
        if (
            unit is None
            or unit.method != UpgradeMethod.SPLIT_MODE
            or unit.partitions is None
            or unit.switchover_done
            or rid not in unit.partitions[1]
        ):
            continue
        actions: list[ResolvedAction] = []
        for member in unit.partitions[1]:
            actions.append(
                ResolvedAction(
                    action_id=f"switchover-deactivate:{member}",
                    kind=ActionKind.DEACTIVATE,
                    target=member,
                    duration_ms=0,
                    params={"switchover_unit": unit.unit_id},
                )
            )
        for member in unit.partitions[0]:
            actions.append(
                ResolvedAction(
                    action_id=f"switchover-activate:{member}",
                    kind=ActionKind.ACTIVATE,
                    target=member,
                    duration_ms=0,
                    params={"switchover_unit": unit.unit_id},
                )
            )
        return actions
    return []


# -- feedback -------------------------------------------------------------------------


@dataclass
class FeedbackResult:
    completed_levels: list[tuple[str, ExecutionLevel]] = field(default_factory=list)
    failed_resources: list[str] = field(default_factory=list)
    recovery_schedules: list[RuntimeUpgradeSchedule] = field(default_factory=list)
    released_resources: list[str] = field(default_factory=list)


def process_feedback(
    rg: ResourceGraph,
    model: UpgradeRequestModel,
    outcomes,
    timing: TimingConstants,
    clock: int,
) -> FeedbackResult:
    """Fold engine feedback back into the graph.

    A fully successful first level pops; a failure increments the per-unit
    attempt counter and yields an immediate recovery schedule that reverts
    the completed prefix in reverse order. A failed undo level isolates and
    fails the resource on the spot.
    """
    result = FeedbackResult()
    by_target: dict[str, list] = {}
    for outcome in outcomes:
        by_target.setdefault(outcome.target, []).append(outcome)

    for rid in sorted(by_target):
        res = rg.resources.get(rid)
        if res is None or not res.levels:
            continue
        level = res.levels[0]
        level_ids = [a.action_id for a in level.actions]
        seen = [o for o in by_target[rid] if o.action_id in level_ids]
        if not seen:
            continue
        ok = {o.action_id for o in seen if o.success}
        failed = [o for o in seen if not o.success]
        if not failed and all(aid in ok for aid in level_ids):
            res.levels.pop(0)
            result.completed_levels.append((rid, level))
            change_set = model.sets.get(level.set_id)
            if change_set is not None:
                for change in change_set.changes:
                    if change.change_id == level.change_id:
                        change.applied.add(rid)
                if level.is_undo:
                    change_set.undone_resources.add(rid)
            if level.is_undo and res.is_isolated and not res.is_failed:
                res.is_isolated = False
                result.released_resources.append(rid)
            continue
        if not failed:
            continue  # level only partially covered by this schedule
        change_set = model.sets.get(level.set_id)
        if change_set is not None:
            res.failed_attempts[level.set_id] = res.failed_attempts.get(level.set_id, 0) + 1
        if level.is_undo:
            res.is_isolated = True
            res.is_failed = True
            result.failed_resources.append(rid)
            res.levels.pop(0)
            continue
        completed_prefix = []
        for action in level.actions:
            outcome = next((o for o in seen if o.action_id == action.action_id), None)
            if outcome is None or not outcome.success:
                break
            completed_prefix.append(action)
        recovery_actions: list[ResolvedAction] = []
        for action in reversed(completed_prefix):
            recovery_actions.extend(action.undo)
        if recovery_actions:
            steps = []
            cursor = 0
            for action in recovery_actions:
                steps.append(TimedAction(cursor, action))
                cursor += action.duration_ms
            result.recovery_schedules.append(
                RuntimeUpgradeSchedule(
                    schedule_id=f"recover:{rid}:{clock}",
                    issued_at=clock,
                    lanes=(
                        Lane(
                            lane_id=f"recover:{rid}",
                            targets=(rid,),
                            steps=tuple(steps),
                        ),
                    ),
                )
            )
    _update_switchovers(rg, outcomes)
    return result


def process_recovery_feedback(rg: ResourceGraph, resource_id: str, outcomes) -> bool:
    """True when the resource-level undo restored the previous configuration."""
    res = rg.resources.get(resource_id)
    success = all(o.success for o in outcomes)
    if res is not None and not success:
        res.is_isolated = True
        res.is_failed = True
    return success


def _update_switchovers(rg: ResourceGraph, outcomes) -> None:
    for outcome in outcomes:
        if not outcome.success:
            continue
        if outcome.action_id.startswith("switchover-activate:"):
            for unit in rg.upgrade_units.values():
                if unit.method == UpgradeMethod.SPLIT_MODE and outcome.target in (
                    unit.partitions[0] if unit.partitions else ()
                ):
                    unit.switchover_done = True
