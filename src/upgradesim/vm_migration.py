"""Cross-partition VM migration planning (only used while compute hosts are
split into incompatible old/new sides)."""

from __future__ import annotations

from dataclasses import dataclass

from upgradesim.actions import (
    ActionKind,
    Lane,
    ResolvedAction,
    RuntimeUpgradeSchedule,
    TimedAction,
)
from upgradesim.cluster import ClusterState, VmState
from upgradesim.planner import (
    PartitionView,
    Policies,
    TimingConstants,
    ceil_div,
    max_scaling_adjustment,
    scaling_host_reservation,
)


@dataclass(frozen=True)
class MigrationBudget:
    migratable_vms: int
    scaling_reservation_new: int
    failover_reservation_new: int
    scaling_tenants_new: int
    window_ms: int
    vms_per_host_new: int

    def describe(self) -> dict:
        return {
            "migratable_vms": self.migratable_vms,
            "scaling_reservation_new": self.scaling_reservation_new,
            "failover_reservation_new": self.failover_reservation_new,
            "scaling_tenants_new": self.scaling_tenants_new,
            "window_ms": self.window_ms,
            "vms_per_host_new": self.vms_per_host_new,
        }


@dataclass(frozen=True)
class SubIteration:
    """One wave: at most one VM per anti-affinity group."""

    index: int
    vms: tuple[str, ...]
    groups: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.groups)) != len(self.groups):
            raise ValueError("sub-iteration selects two VMs of one anti-affinity group")

    def describe(self) -> dict:
        return {"index": self.index, "vms": list(self.vms)}


def old_side_vms(cluster: ClusterState, view: PartitionView) -> list[VmState]:
    out = []
    for vm_id in sorted(cluster.vms):
        vm = cluster.vms[vm_id]
        if vm.up and vm.host in view.compute_for_old and vm.host not in view.compute_for_new:
            out.append(vm)
    return out


def vm_migration_budget(
    view: PartitionView, scaling_reservation: int, failover_reservation: int
) -> int:
    """VMs that may cross this iteration: spare new-side hosts after the
    reservations, times the upgraded per-host capacity. Floored at zero."""
    free = len(view.compute_for_new - view.used_compute_for_new)
    return max(0, free - scaling_reservation - failover_reservation) * view.vms_per_host_new


def tenants_scaling_new(cluster: ClusterState, view: PartitionView, crossing: set[str] = frozenset()) -> int:
    count = 0
    for tenant_id in sorted(cluster.tenants):
        tenant = cluster.tenants[tenant_id]
        if tenant.committed >= tenant.max_vms:
            continue
        vms = [v for v in cluster.tenant_vms(tenant_id) if v.up and v.host]
        has_new = any(v.host in view.compute_for_new for v in vms)
        if has_new or tenant_id in crossing:
            count += 1
    return count


def compute_migration_budget(
    cluster: ClusterState,
    view: PartitionView,
    policies: Policies,
    timing: TimingConstants,
    per_vm_extra_ms: int = 0,
) -> MigrationBudget:
    """Size the cross-partition window and the new-side reservations.

    The window covers all remaining old-side VMs at one VM per anti-affinity
    group per wave, since that is the worst-case number of waves.
    """
    old = old_side_vms(cluster, view)
    groups = {(v.tenant_id, v.group_id) for v in old}
    per_vm = timing.migration_ms + per_vm_extra_ms
    window = per_vm * ceil_div(len(old), max(1, len(groups))) if old else 0
    eligible = [
        cluster.tenants[t]
        for t in sorted(cluster.tenants)
        if cluster.tenants[t].committed < cluster.tenants[t].max_vms
    ]
    adjustment = max_scaling_adjustment(eligible, window)
    scale_tenants = tenants_scaling_new(cluster, view)
    reservation = (
        scaling_host_reservation(adjustment, scale_tenants, view.vms_per_host_new)
        if view.vms_per_host_new >= 1
        else 0
    )
    if not view.used_compute_for_new:
        failover = 0
    elif policies.tolerated_host_failures is not None:
        failover = policies.tolerated_host_failures
    else:
        failover = 1
    return MigrationBudget(
        migratable_vms=vm_migration_budget(view, reservation, failover),
        scaling_reservation_new=reservation,
        failover_reservation_new=failover,
        scaling_tenants_new=scale_tenants,
        window_ms=window,
        vms_per_host_new=view.vms_per_host_new,
    )


def _ranked_groups(cluster: ClusterState, view: PartitionView) -> list[tuple[tuple[str, str], list[VmState]]]:
    by_group: dict[tuple[str, str], list[VmState]] = {}
    for vm in old_side_vms(cluster, view):
        by_group.setdefault((vm.tenant_id, vm.group_id), []).append(vm)
    return sorted(by_group.items(), key=lambda item: (-len(item[1]), item[0][0], item[0][1]))


def select_sub_iteration(
    cluster: ClusterState, view: PartitionView, remaining: int, index: int
) -> SubIteration:
    """Pick one VM from each of the highest-pressure anti-affinity groups.

    Groups with the most old-side VMs go first (frees hosts sooner); within a
    group the VM on the host holding the most VMs of the selected groups is
    taken (empties that host with fewer waves).
    """
    ranked = _ranked_groups(cluster, view)[: max(0, remaining)]
    chosen_groups = {key for key, _ in ranked}
    host_pressure: dict[str, int] = {}
    for key, vms in ranked:
        for vm in vms:
            assert vm.host is not None
            host_pressure[vm.host] = host_pressure.get(vm.host, 0) + 1
    picked: list[str] = []
    groups: list[tuple[str, str]] = []
    for key, vms in ranked:
        vms_sorted = sorted(
            vms, key=lambda v: (-host_pressure.get(v.host or "", 0), v.host or "", v.vm_id)
        )
        picked.append(vms_sorted[0].vm_id)
        groups.append(key)
    return SubIteration(index=index, vms=tuple(picked), groups=tuple(groups))


def reevaluate_new_reservation(
    sub: SubIteration,
    cluster: ClusterState,
    view: PartitionView,
    budget: MigrationBudget,
) -> SubIteration:
    """Shrink the batch until the new side can absorb it and the scaling
    reservation of tenants crossing over. Lowest-ranked groups drop first."""
    vms = list(sub.vms)
    groups = list(sub.groups)
    while vms:
        crossing = {cluster.vms[v].tenant_id for v in vms}
        scale_tenants = tenants_scaling_new(cluster, view, crossing)
        eligible = [
            cluster.tenants[t]
            for t in sorted(cluster.tenants)
            if cluster.tenants[t].committed < cluster.tenants[t].max_vms
        ]
        adjustment = max_scaling_adjustment(eligible, budget.window_ms)
        reservation = (
            scaling_host_reservation(adjustment, scale_tenants, view.vms_per_host_new)
            if view.vms_per_host_new >= 1
            else 0
        )
        usable_slots = sum(max(0, cluster.free_slots(h)) for h in view.compute_for_new)
        usable_slots -= (reservation + budget.failover_reservation_new) * view.vms_per_host_new
        if len(vms) <= usable_slots:
            break
        vms.pop()
        groups.pop()
    return SubIteration(index=sub.index, vms=tuple(vms), groups=tuple(groups))


def build_vm_schedule(
    sub: SubIteration,
    cluster: ClusterState,
    view: PartitionView,
    timing: TimingConstants,
    schedule_id: str,
    issued_at: int,
    vm_upgrade: tuple[str, str, int] | None = None,
) -> RuntimeUpgradeSchedule:
    """Live-migrate the wave to the new partition, upgrading each VM on the
    way when the versions are incompatible."""
    load = {h: len(cluster.vms_on(h)) for h in view.compute_for_new}
    placed = {
        h: {(v.tenant_id, v.group_id) for v in cluster.vms_on(h)}
        for h in view.compute_for_new
    }
    lanes = []
    for vm_id in sub.vms:
        vm = cluster.vms[vm_id]
        candidates = sorted(
            (h for h in view.compute_for_new if cluster.host_can_run_vms(h)),
            key=lambda h: (-load[h], h),
        )
        dest = None
        for host_id in candidates:
            if load[host_id] >= cluster.effective_capacity(host_id):
                continue
            if (vm.tenant_id, vm.group_id) in placed[host_id]:
                continue
            dest = host_id
            break
        if dest is None:
            continue
        load[dest] += 1
        placed[dest].add((vm.tenant_id, vm.group_id))
        steps = [
            TimedAction(
                0,
                ResolvedAction(
                    action_id=f"migrate:{vm_id}",
                    kind=ActionKind.MIGRATE_VM,
                    target=vm_id,
                    duration_ms=timing.migration_ms,
                    params={
                        "vm": vm_id,
                        "from_host": vm.host,
                        "to_host": dest,
                        "tenant": vm.tenant_id,
                        "group": vm.group_id,
                        "outage_ms": timing.migration_outage_ms,
                        "role": "partition-crossing",
                    },
                ),
            )
        ]
        if vm_upgrade is not None:
            product, version, duration = vm_upgrade
            steps.append(
                TimedAction(
                    timing.migration_ms,
                    ResolvedAction(
                        action_id=f"upgrade-vm:{vm_id}",
                        kind=ActionKind.INSTALL,
                        target=vm_id,
                        duration_ms=duration,
                        params={"product": product, "version": version, "vm": vm_id},
                    ),
                )
            )
        lanes.append(Lane(lane_id=f"vm:{vm_id}", targets=(vm_id,), steps=tuple(steps)))
    return RuntimeUpgradeSchedule(schedule_id=schedule_id, issued_at=issued_at, lanes=tuple(lanes))


def replacement_schedule(
    vm_id: str,
    cluster: ClusterState,
    view: PartitionView,
    timing: TimingConstants,
    schedule_id: str,
    issued_at: int,
    version: str | None = None,
) -> RuntimeUpgradeSchedule | None:
    """After a failed migration, bring a fresh VM up on the new side."""
    vm = cluster.vms[vm_id]
    load = {h: len(cluster.vms_on(h)) for h in view.compute_for_new}
    for host_id in sorted(view.compute_for_new, key=lambda h: (-load[h], h)):
        if not cluster.host_can_run_vms(host_id):
            continue
        if load[host_id] >= cluster.effective_capacity(host_id):
            continue
        if not cluster.anti_affinity_ok(vm_id, host_id):
            continue
        action = ResolvedAction(
            action_id=f"replace:{vm_id}",
            kind=ActionKind.SPAWN_VM,
            target=vm_id,
            duration_ms=timing.vm_replacement_ms,
            params={
                "vm": vm_id,
                "to_host": host_id,
                "tenant": vm.tenant_id,
                "group": vm.group_id,
                "version": version or vm.version,
                "initial_state": True,
            },
        )
        return RuntimeUpgradeSchedule(
            schedule_id=schedule_id,
            issued_at=issued_at,
            lanes=(Lane(lane_id=f"replace:{vm_id}", targets=(vm_id,), steps=(TimedAction(0, action),)),),
        )
    return None
