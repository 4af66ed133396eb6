import pytest

from upgradesim.actions import ActionKind
from upgradesim.cluster import ClusterState, SimResource, TenantSLA, VmState
from upgradesim.planner import Policies, TimingConstants
from upgradesim.vm_migration import (
    MigrationBudget,
    SubIteration,
    build_vm_schedule,
    compute_migration_budget,
    reevaluate_new_reservation,
    replacement_schedule,
    select_sub_iteration,
    vm_migration_budget,
)

from test_planner import make_view


def brute_migration_budget(free_new, scaling, failover, k_new):
    slots = 0
    usable_hosts = free_new - scaling - failover
    for _ in range(max(0, usable_hosts)):
        slots += k_new
    return slots


class TestMigrationBudget:
    def test_example(self):
        view = make_view(
            compute=["n1", "n2", "n3", "o1"],
            for_new=["n1", "n2", "n3"],
            used_new=[],
            k_new=2,
            partitioned=True,
        )
        assert vm_migration_budget(view, 1, 0) == 4

    def test_no_free_hosts(self):
        view = make_view(compute=["n1"], for_new=["n1"], used=["n1"], k_new=2, partitioned=True)
        assert vm_migration_budget(view, 0, 0) == 0

    def test_floor(self):
        view = make_view(compute=["n1"], for_new=["n1"], used_new=[], k_new=2, partitioned=True)
        assert vm_migration_budget(view, 3, 1) == 0

    @pytest.mark.parametrize("free,scaling,failover,k", [
        (0, 0, 0, 1), (3, 1, 0, 2), (5, 2, 2, 3), (2, 3, 0, 2), (4, 0, 1, 1),
    ])
    def test_matches_brute_force(self, free, scaling, failover, k):
        hosts = [f"n{i}" for i in range(free)]
        view = make_view(compute=hosts, for_new=hosts, used_new=[], k_new=k, partitioned=True)
        assert vm_migration_budget(view, scaling, failover) == brute_migration_budget(
            free, scaling, failover, k
        )


def cluster_with_old_vms(counts: dict[str, int], hosts_old=5, hosts_new=2, k=2):
    """counts: tenant -> number of old-side VMs, spread under anti-affinity."""
    cluster = ClusterState()
    old = [f"o{i+1}" for i in range(hosts_old)]
    new = [f"n{i+1}" for i in range(hosts_new)]
    for h in old + new:
        cluster.add_resource(SimResource(
            resource_id=h, kind="compute-host", roles=frozenset({"compute"}),
            capacity=k, capacity_after_upgrade=k,
        ))
    placements: dict[str, int] = {h: 0 for h in old}
    hosts_of: dict[str, set[str]] = {}
    for tenant_id in sorted(counts):
        n = counts[tenant_id]
        cluster.tenants[tenant_id] = TenantSLA(
            tenant_id=tenant_id, min_vms=0, max_vms=n + 2, scaling_adjustment=1,
            cooldown_ms=600_000, committed=n,
        )
        hosts_of[tenant_id] = set()
        for j in range(n):
            candidates = sorted(
                (h for h in old if placements[h] < k and h not in hosts_of[tenant_id]),
                key=lambda h: (placements[h], h),
            )
            host = candidates[0]
            placements[host] += 1
            hosts_of[tenant_id].add(host)
            cluster.add_vm(VmState(
                vm_id=f"{tenant_id}.{j+1}", tenant_id=tenant_id, group_id="g1", host=host
            ))
    view = make_view(
        compute=old + new,
        for_old=old,
        for_new=new,
        used=[h for h in old if placements[h]],
        used_old=[h for h in old if placements[h]],
        used_new=[],
        k=k,
        k_new=k,
        partitioned=True,
    )
    return cluster, view


class TestSubIterationSelection:
    def test_highest_old_vm_groups_preferred(self):
        cluster, view = cluster_with_old_vms({"T1": 2, "T2": 3, "T3": 3, "T4": 1})
        sub = select_sub_iteration(cluster, view, remaining=2, index=0)
        assert {cluster.vms[v].tenant_id for v in sub.vms} == {"T2", "T3"}

    def test_one_vm_per_group(self):
        cluster, view = cluster_with_old_vms({"T1": 3})
        sub = select_sub_iteration(cluster, view, remaining=5, index=0)
        assert len(sub.vms) == 1

    def test_host_with_more_preferred_vms_wins(self):
        # two candidate hosts carrying 2 vs 1 VMs of the selected groups
        cluster = ClusterState()
        for h in ("o1", "o2", "n1"):
            cluster.add_resource(SimResource(
                resource_id=h, kind="compute-host", roles=frozenset({"compute"}),
                capacity=2, capacity_after_upgrade=2,
            ))
        for tenant_id in ("T1", "T2"):
            cluster.tenants[tenant_id] = TenantSLA(
                tenant_id=tenant_id, min_vms=0, max_vms=4, scaling_adjustment=1,
                cooldown_ms=600_000, committed=2,
            )
        cluster.add_vm(VmState("T1.1", "T1", "g1", "o1"))
        cluster.add_vm(VmState("T2.1", "T2", "g1", "o1"))
        cluster.add_vm(VmState("T1.2", "T1", "g2", "o2"))
        view = make_view(
            compute=["o1", "o2", "n1"], for_old=["o1", "o2"], for_new=["n1"],
            used=["o1", "o2"], used_old=["o1", "o2"], used_new=[], partitioned=True,
        )
        sub = select_sub_iteration(cluster, view, remaining=1, index=0)
        assert sub.vms == ("T1.1",)  # o1 carries two preferred-group VMs

    def test_rejects_two_vms_of_one_group(self):
        with pytest.raises(ValueError):
            SubIteration(index=0, vms=("a", "b"), groups=(("T1", "g1"), ("T1", "g1")))


class TestReevaluation:
    def _budget(self, window=23_000, failover=0, k=2):
        return MigrationBudget(
            migratable_vms=4, scaling_reservation_new=0, failover_reservation_new=failover,
            scaling_tenants_new=0, window_ms=window, vms_per_host_new=k,
        )

    def test_no_crossing_tenant_keeps_batch(self):
        cluster, view = cluster_with_old_vms({"T1": 2, "T2": 2}, hosts_new=3)
        for t in cluster.tenants.values():
            t.max_vms = t.committed  # nobody can scale: nothing to re-reserve
        sub = select_sub_iteration(cluster, view, remaining=2, index=0)
        adjusted = reevaluate_new_reservation(sub, cluster, view, self._budget())
        assert adjusted.vms == sub.vms

    def test_crossing_tenant_grows_reservation_and_shrinks_batch(self):
        # one new-side host: reserving it for the crossing tenants leaves no
        # room for the batch itself
        cluster, view = cluster_with_old_vms({"T1": 1, "T2": 1}, hosts_new=1)
        sub = select_sub_iteration(cluster, view, remaining=2, index=0)
        assert len(sub.vms) == 2
        adjusted = reevaluate_new_reservation(sub, cluster, view, self._budget())
        assert adjusted.vms == ()

    def test_shrinks_lowest_ranked_first(self):
        cluster, view = cluster_with_old_vms({"T1": 3, "T2": 1}, hosts_new=2)
        sub = select_sub_iteration(cluster, view, remaining=2, index=0)
        assert [cluster.vms[v].tenant_id for v in sub.vms] == ["T1", "T2"]
        adjusted = reevaluate_new_reservation(sub, cluster, view, self._budget())
        if len(adjusted.vms) == 1:
            assert cluster.vms[adjusted.vms[0]].tenant_id == "T1"


class TestVmSchedules:
    def test_migrate_only_when_compatible(self):
        cluster, view = cluster_with_old_vms({"T1": 1})
        sub = select_sub_iteration(cluster, view, remaining=1, index=0)
        schedule = build_vm_schedule(sub, cluster, view, TimingConstants(), "s", 0)
        kinds = [s.action.kind for lane in schedule.lanes for s in lane.steps]
        assert kinds == [ActionKind.MIGRATE_VM]
        assert schedule.lanes[0].steps[0].action.duration_ms == 23_000

    def test_migrate_plus_upgrade_pair_when_incompatible(self):
        cluster, view = cluster_with_old_vms({"T1": 1})
        sub = select_sub_iteration(cluster, view, remaining=1, index=0)
        schedule = build_vm_schedule(
            sub, cluster, view, TimingConstants(), "s", 0, vm_upgrade=("image", "2", 5_000)
        )
        kinds = [s.action.kind for s in schedule.lanes[0].steps]
        assert kinds == [ActionKind.MIGRATE_VM, ActionKind.INSTALL]

    def test_replacement_spawns_fresh_vm_on_new_side(self):
        cluster, view = cluster_with_old_vms({"T1": 1})
        schedule = replacement_schedule(
            "T1.1", cluster, view, TimingConstants(), "r", 0, version="2"
        )
        action = schedule.lanes[0].steps[0].action
        assert action.kind == ActionKind.SPAWN_VM
        assert action.params["initial_state"] is True
        assert action.params["to_host"].startswith("n")


def test_budget_computation_covers_remaining_waves():
    cluster, view = cluster_with_old_vms({"T1": 2, "T2": 2}, hosts_new=3)
    budget = compute_migration_budget(cluster, view, Policies(), TimingConstants())
    # 4 old VMs in 2 groups -> two waves of 23 s each
    assert budget.window_ms == 46_000
    assert budget.migratable_vms == vm_migration_budget(
        view, budget.scaling_reservation_new, budget.failover_reservation_new
    )
