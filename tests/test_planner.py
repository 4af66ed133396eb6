import itertools

import pytest
from hypothesis import given, settings, strategies as st

from upgradesim.actions import ActionKind, ActionOutcome, ResolvedAction
from upgradesim.catalog import StorageRequirement
from upgradesim.cluster import TenantSLA
from upgradesim.control_graph import coarsen
from upgradesim.errors import EmptyBatchError
from upgradesim.planner import (
    Batch,
    PartitionView,
    Policies,
    TimingConstants,
    build_partition_view,
    build_schedule,
    compute_budget,
    initial_batch,
    max_scaling_adjustment,
    migration_offsets,
    out_of_service_budget,
    plan_consolidation,
    PlannedMigration,
    process_feedback,
    scaling_reservation,
    select_final_batch,
    storage_hosts_sufficient,
    upgrade_recovery_window,
)
from upgradesim.scenario import parse_scenario

from conftest import scenario_json, toy_scenario
from test_resource_graph import build_env


def make_view(
    compute=(),
    storage=(),
    used=(),
    for_old=None,
    for_new=None,
    used_old=None,
    used_new=None,
    k=2,
    k_new=2,
    partitioned=False,
):
    compute = frozenset(compute)
    return PartitionView(
        compute=compute,
        storage=frozenset(storage),
        compute_for_old=frozenset(for_old) if for_old is not None else compute,
        compute_for_new=frozenset(for_new) if for_new is not None else compute,
        used_compute=frozenset(used),
        used_compute_for_old=frozenset(used_old) if used_old is not None else frozenset(used),
        used_compute_for_new=frozenset(used_new) if used_new is not None else frozenset(used),
        vms_per_host=k,
        vms_per_host_new=k_new,
        partitioned=partitioned,
        new_side_ready=partitioned,
    )


def tenant(tid, s, c_ms, committed=1, max_vms=10):
    return TenantSLA(
        tenant_id=tid, min_vms=0, max_vms=max_vms,
        scaling_adjustment=s, cooldown_ms=c_ms, committed=committed,
    )


# -- independent oracles (loop-based, no shared helpers) -----------------------------


def brute_scaling_adjustment(tenants, window_ms):
    best = 0
    for t in tenants:
        periods = 0
        covered = 0
        while covered < window_ms:  # count cooldown periods the window spans
            covered += t.cooldown_ms
            periods += 1
        best = max(best, t.scaling_adjustment * periods)
    return best


def brute_ceil(a, b):
    q, r = divmod(a, b)
    return q + (1 if r else 0)


class TestScalingAdjustment:
    def test_single_tenant_window_within_cooldown(self):
        tenants = [tenant(f"T{i}", 1, 60_000) for i in range(4)]
        assert max_scaling_adjustment(tenants, 41_000) == 1

    def test_zero_adjustment(self):
        tenants = [tenant("T1", 0, 60_000)]
        assert max_scaling_adjustment(tenants, 41_000) == 0

    def test_mixed_tenants(self):
        tenants = [tenant("T1", 2, 30_000), tenant("T2", 3, 100_000)]
        assert max_scaling_adjustment(tenants, 45_000) == 4

    def test_no_tenants(self):
        assert max_scaling_adjustment([], 41_000) == 0


class TestHostReservation:
    def test_examples(self):
        assert scaling_reservation(1, 4, 2) == 2
        assert scaling_reservation(1, 0, 2) == 0
        assert scaling_reservation(2, 3, 2) == 4

    def test_rejects_zero_capacity(self):
        # no host can take a VM, so none is reserved
        assert scaling_reservation(1, 1, 0) == 0


class TestOutOfServiceBudget:
    def test_example(self):
        view = make_view(compute=[f"h{i}" for i in range(10)], used=["h1", "h2", "h3", "h4", "h5", "h6"])
        assert out_of_service_budget(view, 1, 1) == 2

    def test_empty_used_old_takes_everything(self):
        view = make_view(compute=["h1", "h2", "h3"], used=[])
        assert out_of_service_budget(view, 5, 5) == 3

    def test_floor_at_zero(self):
        view = make_view(compute=["h1", "h2"], used=["h1"])
        assert out_of_service_budget(view, 3, 1) == 0


class TestStorageSufficiency:
    def test_true_case(self):
        view = make_view(compute=["c1"], storage=[f"s{i}" for i in range(7)], used=["c1"])
        old = StorageRequirement(3, 2)
        new = StorageRequirement(3, 2)
        assert storage_hosts_sufficient(view, old, new)

    def test_zero_new_requirement(self):
        view = make_view(compute=[], storage=["s1", "s2", "s3"], used=[])
        assert storage_hosts_sufficient(view, StorageRequirement(3, 2), StorageRequirement(0, 0))

    def test_false_case(self):
        view = make_view(compute=[], storage=["s1", "s2", "s3", "s4", "s5"], used=[])
        assert not storage_hosts_sufficient(view, StorageRequirement(3, 3), StorageRequirement(3, 3))


class TestRecoveryWindow:
    def test_upgrade_plus_undo(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
        level = rg.resources["hv1"].levels[0]
        assert upgrade_recovery_window([level]) == 82_000

    def test_zero_durations(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
        level = rg.resources["hv1"].levels[0]
        zero = type(level)(
            change_id="c", set_id="s", unit_id="u", kind="upgrade",
            actions=tuple(
                ResolvedAction(a.action_id, a.kind, a.target, 0, a.params, a.undo)
                for a in level.actions
            ),
            undo_actions=(),
        )
        assert upgrade_recovery_window([zero]) == 0

    def test_max_over_batch(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2))
        a = rg.resources["hv1"].levels[0]
        b = type(a)(
            change_id="c", set_id="s", unit_id="u", kind="upgrade",
            actions=(ResolvedAction("x", ActionKind.INSTALL, "hv2", 30_000, {"product": "qemu", "version": "2"}),),
            undo_actions=(),
        )
        assert upgrade_recovery_window([a, b]) == 82_000

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            upgrade_recovery_window([])


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(0, 4),
    c=st.integers(1, 400),
    window=st.integers(0, 2000),
)
def test_scaling_adjustment_matches_brute_force(s, c, window):
    t = tenant("T", s, c)
    assert max_scaling_adjustment([t], window) == brute_scaling_adjustment([t], window)


@settings(max_examples=200, deadline=None)
@given(
    hosts=st.integers(0, 8),
    used=st.integers(0, 8),
    resv=st.integers(0, 4),
    failover=st.integers(0, 2),
)
def test_budget_monotone_in_free_hosts(hosts, used, resv, failover):
    used = min(used, hosts)
    compute = [f"h{i}" for i in range(hosts)]
    view = make_view(compute=compute, used=compute[:used])
    z = out_of_service_budget(view, resv, failover)
    grown = make_view(compute=compute + ["extra"], used=compute[:used])
    assert out_of_service_budget(grown, resv, failover) >= z


# -- consolidation --------------------------------------------------------------------


def brute_force_min_used_hosts(cluster):
    """Enumerate placements of all VMs under anti-affinity and capacity."""
    vms = sorted(cluster.vms)
    hosts = [h for h in cluster.hosts_with_role("compute") if cluster.host_can_run_vms(h)]
    best = len(hosts) + 1
    for assignment in itertools.product(hosts, repeat=len(vms)):
        load = {h: 0 for h in hosts}
        groups = {h: set() for h in hosts}
        ok = True
        for vm_id, host in zip(vms, assignment):
            vm = cluster.vms[vm_id]
            key = (vm.tenant_id, vm.group_id)
            if key in groups[host] or load[host] >= cluster.effective_capacity(host):
                ok = False
                break
            load[host] += 1
            groups[host].add(key)
        if ok:
            best = min(best, sum(1 for h in hosts if load[h]))
    return best


def two_half_empty_hosts():
    return parse_scenario(
        {
            "name": "consolidate",
            "cluster": {
                "hosts": [
                    {"id": "h1", "roles": ["compute"], "capacity": 2},
                    {"id": "h2", "roles": ["compute"], "capacity": 2},
                    {"id": "h3", "roles": ["compute"], "capacity": 2},
                ],
                "components": [
                    {"id": "hv1", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h1"},
                    {"id": "hv2", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h2"},
                    {"id": "hv3", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h3"},
                ],
            },
            "tenants": [
                {"id": "T1", "min_vms": 1, "max_vms": 2, "scaling_adjustment": 1,
                 "cooldown_seconds": 600, "vms": [{"id": "T1.1", "host": "h1"}]},
                {"id": "T2", "min_vms": 1, "max_vms": 2, "scaling_adjustment": 1,
                 "cooldown_seconds": 600, "vms": [{"id": "T2.1", "host": "h2"}]},
            ],
            "catalog": [
                {"component_id": "qemu-1", "product": "qemu", "version": "1",
                 "kind": "hypervisor", "provides": [["vm-runtime", 1]], "requires": []},
                {"component_id": "qemu-2", "product": "qemu", "version": "2",
                 "kind": "hypervisor", "provides": [["vm-runtime", 2]], "requires": []},
            ],
            "events": [
                {"at_seconds": 0, "kind": "upgrade-request", "request": {
                    "id": "r", "change_sets": [
                        {"id": "cs-1", "max_completion_seconds": 100000, "max_retry": 1,
                         "changes": [{"id": "c", "action": "upgrade", "product": "qemu",
                                      "version": "2", "targets": ["hv1", "hv2"],
                                      "undo_threshold": 0}]}
                    ]}},
            ],
        }
    )


class TestConsolidation:
    def test_two_vms_two_half_empty_hosts(self):
        # h3 carries no pending work, so both VMs pack onto it and the plan
        # achieves the brute-force minimum of used hosts
        cluster, catalog, model, rg = build_env(two_half_empty_hosts())
        view = build_partition_view(cluster, rg, catalog)
        plan = plan_consolidation(cluster, rg, view)
        assert len(plan) == 2
        assert {m.dest for m in plan} == {"h3"}
        for m in plan:
            cluster.place_vm(cluster.vms[m.vm_id], m.dest)
        used = len(cluster.used_compute_hosts())
        assert used == brute_force_min_used_hosts(cluster)

    def test_all_hosts_full_is_empty_plan(self):
        tenants = [
            {"id": "T1", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T1.1", "host": "h1"}, {"id": "T1.2", "host": "h2"}]},
            {"id": "T2", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T2.1", "host": "h1"}, {"id": "T2.2", "host": "h2"}]},
        ]
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2, tenants=tenants))
        view = build_partition_view(cluster, rg, catalog)
        assert plan_consolidation(cluster, rg, view) == []

    def test_ppu_overlap_hosts_evacuated_first(self, scenario_ppu):
        import json

        data = json.loads(scenario_ppu.to_json())
        # free a compute-only slot so the forced move has a destination
        data["tenants"][0]["vms"] = [v for v in data["tenants"][0]["vms"] if v["id"] != "T1.1"]
        cluster, catalog, model, rg = build_env(parse_scenario(data))
        view = build_partition_view(cluster, rg, catalog)
        plan = plan_consolidation(cluster, rg, view)
        forced = [m for m in plan if m.forced]
        assert forced and forced[0].source in ("b1", "b2")
        assert all(m.dest.startswith("c") for m in forced)


# -- batch selection --------------------------------------------------------------------


def hosts_scenario_with_loads():
    tenants = [
        {"id": "T1", "min_vms": 1, "max_vms": 9, "scaling_adjustment": 1,
         "cooldown_seconds": 600,
         "vms": [{"id": "T1.1", "host": "h1"}, {"id": "T1.2", "host": "h2"}]},
        {"id": "T2", "min_vms": 1, "max_vms": 9, "scaling_adjustment": 1,
         "cooldown_seconds": 600, "vms": [{"id": "T2.1", "host": "h1"}]},
    ]
    return toy_scenario(host_count=5, tenants=tenants)


class TestFinalBatch:
    def test_greedy_prefers_idle_then_small(self):
        cluster, catalog, model, rg = build_env(hosts_scenario_with_loads())
        cg = coarsen(rg)
        view = build_partition_view(cluster, rg, catalog)
        batch, _ = initial_batch(cg, rg, cluster, catalog, view, Policies())
        budget_stub = type("B", (), {"out_of_service_budget": 2})
        final = select_final_batch(batch, cg, rg, cluster, view, budget_stub, Policies())
        assert final.groups == ("g:h3", "g:h4")

    def test_zero_budget_empty_batch(self):
        cluster, catalog, model, rg = build_env(hosts_scenario_with_loads())
        cg = coarsen(rg)
        view = build_partition_view(cluster, rg, catalog)
        batch, _ = initial_batch(cg, rg, cluster, catalog, view, Policies())
        budget_stub = type("B", (), {"out_of_service_budget": 0})
        final = select_final_batch(batch, cg, rg, cluster, view, budget_stub, Policies())
        assert final.groups == ()

    def test_greedy_count_matches_brute_force_max(self):
        # affected-host costs {1,1,2}: with a budget of 2 the greedy picks the
        # two singles, which brute force confirms is the max group count
        costs = {"g:a": 1, "g:b": 1, "g:c": 2}
        budget = 2
        best = 0
        for r in range(len(costs) + 1):
            for combo in itertools.combinations(costs, r):
                if sum(costs[g] for g in combo) <= budget:
                    best = max(best, len(combo))
        picked = []
        for gid in sorted(costs, key=lambda g: (costs[g], g)):
            if sum(costs[g] for g in picked) + costs[gid] <= budget:
                picked.append(gid)
        assert len(picked) == best == 2

    def test_dedicated_pool_zero_excludes_parked_groups(self):
        # split-mode first partition stays deactivated, so it needs the pool
        from upgradesim.scenario import parse_scenario

        data = {
            "name": "split-pool",
            "cluster": {
                "hosts": [{"id": "h1", "roles": ["compute"], "capacity": 2}],
                "components": [
                    {"id": "hv1", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h1"},
                    {"id": "r1", "kind": "router", "product": "router-os", "version": "1", "peers": ["r2"]},
                    {"id": "r2", "kind": "router", "product": "router-os", "version": "1", "peers": ["r1"]},
                ],
            },
            "tenants": [],
            "catalog": [
                {"component_id": "qemu-1", "product": "qemu", "version": "1", "kind": "hypervisor",
                 "provides": [["vm-runtime", 1]], "requires": []},
                {"component_id": "router-os-1", "product": "router-os", "version": "1", "kind": "router",
                 "provides": [["peer-link", 1]], "requires": [["peer-link", 1, 1]], "install_seconds": 20},
                {"component_id": "router-os-2", "product": "router-os", "version": "2", "kind": "router",
                 "provides": [["peer-link", 2]], "requires": [["peer-link", 2, 2]], "install_seconds": 20},
            ],
            "events": [
                {"at_seconds": 0, "kind": "upgrade-request", "request": {
                    "id": "req", "change_sets": [
                        {"id": "cs-net", "max_completion_seconds": 10000, "max_retry": 1,
                         "changes": [{"id": "ch", "action": "upgrade", "product": "router-os",
                                      "version": "2", "targets": ["r1", "r2"], "undo_threshold": 0}]}
                    ]}},
            ],
        }
        cluster, catalog, model, rg = build_env(parse_scenario(data))
        cg = coarsen(rg)
        view = build_partition_view(cluster, rg, catalog)
        batch, _ = initial_batch(cg, rg, cluster, catalog, view, Policies())
        budget_stub = type("B", (), {"out_of_service_budget": 5})
        empty = select_final_batch(
            batch, cg, rg, cluster, view, budget_stub, Policies(dedicated_upgrade_hosts=0)
        )
        assert "g:r1" not in empty.groups
        allowed = select_final_batch(
            batch, cg, rg, cluster, view, budget_stub, Policies(dedicated_upgrade_hosts=1)
        )
        assert "g:r1" in allowed.groups


def test_er1_dependent_waits_for_sponsor_from_other_set():
    # an appliance's new version needs the controller's new version; until the
    # controller set lands, upgrading the appliance would break the live edge
    data = {
        "name": "cross-set",
        "cluster": {
            "hosts": [{"id": "h1", "roles": ["compute"], "capacity": 2}],
            "components": [
                {"id": "hv1", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h1"},
                {"id": "ctl", "kind": "virtual-controller", "product": "ctl-sw", "version": "1",
                 "serves": ["h1"]},
                {"id": "app", "kind": "other", "product": "app-sw", "version": "1",
                 "serves": []},
            ],
        },
        "tenants": [],
        "catalog": [
            {"component_id": "qemu-1", "product": "qemu", "version": "1", "kind": "hypervisor",
             "provides": [["vm-runtime", 1]], "requires": []},
            {"component_id": "ctl-1", "product": "ctl-sw", "version": "1",
             "kind": "virtual-controller", "provides": [["control-api", 1]], "requires": []},
            {"component_id": "ctl-2", "product": "ctl-sw", "version": "2",
             "kind": "virtual-controller", "provides": [["control-api", 2]], "requires": []},
            {"component_id": "app-1", "product": "app-sw", "version": "1", "kind": "other",
             "provides": [], "requires": [["control-api", 1, 1]]},
            {"component_id": "app-2", "product": "app-sw", "version": "2", "kind": "other",
             "provides": [], "requires": [["control-api", 2, 2]]},
        ],
        "events": [
            {"at_seconds": 0, "kind": "upgrade-request", "request": {
                "id": "req-app", "change_sets": [
                    {"id": "cs-app", "max_completion_seconds": 100000, "max_retry": 1,
                     "changes": [{"id": "ch-app", "action": "upgrade", "product": "app-sw",
                                  "version": "2", "targets": ["app"], "undo_threshold": 0}]}
                ]}},
            {"at_seconds": 0.5, "kind": "upgrade-request", "request": {
                "id": "req-ctl", "change_sets": [
                    {"id": "cs-ctl", "max_completion_seconds": 100000, "max_retry": 1,
                     "changes": [{"id": "ch-ctl", "action": "upgrade", "product": "ctl-sw",
                                  "version": "2", "targets": ["ctl"], "undo_threshold": 0}]}
                ]}},
        ],
    }
    scenario = parse_scenario(data)
    # the app depends on the controller: model the edge via the cluster
    cluster, catalog, model, rg = build_env(scenario)
    from upgradesim.resource_graph import Dependency, DependencyKind, Presence

    rg.edges.append(Dependency("app", "ctl", DependencyKind.CONTROLLER, Presence.CURRENT_FUTURE))
    rg._reindex()
    cg = coarsen(rg)
    view = build_partition_view(cluster, rg, catalog)
    batch, eliminations = initial_batch(cg, rg, cluster, catalog, view, Policies())
    assert ("g:app", "sponsor-compatibility") in [(e.group_id, e.rule) for e in eliminations]
    assert "g:app" not in batch.groups
    # once the controller runs the new version, the appliance becomes eligible
    cluster.resources["ctl"].installed = {"ctl-sw": "2"}
    batch2, _ = initial_batch(cg, rg, cluster, catalog, view, Policies())
    assert "g:app" in batch2.groups


def test_host_still_carrying_a_vm_is_not_removed():
    tenants = [{"id": "T1", "min_vms": 1, "max_vms": 1, "scaling_adjustment": 1,
                "cooldown_seconds": 600, "vms": [{"id": "T1.1", "host": "h1"}]}]
    cluster, catalog, model, rg = build_env(
        toy_scenario(host_count=2, tenants=tenants), submit=False
    )
    from upgradesim.resource_graph import ExecutionLevel

    for host in ("h1", "h2"):
        remove = ResolvedAction(
            action_id=f"remove:{host}", kind=ActionKind.REMOVE, target=host, duration_ms=0,
            params={"product": "host", "version": "1"},
        )
        rg.resources[host].levels.append(
            ExecutionLevel("ch-rm", "cs-rm", f"unit:rm:{host}", "remove", (remove,), ())
        )
    cg = coarsen(rg)
    view = build_partition_view(cluster, rg, catalog)
    batch, eliminations = initial_batch(cg, rg, cluster, catalog, view, Policies())
    assert [(e.group_id, e.rule) for e in eliminations] == [("g:h1", "remove-ordering")]
    assert batch.groups == ("g:h2",)
    # the rule follows the VM: once it moves to h2, h1 may go and h2 waits
    cluster.place_vm(cluster.vms["T1.1"], "h2")
    batch, eliminations = initial_batch(cg, rg, cluster, catalog, view, Policies())
    assert [(e.group_id, e.rule) for e in eliminations] == [("g:h2", "remove-ordering")]
    assert batch.groups == ("g:h1",)


# -- schedules and feedback ---------------------------------------------------------------


def run_first_schedule(scenario):
    cluster, catalog, model, rg = build_env(scenario)
    cg = coarsen(rg)
    view = build_partition_view(cluster, rg, catalog)
    batch, _ = initial_batch(cg, rg, cluster, catalog, view, Policies())
    budget_stub = type("B", (), {"out_of_service_budget": 10})
    final = select_final_batch(batch, cg, rg, cluster, view, budget_stub, Policies())
    schedule = build_schedule(final, cg, rg, cluster, TimingConstants(), "s1", 0)
    return cluster, catalog, model, rg, schedule


class TestBuildSchedule:
    def test_in_use_host_gets_prerequisites_and_wrapup(self):
        tenants = [
            {"id": f"T{i}", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": f"T{i}.1", "host": "h1" if i <= 2 else "h2"}]}
            for i in range(1, 5)
        ]
        # both hosts pending and occupied by distinct tenants: evacuations
        # park on the other pending host and come back afterwards
        cluster, catalog, model, rg, schedule = run_first_schedule(
            toy_scenario(host_count=2, capacity=4, tenants=tenants)
        )
        lane = schedule.lanes[0]
        kinds = [s.action.kind for s in lane.steps]
        roles = [s.action.params.get("role") for s in lane.steps if s.action.kind == ActionKind.MIGRATE_VM]
        assert kinds[0] == ActionKind.MIGRATE_VM
        assert ActionKind.DEACTIVATE in kinds and ActionKind.ACTIVATE in kinds
        assert "prerequisite" in roles and "wrapup" in roles
        activate_at = kinds.index(ActionKind.ACTIVATE)
        assert all(k != ActionKind.MIGRATE_VM for k in kinds[activate_at - 2 : activate_at])

    def test_empty_host_has_no_prerequisites(self):
        cluster, catalog, model, rg, schedule = run_first_schedule(toy_scenario(host_count=2))
        for lane in schedule.lanes:
            kinds = [s.action.kind for s in lane.steps]
            assert ActionKind.MIGRATE_VM not in kinds

    def test_independent_groups_get_parallel_lanes(self):
        cluster, catalog, model, rg, schedule = run_first_schedule(toy_scenario(host_count=3))
        assert len(schedule.lanes) == 3
        starts = {lane.steps[0].offset_ms for lane in schedule.lanes}
        assert starts == {0}

    def test_schedule_runs_the_checked_evacuations(self):
        # one VM per pending host and two empty hosts that cannot run VMs: an
        # out-of-service budget of 2, and h1's VM can only park on h2 or h3
        tenants = [
            {"id": f"T{i}", "min_vms": 1, "max_vms": 1, "scaling_adjustment": 1,
             "cooldown_seconds": 600, "vms": [{"id": f"T{i}.1", "host": f"h{i}"}]}
            for i in (1, 2, 3)
        ]
        data = scenario_json(toy_scenario(host_count=3, capacity=2, tenants=tenants))
        data["cluster"]["hosts"] += [
            {"id": h, "roles": ["compute"], "capacity": 0} for h in ("h4", "h5")
        ]
        cluster, catalog, model, rg = build_env(parse_scenario(data))
        cg = coarsen(rg)
        view = build_partition_view(cluster, rg, catalog)
        policies = Policies(tolerated_host_failures=0)
        batch, _ = initial_batch(cg, rg, cluster, catalog, view, policies)
        levels = [lvl for gid in batch.groups for _, lvl in cg[gid].first_levels(rg)]
        budget = compute_budget(cluster, view, levels, policies)
        assert budget.out_of_service_budget == 2
        final = select_final_batch(batch, cg, rg, cluster, view, budget, policies)
        schedule = build_schedule(final, cg, rg, cluster, TimingConstants(), "s1", 0)

        def prerequisites(lane):
            return [
                (i, s.action.params)
                for i, s in enumerate(lane.steps)
                if s.action.params.get("role") == "prerequisite"
            ]

        lanes = {lane.lane_id: lane for lane in schedule.lanes}
        for gid, moves in zip(final.groups, final.evacuations):
            planned = [(m.vm_id, m.source, m.dest) for m in moves]
            scheduled = prerequisites(lanes[f"lane:{gid}"])
            assert [(p["vm"], p["from_host"], p["to_host"]) for _, p in scheduled] == planned
        arriving: dict[str, set[str]] = {}
        for lane in schedule.lanes:
            for _, p in prerequisites(lane):
                arriving.setdefault(p["to_host"], set()).add(p["vm"])
        for lane in schedule.lanes:
            for i, step in enumerate(lane.steps):
                if step.action.kind != ActionKind.DEACTIVATE:
                    continue
                res = cluster.resources[step.action.target]
                host = res.resource_id if res.is_host else res.container
                carried = {vm.vm_id for vm in cluster.vms_on(host)} | arriving.get(host, set())
                evacuated = {p["vm"] for j, p in prerequisites(lane) if j < i and p["from_host"] == host}
                assert carried <= evacuated, (lane.lane_id, host, carried - evacuated)


class TestMigrationOffsets:
    def test_same_group_never_overlaps(self):
        moves = [
            PlannedMigration("v1", "h1", "d1", "T1", "g1"),
            PlannedMigration("v2", "h2", "d2", "T1", "g1"),
            PlannedMigration("v3", "h3", "d3", "T2", "g1"),
        ]
        offsets = migration_offsets(moves, 23_000)
        t1 = sorted(off for m, off in zip(moves, offsets) if m.tenant_id == "T1")
        assert t1 == [0, 23_000]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=12,
        )
    )
    def test_no_lane_or_group_overlap_property(self, pairs):
        moves = [
            PlannedMigration(f"v{i}", f"h{lane}", "d", f"T{group}", "g")
            for i, (lane, group) in enumerate(pairs)
        ]
        offsets = migration_offsets(moves, 10)
        busy = {}
        for m, off in zip(moves, offsets):
            for key in (("L", m.source), ("G", m.group_key)):
                for other_off in busy.get(key, []):
                    assert abs(other_off - off) >= 10
                busy.setdefault(key, []).append(off)


class TestProcessFeedback:
    def _outcomes(self, rg, resource, fail_at=None):
        level = rg.resources[resource].levels[0]
        out = []
        clock = 0
        for i, action in enumerate(level.actions):
            success = fail_at is None or i < fail_at
            out.append(
                ActionOutcome(
                    action_id=action.action_id, kind=action.kind, target=action.target,
                    lane_id="lane", success=success,
                    started_at=clock, ended_at=clock + action.duration_ms,
                )
            )
            clock += action.duration_ms
            if not success:
                break
        return out

    def test_success_pops_level(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
        outcomes = self._outcomes(rg, "hv1")
        result = process_feedback(rg, model, outcomes, 0)
        assert rg.resources["hv1"].levels == []
        assert rg.resources["hv1"].failed_attempts == {}
        assert result.recovery_schedules == []
        assert "hv1" in model.sets["cs-1"].changes[0].applied

    def test_failure_builds_reverse_prefix_recovery(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
        # actions: deactivate, install, activate; fail the third
        outcomes = self._outcomes(rg, "hv1", fail_at=2)
        result = process_feedback(rg, model, outcomes, 0)
        assert rg.resources["hv1"].failed_attempts["cs-1"] == 1
        assert len(rg.resources["hv1"].levels) == 1  # level kept for retry
        recovery = result.recovery_schedules[0]
        kinds = [s.action.kind for s in recovery.lanes[0].steps]
        # undo(install) then undo(deactivate)
        assert kinds == [ActionKind.INSTALL, ActionKind.ACTIVATE]
        assert recovery.lanes[0].steps[0].action.params["version"] == "1"

    def test_failed_first_action_needs_no_recovery(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
        outcomes = self._outcomes(rg, "hv1", fail_at=0)
        result = process_feedback(rg, model, outcomes, 0)
        assert result.recovery_schedules == []
        assert rg.resources["hv1"].failed_attempts["cs-1"] == 1

    def test_version_is_pre_or_post_level_after_handling(self):
        # engine-applied prefix plus recovery returns the resource to the
        # pre-level version; full success lands on the post-level version
        from upgradesim.scenario import build_coordinator

        scenario = toy_scenario(
            host_count=1,
            failures={"seed": 1, "rates": {}, "scripted": [
                {"action_kind": "activate", "occurrence": 1}
            ]},
        )
        coord = build_coordinator(scenario)
        coord.run(max_sim_time_ms=10_000_000)
        versions = {coord.cluster.resources["hv1"].installed.get("qemu")}
        assert versions <= {"1", "2"}
