"""Replay of rolling-baseline event logs against the cluster they started from.

Each run's log is replayed on a clone of its base cluster with the
``ClusterState`` placement checks, independently of the baseline's own
compact placement. After every evacuation round: migrations leave the batch
for hosts outside it, capacity and anti-affinity hold, and no upgraded host
that could have taken a VM was passed over for an old one.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from upgradesim.cluster import ClusterState
from upgradesim.rolling import (
    Fleet,
    RollingBaselineConfig,
    RollingRun,
    run_rolling_baseline,
    run_single_ordering,
)
from upgradesim.scenario import build_cluster, build_timing, load_scenario

from conftest import SCENARIO_DIR, toy_scenario


def _eligible(state: ClusterState, vm_id: str, host_id: str, batch: set[str]) -> bool:
    return (
        host_id not in batch
        and state.host_can_run_vms(host_id)
        and state.free_slots(host_id) > 0
        and state.anti_affinity_ok(vm_id, host_id)
    )


def _check_round(state, batch, upgraded, moves, stranded) -> None:
    for record in moves:
        vm, source, dest = record["vm"], record["from_host"], record["to_host"]
        assert source in batch and state.vms[vm].host == source, record
        assert _eligible(state, vm, dest, batch), record
        if dest not in upgraded:
            passed_over = [h for h in sorted(upgraded) if _eligible(state, vm, h, batch)]
            assert not passed_over, (record, passed_over)
        state.place_vm(state.vms[vm], dest)
    for host_id in state.hosts_with_role("compute"):
        placed = state.vms_on(host_id)
        assert len(placed) <= state.effective_capacity(host_id), host_id
        groups = [(vm.tenant_id, vm.group_id) for vm in placed]
        assert len(groups) == len(set(groups)), (host_id, groups)
        if host_id in batch:
            assert {vm.vm_id for vm in placed} == stranded.get(host_id, set()), host_id
    # a VM is stranded only when no host could take it; taking VMs only
    # fills hosts, so none can take it at the end of the round either
    for host_id, vms in stranded.items():
        for vm in vms:
            hosts = state.hosts_with_role("compute")
            assert not any(_eligible(state, vm, h, batch) for h in hosts), (host_id, vm)


def replay(base: ClusterState, run: RollingRun, batch_size: int) -> None:
    state = base.clone()
    batches = [
        set(run.ordering[i : i + batch_size]) for i in range(0, len(run.ordering), batch_size)
    ]
    upgraded: set[str] = set()
    moves: list[dict] = []
    stranded: dict[str, set[str]] = {}
    done: set[str] = set()
    for record in run.log.records:
        kind = record["kind"]
        if kind == "vm-migrated":
            moves.append(record)
        elif kind == "evacuation-infeasible":
            stranded.setdefault(record["host"], set()).add(record["vm"])
        elif kind == "host-upgraded":
            done.add(record["host"])
            batch = batches[0]
            if done == batch:
                _check_round(state, batch, upgraded, moves, stranded)
                upgraded |= batch
                batches.pop(0)
                moves, stranded, done = [], {}, set()
    assert not batches and not moves and not stranded
    assert run.infeasible == any(r["kind"] == "evacuation-infeasible" for r in run.log.records)
    assert run.vm_migrations == len(run.log.of_kind("vm-migrated"))


@st.composite
def toy_clusters(draw):
    """Small all-compute clusters whose VMs respect capacity and anti-affinity."""
    host_count = draw(st.integers(2, 6))
    capacity = draw(st.integers(1, 3))
    load = {f"h{i + 1}": set() for i in range(host_count)}
    tenants = []
    for t in range(draw(st.integers(1, 3))):
        vms = []
        for v in range(draw(st.integers(1, 4))):
            group = f"g{draw(st.integers(1, 2))}"
            free = [h for h, held in load.items() if len(held) < capacity
                    and (f"T{t}", group) not in held]
            if not free:
                continue
            host = draw(st.sampled_from(free))
            load[host].add((f"T{t}", group))
            vms.append({"id": f"T{t}.{v}", "host": host, "group": group})
        tenants.append({"id": f"T{t}", "min_vms": 1, "max_vms": 8, "scaling_adjustment": 1,
                        "cooldown_seconds": 600, "vms": vms})
    return build_cluster(toy_scenario(host_count=host_count, capacity=capacity, tenants=tenants))


@settings(max_examples=60, deadline=None)
@given(cluster=toy_clusters(), batch_size=st.integers(1, 4), data=st.data())
def test_toy_cluster_runs_keep_placement_rules(cluster, batch_size, data):
    fleet = Fleet.of(cluster)
    timing = build_timing(toy_scenario())
    cfg = RollingBaselineConfig(batch_size=batch_size)
    for _ in range(3):
        ordering = tuple(data.draw(st.permutations(fleet.hosts)))
        replay(cluster, run_single_ordering(fleet, ordering, cfg, timing), batch_size)


SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenario_runs_keep_placement_rules(name):
    scenario = load_scenario(SCENARIO_DIR / name)
    cluster = build_cluster(scenario)
    timing = build_timing(scenario)
    fleet = Fleet.of(cluster)
    rng = random.Random(name)
    orderings = [tuple(rng.sample(fleet.hosts, len(fleet.hosts))) for _ in range(15)]
    for batch_size in (1, 2, 3, 4):
        cfg = RollingBaselineConfig(batch_size=batch_size)
        for ordering in orderings:
            replay(cluster, run_single_ordering(fleet, ordering, cfg, timing), batch_size)


def test_baseline_leaves_its_base_cluster_unchanged(scenario_a):
    cluster = build_cluster(scenario_a)
    before = {vm.vm_id: vm.host for vm in cluster.vms.values()}
    result = run_rolling_baseline(
        cluster,
        RollingBaselineConfig(batch_size=2, order_policy="sample-n", sample_count=20),
        build_timing(scenario_a),
    )
    assert {vm.vm_id: vm.host for vm in cluster.vms.values()} == before
    for run in result.runs:
        replay(cluster, run, 2)
