"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they come.
"""

import random
import time

from upgradesim import metrics as metrics_mod
from upgradesim.catalog import StorageRequirement
from upgradesim.cluster import TenantSLA
from upgradesim.coordinator import Phase
from upgradesim.planner import (
    max_scaling_adjustment,
    out_of_service_budget,
    scaling_reservation,
    storage_hosts_sufficient,
)
from upgradesim.rolling import RollingBaselineConfig, run_rolling_baseline
from upgradesim.scenario import build_cluster, build_coordinator, build_timing, parse_scenario
from upgradesim.vm_migration import vm_migration_budget

from conftest import of_kind, rerun_logs, scenario_json, toy_scenario
from test_planner import make_view


def check(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] criterion {criterion} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert passed, line


# -- criterion 1: equation oracles ------------------------------------------------------


def _oracle_periods(window: int, cooldown: int) -> int:
    covered, periods = 0, 0
    while covered < window:
        covered += cooldown
        periods += 1
    return periods


def _oracle_chunks(count: int, per: int) -> int:
    chunks, left = 0, count
    while left > 0:
        left -= per
        chunks += 1
    return chunks


def test_criterion_1_equation_oracles():
    rng = random.Random(20260810)
    started = time.monotonic()
    checked = 0
    for _ in range(1100):
        hosts = [f"h{i}" for i in range(rng.randint(0, 8))]
        used = sorted(rng.sample(hosts, rng.randint(0, len(hosts))))
        storage = [f"s{i}" for i in range(rng.randint(0, 8))]
        overlap = sorted(rng.sample(storage, rng.randint(0, len(storage))))
        k = rng.randint(1, 4)
        tenants = [
            TenantSLA(
                tenant_id=f"T{i}", min_vms=0, max_vms=9,
                scaling_adjustment=rng.randint(0, 3),
                cooldown_ms=rng.randint(1, 500),
                committed=rng.randint(0, 4),
            )
            for i in range(rng.randint(0, 4))
        ]
        window = rng.randint(0, 900)

        expected_s = max(
            (t.scaling_adjustment * _oracle_periods(window, t.cooldown_ms) for t in tenants),
            default=0,
        )
        got_s = max_scaling_adjustment(tenants, window)
        assert got_s == expected_s, (tenants, window)

        adjustment = rng.randint(0, 4)
        tenant_count = rng.randint(0, 6)
        expected_resv = adjustment * _oracle_chunks(tenant_count, k)
        assert scaling_reservation(adjustment, tenant_count, k) == expected_resv

        resv, fail = rng.randint(0, 4), rng.randint(0, 2)
        view = make_view(compute=hosts, used=used, storage=storage, k=k, k_new=k)
        free = 0
        for h in hosts:
            if h not in used:
                free += 1
        if not used:
            expected_z = len(hosts)
        else:
            expected_z = free - resv - fail
            if expected_z < 0:
                expected_z = 0
        assert out_of_service_budget(view, resv, fail) == expected_z

        old = StorageRequirement(rng.randint(0, 4), rng.randint(0, 4))
        new = StorageRequirement(rng.randint(0, 4), rng.randint(0, 4))
        available = 0
        for s in storage:
            if s not in overlap:
                available += 1
        old_need = old.min_hosts_for_configuration
        if old.min_hosts_for_capacity > old_need:
            old_need = old.min_hosts_for_capacity
        new_need = new.min_hosts_for_configuration
        if new.min_hosts_for_capacity > new_need:
            new_need = new.min_hosts_for_capacity
        overlap_view = make_view(compute=overlap, used=overlap, storage=storage)
        assert storage_hosts_sufficient(overlap_view, old, new) == (
            available >= old_need + new_need
        )

        new_used = sorted(rng.sample(hosts, rng.randint(0, len(hosts))))
        v_view = make_view(
            compute=hosts, for_new=hosts, used_new=new_used, k_new=k, partitioned=True
        )
        spare = 0
        for h in hosts:
            if h not in new_used:
                spare += 1
        expected_v = spare - resv - fail
        expected_v = expected_v * k if expected_v > 0 else 0
        assert vm_migration_budget(v_view, resv, fail) == expected_v
        checked += 5
    elapsed = time.monotonic() - started
    check(
        1,
        "equation oracles",
        checked >= 5 * 1000 and elapsed < 5.0,
        f"{checked} comparisons in {elapsed:.2f}s",
    )


# -- criteria 2-4 over the two evaluation scenarios --------------------------------------


def _coordinator_metrics(scenario):
    coordinator = build_coordinator(scenario)
    result = coordinator.run(max_sim_time_ms=50_000_000)
    tenants = sorted(coordinator.cluster.tenants)
    violations = metrics_mod.compute_sla_violations(result.log, tenants)
    report = metrics_mod.penalty_report(violations, tenants)
    return coordinator, result, tenants, violations, report


def test_criterion_2_quadratic_penalty_identity(scenario_a, scenario_b):
    rows = {}
    for name, scenario in (("a", scenario_a), ("b", scenario_b)):
        _, result, tenants, violations, report = _coordinator_metrics(scenario)
        identity = all(
            tp.penalty_q == tp.total_duration_ms / 1000
            for tp in report.per_tenant.values()
        )
        single_impact = all(v.impacted_vms == 1 for v in violations)
        rows[name] = (report.average_total_duration_s, report.average_penalty_q,
                      identity and single_impact)
    ok = (
        rows["a"][2] and rows["b"][2]
        and rows["a"][0] == 1.35 and rows["a"][1] == 1.35
        and rows["b"][0] == 2.25 and rows["b"][1] == 2.25
    )
    check(
        2,
        "quadratic penalty identity",
        ok,
        f"scenario-a {rows['a'][1]} q', scenario-b {rows['b'][1]} q'",
    )


def test_criterion_3_zero_application_outage(scenario_a, scenario_b):
    ok = True
    details = []
    for name, scenario in (("a", scenario_a), ("b", scenario_b)):
        coordinator, result, tenants, _, _ = _coordinator_metrics(scenario)
        app = metrics_mod.compute_application_outage(result.log, tenants)
        for tenant in tenants:
            committed = coordinator.cluster.tenants[tenant].committed
            expected = 600 if committed == 1 else 0
            if app[tenant] != expected:
                ok = False
            details.append(f"{name}/{tenant}={app[tenant] / 1000}s")
    check(3, "application-level outage", ok, ", ".join(details))


def test_criterion_4_per_vm_outage_bounds(scenario_a, scenario_b):
    coordinator_ok = True
    rolling_ok = True
    for scenario in (scenario_a, scenario_b):
        _, result, _, _, _ = _coordinator_metrics(scenario)
        totals = metrics_mod.per_vm_outage_totals(result.log)
        if set(totals.values()) != {600}:
            coordinator_ok = False
        cluster = build_cluster(scenario)
        timing = build_timing(scenario)
        for batch in (1, 2, 3, 4):
            rolling = run_rolling_baseline(
                cluster,
                RollingBaselineConfig(batch_size=batch, order_policy="sample-n",
                                      seed=17, sample_count=60),
                timing,
            )
            for _, log in rerun_logs(cluster, rolling, timing):
                values = set(metrics_mod.per_vm_outage_totals(log).values())
                if not values <= {600, 1_200, 1_800}:
                    rolling_ok = False
    check(
        4,
        "per-VM outage bounds",
        coordinator_ok and rolling_ok,
        "coordinator exactly 0.6s each; rolling within {0.6, 1.2, 1.8}s",
    )


def test_criterion_5_baseline_arithmetic_and_trends(scenario_a, scenario_b):
    started = time.monotonic()
    cluster_a = build_cluster(scenario_a)
    timing = build_timing(scenario_a)
    batch1 = run_rolling_baseline(
        cluster_a,
        RollingBaselineConfig(batch_size=1, order_policy="sample-n", seed=17, sample_count=200),
        timing,
    )
    headline = (
        abs(batch1.average_duration_s - 548.00) <= 0.01
        and batch1.average_evacuation_rounds == 6.0
    )
    trends_ok = True
    for scenario in (scenario_a, scenario_b):
        cluster = build_cluster(scenario)
        durations, penalties = [], []
        for batch in (1, 2, 3, 4):
            rolling = run_rolling_baseline(
                cluster,
                RollingBaselineConfig(batch_size=batch, order_policy="sample-n",
                                      seed=17, sample_count=200),
                build_timing(scenario),
            )
            reports = rolling.penalty_reports()
            durations.append(rolling.average_duration_s)
            penalties.append(sum(r.average_penalty_q for r in reports) / len(reports))
        _, _, _, _, coordinator_report = _coordinator_metrics(scenario)
        if not all(durations[i] > durations[i + 1] for i in range(3)):
            trends_ok = False
        if not all(penalties[i] <= penalties[i + 1] for i in range(3)):
            trends_ok = False
        if not all(coordinator_report.average_penalty_q <= p for p in penalties):
            trends_ok = False
    elapsed = time.monotonic() - started
    check(
        5,
        "baseline arithmetic and trends",
        headline and trends_ok and elapsed < 30.0,
        f"batch-1 avg {batch1.average_duration_s:.2f}s over {len(batch1.runs)} orderings, "
        f"{elapsed:.1f}s",
    )


# -- criterion 6: failure semantics across seeded runs -----------------------------------


def _failure_scenario(seed: int) -> dict:
    data = scenario_json(toy_scenario(host_count=5, max_retry=2))
    request = data["events"][0]["request"]
    request["change_sets"] = [
        {
            "id": "cs-a", "max_completion_seconds": 1_000_000, "max_retry": 2,
            "changes": [{"id": "ch-a", "action": "upgrade", "product": "qemu",
                         "version": "2", "targets": ["hv1", "hv2", "hv3"],
                         "undo_threshold": 2}],
        },
        {
            "id": "cs-b", "max_completion_seconds": 1_000_000, "max_retry": 2,
            "changes": [{"id": "ch-b", "action": "upgrade", "product": "qemu",
                         "version": "2", "targets": ["hv4", "hv5"],
                         "undo_threshold": 0}],
        },
    ]
    rng = random.Random(seed)
    if seed % 2 == 0:
        data["failures"] = {"seed": seed, "rates": {"install": 0.3}, "scripted": []}
    else:
        scripted = []
        for target in rng.sample(["hv1", "hv2", "hv3", "hv4", "hv5"], rng.randint(1, 4)):
            for occurrence in range(1, rng.randint(1, 3) + 1):
                scripted.append({
                    "action_id": "install:qemu-2", "target": target, "occurrence": occurrence,
                })
        data["failures"] = {"seed": seed, "rates": {}, "scripted": scripted}
    return data


def test_criterion_6_failure_semantics():
    runs = 200
    violations = []
    for seed in range(runs):
        scenario = parse_scenario(_failure_scenario(seed))
        coordinator = build_coordinator(scenario)
        result = coordinator.run(max_sim_time_ms=100_000_000)
        if result.phase != Phase.TERMINATED:
            violations.append((seed, "did not terminate"))
            continue
        rg = coordinator.rg
        cluster = coordinator.cluster
        sets = coordinator.model.sets
        for rid in ("hv1", "hv2", "hv3", "hv4", "hv5"):
            res = rg.resources[rid]
            version = cluster.resources[rid].installed.get("qemu")
            # (a) never left mid-operation: pre- or post-level version only
            if version not in ("1", "2"):
                violations.append((seed, f"{rid} at partial version {version}"))
            # (b) attempts bounded by max-retry; exhaustion means isolation
            for set_id, attempts in res.failed_attempts.items():
                if attempts > sets[set_id].max_retry:
                    violations.append((seed, f"{rid} exceeded retries"))
                if (
                    attempts >= sets[set_id].max_retry
                    and sets[set_id].status.value == "completed"
                    and not (res.is_isolated or res.is_failed)
                ):
                    violations.append((seed, f"{rid} exhausted but not isolated"))
        # (c) a set undone by its threshold leaves non-failed members at the
        # undo version
        cs_a = sets["cs-a"]
        if cs_a.status.value == "failed" and cs_a.undo_reason == "threshold":
            for rid in ("hv1", "hv2", "hv3"):
                res = rg.resources[rid]
                version = cluster.resources[rid].installed.get("qemu")
                if not res.is_failed and version != "1":
                    violations.append((seed, f"{rid} not restored after undo"))
        # (d) independence: the disjoint set always completes
        if sets["cs-b"].status.value != "completed":
            violations.append((seed, "cs-b did not complete"))
    check(
        6,
        "failure semantics",
        not violations,
        f"{runs} seeded runs, violations: {violations[:5]}",
    )


# -- criterion 7: dynamicity --------------------------------------------------------------


def test_criterion_7_dynamicity(scenario_burst, scenario_suspension):
    burst_coordinator = build_coordinator(scenario_burst)
    burst_result = burst_coordinator.run(max_sim_time_ms=50_000_000)
    no_rejections = not of_kind(burst_result.log, "scaling-capacity-rejected")
    burst_done = (
        burst_result.phase == Phase.TERMINATED
        and burst_result.set_statuses == {"cs-hypervisors": "completed"}
    )
    placed = [r for r in of_kind(burst_result.log, "scale-out") if r["placed"] > 0]

    suspension_coordinator = build_coordinator(scenario_suspension)
    suspension_result = suspension_coordinator.run(max_sim_time_ms=200_000_000)
    suspended_first = suspension_result.reports[0].phase_after == "suspended"
    resumed = any(r.phase_after == "running" for r in suspension_result.reports)
    resumed_after_scale_in = all(
        r.started_at >= 900_000
        for r in suspension_result.reports
        if r.phase_after == "running"
    )
    finished = suspension_result.phase == Phase.TERMINATED
    check(
        7,
        "dynamicity",
        no_rejections and burst_done and bool(placed) and suspended_first and resumed
        and resumed_after_scale_in and finished,
        f"{len(placed)} bursts placed, zero capacity rejections; "
        f"suspended then resumed after scale-in",
    )


# -- criterion 8: local parallel universe --------------------------------------------------


def test_criterion_8_ppu(scenario_ppu):
    coordinator = build_coordinator(scenario_ppu)
    result = coordinator.run(max_sim_time_ms=50_000_000)
    completed = (
        result.phase == Phase.TERMINATED
        and result.set_statuses == {"cs-storage": "completed"}
    )
    gating_observed = any(
        e["rule"] == "storage-capacity" for r in result.reports for e in r.eliminations
    )
    crossings = [
        rec for rec in result.log.records
        if rec["kind"] == "vm-migrated" and rec.get("to_host", "").startswith("b")
        or rec["kind"] == "vm-migrated"
    ]
    last_migration = max((rec["at"] for rec in of_kind(result.log, "vm-migrated")), default=0)
    vsan_down = [
        rec["at"]
        for rec in result.log.records
        if rec["kind"] == "resource-deactivated" and rec["resource"] == "vsan-1"
    ]
    old_active_until_drained = bool(vsan_down) and vsan_down[0] > last_migration
    no_gaps = not of_kind(result.log, "vm-service-gap")
    check(
        8,
        "local parallel universe",
        completed and gating_observed and old_active_until_drained and no_gaps,
        f"gate observed, storage retired at {vsan_down[0] / 1000 if vsan_down else '?'}s "
        f"after last migration at {last_migration / 1000}s",
    )


# -- criterion 9: determinism ---------------------------------------------------------------


def test_criterion_9_determinism(scenario_a, scenario_ppu):
    def stream(scenario):
        coordinator = build_coordinator(scenario, seed_override=23)
        result = coordinator.run(max_sim_time_ms=50_000_000)
        return (
            "".join(r.to_json() + "\n" for r in result.reports) + result.log.to_jsonl()
        ).encode()

    identical = all(
        stream(scenario) == stream(scenario) for scenario in (scenario_a, scenario_ppu)
    )
    check(9, "determinism", identical, "byte-identical report and event streams")
