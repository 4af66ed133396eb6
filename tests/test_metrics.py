import json

from hypothesis import example, given, settings, strategies as st

from upgradesim import metrics
from upgradesim.engine import EventLog
from upgradesim.metrics import (
    SlaViolation,
    comparison_csv,
    comparison_row,
    compute_application_outage,
    compute_sla_violations,
    penalty_report,
    per_vm_outage_totals,
)
from upgradesim.scenario import build_coordinator

import metrics_oracle as oracle
from metrics_oracle import vm_outages


def quadratic_penalty(violations: list[SlaViolation], rate: float = 1.0) -> float:
    """Penalty in rate units: duration (s) weighted by impacted capacity
    squared, summed over the violations' tenants by ``penalty_report``."""
    tenants = sorted({v.tenant for v in violations})
    report = penalty_report(violations, tenants)
    return rate * sum(t.penalty_q for t in report.per_tenant.values())


def log_with(*outages, committed=None):
    log = EventLog()
    for tenant, count in (committed or {}).items():
        log.emit(0, "tenant-initial", tenant=tenant, count=count)
    for vm, tenant, group, start, end in outages:
        log.emit(end, "vm-outage", vm=vm, tenant=tenant, group=group,
                 start=start, end=end, cause="migration")
    return log


class TestApplicationOutage:
    def test_redundant_tenant_without_overlap_has_none(self):
        log = log_with(
            ("T1.1", "T1", "g1", 0, 600),
            ("T1.2", "T1", "g1", 1_000, 1_600),
            committed={"T1": 2},
        )
        assert compute_application_outage(log, ["T1"]) == {"T1": 0}

    def test_single_vm_tenant_feels_each_outage(self):
        log = log_with(("T4.1", "T4", "g1", 100, 700), committed={"T4": 1})
        assert compute_application_outage(log, ["T4"]) == {"T4": 600}

    def test_group_overlap_counts_intersection(self):
        log = log_with(
            ("T1.1", "T1", "g1", 0, 600),
            ("T1.2", "T1", "g1", 300, 900),
            committed={"T1": 2},
        )
        assert compute_application_outage(log, ["T1"]) == {"T1": 300}


class TestViolations:
    def test_single_interval(self):
        log = log_with(("T1.1", "T1", "g1", 0, 600), committed={"T1": 2})
        violations = compute_sla_violations(log, ["T1"])
        assert len(violations) == 1
        assert violations[0].duration_ms == 600
        assert violations[0].impacted_vms == 1

    def test_overlapping_outages_merge(self):
        log = log_with(
            ("T1.1", "T1", "g1", 0, 600),
            ("T1.2", "T1", "g1", 300, 900),
            committed={"T1": 2},
        )
        violations = compute_sla_violations(log, ["T1"])
        assert len(violations) == 1
        assert violations[0].impacted_vms == 2
        assert violations[0].duration_ms == 900

    def test_no_outages_no_violations(self):
        assert compute_sla_violations(log_with(), ["T1"]) == []


class TestPenalty:
    def test_single_impact_identity(self):
        violations = [
            SlaViolation("T1", 0, 600, 1),
            SlaViolation("T1", 1_000, 1_750, 1),
        ]
        assert quadratic_penalty(violations) == 1.35
        total_s = sum(v.duration_ms for v in violations) / 1000
        assert quadratic_penalty(violations) == total_s

    def test_reported_row_values(self):
        violations = [SlaViolation("T1", 0, 2_250, 1)]
        assert quadratic_penalty(violations) == 2.25

    def test_two_by_two_system_from_mixed_impacts(self):
        # durations d1 + d2 = 1.69 s and d1 + 4*d2 = 2.98 give d1=1.26, d2=0.43
        d1, d2 = 1_260, 430
        violations = [SlaViolation("T1", 0, d1, 1), SlaViolation("T1", 5_000, 5_000 + d2, 2)]
        assert round(sum(v.duration_ms for v in violations) / 1000, 2) == 1.69
        assert round(quadratic_penalty(violations), 2) == 2.98

    def test_rate_scales_linearly(self):
        violations = [SlaViolation("T1", 0, 1_000, 2)]
        assert quadratic_penalty(violations, rate=2.5) == 2.5 * 4.0


class TestReports:
    def test_per_tenant_report(self):
        violations = [
            SlaViolation("T1", 0, 600, 1),
            SlaViolation("T1", 1_000, 1_600, 2),
            SlaViolation("T2", 0, 600, 1),
        ]
        report = penalty_report(violations, ["T1", "T2", "T3"])
        assert report.per_tenant["T1"].violation_count == 2
        assert report.per_tenant["T1"].min_impacted == 1
        assert report.per_tenant["T1"].max_impacted == 2
        assert report.per_tenant["T1"].total_duration_ms == 1_200
        assert report.per_tenant["T3"].violation_count == 0
        assert report.average_total_duration_s == (1_200 + 600 + 0) / 3 / 1000

    def test_comparison_row_and_csv(self):
        violations = [SlaViolation("T1", 0, 600, 1), SlaViolation("T2", 0, 1_200, 1)]
        report = penalty_report(violations, ["T1", "T2"])
        row = comparison_row("coordinator", 192.69, [report])
        as_dict = row.as_dict()
        assert as_dict["method"] == "coordinator"
        assert as_dict["violations_min"] == 1
        assert as_dict["violations_max"] == 1
        assert as_dict["impacted_min"] == 1 and as_dict["impacted_max"] == 1
        assert as_dict["avg_total_violation_s"] == 0.9
        csv_text = comparison_csv([row])
        assert csv_text.splitlines()[0].startswith("method,")
        assert "coordinator" in csv_text

    def test_empty_run_rows_are_zero(self):
        report = penalty_report([], ["T1"])
        row = comparison_row("rolling-batch-1", 410.0, [report])
        assert row.penalty_q == 0.0
        assert row.violations_max == 0


def test_outage_extraction_sorted():
    log = log_with(
        ("b", "T1", "g1", 500, 1_100),
        ("a", "T1", "g1", 0, 600),
    )
    records = vm_outages(log)
    assert [r.subject for r in records] == ["a", "b"]
    assert per_vm_outage_totals(log) == {"a": 600, "b": 600}


# -- the one-pass accounting against the reference in metrics_oracle --------------

TENANT_POOL = ["T1", "T2", "T3", "T4"]


@st.composite
def event_logs(draw):
    """Small logs whose outages often start, end or sit at the same instant
    (zero-length, touching, nested and overlapping), with commitment records
    in any order, and tenants listed or not."""
    records = []
    for _ in range(draw(st.integers(0, 14))):
        tenant = draw(st.sampled_from(TENANT_POOL))
        start = draw(st.integers(0, 40))
        records.append((
            "vm-outage",
            tenant,
            {
                "vm": f"{tenant}.{draw(st.integers(1, 3))}",
                "group": draw(st.sampled_from(["g1", "g2"])),
                "start": start,
                "end": start + draw(st.sampled_from([0, 5, 10, 20])),
                "cause": "migration",
            },
        ))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["tenant-initial", "tenant-committed"]))
        records.append((
            kind,
            draw(st.sampled_from(TENANT_POOL)),
            {"count": draw(st.integers(0, 3)), "at": draw(st.integers(0, 40))},
        ))
    records = draw(st.permutations(records))
    log = EventLog()
    for kind, tenant, fields in records:
        at = fields.pop("at", fields.get("end", 0))
        log.emit(at, kind, tenant=tenant, **fields)
    tenants = draw(st.lists(st.sampled_from(TENANT_POOL), unique=True))
    return log, tenants


def _touching_outages():
    log = EventLog()
    log.emit(0, "tenant-initial", tenant="T1", count=2)
    for vm, start, end in (("T1.1", 0, 10), ("T1.2", 10, 20)):
        log.emit(end, "vm-outage", vm=vm, tenant="T1", group="g1",
                 start=start, end=end, cause="migration")
    return log, ["T1"]


def _commitments_out_of_time_order():
    # the entry latest in the log holds, not the one latest in time
    log = EventLog()
    log.emit(20, "tenant-committed", tenant="T1", count=2)
    log.emit(10, "tenant-committed", tenant="T1", count=1)
    log.emit(35, "vm-outage", vm="T1.1", tenant="T1", group="g1",
             start=25, end=35, cause="migration")
    return log, ["T1"]


def _accounting(module, log, tenants):
    violations = module.compute_sla_violations(log, tenants)
    return (
        violations,
        module.penalty_report(violations, tenants),
        module.compute_application_outage(log, tenants),
        module.per_vm_outage_totals(log),
    )


@settings(max_examples=300, deadline=None)
@given(event_logs())
@example(_touching_outages())
@example(_commitments_out_of_time_order())
def test_one_pass_accounting_matches_the_reference(log_and_tenants):
    log, tenants = log_and_tenants
    assert _accounting(metrics, log, tenants) == _accounting(oracle, log, tenants)


@settings(max_examples=50, deadline=None)
@given(event_logs())
def test_a_log_with_assigned_records_reads_like_an_emitted_one(log_and_tenants):
    # perfbench/run.py fills ``records`` from events.jsonl without ``emit``
    log, tenants = log_and_tenants
    assigned = EventLog()
    assigned.records = [json.loads(json.dumps(r)) for r in log.records]
    assert _accounting(metrics, assigned, tenants) == _accounting(metrics, log, tenants)


def test_a_run_read_back_from_events_jsonl_reads_like_the_run(scenario_a):
    coordinator = build_coordinator(scenario_a)
    result = coordinator.run()
    tenants = sorted(coordinator.cluster.tenants)
    read_back = EventLog()
    read_back.records = [json.loads(line) for line in result.log.to_jsonl().splitlines()]
    ran = _accounting(metrics, result.log, tenants)
    assert ran[0] and sum(ran[2].values())  # the run has violations and application outage
    assert _accounting(metrics, read_back, tenants) == ran
