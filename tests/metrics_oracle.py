"""The SLA and outage accounting as it was before it read the log in one
pass, kept as the reference ``tests/test_metrics.py`` checks the current
functions against. The bodies are unchanged, except that ``vm_outages``
filters through ``of_kind`` now that ``EventLog`` has no such method."""

from __future__ import annotations

from dataclasses import dataclass

from upgradesim.engine import EventLog
from upgradesim.metrics import PenaltyReport, SlaViolation, TenantPenalty

from conftest import of_kind


@dataclass(frozen=True)
class OutageRecord:
    subject: str  # vm id
    tenant: str
    group: str
    start: int
    end: int
    cause: str  # migration | host-failure | vm-upgrade

    @property
    def duration_ms(self) -> int:
        return self.end - self.start


def vm_outages(log: EventLog) -> list[OutageRecord]:
    out = []
    for record in of_kind(log, "vm-outage"):
        out.append(
            OutageRecord(
                subject=record["vm"],
                tenant=record["tenant"],
                group=record["group"],
                start=record["start"],
                end=record["end"],
                cause=record["cause"],
            )
        )
    out.sort(key=lambda r: (r.start, r.subject))
    return out


def per_vm_outage_totals(log: EventLog) -> dict[str, int]:
    totals: dict[str, int] = {}
    for rec in vm_outages(log):
        totals[rec.subject] = totals.get(rec.subject, 0) + rec.duration_ms
    return totals


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Merge into maximal busy intervals; third field is max overlap depth."""
    events: list[tuple[int, int]] = []
    for start, end in intervals:
        events.append((start, +1))
        events.append((end, -1))
    events.sort()
    merged: list[tuple[int, int, int]] = []
    depth = 0
    window_start = 0
    max_depth = 0
    for at, delta in events:
        if depth == 0 and delta > 0:
            window_start = at
            max_depth = 0
        depth += delta
        max_depth = max(max_depth, depth)
        if depth == 0:
            merged.append((window_start, at, max_depth))
    return merged


def compute_application_outage(log: EventLog, tenants: list[str]) -> dict[str, int]:
    """Per-tenant time the application layer was actually impacted.

    A tenant with one committed VM is impacted whenever that VM is down; a
    tenant with redundancy is impacted only while two or more VMs of one
    anti-affinity group are down at once.
    """
    outages = vm_outages(log)
    committed = _committed_timeline(log)
    result: dict[str, int] = {t: 0 for t in tenants}
    for tenant in tenants:
        records = [r for r in outages if r.tenant == tenant]
        by_group: dict[str, list[OutageRecord]] = {}
        for rec in records:
            by_group.setdefault(rec.group, []).append(rec)
        total = 0
        for group_records in by_group.values():
            total += _overlap_at_depth(group_records, 2)
        for rec in records:
            if _committed_at(committed, tenant, rec.start) == 1:
                total += rec.duration_ms
        result[tenant] = total
    return result


def _overlap_at_depth(records: list[OutageRecord], depth: int) -> int:
    events: list[tuple[int, int]] = []
    for rec in records:
        events.append((rec.start, +1))
        events.append((rec.end, -1))
    events.sort()
    level = 0
    total = 0
    prev = 0
    for at, delta in events:
        if level >= depth:
            total += at - prev
        level += delta
        prev = at
    return total


def _committed_timeline(log: EventLog) -> dict[str, list[tuple[int, int]]]:
    timeline: dict[str, list[tuple[int, int]]] = {}
    for record in log.records:
        if record["kind"] == "tenant-committed":
            timeline.setdefault(record["tenant"], []).append((record["at"], record["count"]))
        elif record["kind"] == "tenant-initial":
            timeline.setdefault(record["tenant"], []).insert(0, (record["at"], record["count"]))
    return timeline


def _committed_at(timeline: dict[str, list[tuple[int, int]]], tenant: str, at: int) -> int:
    count = 0
    for ts, value in timeline.get(tenant, []):
        if ts <= at:
            count = value
    return count


def compute_sla_violations(log: EventLog, tenants: list[str]) -> list[SlaViolation]:
    """Maximal intervals where a tenant's live VM count sits below the
    committed count; impact is the peak number of simultaneously down VMs."""
    outages = vm_outages(log)
    violations: list[SlaViolation] = []
    for tenant in tenants:
        records = [r for r in outages if r.tenant == tenant and r.duration_ms > 0]
        for start, end, depth in _merge_intervals([(r.start, r.end) for r in records]):
            violations.append(SlaViolation(tenant=tenant, start=start, end=end, impacted_vms=depth))
    violations.sort(key=lambda v: (v.start, v.tenant))
    return violations


def penalty_report(violations: list[SlaViolation], tenants: list[str]) -> PenaltyReport:
    report = PenaltyReport()
    for tenant in tenants:
        mine = [v for v in violations if v.tenant == tenant]
        report.per_tenant[tenant] = TenantPenalty(
            tenant=tenant,
            violation_count=len(mine),
            min_impacted=min((v.impacted_vms for v in mine), default=0),
            max_impacted=max((v.impacted_vms for v in mine), default=0),
            total_duration_ms=sum(v.duration_ms for v in mine),
            weighted_ms=sum(v.duration_ms * (v.impacted_vms**2) for v in mine),
        )
    return report
