"""Availability and SLA accounting over simulation event logs."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from upgradesim.engine import EventLog


class SlaViolation(NamedTuple):
    """A maximal interval in which a tenant had fewer live VMs than
    committed; ``impacted_vms`` is the peak number down at once."""

    tenant: str
    start: int
    end: int
    impacted_vms: int

    @property
    def duration_ms(self) -> int:
        return self.end - self.start


@dataclass(slots=True)
class TenantPenalty:
    tenant: str
    violation_count: int
    min_impacted: int
    max_impacted: int
    total_duration_ms: int
    weighted_ms: int  # sum of duration_ms * impacted^2; exact integer

    @property
    def penalty_q(self) -> float:
        """Penalty in units of the quadratic penalty rate."""
        return self.weighted_ms / 1000


@dataclass
class PenaltyReport:
    per_tenant: dict[str, TenantPenalty] = field(default_factory=dict)

    @property
    def average_total_duration_s(self) -> float:
        if not self.per_tenant:
            return 0.0
        return sum(t.total_duration_ms for t in self.per_tenant.values()) / len(self.per_tenant) / 1000

    @property
    def average_penalty_q(self) -> float:
        if not self.per_tenant:
            return 0.0
        return sum(t.weighted_ms for t in self.per_tenant.values()) / len(self.per_tenant) / 1000


# Each function below that takes a log reads ``log.records`` in one scan and
# groups what it needs on the way. A rolling ordering writes no log: it
# collects its outage spans itself and scores them with ``tenant_violations``
# and ``penalty_report``, as ``compute_sla_violations`` does a log's.


def per_vm_outage_totals(log: EventLog) -> dict[str, int]:
    """Total outage (ms) per VM, in the order the VMs first appear in the log."""
    totals: dict[str, int] = {}
    for r in log.records:
        if r["kind"] == "vm-outage":
            vm = r["vm"]
            totals[vm] = totals.get(vm, 0) + r["end"] - r["start"]
    return totals


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Merge into maximal busy intervals; third field is max overlap depth.

    Intervals that only touch stay apart: an end sorts before a start at the
    same instant."""
    events = [(start, +1) for start, _ in intervals]
    events += [(end, -1) for _, end in intervals]
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
        if depth > max_depth:
            max_depth = depth
        if depth == 0:
            merged.append((window_start, at, max_depth))
    return merged


def compute_application_outage(log: EventLog, tenants: list[str]) -> dict[str, int]:
    """Per-tenant time the application layer was actually impacted.

    A tenant with one committed VM is impacted whenever that VM is down; a
    tenant with redundancy is impacted only while two or more VMs of one
    anti-affinity group are down at once.
    """
    # tenant -> group -> (start, end) of each outage
    spans: dict[str, dict[str, list[tuple[int, int]]]] = {t: {} for t in tenants}
    timeline: dict[str, list[tuple[int, int]]] = {}
    for r in log.records:
        kind = r["kind"]
        if kind == "vm-outage":
            groups = spans.get(r["tenant"])
            if groups is not None:
                groups.setdefault(r["group"], []).append((r["start"], r["end"]))
        elif kind == "tenant-committed":
            timeline.setdefault(r["tenant"], []).append((r["at"], r["count"]))
        elif kind == "tenant-initial":
            timeline.setdefault(r["tenant"], []).insert(0, (r["at"], r["count"]))
    result: dict[str, int] = {}
    for tenant in tenants:
        committed = timeline.get(tenant, [])
        total = 0
        for group_spans in spans[tenant].values():
            total += _overlap_at_depth(group_spans, 2)
            for start, end in group_spans:
                if _committed_at(committed, start) == 1:
                    total += end - start
        result[tenant] = total
    return result


def _overlap_at_depth(spans: list[tuple[int, int]], depth: int) -> int:
    events = [(start, +1) for start, _ in spans]
    events += [(end, -1) for _, end in spans]
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


def _committed_at(timeline: list[tuple[int, int]], at: int) -> int:
    """The count of the latest entry (in log order) stamped at or before
    ``at``; 0 before any."""
    count = 0
    for ts, value in timeline:
        if ts <= at:
            count = value
    return count


def tenant_violations(
    spans: dict[str, list[tuple[int, int]]], tenants: list[str]
) -> Iterator[tuple[str, int, int, int]]:
    """(tenant, start, end, peak VMs down) of each maximal interval in which
    one of a tenant's outage spans is open, tenant by tenant in ``tenants``
    order. Every span must have start < end."""
    for tenant in tenants:
        if spans[tenant]:
            for start, end, depth in _merge_intervals(spans[tenant]):
                yield tenant, start, end, depth


def compute_sla_violations(log: EventLog, tenants: list[str]) -> list[SlaViolation]:
    """Maximal intervals where a tenant's live VM count sits below the
    committed count; impact is the peak number of simultaneously down VMs."""
    spans: dict[str, list[tuple[int, int]]] = {t: [] for t in tenants}
    for r in log.records:
        if r["kind"] == "vm-outage" and r["start"] < r["end"]:
            mine = spans.get(r["tenant"])
            if mine is not None:
                mine.append((r["start"], r["end"]))
    violations = [SlaViolation(*v) for v in tenant_violations(spans, tenants)]
    violations.sort(key=lambda v: (v.start, v.tenant))
    return violations


def penalty_report(
    violations: Iterable[tuple[str, int, int, int]], tenants: list[str]
) -> PenaltyReport:
    """Per-tenant count, impact range, total and squared-impact-weighted
    duration of the violations, each a (tenant, start, end, impacted VMs)
    ``SlaViolation`` or plain tuple; tenants not listed are left out."""
    per_tenant = {t: TenantPenalty(t, 0, 0, 0, 0, 0) for t in tenants}
    for tenant, start, end, impacted in violations:
        p = per_tenant.get(tenant)
        if p is None:
            continue
        duration = end - start
        if p.violation_count == 0 or impacted < p.min_impacted:
            p.min_impacted = impacted
        if impacted > p.max_impacted:
            p.max_impacted = impacted
        p.violation_count += 1
        p.total_duration_ms += duration
        p.weighted_ms += duration * impacted * impacted
    return PenaltyReport(per_tenant)


@dataclass
class ComparisonRow:
    method: str
    total_duration_s: float
    violations_min: float
    violations_max: float
    impacted_min: float
    impacted_max: float
    avg_total_violation_s: float
    penalty_q: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "total_duration_s": round(self.total_duration_s, 2),
            "violations_min": round(self.violations_min, 2),
            "violations_max": round(self.violations_max, 2),
            "impacted_min": round(self.impacted_min, 2),
            "impacted_max": round(self.impacted_max, 2),
            "avg_total_violation_s": round(self.avg_total_violation_s, 2),
            "penalty_q": round(self.penalty_q, 2),
        }


def comparison_row(method: str, duration_s: float, reports: list[PenaltyReport]) -> ComparisonRow:
    """Aggregate one method's runs: per-tenant numbers average across runs,
    then min/max span the tenants."""
    tenants = sorted({t for r in reports for t in r.per_tenant})
    counts, impacted_min, impacted_max, totals, penalties = [], [], [], [], []
    for tenant in tenants:
        rows = [r.per_tenant[tenant] for r in reports if tenant in r.per_tenant]
        counts.append(sum(x.violation_count for x in rows) / len(rows))
        impacted_min.append(min((x.min_impacted for x in rows if x.violation_count), default=0))
        impacted_max.append(max(x.max_impacted for x in rows))
        totals.append(sum(x.total_duration_ms for x in rows) / len(rows))
        penalties.append(sum(x.penalty_q for x in rows) / len(rows))
    return ComparisonRow(
        method=method,
        total_duration_s=duration_s,
        violations_min=min(counts, default=0.0),
        violations_max=max(counts, default=0.0),
        impacted_min=min((x for x in impacted_min if x), default=0),
        impacted_max=max(impacted_max, default=0),
        avg_total_violation_s=(sum(totals) / len(totals) / 1000) if totals else 0.0,
        penalty_q=(sum(penalties) / len(penalties)) if penalties else 0.0,
    )


def comparison_csv(rows: list[ComparisonRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=[
            "method",
            "total_duration_s",
            "violations_min",
            "violations_max",
            "impacted_min",
            "impacted_max",
            "avg_total_violation_s",
            "penalty_q",
        ],
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_dict())
    return buffer.getvalue()
