"""Fixed-batch rolling-upgrade baseline.

Hosts are upgraded in fixed-size batches following an ordering, regardless
of system state. VMs of a batch are live-migrated away first (one parallel
evacuation round per batch), so the total duration per ordering is
batches * upgrade_time + evacuation_rounds * migration_time. Results are
averaged over orderings: all permutations for small clusters, a seeded
sample otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from upgradesim.cluster import ClusterState
from upgradesim.engine import EventLog, log_initial_commitments
from upgradesim.errors import EvacuationInfeasibleError, InvalidRequestError
from upgradesim.metrics import PenaltyReport, compute_sla_violations, penalty_report
from upgradesim.planner import TimingConstants

ENUMERATE_LIMIT = 8


@dataclass(frozen=True)
class RollingBaselineConfig:
    batch_size: int
    # auto enumerates all orderings up to ENUMERATE_LIMIT hosts, then samples
    order_policy: str = "auto"  # auto | enumerate-all | sample-n | fixed-order
    seed: int = 0
    sample_count: int = 200
    upgrade_ms: int = 41_000


@dataclass
class RollingRun:
    ordering: tuple[str, ...]
    duration_ms: int
    evacuation_rounds: int
    vm_migrations: int
    log: EventLog
    penalties: PenaltyReport
    infeasible: bool = False


@dataclass
class RollingBaselineResult:
    config: RollingBaselineConfig
    runs: list[RollingRun] = field(default_factory=list)

    @property
    def average_duration_ms(self) -> float:
        return sum(r.duration_ms for r in self.runs) / len(self.runs)

    @property
    def average_duration_s(self) -> float:
        return self.average_duration_ms / 1000

    @property
    def average_evacuation_rounds(self) -> float:
        return sum(r.evacuation_rounds for r in self.runs) / len(self.runs)

    @property
    def average_vm_migrations(self) -> float:
        return sum(r.vm_migrations for r in self.runs) / len(self.runs)

    def penalty_reports(self) -> list[PenaltyReport]:
        return [r.penalties for r in self.runs]


def _orderings(hosts: list[str], cfg: RollingBaselineConfig) -> list[tuple[str, ...]]:
    policy = cfg.order_policy
    if policy == "auto":
        policy = "enumerate-all" if len(hosts) <= ENUMERATE_LIMIT else "sample-n"
    if policy == "fixed-order":
        return [tuple(hosts)]
    if policy == "enumerate-all":
        return [tuple(p) for p in itertools.permutations(hosts)]
    if policy == "sample-n":
        rng = random.Random(cfg.seed)
        return [tuple(rng.sample(hosts, len(hosts))) for _ in range(cfg.sample_count)]
    raise InvalidRequestError(f"unknown order policy {cfg.order_policy!r}")


def _evacuation_destination(
    cluster: ClusterState, vm_id: str, batch: set[str], upgraded: set[str]
) -> str | None:
    """Upgraded hosts first, then in-use old hosts, then empty old hosts."""
    candidates = []
    for host_id in cluster.hosts_with_role("compute"):
        if host_id in batch:
            continue
        if not cluster.host_can_run_vms(host_id):
            continue
        if cluster.free_slots(host_id) <= 0:
            continue
        if not cluster.anti_affinity_ok(vm_id, host_id):
            continue
        in_use = bool(cluster.vms_on(host_id))
        tier = 0 if host_id in upgraded else (1 if in_use else 2)
        candidates.append((tier, -len(cluster.vms_on(host_id)), host_id))
    if not candidates:
        return None
    return min(candidates)[2]


def run_single_ordering(
    base: ClusterState,
    ordering: tuple[str, ...],
    cfg: RollingBaselineConfig,
    timing: TimingConstants,
) -> RollingRun:
    cluster = base.clone()
    log = EventLog()
    log_initial_commitments(log, cluster)
    clock = cluster.clock
    upgraded: set[str] = set()
    rounds = 0
    migrations = 0
    infeasible = False

    batches = [
        list(ordering[i : i + cfg.batch_size]) for i in range(0, len(ordering), cfg.batch_size)
    ]
    for batch in batches:
        batch_set = set(batch)
        moves: list[tuple[str, str, str]] = []
        for host_id in batch:
            for vm in cluster.vms_on(host_id):
                dest = _evacuation_destination(cluster, vm.vm_id, batch_set, upgraded)
                if dest is None:
                    infeasible = True
                    log.emit(clock, "evacuation-infeasible", host=host_id, vm=vm.vm_id)
                    continue
                moves.append((vm.vm_id, host_id, dest))
                cluster.place_vm(vm, dest)  # take effect for subsequent placement checks
        if moves:
            rounds += 1
            end = clock + timing.migration_ms
            for vm_id, source, dest in moves:
                migrations += 1
                vm = cluster.vms[vm_id]
                log.emit(
                    end,
                    "vm-migrated",
                    vm=vm_id,
                    tenant=vm.tenant_id,
                    group=vm.group_id,
                    from_host=source,
                    to_host=dest,
                    started_at=clock,
                )
                log.emit(
                    end,
                    "vm-outage",
                    vm=vm_id,
                    tenant=vm.tenant_id,
                    group=vm.group_id,
                    start=end - timing.migration_outage_ms,
                    end=end,
                    cause="migration",
                )
            clock = end
        end = clock + cfg.upgrade_ms
        for host_id in batch:
            upgraded.add(host_id)
            hv = cluster.hypervisor_of(host_id)
            resource = hv.resource_id if hv is not None else host_id
            log.emit(end, "host-upgraded", host=host_id, resource=resource, started_at=clock)
        clock = end
    cluster.clock = clock
    tenants = sorted(cluster.tenants)
    violations = compute_sla_violations(log, tenants)
    return RollingRun(
        ordering=ordering,
        duration_ms=clock - base.clock,
        evacuation_rounds=rounds,
        vm_migrations=migrations,
        log=log,
        penalties=penalty_report(violations, tenants),
        infeasible=infeasible,
    )


def run_rolling_baseline(
    base: ClusterState, cfg: RollingBaselineConfig, timing: TimingConstants
) -> RollingBaselineResult:
    if cfg.batch_size < 1:
        raise InvalidRequestError("batch size must be >= 1")
    hosts = base.hosts_with_role("compute")
    result = RollingBaselineResult(config=cfg)
    for ordering in _orderings(hosts, cfg):
        result.runs.append(run_single_ordering(base, ordering, cfg, timing))
    if all(r.infeasible for r in result.runs) and result.runs:
        raise EvacuationInfeasibleError(
            "no ordering could evacuate the selected batches"
        )
    return result
