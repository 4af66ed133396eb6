"""Fixed-batch rolling-upgrade baseline.

Hosts are upgraded in fixed-size batches following an ordering, regardless
of system state. VMs of a batch are live-migrated away first (one parallel
evacuation round per batch), so the total duration per ordering is
batches * upgrade_time + evacuation_rounds * migration_time. Results are
averaged over orderings: all permutations for small clusters, a seeded
sample otherwise.

The cluster is read once per baseline into a ``Fleet``; each ordering then
moves VMs on its own compact ``_Placement``, so the cluster is never copied
or changed.
"""

from __future__ import annotations

import itertools
import random
from bisect import insort
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

    @property
    def infeasible_orderings(self) -> int:
        """Orderings that left at least one VM on a host being upgraded."""
        return sum(r.infeasible for r in self.runs)

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


@dataclass(frozen=True)
class Fleet:
    """What a rolling run reads of the cluster, taken once per baseline.

    The baseline installs nothing and flips no ``up``, ``removed`` or
    ``in_service`` flag, so none of this changes while it runs; capacity is
    the pre-upgrade one for the same reason."""

    cluster: ClusterState
    hosts: tuple[str, ...]  # compute hosts, sorted by id
    can_run_vms: frozenset[str]
    capacity: dict[str, int]
    upgrade_resource: dict[str, str]  # host -> its hypervisor, or itself
    placed: dict[str, tuple[str, ...]]  # host -> its up VMs, sorted by id
    group: dict[str, tuple[str, str]]  # vm -> (tenant, anti-affinity group)

    @classmethod
    def of(cls, cluster: ClusterState) -> "Fleet":
        hosts = tuple(cluster.hosts_with_role("compute"))
        placed = {h: tuple(vm.vm_id for vm in cluster.vms_on(h)) for h in hosts}
        resource = {}
        for h in hosts:
            hv = cluster.hypervisor_of(h)
            resource[h] = hv.resource_id if hv is not None else h
        return cls(
            cluster=cluster,
            hosts=hosts,
            can_run_vms=frozenset(h for h in hosts if cluster.host_can_run_vms(h)),
            capacity={h: cluster.effective_capacity(h) for h in hosts},
            upgrade_resource=resource,
            placed=placed,
            group={
                v: (cluster.vms[v].tenant_id, cluster.vms[v].group_id)
                for vms in placed.values()
                for v in vms
            },
        )


class _Placement:
    """Where the fleet's VMs sit during one ordering: host -> id-sorted VM
    ids, and host -> VM count per (tenant, group)."""

    def __init__(self, fleet: Fleet) -> None:
        self.fleet = fleet
        self.vms = {h: list(vms) for h, vms in fleet.placed.items()}
        self.groups: dict[str, dict[tuple[str, str], int]] = {}
        for h, vms in fleet.placed.items():
            counts = self.groups[h] = {}
            for v in vms:
                key = fleet.group[v]
                counts[key] = counts.get(key, 0) + 1

    def move(self, vm_id: str, source: str, dest: str) -> None:
        key = self.fleet.group[vm_id]
        self.vms[source].remove(vm_id)
        self.groups[source][key] -= 1
        insort(self.vms[dest], vm_id)
        self.groups[dest][key] = self.groups[dest].get(key, 0) + 1


def _evacuation_destination(
    placement: _Placement, vm_id: str, batch: set[str], upgraded: set[str]
) -> str | None:
    """Upgraded hosts first, then in-use old hosts, then empty old hosts;
    within a tier the most loaded host, then the lowest host id."""
    fleet = placement.fleet
    key = fleet.group[vm_id]
    best = None
    for host_id in fleet.hosts:
        if host_id in batch or host_id not in fleet.can_run_vms:
            continue
        load = len(placement.vms[host_id])
        if load >= fleet.capacity[host_id]:
            continue
        if placement.groups[host_id].get(key):  # anti-affinity
            continue
        tier = 0 if host_id in upgraded else (1 if load else 2)
        candidate = (tier, -load, host_id)
        if best is None or candidate < best:
            best = candidate
    return None if best is None else best[2]


def run_single_ordering(
    fleet: Fleet,
    ordering: tuple[str, ...],
    cfg: RollingBaselineConfig,
    timing: TimingConstants,
) -> RollingRun:
    placement = _Placement(fleet)
    log = EventLog()
    log_initial_commitments(log, fleet.cluster)
    clock = fleet.cluster.clock
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
            for vm_id in list(placement.vms[host_id]):
                dest = _evacuation_destination(placement, vm_id, batch_set, upgraded)
                if dest is None:
                    infeasible = True
                    log.emit(clock, "evacuation-infeasible", host=host_id, vm=vm_id)
                    continue
                moves.append((vm_id, host_id, dest))
                placement.move(vm_id, host_id, dest)  # seen by the next placement check
        if moves:
            rounds += 1
            end = clock + timing.migration_ms
            for vm_id, source, dest in moves:
                migrations += 1
                tenant, group = fleet.group[vm_id]
                log.emit(
                    end,
                    "vm-migrated",
                    vm=vm_id,
                    tenant=tenant,
                    group=group,
                    from_host=source,
                    to_host=dest,
                    started_at=clock,
                )
                log.emit(
                    end,
                    "vm-outage",
                    vm=vm_id,
                    tenant=tenant,
                    group=group,
                    start=end - timing.migration_outage_ms,
                    end=end,
                    cause="migration",
                )
            clock = end
        end = clock + cfg.upgrade_ms
        for host_id in batch:
            upgraded.add(host_id)
            resource = fleet.upgrade_resource[host_id]
            log.emit(end, "host-upgraded", host=host_id, resource=resource, started_at=clock)
        clock = end
    tenants = sorted(fleet.cluster.tenants)
    violations = compute_sla_violations(log, tenants)
    return RollingRun(
        ordering=ordering,
        duration_ms=clock - fleet.cluster.clock,
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
    fleet = Fleet.of(base)
    result = RollingBaselineResult(config=cfg)
    for ordering in _orderings(list(fleet.hosts), cfg):
        result.runs.append(run_single_ordering(fleet, ordering, cfg, timing))
    if all(r.infeasible for r in result.runs) and result.runs:
        raise EvacuationInfeasibleError(
            "no ordering could evacuate the selected batches"
        )
    return result
