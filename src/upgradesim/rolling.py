"""Fixed-batch rolling-upgrade baseline.

Hosts are upgraded in fixed-size batches following an ordering, regardless
of system state. VMs of a batch are live-migrated away first (one parallel
evacuation round per batch), so the total duration per ordering is
batches * upgrade_time + evacuation_rounds * migration_time. Results are
averaged over orderings: all permutations for small clusters, a seeded
sample otherwise.

The cluster is read once per baseline into a ``Fleet``; each ordering then
moves VMs on its own copy of the fleet's ``Placement``, so the cluster is
never copied or changed. An evacuated VM goes where ``Placement.destination``
puts it, with the hosts not yet upgraded as the last resort.

Each ordering writes its events to a log its caller passes in. The baseline
keeps only each ordering's summary: its log is dropped once the penalty is
computed from it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from upgradesim.cluster import ClusterState, Placement
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
    placement: Placement  # each ordering moves VMs on a copy
    upgrade_resource: dict[str, str]  # host -> its hypervisor, or itself

    @classmethod
    def of(cls, cluster: ClusterState) -> "Fleet":
        placement = Placement.of(cluster)
        resource = {}
        for h in placement.hosts:
            hv = cluster.hypervisor_of(h)
            resource[h] = hv.resource_id if hv is not None else h
        return cls(cluster=cluster, placement=placement, upgrade_resource=resource)


def run_single_ordering(
    fleet: Fleet,
    ordering: tuple[str, ...],
    cfg: RollingBaselineConfig,
    timing: TimingConstants,
    log: EventLog,
) -> RollingRun:
    placement = fleet.placement.copy()
    log_initial_commitments(log, fleet.cluster)
    clock = fleet.cluster.clock
    not_upgraded = set(placement.hosts)
    rounds = 0
    migrations = 0
    infeasible = False

    batches = [
        list(ordering[i : i + cfg.batch_size]) for i in range(0, len(ordering), cfg.batch_size)
    ]
    for batch in batches:
        moves: list[tuple[str, str, str]] = []
        eligible = None
        for host_id in batch:
            for vm_id in list(placement.vms[host_id]):
                if eligible is None:
                    eligible = [h for h in placement.hosts if h not in batch]
                dest = placement.destination(vm_id, eligible, not_upgraded)
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
                tenant, group = placement.group_of[vm_id]
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
            not_upgraded.discard(host_id)
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
    for ordering in _orderings(list(fleet.placement.hosts), cfg):
        result.runs.append(run_single_ordering(fleet, ordering, cfg, timing, EventLog()))
    if all(r.infeasible for r in result.runs) and result.runs:
        raise EvacuationInfeasibleError(
            "no ordering could evacuate the selected batches"
        )
    return result
