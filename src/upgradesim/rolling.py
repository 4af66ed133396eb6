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

``ordering_rounds`` yields an ordering's batches one by one, with the VMs
each moves and strands. ``run_single_ordering`` folds them into the
ordering's summary: each moved VM is down for the last
``migration_outage_ms`` of its round, and those spans are scored per tenant
as the SLA violations of an event log are. No event log is written; a test
that needs an ordering's events renders them from its rounds.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from upgradesim.cluster import ClusterState, Placement
from upgradesim.errors import EvacuationInfeasibleError, InvalidRequestError
from upgradesim.metrics import PenaltyReport, penalty_report, tenant_violations
from upgradesim.planner import TimingConstants

ENUMERATE_LIMIT = 720  # 6! orderings


@dataclass(frozen=True)
class RollingBaselineConfig:
    batch_size: int
    # auto enumerates while there are at most ENUMERATE_LIMIT orderings, then samples
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
        enumerable = math.factorial(len(hosts)) <= ENUMERATE_LIMIT
        policy = "enumerate-all" if enumerable else "sample-n"
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
    tenants: list[str]  # sorted

    @classmethod
    def of(cls, cluster: ClusterState) -> "Fleet":
        placement = Placement.of(cluster)
        resource = {}
        for h in placement.hosts:
            hv = cluster.hypervisor_of(h)
            resource[h] = hv.resource_id if hv is not None else h
        return cls(
            cluster=cluster,
            placement=placement,
            upgrade_resource=resource,
            tenants=sorted(cluster.tenants),
        )


class EvacuationRound(NamedTuple):
    """One batch of an ordering. Its VMs migrate from ``start`` to ``end``
    (the same instant when none moves); its hosts then upgrade from ``end``
    to ``end + upgrade_ms``."""

    batch: tuple[str, ...]
    start: int
    end: int
    moves: list[tuple[str, str, str]]  # (vm, from host, to host)
    stranded: list[tuple[str, str]]  # (host, vm) of each VM no host could take


def ordering_rounds(
    fleet: Fleet,
    ordering: tuple[str, ...],
    cfg: RollingBaselineConfig,
    timing: TimingConstants,
) -> Iterator[EvacuationRound]:
    """The rounds of ``ordering``, evacuated on its own copy of the fleet's
    placement: each VM of a batch moves to ``Placement.destination`` of the
    hosts outside the batch, seen by the next VM's check, or is stranded."""
    placement = fleet.placement.copy()
    not_upgraded = set(placement.hosts)
    clock = fleet.cluster.clock
    for i in range(0, len(ordering), cfg.batch_size):
        batch = ordering[i : i + cfg.batch_size]
        moves: list[tuple[str, str, str]] = []
        stranded: list[tuple[str, str]] = []
        eligible = None
        for host_id in batch:
            for vm_id in list(placement.vms[host_id]):
                if eligible is None:
                    eligible = [h for h in placement.hosts if h not in batch]
                dest = placement.destination(vm_id, eligible, not_upgraded)
                if dest is None:
                    stranded.append((host_id, vm_id))
                    continue
                moves.append((vm_id, host_id, dest))
                placement.move(vm_id, host_id, dest)
        end = clock + timing.migration_ms if moves else clock
        yield EvacuationRound(batch, clock, end, moves, stranded)
        not_upgraded.difference_update(batch)
        clock = end + cfg.upgrade_ms


def run_single_ordering(
    fleet: Fleet,
    ordering: tuple[str, ...],
    cfg: RollingBaselineConfig,
    timing: TimingConstants,
) -> RollingRun:
    """One ordering's summary, folded from its rounds. Every VM moved in a
    round is down over [end - migration_outage_ms, end]; spans of one
    tenant may overlap within and across rounds, and are merged as
    ``compute_sla_violations`` merges a log's."""
    tenants = fleet.tenants
    spans: dict[str, list[tuple[int, int]]] = {t: [] for t in tenants}
    group_of = fleet.placement.group_of
    outage_ms = timing.migration_outage_ms
    clock = fleet.cluster.clock
    rounds = 0
    migrations = 0
    infeasible = False
    for evacuation in ordering_rounds(fleet, ordering, cfg, timing):
        if evacuation.stranded:
            infeasible = True
        if evacuation.moves:
            rounds += 1
            migrations += len(evacuation.moves)
            if outage_ms > 0:  # an empty span is no outage
                span = (evacuation.end - outage_ms, evacuation.end)
                for vm_id, _, _ in evacuation.moves:
                    spans[group_of[vm_id][0]].append(span)
        clock = evacuation.end + cfg.upgrade_ms
    return RollingRun(
        ordering=ordering,
        duration_ms=clock - fleet.cluster.clock,
        evacuation_rounds=rounds,
        vm_migrations=migrations,
        penalties=penalty_report(tenant_violations(spans, tenants), tenants),
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
        result.runs.append(run_single_ordering(fleet, ordering, cfg, timing))
    if all(r.infeasible for r in result.runs) and result.runs:
        raise EvacuationInfeasibleError(
            "no ordering could evacuate the selected batches"
        )
    return result
