"""The upgrade coordinator: runs the iterative plan/execute/report loop
against the engine until every change set has been handled."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from upgradesim import vm_migration
from upgradesim.catalog import UpgradeCatalog
from upgradesim.cluster import ClusterState
from upgradesim.control_graph import ResourceGroup, coarsen
from upgradesim.engine import Engine, EventLog, FailureModel, ScenarioEvent
from upgradesim.planner import (
    Batch,
    Elimination,
    IterationBudget,
    PartitionView,
    Policies,
    TimingConstants,
    build_consolidation_schedule,
    build_partition_view,
    build_schedule,
    compute_budget,
    initial_batch,
    plan_consolidation,
    process_feedback,
    process_recovery_feedback,
    select_final_batch,
)
from upgradesim.requests import Status, UpgradeRequestModel, within_deadline
from upgradesim.resource_graph import (
    ResourceGraph,
    apply_iteration_outcome,
    build_resource_graph,
    merge_new_requests,
    refresh_structure,
)


class Phase(str, enum.Enum):
    RUNNING = "running"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


@dataclass
class UpgradeIterationReport:
    index: int
    started_at: int
    ended_at: int
    consolidation: list[dict] = field(default_factory=list)
    initial_batch: list[str] = field(default_factory=list)
    eliminations: list[dict] = field(default_factory=list)
    budget: dict = field(default_factory=dict)
    final_batch: list[str] = field(default_factory=list)
    schedules: list[dict] = field(default_factory=list)
    migration_budget: dict | None = None
    sub_iterations: list[dict] = field(default_factory=list)
    failed_resources: list[str] = field(default_factory=list)
    isolated_only: list[str] = field(default_factory=list)
    released: list[str] = field(default_factory=list)
    failed_undo_units: list[str] = field(default_factory=list)
    completed_change_sets: list[str] = field(default_factory=list)
    phase_after: str = Phase.RUNNING.value

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


@dataclass
class CoordinatorResult:
    reports: list[UpgradeIterationReport]
    log: EventLog
    phase: Phase
    started_at: int
    finished_at: int
    set_statuses: dict[str, str]

    @property
    def duration_ms(self) -> int:
        return self.finished_at - self.started_at

    def all_completed(self) -> bool:
        return all(s == Status.COMPLETED.value for s in self.set_statuses.values())


class Coordinator:
    def __init__(
        self,
        cluster: ClusterState,
        catalog: UpgradeCatalog,
        events: list[ScenarioEvent],
        failure_model: FailureModel,
        timing: TimingConstants,
        policies: Policies,
        vm_upgrade: tuple[str, str, int] | None = None,
    ) -> None:
        self.cluster = cluster
        self.catalog = catalog
        self.timing = timing
        self.policies = policies
        self.vm_upgrade = vm_upgrade
        self.engine = Engine(cluster, events, failure_model, timing)
        self.model = UpgradeRequestModel()
        self.rg: ResourceGraph | None = None
        self.phase = Phase.RUNNING
        self.iteration = 0
        self.reports: list[UpgradeIterationReport] = []
        self._schedule_seq = 0

    # -- plumbing ------------------------------------------------------------------

    @property
    def log(self) -> EventLog:
        return self.engine.log

    def _next_schedule_id(self, tag: str) -> str:
        self._schedule_seq += 1
        return f"s{self._schedule_seq:04d}-{tag}"

    def _ingest_events(self) -> None:
        self.engine.advance_to(self.cluster.clock)
        for payload in self.engine.pending_requests:
            from upgradesim.scenario import parse_upgrade_request

            request = parse_upgrade_request(payload["request"])
            self.model.submit(request, self.cluster, self.catalog)
        self.engine.pending_requests = []
        self._apply_admin_undos()

    def _apply_admin_undos(self) -> None:
        for set_id in self.engine.pending_admin_undos:
            if set_id in self.model.sets and self.model.sets[set_id].status != Status.COMPLETED:
                self.model.record_admin_undo(set_id)
            else:
                self.log.emit(
                    self.cluster.clock,
                    "admin-undo-refused",
                    set=set_id,
                    reason="already-completed",
                )
        self.engine.pending_admin_undos = []

    def _sync_graph(self) -> None:
        if self.rg is None:
            self.rg = build_resource_graph(self.cluster, self.model, self.catalog)
        else:
            refresh_structure(self.rg, self.cluster, self.catalog)
            new_sets = self.model.take_unincorporated()
            if new_sets:
                merge_new_requests(self.rg, self.cluster, new_sets, self.catalog)
                refresh_structure(self.rg, self.cluster, self.catalog)

    def _has_pending_work(self) -> bool:
        if self.model.any_pending():
            return True
        return self.rg is not None and self.rg.has_pending_levels()

    # -- public operations ------------------------------------------------------------

    def check_suspension_resume(self) -> Phase:
        """Re-evaluate a suspended coordinator against the current cluster."""
        if self.phase != Phase.SUSPENDED:
            return self.phase
        self._sync_graph()
        assert self.rg is not None
        view = build_partition_view(self.cluster, self.rg, self.catalog)
        if plan_consolidation(self.cluster, self.rg, view, self.catalog):
            self.phase = Phase.RUNNING
            return self.phase
        *_, final = self._plan_batch(coarsen(self.rg), view)
        migration = self._migration_budget(view)
        if final.groups or (
            migration is not None
            and migration.migratable_vms > 0
            and self._plan_wave(view, migration, migration.migratable_vms, 0).vms
        ):
            self.phase = Phase.RUNNING
        return self.phase

    def finalize_change_set(self, set_id: str) -> Status:
        """Settle a set's terminal status once none of its work remains."""
        change_set = self.model.sets[set_id]
        if change_set.status in (Status.COMPLETED, Status.FAILED):
            return change_set.status
        if change_set.undo_requested:
            return change_set.status  # the next report application undoes it
        assert self.rg is not None
        for change in change_set.changes:
            if change.superseded:
                continue
            for rid in change.targets:
                if rid in change.applied:
                    continue
                res = self.rg.resources.get(rid)
                if res is None:
                    continue
                if res.is_failed or res.is_isolated:
                    continue
                return change_set.status  # still in flight
        change_set.status = Status.COMPLETED
        for rid in change_set.target_resources():
            res = self.rg.resources.get(rid)
            if res is not None and res.is_isolated and not res.is_failed:
                res.is_failed = True
                self.log.emit(
                    self.cluster.clock,
                    "resource-failed",
                    resource=rid,
                    reason="isolated-at-completion",
                )
        self.log.emit(self.cluster.clock, "change-set-completed", set=set_id)
        return change_set.status

    # -- the loop -----------------------------------------------------------------------

    def run(self, max_sim_time_ms: int | None = None) -> CoordinatorResult:
        """Iterate until no work or event is left or the run is stuck. With a
        cap, the run stops once the clock passes it; a wakeup past the cap is
        not slept to: the clock advances to the cap and the run stops."""
        started = self.cluster.clock
        while True:
            if max_sim_time_ms is not None and self.cluster.clock > max_sim_time_ms:
                break
            self._ingest_events()
            if not self._has_pending_work():
                nxt = self.engine.next_event_at()
                if nxt is None:
                    self.phase = Phase.TERMINATED
                    break
            elif (
                self.phase != Phase.SUSPENDED
                or self._deadline_pending()
                or self.check_suspension_resume() == Phase.RUNNING
            ):
                self.phase = Phase.RUNNING
                report = self.run_iteration()
                self.reports.append(report)
                self.log.emit(report.ended_at, "iteration-report", report=json.loads(report.to_json()))
                continue
            else:
                nxt = self._next_wakeup()
                if nxt is None:
                    break  # stuck: report unfinished state to the caller
            if max_sim_time_ms is not None and nxt > max_sim_time_ms:
                self.engine.advance_to(max_sim_time_ms)
                break
            self.engine.advance_to(nxt)
        finished = self.cluster.clock
        return CoordinatorResult(
            reports=self.reports,
            log=self.log,
            phase=self.phase,
            started_at=started,
            finished_at=finished,
            set_statuses={k: self.model.sets[k].status.value for k in sorted(self.model.sets)},
        )

    def _deadline_pending(self) -> bool:
        return any(
            not within_deadline(cs, self.cluster.clock) and not cs.undo_requested
            for cs in self.model.pending_sets()
        )

    def _next_wakeup(self) -> int | None:
        times = []
        nxt = self.engine.next_event_at()
        if nxt is not None:
            times.append(nxt)
        for cs in self.model.pending_sets():
            if not cs.undo_requested:
                times.append(cs.deadline_ms() + 1)
        return min(times) if times else None

    # -- planning shared by run_iteration and check_suspension_resume ---------------

    def _plan_batch(
        self, groups: dict[str, ResourceGroup], view: PartitionView
    ) -> tuple[Batch, list[Elimination], IterationBudget, Batch]:
        """Initial batch with its eliminations, the SLA budget of its first
        levels, and the final batch that fits the budget."""
        assert self.rg is not None
        batch, eliminations = initial_batch(
            groups, self.rg, self.cluster, self.catalog, view, self.policies
        )
        levels = [
            lvl for gid in batch.groups for _, lvl in groups[gid].first_levels(self.rg)
        ]
        budget = compute_budget(self.cluster, view, levels, self.policies)
        final = select_final_batch(
            batch, groups, self.rg, self.cluster, view, budget, self.policies
        )
        return batch, eliminations, budget, final

    def _migration_budget(self, view: PartitionView) -> vm_migration.MigrationBudget | None:
        """The cross-partition budget, sized with the per-VM upgrade time; None
        unless compute hosts are partitioned and the new side is ready."""
        if not (view.partitioned and view.new_side_ready):
            return None
        return vm_migration.compute_migration_budget(
            self.cluster,
            view,
            self.policies,
            self.timing,
            per_vm_extra_ms=self.vm_upgrade[2] if self.vm_upgrade else 0,
        )

    def _plan_wave(
        self,
        view: PartitionView,
        budget: vm_migration.MigrationBudget,
        remaining: int,
        index: int,
    ) -> vm_migration.SubIteration:
        """One VM wave, shrunk until the new side can absorb it."""
        sub = vm_migration.select_sub_iteration(self.cluster, view, remaining, index)
        return vm_migration.reevaluate_new_reservation(sub, self.cluster, view, budget)

    def run_iteration(self) -> UpgradeIterationReport:
        """One pass of the four planning steps plus schedule execution."""
        self.iteration += 1
        started = self.cluster.clock
        self.engine.advance_to(started + self.timing.iteration_overhead_ms)

        # Step 1: sync the resource graph, apply the previous iteration's report
        self._sync_graph()
        assert self.rg is not None
        effects = apply_iteration_outcome(
            self.rg, self.model, self.cluster, self.catalog, self.cluster.clock
        )
        for rid in effects.newly_isolated:
            self._realize_isolation(rid)
        for rid in effects.released:
            res = self.cluster.resources.get(rid)
            if res is not None:
                res.active = True
                self.log.emit(self.cluster.clock, "resource-released", resource=rid)
        report = UpgradeIterationReport(
            index=self.iteration, started_at=started, ended_at=self.cluster.clock
        )
        report.failed_undo_units.extend(effects.undo_triggered)
        refresh_structure(self.rg, self.cluster, self.catalog)

        # Step 2: consolidation
        view = build_partition_view(self.cluster, self.rg, self.catalog)
        plan = plan_consolidation(self.cluster, self.rg, view, self.catalog)
        if plan:
            schedule = build_consolidation_schedule(
                plan, self.timing, self._next_schedule_id("consolidate"), self.cluster.clock
            )
            outcomes = self.engine.execute_schedule(schedule)
            report.consolidation = [o.describe() for o in outcomes]
            refresh_structure(self.rg, self.cluster, self.catalog)
            view = build_partition_view(self.cluster, self.rg, self.catalog)

        # Step 3: coarsen into the control graph, batch selection, execution,
        # immediate recovery
        groups = coarsen(self.rg)
        batch, eliminations, budget, final = self._plan_batch(groups, view)
        report.initial_batch = sorted(batch.groups)
        report.eliminations = [e.describe() for e in eliminations]
        report.budget = budget.describe()
        report.final_batch = sorted(final.groups)

        executed_any = bool(plan)
        if final.groups:
            executed_any = True
            schedule = build_schedule(
                final,
                groups,
                self.rg,
                self.cluster,
                view,
                self.timing,
                self._next_schedule_id("batch"),
                self.cluster.clock,
            )
            outcomes = self.engine.execute_schedule(schedule)
            feedback = process_feedback(
                self.rg, self.model, outcomes, self.timing, self.cluster.clock
            )
            report.schedules.append(
                {"schedule": schedule.describe(), "outcomes": [o.describe() for o in outcomes]}
            )
            for recovery in feedback.recovery_schedules:
                r_outcomes = self.engine.execute_schedule(recovery)
                target = recovery.lanes[0].targets[0]
                restored = process_recovery_feedback(self.rg, target, r_outcomes)
                report.schedules.append(
                    {
                        "schedule": recovery.describe(),
                        "outcomes": [o.describe() for o in r_outcomes],
                        "recovery_for": target,
                        "restored": restored,
                    }
                )
                if not restored:
                    self._realize_isolation(target)
                    report.failed_resources.append(target)
            refresh_structure(self.rg, self.cluster, self.catalog)

        # Step 4: cross-partition VM waves
        view = build_partition_view(self.cluster, self.rg, self.catalog)
        migration_budget = self._migration_budget(view)
        if migration_budget is not None:
            report.migration_budget = migration_budget.describe()
            remaining = migration_budget.migratable_vms
            wave = 0
            while remaining > 0:
                view = build_partition_view(self.cluster, self.rg, self.catalog)
                sub = self._plan_wave(view, migration_budget, remaining, wave)
                if not sub.vms:
                    break
                schedule = vm_migration.build_vm_schedule(
                    sub,
                    self.cluster,
                    view,
                    self.timing,
                    self._next_schedule_id(f"vms-w{wave}"),
                    self.cluster.clock,
                    vm_upgrade=self.vm_upgrade,
                )
                if not schedule.lanes:
                    break
                executed_any = True
                outcomes = self.engine.execute_schedule(schedule)
                migrated = sum(
                    1 for o in outcomes if o.kind.value == "migrate-vm" and o.success
                )
                report.sub_iterations.append(
                    {
                        "index": wave,
                        "vms": list(sub.vms),
                        "outcomes": [o.describe() for o in outcomes],
                    }
                )
                for outcome in outcomes:
                    if outcome.kind.value == "migrate-vm" and not outcome.success:
                        replacement = vm_migration.replacement_schedule(
                            outcome.target,
                            self.cluster,
                            view,
                            self.timing,
                            self._next_schedule_id("vm-replace"),
                            self.cluster.clock,
                            version=self.vm_upgrade[1] if self.vm_upgrade else None,
                        )
                        if replacement is not None:
                            r_outcomes = self.engine.execute_schedule(replacement)
                            report.sub_iterations.append(
                                {
                                    "index": wave,
                                    "replacement_for": outcome.target,
                                    "outcomes": [o.describe() for o in r_outcomes],
                                }
                            )
                if migrated == 0:
                    break
                remaining -= migrated
                wave += 1
            refresh_structure(self.rg, self.cluster, self.catalog)
        self.engine.check_vm_service_continuity()

        # finalization and report assembly; an undo issued while schedules
        # were executing beats completion of the same iteration
        self._apply_admin_undos()
        for set_id in sorted(self.model.sets):
            before = self.model.sets[set_id].status
            after = self.finalize_change_set(set_id)
            if before != Status.COMPLETED and after == Status.COMPLETED:
                report.completed_change_sets.append(set_id)
        for rid in sorted(self.rg.resources):
            res = self.rg.resources[rid]
            if res.is_failed and rid not in report.failed_resources:
                report.failed_resources.append(rid)
            elif res.is_isolated:
                report.isolated_only.append(rid)
        report.released = effects.released
        report.ended_at = self.cluster.clock

        if not executed_any and self._has_pending_work():
            self.phase = Phase.SUSPENDED
            self.log.emit(self.cluster.clock, "coordinator-suspended", iteration=self.iteration)
        else:
            self.phase = Phase.RUNNING
        report.phase_after = self.phase.value
        return report

    def _realize_isolation(self, resource_id: str) -> None:
        res = self.cluster.resources.get(resource_id)
        if res is None:
            return
        res.active = False
        self.log.emit(self.cluster.clock, "resource-isolated", resource=resource_id)
        if res.is_host:
            self.engine.fail_over(
                self.cluster.vms_on(resource_id), self.cluster.clock, record_outage=False
            )
