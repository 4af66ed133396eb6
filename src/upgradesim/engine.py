"""Deterministic discrete-event engine: executes schedules against the
cluster, interleaves scenario events, and writes the structured event log."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from upgradesim.actions import ActionKind, ActionOutcome, ResolvedAction, RuntimeUpgradeSchedule
from upgradesim.cluster import ClusterState, SimResource, VmState
from upgradesim.errors import (
    SimulationInvariantError,
    UnknownHostError,
    UnknownResourceError,
    UnknownTenantError,
)
from upgradesim.planner import TimingConstants


@dataclass(frozen=True)
class ScenarioEvent:
    at: int
    kind: str  # upgrade-request | admin-undo | scale-out | scale-in | host-failure | host-addition
    payload: dict

    def describe(self) -> dict:
        return {"at": self.at, "kind": self.kind, "payload": self.payload}


@dataclass(frozen=True)
class ScriptedFailure:
    """Match an action by any combination of fields; `occurrence` counts
    matches (1-based). An entry fires exactly once."""

    occurrence: int = 1
    action_id: str | None = None
    kind: str | None = None
    target: str | None = None

    def matches(self, action: ResolvedAction) -> bool:
        if self.action_id is not None and action.action_id != self.action_id:
            return False
        if self.kind is not None and action.kind.value != self.kind:
            return False
        if self.target is not None and action.target != self.target:
            return False
        return True


@dataclass
class FailureModel:
    seed: int = 0
    rates: dict[str, float] = field(default_factory=dict)  # action kind -> probability
    scripted: list[ScriptedFailure] = field(default_factory=list)
    _rng: random.Random = field(init=False, repr=False)
    _match_counts: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._match_counts = {}

    def succeeds(self, action: ResolvedAction) -> bool:
        hit = False
        for idx, script in enumerate(self.scripted):
            if script.matches(action):
                count = self._match_counts.get(idx, 0) + 1
                self._match_counts[idx] = count
                if count == script.occurrence:
                    hit = True
        if hit:
            return False
        rate = self.rates.get(action.kind.value, 0.0)
        if rate > 0.0 and self._rng.random() < rate:
            return False
        return True


class EventLog:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, at: int, kind: str, **fields) -> None:
        record = {"at": at, "kind": kind}
        record.update(fields)
        self.records.append(record)

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]

    def to_jsonl(self) -> str:
        # failover records are written at their (future) restart time, so the
        # stream is ordered by timestamp; the sort is stable for ties
        ordered = sorted(self.records, key=lambda r: r["at"])
        lines = [json.dumps(r, sort_keys=True) for r in ordered]
        return "\n".join(lines) + ("\n" if lines else "")


def log_initial_commitments(log: EventLog, cluster: ClusterState) -> None:
    for tenant_id in sorted(cluster.tenants):
        log.emit(
            cluster.clock,
            "tenant-initial",
            tenant=tenant_id,
            count=cluster.tenants[tenant_id].committed,
        )


class Engine:
    """Owns the cluster, the scenario event queue, and the simulated clock."""

    def __init__(
        self,
        cluster: ClusterState,
        events: list[ScenarioEvent],
        failure_model: FailureModel,
        timing: TimingConstants,
        log: EventLog | None = None,
    ) -> None:
        self.cluster = cluster
        self.failure_model = failure_model
        self.timing = timing
        self.log = log if log is not None else EventLog()
        self._queue: list[ScenarioEvent] = sorted(events, key=lambda e: (e.at, e.kind))
        self._deferred_scalings: list[ScenarioEvent] = []
        self.capacity_rejections = 0
        # delivered to the coordinator by advance_to(); it decides what to do
        self.pending_requests: list[dict] = []
        self.pending_admin_undos: list[str] = []
        log_initial_commitments(self.log, cluster)

    # -- event queue -----------------------------------------------------------

    def next_event_at(self) -> int | None:
        times = [e.at for e in self._queue]
        times.extend(e.at for e in self._deferred_scalings)
        return min(times) if times else None

    def advance_to(self, t: int) -> list[ScenarioEvent]:
        """Process every scenario event with timestamp <= t; move clock to t."""
        handled: list[ScenarioEvent] = []
        while True:
            candidates: list[tuple[int, int, ScenarioEvent]] = []
            for i, e in enumerate(self._queue):
                if e.at <= t:
                    candidates.append((e.at, 0, e))
            for i, e in enumerate(self._deferred_scalings):
                if e.at <= t:
                    candidates.append((e.at, 1, e))
            if not candidates:
                break
            candidates.sort(key=lambda c: (c[0], c[1], c[2].kind, json.dumps(c[2].payload, sort_keys=True)))
            event = candidates[0][2]
            if candidates[0][1] == 0:
                self._queue.remove(event)
            else:
                self._deferred_scalings.remove(event)
            if self.cluster.clock < event.at:
                self.cluster.clock = event.at
            self._dispatch(event)
            handled.append(event)
        if self.cluster.clock < t:
            self.cluster.clock = t
        return handled

    def _dispatch(self, event: ScenarioEvent) -> None:
        if event.kind == "upgrade-request":
            self.pending_requests.append(event.payload)
            self.log.emit(
                event.at, "request-received", request=event.payload["request"]["id"]
            )
        elif event.kind == "admin-undo":
            self.pending_admin_undos.append(event.payload["set"])
            self.log.emit(event.at, "admin-undo-received", set=event.payload["set"])
        elif event.kind in ("scale-out", "scale-in"):
            self.apply_scaling(event)
        elif event.kind == "host-failure":
            self.inject_host_failure(event.payload["host"])
        elif event.kind == "host-addition":
            self.add_host(event.payload)
        else:
            raise SimulationInvariantError(f"unknown scenario event kind {event.kind!r}")

    # -- schedule execution -------------------------------------------------------

    def execute_schedule(self, schedule: RuntimeUpgradeSchedule) -> list[ActionOutcome]:
        """Run lanes concurrently in simulated time.

        Within a lane actions run at their offsets and the lane halts at its
        first failure; scenario events interleave at their timestamps. The
        clock ends at the latest executed action end (at least at issue time).
        """
        outcomes: list[ActionOutcome] = []
        pending: list[tuple[int, int, int, int, ResolvedAction, str]] = []
        for lane_idx, lane in enumerate(schedule.lanes):
            for step_idx, step in enumerate(lane.steps):
                start = schedule.issued_at + step.offset_ms
                end = start + step.action.duration_ms
                pending.append((end, lane_idx, step_idx, start, step.action, lane.lane_id))
        pending.sort(key=lambda p: (p[0], p[1], p[2]))
        halted: set[int] = set()
        clock_target = schedule.issued_at
        for end, lane_idx, step_idx, start, action, lane_id in pending:
            if lane_idx in halted:
                continue
            self.advance_to(end)  # deliver scenario events inside the window
            success = self.failure_model.succeeds(action)
            if success:
                self._apply_action(action, start, end)
            outcome = ActionOutcome(
                action_id=action.action_id,
                kind=action.kind,
                target=action.target,
                lane_id=lane_id,
                success=success,
                started_at=start,
                ended_at=end,
            )
            outcomes.append(outcome)
            desc = outcome.describe()
            desc["action_kind"] = desc.pop("kind")
            self.log.emit(end, "action", **desc)
            clock_target = max(clock_target, end)
            if not success:
                halted.add(lane_idx)
        self.advance_to(clock_target)
        return outcomes

    def _apply_action(self, action: ResolvedAction, start: int, end: int) -> None:
        kind = action.kind
        if kind == ActionKind.MIGRATE_VM:
            self._apply_migration(action, start, end)
            return
        if kind == ActionKind.SPAWN_VM:
            self._apply_spawn(action, end)
            return
        if kind == ActionKind.INSTALL and "vm" in action.params:
            vm = self.cluster.vms.get(action.params["vm"])
            if vm is None:
                raise UnknownResourceError(f"upgrade of unknown vm {action.params['vm']!r}")
            vm.version = action.params["version"]
            self.log.emit(end, "vm-upgraded", vm=vm.vm_id, version=vm.version)
            return
        res = self.cluster.resources.get(action.target)
        if res is None:
            raise UnknownResourceError(f"action targets unknown resource {action.target!r}")
        if kind == ActionKind.DEACTIVATE:
            if res.is_host and self.cluster.vms_on(res.resource_id):
                raise SimulationInvariantError(
                    f"deactivating host {res.resource_id!r} that still carries VMs"
                )
            res.active = False
            self.log.emit(end, "resource-deactivated", resource=res.resource_id)
        elif kind == ActionKind.ACTIVATE:
            res.active = True
            res.present = True
            self.log.emit(end, "resource-activated", resource=res.resource_id)
        elif kind == ActionKind.INSTALL:
            replaced = action.params.get("replaces_product")
            if replaced and replaced in res.installed:
                del res.installed[replaced]
            res.installed[action.params["product"]] = action.params["version"]
            res.present = True
            if res.primary_product is None or replaced == res.primary_product:
                res.primary_product = action.params["product"]
            self.log.emit(
                end,
                "component-installed",
                resource=res.resource_id,
                product=action.params["product"],
                version=action.params["version"],
            )
        elif kind == ActionKind.REMOVE:
            res.installed.pop(action.params.get("product", ""), None)
            if res.primary_product == action.params.get("product"):
                res.removed = True
                res.active = False
            self.log.emit(
                end,
                "component-removed",
                resource=res.resource_id,
                product=action.params.get("product"),
            )

    def _apply_migration(self, action: ResolvedAction, start: int, end: int) -> None:
        vm_id = action.params["vm"]
        vm = self.cluster.vms.get(vm_id)
        if vm is None:
            raise UnknownResourceError(f"migration of unknown vm {vm_id!r}")
        dest = action.params["to_host"]
        if not self.cluster.anti_affinity_ok(vm_id, dest):
            raise SimulationInvariantError(
                f"migration of {vm_id!r} to {dest!r} violates anti-affinity"
            )
        if len(self.cluster.vms_on(dest)) >= self.cluster.effective_capacity(dest):
            raise SimulationInvariantError(f"migration of {vm_id!r} overfills {dest!r}")
        self.cluster.place_vm(vm, dest)
        outage = int(action.params.get("outage_ms", self.timing.migration_outage_ms))
        self.log.emit(
            end,
            "vm-migrated",
            vm=vm_id,
            tenant=vm.tenant_id,
            group=vm.group_id,
            from_host=action.params.get("from_host"),
            to_host=dest,
            started_at=start,
        )
        self.log.emit(
            end,
            "vm-outage",
            vm=vm_id,
            tenant=vm.tenant_id,
            group=vm.group_id,
            start=end - outage,
            end=end,
            cause="migration",
        )

    def _apply_spawn(self, action: ResolvedAction, end: int) -> None:
        vm_id = action.params["vm"]
        dest = action.params["to_host"]
        vm = self.cluster.vms.get(vm_id)
        if vm is None:
            tenant = action.params["tenant"]
            vm = VmState(
                vm_id=vm_id,
                tenant_id=tenant,
                group_id=action.params["group"],
                host=None,
            )
            self.cluster.add_vm(vm)
        if not self.cluster.anti_affinity_ok(vm_id, dest):
            raise SimulationInvariantError(f"spawn of {vm_id!r} on {dest!r} violates anti-affinity")
        self.cluster.place_vm(vm, dest)
        vm.up = True
        if "version" in action.params:
            vm.version = action.params["version"]
        self.log.emit(
            end,
            "vm-started",
            vm=vm_id,
            tenant=vm.tenant_id,
            group=vm.group_id,
            host=dest,
            initial_state=bool(action.params.get("initial_state")),
        )

    # -- scaling --------------------------------------------------------------------

    def _placement_candidates(self, vm: VmState, side_hosts: set[str] | None) -> list[str]:
        hosts = [
            h
            for h in self.cluster.hosts_with_role("compute")
            if self.cluster.host_can_run_vms(h)
            and (side_hosts is None or h in side_hosts)
            and self.cluster.free_slots(h) > 0
            and self.cluster.anti_affinity_ok(vm.vm_id, h)
        ]
        hosts.sort(key=lambda h: (-len(self.cluster.vms_on(h)), h))
        return hosts

    def apply_scaling(self, event: ScenarioEvent) -> None:
        tenant_id = event.payload["tenant"]
        tenant = self.cluster.tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(f"scaling event for unknown tenant {tenant_id!r}")
        now = max(self.cluster.clock, event.at)
        if tenant.last_scaling_at is not None and now - tenant.last_scaling_at < tenant.cooldown_ms:
            retry_at = tenant.last_scaling_at + tenant.cooldown_ms
            self._deferred_scalings.append(ScenarioEvent(retry_at, event.kind, event.payload))
            self.log.emit(now, "scaling-deferred", tenant=tenant_id, until=retry_at, reason="cooldown")
            return
        if event.kind == "scale-out":
            self._scale_out(tenant, now, event)
        else:
            self._scale_in(tenant, now)

    def _scale_out(self, tenant, now: int, event: ScenarioEvent) -> None:
        count = min(tenant.scaling_adjustment, tenant.max_vms - tenant.committed)
        if count <= 0:
            self.log.emit(now, "scale-out", tenant=tenant.tenant_id, placed=0, clamped=True)
            return
        tenant.last_scaling_at = now
        side = self._tenant_side_hosts(tenant.tenant_id)
        placed = 0
        for _ in range(count):
            tenant.vm_seq += 1
            vm_id = f"{tenant.tenant_id}.s{tenant.vm_seq}"
            group_id = self._group_for_new_vm(tenant.tenant_id)
            vm = VmState(vm_id=vm_id, tenant_id=tenant.tenant_id, group_id=group_id, host=None)
            self.cluster.add_vm(vm)
            candidates = self._placement_candidates(vm, side)
            if not candidates:
                self.cluster.drop_vm(vm_id)
                tenant.vm_seq -= 1
                self.capacity_rejections += 1
                self._deferred_scalings.append(
                    ScenarioEvent(now + tenant.cooldown_ms, "scale-out", dict(event.payload))
                )
                self.log.emit(
                    now,
                    "scaling-capacity-rejected",
                    tenant=tenant.tenant_id,
                    requested=count,
                    placed=placed,
                )
                break
            self.cluster.place_vm(vm, candidates[0])
            tenant.committed += 1
            placed += 1
            self.log.emit(
                now,
                "vm-started",
                vm=vm_id,
                tenant=tenant.tenant_id,
                group=group_id,
                host=vm.host,
                initial_state=True,
            )
        self.log.emit(now, "scale-out", tenant=tenant.tenant_id, placed=placed, clamped=False)
        self.log.emit(now, "tenant-committed", tenant=tenant.tenant_id, count=tenant.committed)

    def _scale_in(self, tenant, now: int) -> None:
        count = min(tenant.scaling_adjustment, tenant.committed - tenant.min_vms)
        if count <= 0:
            self.log.emit(now, "scale-in", tenant=tenant.tenant_id, removed=0, clamped=True)
            return
        tenant.last_scaling_at = now
        vms = [v for v in self.cluster.tenant_vms(tenant.tenant_id) if v.up]
        # prefer VMs on the emptiest hosts so scale-in frees whole hosts
        vms.sort(
            key=lambda v: (
                len(self.cluster.vms_on(v.host)) if v.host else 0,
                v.host or "",
                v.vm_id,
            )
        )
        removed = 0
        for vm in vms[:count]:
            self.cluster.drop_vm(vm.vm_id)
            tenant.committed -= 1
            removed += 1
            self.log.emit(now, "vm-removed", vm=vm.vm_id, tenant=tenant.tenant_id, host=vm.host)
        self.log.emit(now, "scale-in", tenant=tenant.tenant_id, removed=removed, clamped=False)
        self.log.emit(now, "tenant-committed", tenant=tenant.tenant_id, count=tenant.committed)

    def _tenant_side_hosts(self, tenant_id: str) -> set[str] | None:
        """Scale-outs land beside the tenant's existing VMs (old side until
        the tenant has crossed)."""
        vms = [v for v in self.cluster.tenant_vms(tenant_id) if v.up and v.host]
        if not vms:
            return None
        hosts = {v.host for v in vms}
        storages = {
            self.cluster.storage_backend_of(h).resource_id
            for h in hosts
            if h is not None and self.cluster.storage_backend_of(h) is not None
        }
        if len(storages) == 1:
            backend = next(iter(storages))
            side = {
                h
                for h in self.cluster.hosts_with_role("compute")
                if self.cluster.storage_backend_of(h) is not None
                and self.cluster.storage_backend_of(h).resource_id == backend
            }
            return side or None
        return None

    def _group_for_new_vm(self, tenant_id: str) -> str:
        groups: dict[str, int] = {}
        for vm in self.cluster.tenant_vms(tenant_id):
            groups[vm.group_id] = groups.get(vm.group_id, 0) + 1
        if not groups:
            return "g1"
        return min(groups.items(), key=lambda kv: (kv[1], kv[0]))[0]

    # -- host events -------------------------------------------------------------------

    def inject_host_failure(self, host_id: str) -> None:
        host = self.cluster.resources.get(host_id)
        if host is None or not host.is_host:
            raise UnknownHostError(f"failure event for unknown host {host_id!r}")
        if not host.up:
            return
        now = self.cluster.clock
        victims = list(self.cluster.vms_on(host_id))
        host.up = False
        self.log.emit(now, "host-failed", host=host_id)
        self.fail_over(victims, now + self.timing.failover_restart_ms, record_outage=True)

    def fail_over(self, vms: list[VmState], restart_at: int, record_outage: bool) -> None:
        """Restart ``vms``, taken from a host that can no longer run them, on
        the best other host beside their tenant, or strand them when none has
        room. ``record_outage`` logs the gap until ``restart_at`` as an outage."""
        now = self.cluster.clock
        for vm in vms:
            self.cluster.place_vm(vm, None)
            candidates = self._placement_candidates(vm, self._tenant_side_hosts(vm.tenant_id))
            if candidates:
                self.cluster.place_vm(vm, candidates[0])
                self.log.emit(
                    restart_at,
                    "vm-failover",
                    vm=vm.vm_id,
                    tenant=vm.tenant_id,
                    group=vm.group_id,
                    to_host=vm.host,
                )
                if record_outage:
                    self.log.emit(
                        restart_at,
                        "vm-outage",
                        vm=vm.vm_id,
                        tenant=vm.tenant_id,
                        group=vm.group_id,
                        start=now,
                        end=restart_at,
                        cause="host-failure",
                    )
            else:
                vm.up = False
                self.log.emit(now, "vm-stranded", vm=vm.vm_id, tenant=vm.tenant_id)

    def add_host(self, payload: dict) -> None:
        host_id = payload["host"]
        if host_id in self.cluster.resources:
            raise SimulationInvariantError(f"host {host_id!r} already exists")
        roles = frozenset(payload.get("roles", ["compute"]))
        self.cluster.add_resource(SimResource(
            resource_id=host_id,
            kind="compute-host" if "compute" in roles else "storage-host",
            roles=roles,
            capacity=payload.get("capacity", 0),
            capacity_after_upgrade=payload.get("capacity_after_upgrade", payload.get("capacity", 0)),
        ))
        hv = payload.get("hypervisor")
        if hv:
            self.cluster.add_resource(SimResource(
                resource_id=hv["id"],
                kind="hypervisor",
                installed={hv["product"]: hv["version"]},
                primary_product=hv["product"],
                container=host_id,
                initial_primary_version=hv["version"],
            ))
        self.log.emit(self.cluster.clock, "host-added", host=host_id)

    # -- continuity check ----------------------------------------------------------------

    def check_vm_service_continuity(self) -> None:
        """Record a gap whenever a placed VM's host lost its storage backing."""
        for vm_id in sorted(self.cluster.vms):
            vm = self.cluster.vms[vm_id]
            if not vm.up or vm.host is None:
                continue
            declared = any(
                vm.host in res.serves
                for res in self.cluster.resources.values()
                if res.kind == "virtual-storage" and not res.removed
            )
            serving = any(
                vm.host in res.serves and res.present and res.active and res.up
                for res in self.cluster.resources.values()
                if res.kind == "virtual-storage" and not res.removed
            )
            if declared and not serving:
                self.log.emit(
                    self.cluster.clock, "vm-service-gap", vm=vm_id, host=vm.host
                )
