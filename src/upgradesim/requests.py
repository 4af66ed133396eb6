"""Administrator upgrade requests, change sets, and their evolving statuses."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from upgradesim.errors import ChangeSetCompletedError, InvalidRequestError

if TYPE_CHECKING:
    from upgradesim.catalog import UpgradeCatalog
    from upgradesim.cluster import ClusterState


class Status(str, enum.Enum):
    NEW = "new"
    SCHEDULED = "scheduled"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Change:
    """One addition/removal/upgrade applied to a set of target resources."""

    change_id: str
    action: str  # upgrade | install | add | remove
    product: str
    target_version: str
    targets: tuple[str, ...] = ()
    selector: dict | None = None  # resolved to `targets` at submission time
    undo_threshold: int = 0  # minimum resources that must stay operational
    undo_version: str | None = None  # defaults to each resource's version at apply time
    new_resource_id: str | None = None
    new_resource_kind: str | None = None
    aggregate_of: tuple[str, ...] = ()
    will_serve: tuple[str, ...] = ()
    complementary: bool = False
    ppu_of: str | None = None  # parent change this one was expanded from
    superseded: bool = False  # parent of an expansion; produces no actions itself
    status: Status = Status.NEW
    # captured at submission so the undo scope stays deterministic
    source_state: dict[str, tuple[str, str] | None] = field(default_factory=dict)
    applied: set[str] = field(default_factory=set)  # resources where this change completed


@dataclass
class ChangeSet:
    """Tightly coupled changes that succeed or fail together (one undo unit)."""

    set_id: str
    changes: list[Change]
    max_completion_period_ms: int
    max_retry: int
    submitted_at: int = 0
    status: Status = Status.NEW
    undo_requested: bool = False
    undo_reason: str | None = None  # threshold | deadline | admin
    undone_resources: set[str] = field(default_factory=set)

    def validate(self) -> None:
        if not self.changes:
            raise InvalidRequestError(f"change set {self.set_id!r} has no changes")
        if self.max_retry < 1:
            raise InvalidRequestError(f"change set {self.set_id!r}: max-retry must be >= 1")
        if self.max_completion_period_ms <= 0:
            raise InvalidRequestError(
                f"change set {self.set_id!r}: max-completion-period must be > 0"
            )
        for change in self.changes:
            if change.undo_threshold < 0:
                raise InvalidRequestError(
                    f"change {change.change_id!r}: undo-threshold must be >= 0"
                )
            if change.targets and change.undo_threshold > len(change.targets):
                raise InvalidRequestError(
                    f"change {change.change_id!r}: undo-threshold exceeds target count"
                )

    def target_resources(self) -> list[str]:
        out: set[str] = set()
        for change in self.changes:
            if change.superseded:
                continue
            out.update(change.targets)
        return sorted(out)

    def deadline_ms(self) -> int:
        return self.submitted_at + self.max_completion_period_ms


@dataclass
class UpgradeRequest:
    request_id: str
    change_sets: list[ChangeSet]


def within_deadline(change_set: ChangeSet, now: int) -> bool:
    """Deadline is measured from submission and the bound is inclusive."""
    return now <= change_set.deadline_ms()


class UpgradeRequestModel:
    """All change sets ever submitted, keyed by undo-unit id."""

    def __init__(self) -> None:
        self.sets: dict[str, ChangeSet] = {}
        self.requests: dict[str, tuple[str, ...]] = {}
        self._unincorporated: list[str] = []

    def submit(
        self,
        request: UpgradeRequest,
        cluster: "ClusterState",
        catalog: "UpgradeCatalog",
    ) -> str:
        if not request.change_sets:
            raise InvalidRequestError(f"request {request.request_id!r} has no change sets")
        if request.request_id in self.requests:
            raise InvalidRequestError(f"request {request.request_id!r} already submitted")

        added = {
            c.new_resource_id
            for cs in request.change_sets
            for c in cs.changes
            if c.action == "add" and c.new_resource_id
        }
        claimed: dict[str, str] = {}
        for change_set in request.change_sets:
            if change_set.set_id in self.sets:
                raise InvalidRequestError(f"change set {change_set.set_id!r} already exists")
            for change in change_set.changes:
                self._resolve_targets(change, cluster, added)
                if not catalog.has(change.product, change.target_version):
                    catalog.find(change.product, change.target_version)  # raises
            change_set.validate()
            for resource_id in change_set.target_resources():
                owner = claimed.get(resource_id)
                if owner is not None and owner != change_set.set_id:
                    raise InvalidRequestError(
                        f"request {request.request_id!r}: resource {resource_id!r} targeted "
                        f"by change sets {owner!r} and {change_set.set_id!r}"
                    )
                claimed[resource_id] = change_set.set_id

        for change_set in request.change_sets:
            complements = catalog.derive_complementary_changes(change_set, cluster)
            change_set.changes.extend(complements)
            expanded = {c.ppu_of for c in change_set.changes if c.ppu_of}
            for change in change_set.changes:
                if change.change_id in expanded:
                    change.superseded = True
            for change in change_set.changes:
                if change.superseded:
                    continue
                for resource_id in change.targets:
                    if resource_id not in change.source_state:
                        res = cluster.resources.get(resource_id)
                        change.source_state[resource_id] = (
                            res.primary_state() if res is not None else None
                        )
            change_set.submitted_at = cluster.clock
            change_set.validate()
            self.sets[change_set.set_id] = change_set
            self._unincorporated.append(change_set.set_id)

        self.requests[request.request_id] = tuple(cs.set_id for cs in request.change_sets)
        return request.request_id

    def _resolve_targets(self, change: Change, cluster: "ClusterState", added: set[str]) -> None:
        """Check explicit targets, or resolve the selector into targets.

        An explicit target of a change other than ``add`` names a resource
        that is not removed, or one an ``add`` of the same request creates.
        """
        if change.targets:
            if change.action == "add":
                return
            for rid in change.targets:
                res = cluster.resources.get(rid)
                if rid not in added and (res is None or res.removed):
                    raise InvalidRequestError(
                        f"change {change.change_id!r}: target {rid!r} names no resource"
                    )
            return
        if change.action == "add":
            if not change.new_resource_id:
                raise InvalidRequestError(
                    f"change {change.change_id!r}: add requires new_resource_id"
                )
            change.targets = (change.new_resource_id,)
            return
        if change.selector is None:
            raise InvalidRequestError(
                f"change {change.change_id!r}: no targets and no selector"
            )
        kind = change.selector.get("kind")
        ids = [
            r.resource_id
            for r in cluster.resources.values()
            if not r.removed and (kind is None or r.kind == kind)
        ]
        role = change.selector.get("role")
        if role is not None:
            ids = [i for i in ids if role in cluster.resources[i].roles]
        change.targets = tuple(sorted(ids))
        if not change.targets:
            raise InvalidRequestError(
                f"change {change.change_id!r}: selector matched no resources"
            )

    def record_admin_undo(self, set_id: str) -> None:
        change_set = self.sets[set_id]
        if change_set.status == Status.COMPLETED:
            raise ChangeSetCompletedError(
                f"change set {set_id!r} already completed; request a new change instead"
            )
        if change_set.status == Status.FAILED or change_set.undo_requested:
            return  # idempotent
        change_set.undo_requested = True
        change_set.undo_reason = "admin"

    def pending_sets(self) -> list[ChangeSet]:
        return [
            self.sets[k]
            for k in sorted(self.sets)
            if self.sets[k].status in (Status.NEW, Status.SCHEDULED)
        ]

    def take_unincorporated(self) -> list[ChangeSet]:
        out = [self.sets[k] for k in self._unincorporated]
        self._unincorporated = []
        return out

    def any_pending(self) -> bool:
        return bool(self.pending_sets())
