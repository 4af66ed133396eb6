"""Resolved upgrade actions, schedules, and execution outcomes.

All simulated time is integer milliseconds so that the second-scale timing
constants (41 s, 23 s, 0.6 s, 0.23 s) combine without floating-point drift.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

MS = 1000


def seconds_to_ms(value: float) -> int:
    return int(round(value * MS))


class ActionKind(str, enum.Enum):
    DEACTIVATE = "deactivate"
    ACTIVATE = "activate"
    INSTALL = "install"
    REMOVE = "remove"
    MIGRATE_VM = "migrate-vm"
    SPAWN_VM = "spawn-vm"


@dataclass(frozen=True)
class ResolvedAction:
    """One atomic, symbolic mutation of simulated state.

    ``undo`` carries the already-resolved actions that revert this action,
    computed against the state the action will be applied to; a resource-level
    recovery schedule is assembled from these without consulting the catalog
    again.
    """

    action_id: str
    kind: ActionKind
    target: str
    duration_ms: int
    params: dict = field(default_factory=dict)
    undo: tuple["ResolvedAction", ...] = ()

    def describe(self) -> dict:
        out = {
            "action_id": self.action_id,
            "kind": self.kind.value,
            "target": self.target,
            "duration_ms": self.duration_ms,
        }
        if self.params:
            out["params"] = dict(sorted(self.params.items()))
        return out


@dataclass(frozen=True)
class TimedAction:
    """An action with its start offset (ms) relative to schedule issue time."""

    offset_ms: int
    action: ResolvedAction


@dataclass(frozen=True)
class Lane:
    """A sequential track of actions; distinct lanes run concurrently."""

    lane_id: str
    targets: tuple[str, ...]
    steps: tuple[TimedAction, ...]


@dataclass(frozen=True)
class RuntimeUpgradeSchedule:
    """A set of concurrent lanes handed to the engine for execution."""

    schedule_id: str
    issued_at: int
    lanes: tuple[Lane, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for lane in self.lanes:
            for target in lane.targets:
                if target in seen:
                    raise ValueError(
                        f"resource {target!r} appears in more than one lane "
                        f"of schedule {self.schedule_id!r}"
                    )
                seen.add(target)

    def describe(self) -> dict:
        return {
            "schedule_id": self.schedule_id,
            "issued_at": self.issued_at,
            "lanes": [
                {
                    "lane_id": lane.lane_id,
                    "targets": list(lane.targets),
                    "steps": [
                        {"offset_ms": s.offset_ms, **s.action.describe()}
                        for s in lane.steps
                    ],
                }
                for lane in self.lanes
            ],
        }


@dataclass(frozen=True)
class ActionOutcome:
    """Engine feedback for one executed (or halted) action."""

    action_id: str
    kind: ActionKind
    target: str
    lane_id: str
    success: bool
    started_at: int
    ended_at: int

    def describe(self) -> dict:
        return {
            "action_id": self.action_id,
            "kind": self.kind.value,
            "target": self.target,
            "lane_id": self.lane_id,
            "success": self.success,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
        }
