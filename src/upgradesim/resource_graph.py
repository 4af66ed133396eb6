"""The resource graph: upgrade progress on vertices, typed dependency edges.

The configuration lives only in ``ClusterState``. The graph adds what the
coordinator learns while upgrading: execution levels, per-set attempt
counters, isolation flags, upgrade and undo units. It is kept alive across
iterations. Its structure (one vertex per non-removed cluster resource, the
edges between them) is re-derived from the cluster on every refresh; the
progress on the vertices is only mutated by feedback handling, report
application, and request incorporation. VMs are not vertices: they are
planned on ``cluster.Placement``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from upgradesim.actions import ActionKind, ResolvedAction
from upgradesim.catalog import UpgradeCatalog
from upgradesim.cluster import ClusterState, SimResource
from upgradesim.requests import Change, ChangeSet, Status, UpgradeRequestModel, within_deadline


class DependencyKind(str, enum.Enum):
    CONTAINER = "container-contained"
    COMPOSITION = "composition"
    AGGREGATION = "aggregation"
    COMMUNICATION = "communication"
    STORAGE = "storage"
    CONTROLLER = "controller"
    VM_SUPPORTING = "vm-supporting-storage-controller"
    PEER = "peer"


class Presence(str, enum.Enum):
    CURRENT = "current"
    FUTURE = "future"
    CURRENT_FUTURE = "current-future"


class UpgradeMethod(str, enum.Enum):
    ROLLING = "rolling"
    SPLIT_MODE = "split-mode"
    PPU = "ppu"


@dataclass(frozen=True)
class Dependency:
    """Edge from the dependent resource to its sponsor."""

    source: str
    target: str
    kind: DependencyKind
    presence: Presence
    min_sponsors: int | None = None


@dataclass
class ExecutionLevel:
    """One ordered slot of a resource's pending work; only the first runs."""

    change_id: str
    set_id: str
    unit_id: str
    kind: str  # upgrade | install | add | remove | undo
    actions: tuple[ResolvedAction, ...]
    undo_actions: tuple[ResolvedAction, ...]
    is_undo: bool = False

    def duration_ms(self) -> int:
        return sum(a.duration_ms for a in self.actions)

    def undo_duration_ms(self) -> int:
        return sum(a.duration_ms for a in self.undo_actions)


@dataclass
class Resource:
    """Resource graph vertex: the upgrade progress of one cluster resource."""

    resource_id: str
    levels: list[ExecutionLevel] = field(default_factory=list)
    undo_unit_ids: set[str] = field(default_factory=set)
    failed_attempts: dict[str, int] = field(default_factory=dict)
    is_isolated: bool = False
    is_failed: bool = False

    def first_level(self) -> ExecutionLevel | None:
        return self.levels[0] if self.levels else None


@dataclass
class UpgradeUnit:
    unit_id: str
    method: UpgradeMethod
    members: frozenset[str]
    change_ids: frozenset[str]
    partitions: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    switchover_done: bool = False


@dataclass
class UndoUnit:
    unit_id: str  # equals the change-set id
    members: set[str] = field(default_factory=set)


class ResourceGraph:
    def __init__(self) -> None:
        self.resources: dict[str, Resource] = {}
        self.edges: list[Dependency] = []
        self.upgrade_units: dict[str, UpgradeUnit] = {}
        self.undo_units: dict[str, UndoUnit] = {}
        self._out: dict[str, list[Dependency]] = {}
        self._in: dict[str, list[Dependency]] = {}

    # -- queries ---------------------------------------------------------------

    def edges_from(self, resource_id: str) -> list[Dependency]:
        return self._out.get(resource_id, [])

    def edges_to(self, resource_id: str) -> list[Dependency]:
        return self._in.get(resource_id, [])

    def pending_unit_work(self, unit_id: str) -> bool:
        for res in self.resources.values():
            for level in res.levels:
                if level.unit_id == unit_id:
                    return True
        return False

    def has_pending_levels(self) -> bool:
        return any(res.levels for res in self.resources.values())

    def _reindex(self) -> None:
        self._out = {}
        self._in = {}
        for edge in self.edges:
            self._out.setdefault(edge.source, []).append(edge)
            self._in.setdefault(edge.target, []).append(edge)


# -- syncing and refreshing -------------------------------------------------------


def sync_graph(
    rg: ResourceGraph,
    cluster: ClusterState,
    model: UpgradeRequestModel,
    catalog: UpgradeCatalog,
) -> None:
    """Bring the graph up to date with the cluster and fold in every set
    submitted since the last sync.

    Each new set's levels append after all existing ones, so actions of a new
    request never run before pending work on a shared resource.
    """
    refresh_structure(rg, cluster, catalog)  # unit detection needs edges
    new_sets = model.take_unincorporated()
    for change_set in new_sets:
        incorporate_change_set(rg, cluster, change_set, catalog)
    if new_sets:
        refresh_structure(rg, cluster, catalog)


def refresh_structure(rg: ResourceGraph, cluster: ClusterState, catalog: UpgradeCatalog) -> None:
    """Add or drop vertices for the cluster's non-removed resources and
    re-derive the edges; the progress on kept vertices is untouched."""
    for rid, sim in cluster.resources.items():
        if sim.removed:
            rg.resources.pop(rid, None)
        elif rid not in rg.resources:
            rg.resources[rid] = Resource(rid)
    rg.edges = _derive_edges(cluster, catalog)
    rg._reindex()


def _derive_edges(cluster: ClusterState, catalog: UpgradeCatalog) -> list[Dependency]:
    edges: list[Dependency] = []
    for key in sorted(cluster.resources):
        sim = cluster.resources[key]
        if sim.removed:
            continue
        if sim.container is not None:
            kind = (
                DependencyKind.COMPOSITION
                if sim.kind == "physical-disk"
                else DependencyKind.CONTAINER
            )
            presence = Presence.CURRENT_FUTURE if sim.present else Presence.FUTURE
            edges.append(Dependency(sim.resource_id, sim.container, kind, presence))
        if sim.kind in ("virtual-storage", "virtual-controller"):
            presence = Presence.CURRENT if sim.present else Presence.FUTURE
            min_sponsors = None
            state = sim.primary_state()
            if state is not None and catalog.has(*state):
                req = catalog.find(*state).storage_requirement
                if req is not None:
                    min_sponsors = req.min_hosts_for_configuration
            for h in sim.constituents:
                edges.append(
                    Dependency(
                        sim.resource_id,
                        h,
                        DependencyKind.AGGREGATION,
                        presence,
                        min_sponsors=min_sponsors,
                    )
                )
            for h in sim.serves:
                if sim.present and not _host_uses_sponsor(cluster, catalog, h, sim):
                    continue  # host moved off this storage (e.g. hypervisor upgraded)
                edges.append(
                    Dependency(h, sim.resource_id, DependencyKind.VM_SUPPORTING, presence)
                )
        if sim.kind == "switch":
            for h in sim.serves:
                edges.append(
                    Dependency(h, sim.resource_id, DependencyKind.COMMUNICATION, Presence.CURRENT_FUTURE)
                )
        for peer in sim.peers:
            if peer > sim.resource_id:
                edges.append(
                    Dependency(sim.resource_id, peer, DependencyKind.PEER, Presence.CURRENT_FUTURE)
                )
                edges.append(
                    Dependency(peer, sim.resource_id, DependencyKind.PEER, Presence.CURRENT_FUTURE)
                )
    return edges


def _host_uses_sponsor(
    cluster: ClusterState, catalog: UpgradeCatalog, host_id: str, sponsor: SimResource
) -> bool:
    """Whether the host's current components still depend on this sponsor."""
    hv = cluster.hypervisor_of(host_id)
    installed = dict(hv.installed) if hv is not None else {}
    host = cluster.resources.get(host_id)
    if host is not None:
        installed.update(host.installed)
    # no stated requirement keeps the declared dependency
    return catalog.compatible(installed, sponsor.installed)


# -- request incorporation --------------------------------------------------------


def incorporate_change_set(
    rg: ResourceGraph,
    cluster: ClusterState,
    change_set: ChangeSet,
    catalog: UpgradeCatalog,
) -> None:
    """Append the set's execution levels (and placeholder vertices) to the graph.

    Levels land after any existing ones, so work from earlier requests always
    runs first on a shared resource; incompatibilities introduced by this set
    get their own upgrade units scoped to the new levels.
    """
    _create_placeholders(cluster, change_set)
    unit_ids = _assign_units(rg, cluster, change_set, catalog)
    undo_unit = rg.undo_units.setdefault(change_set.set_id, UndoUnit(change_set.set_id))

    # group new levels per resource, ordered by the set's change order
    for change in change_set.changes:
        if change.superseded:
            continue
        for resource_id in change.targets:
            res = rg.resources.setdefault(resource_id, Resource(resource_id))
            state = _projected_state(cluster.resources[resource_id].primary_state(), res.levels)
            operation = catalog.resolve_operation(
                change.action,
                change.product,
                change.target_version,
                resource_id,
                state,
            )
            unit_id = unit_ids.get(
                (change.change_id, resource_id),
                f"unit:roll:{change.change_id}:{resource_id}",
            )
            actions = operation.actions
            undo_actions = operation.undo_actions
            unit = rg.upgrade_units.get(unit_id)
            if (
                unit is not None
                and unit.method == UpgradeMethod.SPLIT_MODE
                and unit.partitions is not None
                and resource_id in unit.partitions[0]
            ):
                # first split-mode partition stays deactivated until switchover
                while actions and actions[-1].kind == ActionKind.ACTIVATE:
                    actions = actions[:-1]
                undo_actions = tuple(
                    u for a in reversed(actions) for u in a.undo
                )
            res.levels.append(
                ExecutionLevel(
                    change_id=change.change_id,
                    set_id=change_set.set_id,
                    unit_id=unit_id,
                    kind=change.action,
                    actions=actions,
                    undo_actions=undo_actions,
                )
            )
            res.undo_unit_ids.add(change_set.set_id)
            undo_unit.members.add(resource_id)
    if change_set.status == Status.NEW:
        change_set.status = Status.SCHEDULED


def _create_placeholders(cluster: ClusterState, change_set: ChangeSet) -> None:
    for change in change_set.changes:
        if change.superseded or change.action != "add":
            continue
        rid = change.new_resource_id or change.targets[0]
        if rid in cluster.resources:
            continue
        cluster.add_resource(SimResource(
            resource_id=rid,
            kind=change.new_resource_kind or "other",
            primary_product=change.product,
            active=False,
            present=False,
            constituents=change.aggregate_of,
            serves=change.will_serve,
        ))


def _projected_state(
    state: tuple[str, str] | None, levels: list[ExecutionLevel]
) -> tuple[str, str] | None:
    """The primary (product, version) once the already-pending ``levels``
    have run from the current ``state``."""
    for level in levels:
        state = _state_after_level(state, level)
    return state


def _state_after_level(
    state: tuple[str, str] | None, level: ExecutionLevel
) -> tuple[str, str] | None:
    for action in level.actions:
        if action.kind == ActionKind.INSTALL:
            state = (action.params["product"], action.params["version"])
        elif action.kind == ActionKind.REMOVE:
            state = None
    return state


def _assign_units(
    rg: ResourceGraph,
    cluster: ClusterState,
    change_set: ChangeSet,
    catalog: UpgradeCatalog,
) -> dict[tuple[str, str], str]:
    """Create multi-member upgrade units for this set; return level routing.

    Methods: the add/remove pair covering a VM-supporting resource gets the
    local parallel-universe method; connected components of incompatible
    current/future edges get split mode; everything else stays rolling.
    """
    routing: dict[tuple[str, str], str] = {}

    # local parallel universe: add/remove pairs expanded from one parent change
    by_parent: dict[str, dict[str, Change]] = {}
    for change in change_set.changes:
        if change.ppu_of and change.action in ("add", "remove"):
            by_parent.setdefault(change.ppu_of, {})[change.action] = change
    for parent_id in sorted(by_parent):
        pair = by_parent[parent_id]
        if "add" not in pair or "remove" not in pair:
            continue
        add_targets = tuple(sorted(pair["add"].targets))
        remove_targets = tuple(sorted(pair["remove"].targets))
        unit_id = f"unit:ppu:{parent_id}"
        rg.upgrade_units[unit_id] = UpgradeUnit(
            unit_id=unit_id,
            method=UpgradeMethod.PPU,
            members=frozenset(add_targets + remove_targets),
            change_ids=frozenset({pair["add"].change_id, pair["remove"].change_id}),
            partitions=(remove_targets, add_targets),
        )
        for change in (pair["add"], pair["remove"]):
            for rid in change.targets:
                routing[(change.change_id, rid)] = unit_id

    # split mode: components of incompatible persistent edges among this set's
    # in-place upgrades
    changed: dict[str, Change] = {}
    for change in change_set.changes:
        if change.superseded or change.action != "upgrade":
            continue
        for rid in change.targets:
            changed[rid] = change

    def post(rid: str) -> dict[str, str] | None:
        sim = cluster.resources.get(rid)
        if sim is None:
            return None
        state = dict(sim.installed)
        change = changed.get(rid)
        if change is not None:
            primary = sim.primary_state()
            if primary is not None and primary[0] in state:
                del state[primary[0]]
            state[change.product] = change.target_version
        return state

    def installed(rid: str) -> dict[str, str] | None:
        sim = cluster.resources.get(rid)
        return dict(sim.installed) if sim is not None else None

    def compatible(dep, spon) -> bool:
        return dep is None or spon is None or catalog.compatible(dep, spon)

    adjacency: dict[str, set[str]] = {}
    for edge in rg.edges:
        if edge.presence != Presence.CURRENT_FUTURE:
            continue
        if edge.source not in changed and edge.target not in changed:
            continue
        ok_now = compatible(installed(edge.source), installed(edge.target))
        ok_after = compatible(post(edge.source), post(edge.target))
        mixed_breaks = not compatible(post(edge.source), installed(edge.target)) or not compatible(
            installed(edge.source), post(edge.target)
        )
        if ok_now and ok_after and mixed_breaks:
            adjacency.setdefault(edge.source, set()).add(edge.target)
            adjacency.setdefault(edge.target, set()).add(edge.source)

    seen: set[str] = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(sorted(adjacency.get(node, ()), reverse=True))
        members = sorted(c for c in component if c in changed)
        if len(members) < 2:
            continue
        half = (len(members) + 1) // 2
        unit_id = f"unit:split:{change_set.set_id}:{members[0]}"
        rg.upgrade_units[unit_id] = UpgradeUnit(
            unit_id=unit_id,
            method=UpgradeMethod.SPLIT_MODE,
            members=frozenset(members),
            change_ids=frozenset(changed[m].change_id for m in members),
            partitions=(tuple(members[:half]), tuple(members[half:])),
        )
        for member in members:
            routing[(changed[member].change_id, member)] = unit_id
    return routing


# -- iteration report application --------------------------------------------------


@dataclass
class ReportEffects:
    """State transitions the coordinator must realize in the cluster."""

    newly_isolated: list[str] = field(default_factory=list)
    released: list[str] = field(default_factory=list)
    undo_triggered: list[str] = field(default_factory=list)  # set ids


def apply_iteration_outcome(
    rg: ResourceGraph,
    model: UpgradeRequestModel,
    cluster: ClusterState,
    catalog: UpgradeCatalog,
    now: int,
) -> ReportEffects:
    """Apply retry/undo consequences of the previous iteration's results.

    Exhausted resources are isolated; change sets whose undo condition holds
    (threshold violated, deadline exceeded, or administrator request) get
    undo levels injected as the new first level of every affected resource,
    and their remaining levels are re-derived against the restored versions.
    """
    effects = ReportEffects()

    # retry exhaustion -> isolation
    for rid in sorted(rg.resources):
        res = rg.resources[rid]
        if res.is_isolated or res.is_failed:
            continue
        for set_id in sorted(res.undo_unit_ids):
            change_set = model.sets.get(set_id)
            if change_set is None:
                continue
            attempts = res.failed_attempts.get(set_id, 0)
            has_work = any(lvl.set_id == set_id for lvl in res.levels)
            if has_work and attempts >= change_set.max_retry:
                res.is_isolated = True
                res.levels = [lvl for lvl in res.levels if lvl.set_id != set_id]
                effects.newly_isolated.append(rid)
                break

    # undo conditions
    for change_set in model.pending_sets():
        reason = change_set.undo_reason
        if not change_set.undo_requested:
            if not within_deadline(change_set, now):
                change_set.undo_requested = True
                reason = change_set.undo_reason = "deadline"
            elif _undo_threshold_violated(rg, change_set):
                change_set.undo_requested = True
                reason = change_set.undo_reason = "threshold"
        if change_set.undo_requested and change_set.status != Status.FAILED:
            _inject_undo(rg, cluster, catalog, change_set)
            change_set.status = Status.FAILED
            effects.undo_triggered.append(change_set.set_id)
            for rid in change_set.target_resources():
                res = rg.resources.get(rid)
                if res is None:
                    continue
                if res.is_isolated and not res.is_failed and not any(
                    lvl.set_id == change_set.set_id for lvl in res.levels
                ):
                    res.is_isolated = False
                    effects.released.append(rid)
    return effects


def _undo_threshold_violated(rg: ResourceGraph, change_set: ChangeSet) -> bool:
    for change in change_set.changes:
        if change.superseded or not change.targets:
            continue
        bad = 0
        for rid in change.targets:
            res = rg.resources.get(rid)
            if res is not None and (res.is_isolated or res.is_failed):
                bad += 1
        allowed = len(change.targets) - change.undo_threshold
        if bad > allowed:
            return True
    return False


def _inject_undo(
    rg: ResourceGraph, cluster: ClusterState, catalog: UpgradeCatalog, change_set: ChangeSet
) -> None:
    undo_state: dict[str, tuple[str, str] | None] = {}
    for change in change_set.changes:
        if change.superseded:
            continue
        for rid in change.targets:
            if rid in undo_state:
                continue
            source = change.source_state.get(rid)
            if change.undo_version is not None and source is not None:
                undo_state[rid] = (source[0], change.undo_version)
            elif change.undo_version is not None and change.action == "add":
                undo_state[rid] = None
            else:
                undo_state[rid] = source

    for rid in sorted(undo_state):
        res = rg.resources.get(rid)
        if res is None:
            continue
        res.levels = [lvl for lvl in res.levels if lvl.set_id != change_set.set_id]
        if res.is_failed:
            continue  # reported to the administrator; nothing more is attempted
        target = undo_state[rid]
        actions = catalog.resolve_restore(rid, cluster.resources[rid].primary_state(), target)
        if actions:
            undo_level = ExecutionLevel(
                change_id=f"undo:{change_set.set_id}",
                set_id=change_set.set_id,
                unit_id=f"unit:undo:{change_set.set_id}:{rid}",
                kind="undo",
                actions=actions,
                undo_actions=(),
                is_undo=True,
            )
            res.levels.insert(0, undo_level)
        else:
            change_set.undone_resources.add(rid)
        _rederive_following_levels(res, target, catalog)


def _rederive_following_levels(
    res: Resource, start_state: tuple[str, str] | None, catalog: UpgradeCatalog
) -> None:
    """Recompute later levels' actions against the (possibly new) source chain."""
    state = start_state
    rebuilt: list[ExecutionLevel] = []
    for level in res.levels:
        if level.is_undo:
            rebuilt.append(level)
            state = _state_after_level(state, level)
            continue
        try:
            operation = catalog.resolve_operation(
                level.kind, _level_product(level), _level_version(level), res.resource_id, state
            )
            level = ExecutionLevel(
                change_id=level.change_id,
                set_id=level.set_id,
                unit_id=level.unit_id,
                kind=level.kind,
                actions=operation.actions,
                undo_actions=operation.undo_actions,
            )
        except Exception:
            pass  # keep the original resolution when re-derivation is impossible
        rebuilt.append(level)
        state = _state_after_level(state, level)
    res.levels = rebuilt


def _level_product(level: ExecutionLevel) -> str:
    for action in level.actions:
        if action.kind == ActionKind.INSTALL:
            return action.params["product"]
        if action.kind == ActionKind.REMOVE:
            return action.params["product"]
    return ""


def _level_version(level: ExecutionLevel) -> str:
    for action in level.actions:
        if action.kind in (ActionKind.INSTALL, ActionKind.REMOVE):
            return action.params["version"]
    return ""

