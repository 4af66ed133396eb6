"""Coarsening of the resource graph into the upgrade control graph.

The control graph is its vertices only: resource groups, keyed by group id.
Two contractions form them: container/contained and composition edges merge
their endpoints (a host upgrades together with its hypervisor and composed
disks); then resources whose first execution level belongs to a split-mode or
local parallel-universe unit merge per sub-partition so they are scheduled as
one. VM vertices never merge; they are planned separately. The elimination
rules read dependencies from the resource graph's edges, so no edges are kept
between groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from upgradesim.resource_graph import DependencyKind, ExecutionLevel, ResourceGraph, UpgradeMethod


@dataclass
class ResourceGroup:
    """Control-graph vertex: resources upgraded together in one iteration."""

    group_id: str
    members: tuple[str, ...]

    def merged_levels(self, rg: ResourceGraph) -> list[list[tuple[str, ExecutionLevel]]]:
        """Level k of the group holds exactly the level-k entries of members."""
        depth = max((len(rg.resources[m].levels) for m in self.members if m in rg.resources), default=0)
        out: list[list[tuple[str, ExecutionLevel]]] = []
        for k in range(depth):
            slot = [
                (m, rg.resources[m].levels[k])
                for m in self.members
                if m in rg.resources and len(rg.resources[m].levels) > k
            ]
            out.append(slot)
        return out

    def first_levels(self, rg: ResourceGraph) -> list[tuple[str, ExecutionLevel]]:
        merged = self.merged_levels(rg)
        return merged[0] if merged else []

    def has_remaining_changes(self, rg: ResourceGraph) -> bool:
        return any(rg.resources[m].levels for m in self.members if m in rg.resources)


class _DisjointSet:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as root so group ids are content-derived
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def coarsen(rg: ResourceGraph) -> dict[str, ResourceGroup]:
    """Contract the resource graph into resource groups, keyed by group id.

    Edge contraction runs first, then method-based vertex contraction; a
    vertex already merged by edge contraction merges group-wise.
    """
    dsu = _DisjointSet(rg.resources.keys())

    for edge in rg.edges:
        if edge.kind in (DependencyKind.CONTAINER, DependencyKind.COMPOSITION):
            if edge.source in rg.resources and edge.target in rg.resources:
                dsu.union(edge.source, edge.target)

    for rid in sorted(rg.resources):
        res = rg.resources[rid]
        level = res.first_level()
        if level is None:
            continue
        unit = rg.upgrade_units.get(level.unit_id)
        if unit is None or unit.method == UpgradeMethod.ROLLING:
            continue
        if unit.partitions is None:
            for other in sorted(unit.members):
                if other in rg.resources:
                    dsu.union(rid, other)
            continue
        for partition in unit.partitions:
            if rid in partition:
                for other in partition:
                    if other in rg.resources:
                        dsu.union(rid, other)

    members_by_root: dict[str, list[str]] = {}
    for rid in sorted(rg.resources):
        members_by_root.setdefault(dsu.find(rid), []).append(rid)

    groups: dict[str, ResourceGroup] = {}
    for root in sorted(members_by_root):
        members = tuple(sorted(members_by_root[root]))
        group_id = f"g:{members[0]}"
        groups[group_id] = ResourceGroup(group_id=group_id, members=members)
    return groups
