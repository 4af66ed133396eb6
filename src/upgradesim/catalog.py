"""Vendor component descriptions and the upgrade catalog.

The catalog answers three kinds of questions: whether a dependent's installed
products accept what its sponsor's installed products provide
(``UpgradeCatalog.compatible``), which symbolic actions deploy or revert a
change on a resource, and which complementary changes a requested change set
is missing against the current cluster configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from upgradesim.actions import ActionKind, ResolvedAction, seconds_to_ms
from upgradesim.errors import (
    DuplicateComponentError,
    InvalidDescriptionError,
    InvalidRequestError,
    MissingCatalogEntryError,
)

if TYPE_CHECKING:
    from upgradesim.cluster import ClusterState
    from upgradesim.requests import Change, ChangeSet

Capability = tuple[str, int]

DEFAULT_INSTALL_SECONDS = 41.0


@dataclass(frozen=True)
class CapabilityRange:
    """Inclusive integer version range a dependent accepts; high=None is open."""

    name: str
    low: int
    high: int | None = None

    def accepts(self, version: int) -> bool:
        if version < self.low:
            return False
        return self.high is None or version <= self.high


@dataclass(frozen=True)
class ActionTemplate:
    action_id: str
    target_kind: str
    kind: ActionKind
    duration_ms: int
    undo_templates: tuple[str, ...]
    prerequisite: str | None = None  # "evacuate-vms"
    wrapup: str | None = None  # "return-vms"


@dataclass(frozen=True)
class StorageRequirement:
    """Minimum host counts a virtual shared storage needs to stay viable."""

    min_hosts_for_configuration: int
    min_hosts_for_capacity: int

    @property
    def bound(self) -> int:
        return max(self.min_hosts_for_configuration, self.min_hosts_for_capacity)


@dataclass(frozen=True)
class ComponentDescription:
    component_id: str
    product_id: str
    version: str
    kind: str
    provides: tuple[Capability, ...] = ()
    requires: tuple[CapabilityRange, ...] = ()
    install_actions: tuple[ActionTemplate, ...] = ()
    remove_actions: tuple[ActionTemplate, ...] = ()
    activate_actions: tuple[ActionTemplate, ...] = ()
    deactivate_actions: tuple[ActionTemplate, ...] = ()
    install_time_ms: int = seconds_to_ms(DEFAULT_INSTALL_SECONDS)
    remove_time_ms: int = 0
    hardware: bool = False
    storage_requirement: StorageRequirement | None = None
    # For virtual resources aggregated out of per-host components: the product
    # that must be installed on each constituent host.
    constituent_product: str | None = None

    def validate(self) -> None:
        if self.install_time_ms <= 0:
            raise InvalidDescriptionError(
                f"{self.component_id}: install-time-estimate must be > 0"
            )
        if self.remove_time_ms < 0:
            raise InvalidDescriptionError(
                f"{self.component_id}: remove-time-estimate must be >= 0"
            )
        for group in (
            self.install_actions,
            self.remove_actions,
            self.activate_actions,
            self.deactivate_actions,
        ):
            for tpl in group:
                if tpl.duration_ms < 0:
                    raise InvalidDescriptionError(
                        f"{self.component_id}: action {tpl.action_id} has negative duration"
                    )
                if not tpl.undo_templates:
                    raise InvalidDescriptionError(
                        f"{self.component_id}: action {tpl.action_id} has empty undo-templates"
                    )
        for name, _ in self.provides:
            if not name:
                raise InvalidDescriptionError(
                    f"{self.component_id}: provided capability with empty name"
                )
        for rng in self.requires:
            if not rng.name:
                raise InvalidDescriptionError(
                    f"{self.component_id}: required capability with empty name"
                )
        if self.storage_requirement is not None:
            req = self.storage_requirement
            if req.min_hosts_for_configuration < 0 or req.min_hosts_for_capacity < 0:
                raise InvalidDescriptionError(
                    f"{self.component_id}: storage requirement counts must be >= 0"
                )


def build_description(
    component_id: str,
    product_id: str,
    version: str,
    kind: str,
    provides: Iterable[Capability] = (),
    requires: Iterable[CapabilityRange] = (),
    install_time_ms: int = seconds_to_ms(DEFAULT_INSTALL_SECONDS),
    remove_time_ms: int = 0,
    hardware: bool = False,
    storage_requirement: StorageRequirement | None = None,
    constituent_product: str | None = None,
) -> ComponentDescription:
    """Create a description with the default symmetric action templates."""

    def tpl(op: str, action_kind: ActionKind, duration: int, undo: str, **kw) -> ActionTemplate:
        return ActionTemplate(
            action_id=f"{op}:{component_id}",
            target_kind=kind,
            kind=action_kind,
            duration_ms=duration,
            undo_templates=(f"{undo}:{component_id}",),
            **kw,
        )

    return ComponentDescription(
        component_id=component_id,
        product_id=product_id,
        version=version,
        kind=kind,
        provides=tuple(provides),
        requires=tuple(requires),
        install_actions=(tpl("install", ActionKind.INSTALL, install_time_ms, "revert-install"),),
        remove_actions=(tpl("remove", ActionKind.REMOVE, remove_time_ms, "install"),),
        activate_actions=(tpl("activate", ActionKind.ACTIVATE, 0, "deactivate"),),
        deactivate_actions=(
            tpl(
                "deactivate",
                ActionKind.DEACTIVATE,
                0,
                "activate",
                prerequisite="evacuate-vms",
                wrapup="return-vms",
            ),
        ),
        install_time_ms=install_time_ms,
        remove_time_ms=remove_time_ms,
        hardware=hardware,
        storage_requirement=storage_requirement,
        constituent_product=constituent_product,
    )


@dataclass(frozen=True)
class UpgradeOperation:
    """Forward actions of a change on one resource, plus the reverting ones."""

    actions: tuple[ResolvedAction, ...]
    undo_actions: tuple[ResolvedAction, ...]


class UpgradeCatalog:
    """Registry of all infrastructure component descriptions.

    Immutable after scenario load; every lookup is deterministic.
    """

    def __init__(self) -> None:
        self._by_id: dict[str, ComponentDescription] = {}
        self._by_product: dict[tuple[str, str], ComponentDescription] = {}

    def register(self, desc: ComponentDescription) -> None:
        desc.validate()
        existing = self._by_id.get(desc.component_id)
        if existing is not None:
            if existing == desc:
                return  # idempotent re-registration
            raise DuplicateComponentError(
                f"component {desc.component_id!r} already registered with different content"
            )
        key = (desc.product_id, desc.version)
        if key in self._by_product:
            raise DuplicateComponentError(
                f"product {key!r} already registered as {self._by_product[key].component_id!r}"
            )
        self._by_id[desc.component_id] = desc
        self._by_product[key] = desc

    def get(self, component_id: str) -> ComponentDescription:
        try:
            return self._by_id[component_id]
        except KeyError:
            raise MissingCatalogEntryError(f"no description for component {component_id!r}") from None

    def find(self, product_id: str, version: str) -> ComponentDescription:
        try:
            return self._by_product[(product_id, version)]
        except KeyError:
            raise MissingCatalogEntryError(
                f"no description for product {product_id!r} version {version!r}"
            ) from None

    def has(self, product_id: str, version: str) -> bool:
        return (product_id, version) in self._by_product

    def descriptions(self) -> list[ComponentDescription]:
        return [self._by_id[k] for k in sorted(self._by_id)]

    # -- compatibility ------------------------------------------------------

    def capabilities_of(self, installed: dict[str, str]) -> dict[str, int]:
        """Capability name -> highest provided version across installed products."""
        out: dict[str, int] = {}
        for product, version in sorted(installed.items()):
            if not self.has(product, version):
                continue
            for name, cap_version in self.find(product, version).provides:
                out[name] = max(out.get(name, cap_version), cap_version)
        return out

    def requirements_of(self, installed: dict[str, str]) -> list[CapabilityRange]:
        out: list[CapabilityRange] = []
        for product, version in sorted(installed.items()):
            if not self.has(product, version):
                continue
            out.extend(self.find(product, version).requires)
        return out

    def compatible(
        self, dependent_installed: dict[str, str], sponsor_installed: dict[str, str]
    ) -> bool:
        """True iff every requirement of the dependent's products accepts the
        version the sponsor's products provide for that capability; a
        capability the sponsor does not provide constrains nothing."""
        caps = self.capabilities_of(sponsor_installed)
        return all(
            rng.accepts(caps[rng.name])
            for rng in self.requirements_of(dependent_installed)
            if rng.name in caps
        )

    # -- operation resolution ------------------------------------------------

    def resolve_operation(
        self,
        action: str,
        product_id: str,
        version: str,
        resource_id: str,
        current: tuple[str, str] | None,
    ) -> UpgradeOperation:
        """Resolve the symbolic actions of one change on one resource.

        ``current`` is the (product, version) installed at the time the level
        will run; the undo operation restores exactly that state.
        """
        desc = self.find(product_id, version)
        actions: list[ResolvedAction] = []
        if action == "upgrade":
            if current is None:
                raise MissingCatalogEntryError(
                    f"resource {resource_id!r} has no current component to upgrade"
                )
            src = self.find(*current)
            actions.extend(self._deactivate(src, resource_id))
            actions.extend(self._install(desc, resource_id, replaces=current))
            actions.extend(self._activate(desc, resource_id))
        elif action == "install":
            actions.extend(self._install(desc, resource_id, replaces=None))
        elif action == "add":
            actions.extend(self._install(desc, resource_id, replaces=None))
            actions.extend(self._activate(desc, resource_id))
        elif action == "remove":
            actions.extend(self._deactivate(desc, resource_id))
            actions.extend(self._remove(desc, resource_id))
        else:
            raise InvalidRequestError(f"unknown change action {action!r}")
        undo: list[ResolvedAction] = []
        for act in reversed(actions):
            undo.extend(act.undo)
        return UpgradeOperation(actions=tuple(actions), undo_actions=tuple(undo))

    def resolve_restore(
        self,
        resource_id: str,
        current: tuple[str, str] | None,
        target: tuple[str, str] | None,
    ) -> tuple[ResolvedAction, ...]:
        """Actions taking a resource from ``current`` straight to ``target``.

        Used for system-level undo towards an undo-version. Empty when the
        resource is already there.
        """
        if current == target:
            return ()
        if target is None:
            assert current is not None
            src = self.find(*current)
            return tuple(self._deactivate(src, resource_id) + self._remove(src, resource_id))
        desc = self.find(*target)
        ops: list[ResolvedAction] = []
        if current is not None:
            src = self.find(*current)
            ops.extend(self._deactivate(src, resource_id))
        ops.extend(self._install(desc, resource_id, replaces=current))
        ops.extend(self._activate(desc, resource_id))
        return tuple(ops)

    def _install(
        self,
        desc: ComponentDescription,
        resource_id: str,
        replaces: tuple[str, str] | None,
    ) -> list[ResolvedAction]:
        out = []
        for tpl in desc.install_actions:
            params = {"product": desc.product_id, "version": desc.version}
            if replaces is not None:
                params["replaces_product"], params["replaces_version"] = replaces
            if replaces is not None:
                prev = self.find(*replaces)
                undo = (
                    ResolvedAction(
                        action_id=f"install:{prev.component_id}",
                        kind=ActionKind.INSTALL,
                        target=resource_id,
                        duration_ms=prev.install_time_ms,
                        params={
                            "product": prev.product_id,
                            "version": prev.version,
                            "replaces_product": desc.product_id,
                            "replaces_version": desc.version,
                        },
                    ),
                )
            else:
                undo = (
                    ResolvedAction(
                        action_id=f"remove:{desc.component_id}",
                        kind=ActionKind.REMOVE,
                        target=resource_id,
                        duration_ms=desc.remove_time_ms,
                        params={"product": desc.product_id, "version": desc.version},
                    ),
                )
            out.append(
                ResolvedAction(
                    action_id=tpl.action_id,
                    kind=ActionKind.INSTALL,
                    target=resource_id,
                    duration_ms=tpl.duration_ms,
                    params=params,
                    undo=undo,
                )
            )
        return out

    def _remove(self, desc: ComponentDescription, resource_id: str) -> list[ResolvedAction]:
        out = []
        for tpl in desc.remove_actions:
            undo = (
                ResolvedAction(
                    action_id=f"install:{desc.component_id}",
                    kind=ActionKind.INSTALL,
                    target=resource_id,
                    duration_ms=desc.install_time_ms,
                    params={"product": desc.product_id, "version": desc.version},
                ),
            )
            out.append(
                ResolvedAction(
                    action_id=tpl.action_id,
                    kind=ActionKind.REMOVE,
                    target=resource_id,
                    duration_ms=tpl.duration_ms,
                    params={"product": desc.product_id, "version": desc.version},
                    undo=undo,
                )
            )
        return out

    def _activate(self, desc: ComponentDescription, resource_id: str) -> list[ResolvedAction]:
        out = []
        for tpl in desc.activate_actions:
            undo = (
                ResolvedAction(
                    action_id=f"deactivate:{desc.component_id}",
                    kind=ActionKind.DEACTIVATE,
                    target=resource_id,
                    duration_ms=0,
                ),
            )
            out.append(
                ResolvedAction(
                    action_id=tpl.action_id,
                    kind=ActionKind.ACTIVATE,
                    target=resource_id,
                    duration_ms=tpl.duration_ms,
                    undo=undo,
                )
            )
        return out

    def _deactivate(self, desc: ComponentDescription, resource_id: str) -> list[ResolvedAction]:
        out = []
        for tpl in desc.deactivate_actions:
            undo = (
                ResolvedAction(
                    action_id=f"activate:{desc.component_id}",
                    kind=ActionKind.ACTIVATE,
                    target=resource_id,
                    duration_ms=0,
                ),
            )
            out.append(
                ResolvedAction(
                    action_id=tpl.action_id,
                    kind=ActionKind.DEACTIVATE,
                    target=resource_id,
                    duration_ms=tpl.duration_ms,
                    undo=undo,
                )
            )
        return out

    # -- complementary changes ------------------------------------------------

    def derive_complementary_changes(
        self, change_set: "ChangeSet", cluster: "ClusterState"
    ) -> list["Change"]:
        """Detail/missing changes the requested set needs to be deployable.

        Idempotent: running it again on a set that already contains its own
        output returns the empty list. Output is sorted by (first target,
        product) so repeated derivations are byte-stable.
        """
        from upgradesim.requests import Change

        complements: list[Change] = []
        expanded = {c.ppu_of for c in change_set.changes if c.ppu_of}
        for change in change_set.changes:
            if change.complementary or change.superseded:
                continue
            if change.change_id in expanded:
                continue
            desc = self.find(change.product, change.target_version)
            if desc.kind == "virtual-storage" and change.action == "upgrade":
                complements.extend(self._expand_storage_upgrade(change, desc, cluster))
        complements.sort(key=lambda c: (min(c.targets, default=""), c.product))
        return complements

    def _expand_storage_upgrade(
        self,
        change: "Change",
        new_desc: ComponentDescription,
        cluster: "ClusterState",
    ) -> list["Change"]:
        """Expand an incompatible in-place virtual-storage upgrade.

        The old configuration is kept alive while the new one is built on its
        own hosts, so the expansion is: per-host constituent installs, the new
        virtual resource, hypervisor upgrades for served compute hosts whose
        current hypervisor cannot use the new version, and removal of the old
        resource.
        """
        from upgradesim.requests import Change

        out: list[Change] = []
        provided = dict(new_desc.provides)
        for vs_id in sorted(change.targets):
            vs = cluster.resources[vs_id]
            served = sorted(vs.serves)
            incompatible_hosts = []
            for host_id in served:
                hv = cluster.hypervisor_of(host_id)
                if hv is None:
                    continue
                for rng in self.requirements_of(hv.installed):
                    if rng.name in provided and not rng.accepts(provided[rng.name]):
                        incompatible_hosts.append(host_id)
                        break
            if not incompatible_hosts:
                continue  # upgradeable in place; nothing to add

            suffix = change.change_id
            new_id = change.new_resource_id or f"{vs_id}-new"

            # constituent component installs on hosts for the new configuration
            constituent_hosts: tuple[str, ...] = ()
            if new_desc.constituent_product and new_desc.storage_requirement:
                count = new_desc.storage_requirement.bound
                # prefer hosts outside the old configuration and not busy as
                # compute; fall back to the old constituents (daemons coexist)
                candidates = sorted(
                    cluster.hosts_with_role("storage"),
                    key=lambda h: (h in vs.constituents, bool(cluster.vms_on(h)), h),
                )
                if len(candidates) < count:
                    raise InvalidRequestError(
                        f"change {change.change_id!r}: {count} storage hosts needed for the "
                        f"new configuration of {vs_id!r}, only {len(candidates)} available"
                    )
                constituent_hosts = tuple(sorted(candidates[:count]))
                part_desc = self._constituent_description(new_desc)
                out.append(
                    Change(
                        change_id=f"{suffix}/constituents",
                        action="install",
                        product=part_desc.product_id,
                        target_version=part_desc.version,
                        targets=constituent_hosts,
                        complementary=True,
                        ppu_of=change.change_id,
                    )
                )

            out.append(
                Change(
                    change_id=f"{suffix}/add-new",
                    action="add",
                    product=new_desc.product_id,
                    target_version=new_desc.version,
                    targets=(new_id,),
                    new_resource_id=new_id,
                    new_resource_kind=new_desc.kind,
                    aggregate_of=constituent_hosts,
                    will_serve=tuple(served),
                    complementary=True,
                    ppu_of=change.change_id,
                )
            )

            hv_targets = []
            hv_desc = None
            for host_id in incompatible_hosts:
                hv = cluster.hypervisor_of(host_id)
                assert hv is not None
                hv_desc = self._hypervisor_for(provided)
                hv_targets.append(hv.resource_id)
            if hv_targets and hv_desc is not None:
                out.append(
                    Change(
                        change_id=f"{suffix}/hypervisors",
                        action="upgrade",
                        product=hv_desc.product_id,
                        target_version=hv_desc.version,
                        targets=tuple(sorted(hv_targets)),
                        complementary=True,
                        ppu_of=change.change_id,
                    )
                )

            old_product, old_version = cluster.primary_component(vs_id)
            out.append(
                Change(
                    change_id=f"{suffix}/remove-old",
                    action="remove",
                    product=old_product,
                    target_version=old_version,
                    targets=(vs_id,),
                    complementary=True,
                    ppu_of=change.change_id,
                )
            )
        return out

    def _constituent_description(self, vs_desc: ComponentDescription) -> ComponentDescription:
        assert vs_desc.constituent_product is not None
        matches = [
            d
            for d in self.descriptions()
            if d.product_id == vs_desc.constituent_product
        ]
        if not matches:
            raise MissingCatalogEntryError(
                f"no description for product {vs_desc.constituent_product!r}"
            )
        return max(matches, key=lambda d: d.version)

    def _hypervisor_for(self, provided: dict[str, int]) -> ComponentDescription:
        """Pick the registered hypervisor whose requirements accept the new caps."""
        candidates = []
        for d in self.descriptions():
            if d.kind != "hypervisor":
                continue
            relevant = [r for r in d.requires if r.name in provided]
            if relevant and all(r.accepts(provided[r.name]) for r in relevant):
                candidates.append(d)
        if not candidates:
            raise MissingCatalogEntryError(
                f"no hypervisor description compatible with capabilities "
                f"{sorted(provided.items())!r}"
            )
        return max(candidates, key=lambda d: (d.version, d.product_id))
