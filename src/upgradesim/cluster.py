"""Simulated cluster state: hosts, components, VMs, tenants.

This is the single mutable source of truth the engine acts on. Everything
else (graphs, planners) reads snapshots of it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from types import MappingProxyType

from upgradesim.errors import InconsistentConfigError, UnknownHostError, UnknownResourceError

HOST_KINDS = {"compute-host", "storage-host", "controller-host", "network-host"}


def host_kind(roles: frozenset[str]) -> str:
    for role, kind in (
        ("compute", "compute-host"),
        ("storage", "storage-host"),
        ("controller", "controller-host"),
        ("network", "network-host"),
    ):
        if role in roles:
            return kind
    return "other"


def _copy(obj, **changes):
    """A shallow copy of a dataclass instance, with ``changes`` applied, at
    half the cost of ``copy.copy``."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__, **changes)
    return twin


@dataclass
class SimResource:
    """A host or infrastructure component tracked by the simulator."""

    resource_id: str
    kind: str
    roles: frozenset[str] = frozenset()
    installed: dict[str, str] = field(default_factory=dict)
    primary_product: str | None = None
    active: bool = True
    up: bool = True
    present: bool = True  # False for to-be-added resources not yet deployed
    removed: bool = False
    container: str | None = None  # host id for contained components
    constituents: tuple[str, ...] = ()  # aggregation sponsors (virtual storage)
    serves: tuple[str, ...] = ()  # hosts whose VM operations this resource backs
    peers: tuple[str, ...] = ()
    capacity: int = 0
    capacity_after_upgrade: int = 0
    initial_primary_version: str | None = None

    @property
    def is_host(self) -> bool:
        return self.kind in HOST_KINDS

    def primary_state(self) -> tuple[str, str] | None:
        if self.primary_product is None:
            return None
        version = self.installed.get(self.primary_product)
        if version is None:
            return None
        return (self.primary_product, version)

    @property
    def in_service(self) -> bool:
        return self.present and self.up and self.active and not self.removed


def _capacity(host: SimResource, hv: SimResource | None) -> int:
    """VM slots of ``host``: its upgraded capacity once its hypervisor has
    left its initial version."""
    state = hv.primary_state() if hv is not None else None
    if state is not None and hv.initial_primary_version not in (None, state[1]):
        return host.capacity_after_upgrade
    return host.capacity


@dataclass
class VmState:
    vm_id: str
    tenant_id: str
    group_id: str
    host: str | None
    version: str = "1"
    up: bool = True


@dataclass
class TenantSLA:
    """Per-tenant elasticity terms plus live bookkeeping."""

    tenant_id: str
    min_vms: int
    max_vms: int
    scaling_adjustment: int
    cooldown_ms: int
    committed: int = 0
    last_scaling_at: int | None = None
    vm_seq: int = 0


class ClusterState:
    """Resources, VMs and tenants, indexed by where they sit.

    ``resources`` and ``vms`` are read-only views: resources and VMs enter
    through ``add_resource`` and ``add_vm``, VMs move with ``place_vm`` and
    leave with ``drop_vm``, so that the indexes behind the per-host lookups
    stay in step. Flags such as ``removed`` and ``up`` may be set directly;
    lookups filter on them when they are asked.
    """

    def __init__(self) -> None:
        self._resources: dict[str, SimResource] = {}
        self._vms: dict[str, VmState] = {}
        self.resources = MappingProxyType(self._resources)
        self.vms = MappingProxyType(self._vms)
        self.tenants: dict[str, TenantSLA] = {}
        self.clock = 0
        # container -> component ids and host -> VM ids, each sorted by id
        self._contained: dict[str, list[str]] = {}
        self._placed: dict[str | None, list[str]] = {}
        # resources and hosts sorted by id; None until asked for after add_resource
        self._order: list[SimResource] | None = None
        self._host_order: list[SimResource] | None = None

    # -- mutation -------------------------------------------------------------

    def add_resource(self, res: SimResource) -> None:
        if res.resource_id in self._resources:
            raise InconsistentConfigError(f"resource {res.resource_id!r} already exists")
        self._resources[res.resource_id] = res
        if res.container is not None:
            insort(self._contained.setdefault(res.container, []), res.resource_id)
        self._order = self._host_order = None

    def add_vm(self, vm: VmState) -> None:
        if vm.vm_id in self._vms:
            raise InconsistentConfigError(f"vm {vm.vm_id!r} already exists")
        self._vms[vm.vm_id] = vm
        insort(self._placed.setdefault(vm.host, []), vm.vm_id)

    def drop_vm(self, vm_id: str) -> VmState:
        vm = self._vms.pop(vm_id)
        self._placed[vm.host].remove(vm_id)
        return vm

    def place_vm(self, vm: VmState, host_id: str | None) -> None:
        """Move ``vm`` to ``host_id``, or off every host with None."""
        if self._vms.get(vm.vm_id) is not vm:
            raise UnknownResourceError(f"vm {vm.vm_id!r} is not in this cluster")
        self._placed[vm.host].remove(vm.vm_id)
        vm.host = host_id
        insort(self._placed.setdefault(host_id, []), vm.vm_id)

    # -- lookups --------------------------------------------------------------

    def resource(self, resource_id: str) -> SimResource:
        try:
            return self._resources[resource_id]
        except KeyError:
            raise UnknownResourceError(f"unknown resource {resource_id!r}") from None

    def host(self, host_id: str) -> SimResource:
        res = self._resources.get(host_id)
        if res is None or not res.is_host:
            raise UnknownHostError(f"unknown host {host_id!r}")
        return res

    def hosts(self) -> list[SimResource]:
        if self._host_order is None:
            self._sort()
        return [r for r in self._host_order if not r.removed]

    def hosts_with_role(self, role: str) -> list[str]:
        return [r.resource_id for r in self.hosts() if role in r.roles]

    def components_on(self, host_id: str) -> list[SimResource]:
        resources = self._resources
        return [
            resources[c] for c in self._contained.get(host_id, ()) if not resources[c].removed
        ]

    def hypervisor_of(self, host_id: str) -> SimResource | None:
        for c in self._contained.get(host_id, ()):
            comp = self._resources[c]
            if comp.kind == "hypervisor" and not comp.removed:
                return comp
        return None

    def primary_component(self, resource_id: str) -> tuple[str, str]:
        state = self.resource(resource_id).primary_state()
        if state is None:
            raise InconsistentConfigError(
                f"resource {resource_id!r} has no primary component installed"
            )
        return state

    def storage_backend_of(self, host_id: str) -> SimResource | None:
        """The in-service virtual storage currently backing a compute host."""
        if self._order is None:
            self._sort()
        for res in self._order:
            if res.kind != "virtual-storage" or res.removed or not res.present:
                continue
            if host_id in res.serves:
                return res
        return None

    def _sort(self) -> None:
        self._order = [self._resources[k] for k in sorted(self._resources)]
        self._host_order = [r for r in self._order if r.is_host]

    # -- placement ------------------------------------------------------------

    def vms_on(self, host_id: str) -> list[VmState]:
        vms = self._vms
        return [vms[v] for v in self._placed.get(host_id, ()) if vms[v].up]

    def effective_capacity(self, host_id: str) -> int:
        return _capacity(self.host(host_id), self.hypervisor_of(host_id))

    def free_slots(self, host_id: str) -> int:
        res = self.host(host_id)
        if not res.in_service or "compute" not in res.roles:
            return 0
        hv = self.hypervisor_of(host_id)
        if hv is not None and not hv.in_service:
            return 0
        return _capacity(res, hv) - len(self.vms_on(host_id))

    def host_can_run_vms(self, host_id: str) -> bool:
        res = self._resources.get(host_id)
        if res is None or not res.in_service or "compute" not in res.roles:
            return False
        hv = self.hypervisor_of(host_id)
        return hv is None or hv.in_service

    def anti_affinity_ok(self, vm_id: str, host_id: str) -> bool:
        vm = self._vms[vm_id]
        for other in self.vms_on(host_id):
            if (
                other.vm_id != vm_id
                and other.tenant_id == vm.tenant_id
                and other.group_id == vm.group_id
            ):
                return False
        return True

    def used_compute_hosts(self) -> list[str]:
        return [h for h in self.hosts_with_role("compute") if self.vms_on(h)]

    def tenant_vms(self, tenant_id: str) -> list[VmState]:
        return [self.vms[v] for v in sorted(self.vms) if self.vms[v].tenant_id == tenant_id]

    def clone(self) -> "ClusterState":
        """A copy that shares no mutable state with this one."""
        twin = ClusterState()
        twin.clock = self.clock
        twin.tenants = {k: _copy(t) for k, t in self.tenants.items()}
        twin._resources.update(
            (k, _copy(r, installed=dict(r.installed))) for k, r in self._resources.items()
        )
        twin._vms.update((k, _copy(vm)) for k, vm in self._vms.items())
        twin._contained = {k: list(ids) for k, ids in self._contained.items()}
        twin._placed = {k: list(ids) for k, ids in self._placed.items()}
        return twin

    def validate(self) -> None:
        """Raise when the configuration has dangling references."""
        for res in self.resources.values():
            if res.container is not None and res.container not in self.resources:
                raise InconsistentConfigError(
                    f"{res.resource_id}: container {res.container!r} does not exist"
                )
            for ref in (*res.constituents, *res.serves, *res.peers):
                if ref not in self.resources:
                    raise InconsistentConfigError(
                        f"{res.resource_id}: dependency endpoint {ref!r} does not exist"
                    )
        for vm in self.vms.values():
            if vm.host is not None and vm.host not in self.resources:
                raise InconsistentConfigError(
                    f"vm {vm.vm_id}: placed on unknown host {vm.host!r}"
                )
            if vm.tenant_id not in self.tenants:
                raise InconsistentConfigError(
                    f"vm {vm.vm_id}: unknown tenant {vm.tenant_id!r}"
                )
        for host_id in self.hosts_with_role("compute"):
            placed = self.vms_on(host_id)
            if len(placed) > self.effective_capacity(host_id):
                raise InconsistentConfigError(
                    f"host {host_id}: {len(placed)} VMs exceed capacity"
                )
            seen: set[tuple[str, str]] = set()
            for vm in placed:
                key = (vm.tenant_id, vm.group_id)
                if key in seen:
                    raise InconsistentConfigError(
                        f"host {host_id}: two VMs of anti-affinity group {key} co-located"
                    )
                seen.add(key)
