"""ClusterState: its indexed lookups agree with a scan of its mappings, and
its state changes only through its mutation methods."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from upgradesim.cluster import ClusterState, SimResource, TenantSLA, VmState
from upgradesim.errors import InconsistentConfigError, UnknownResourceError

HOSTS = ["h1", "h2", "h3", "h4"]
ROLES = {"h1": {"compute"}, "h2": {"compute"}, "h3": {"compute", "storage"}, "h4": {"storage"}}
VMS = [f"v{i}" for i in range(1, 8)]
TENANTS = ["T1", "T2"]


def _pool() -> dict[str, SimResource]:
    """Every resource a test run may add, by id; each call gives fresh objects."""
    pool = {}
    for i, h in enumerate(HOSTS):
        roles = frozenset(ROLES[h])
        kind = "compute-host" if "compute" in roles else "storage-host"
        pool[h] = SimResource(h, kind, roles=roles, capacity=2 + i % 2, capacity_after_upgrade=3)
        pool[f"hv{i + 1}"] = SimResource(
            f"hv{i + 1}", "hypervisor", installed={"qemu": "1"}, primary_product="qemu",
            container=h, initial_primary_version="1",
        )
    pool["agent1"] = SimResource("agent1", "agent", container="h1")
    pool["hv1b"] = SimResource("hv1b", "hypervisor", installed={"kvm": "2"},
                               primary_product="kvm", container="h1")
    pool["vs1"] = SimResource("vs1", "virtual-storage", serves=("h1", "h2"))
    pool["vs2"] = SimResource("vs2", "virtual-storage", serves=("h2", "h3"), present=False)
    return pool


POOL_IDS = sorted(_pool())


def _cluster() -> ClusterState:
    cluster = ClusterState()
    for t in TENANTS:
        cluster.tenants[t] = TenantSLA(t, min_vms=0, max_vms=4, scaling_adjustment=1,
                                       cooldown_ms=0, committed=1)
    return cluster


# -- brute-force scans of the mappings ---------------------------------------------


def _sorted(mapping):
    return [mapping[k] for k in sorted(mapping)]


def scan_vms_on(cluster, host_id):
    return [v for v in _sorted(cluster.vms) if v.host == host_id and v.up]


def scan_components_on(cluster, host_id):
    return [r for r in _sorted(cluster.resources) if r.container == host_id and not r.removed]


def scan_hypervisor_of(cluster, host_id):
    return next((c for c in scan_components_on(cluster, host_id) if c.kind == "hypervisor"), None)


def scan_hosts(cluster):
    return [r for r in _sorted(cluster.resources) if r.is_host and not r.removed]


def scan_storage_backend_of(cluster, host_id):
    for res in _sorted(cluster.resources):
        if res.kind == "virtual-storage" and not res.removed and res.present and host_id in res.serves:
            return res
    return None


def scan_free_slots(cluster, host_id):
    res = cluster.resources[host_id]
    if not res.in_service or "compute" not in res.roles:
        return 0
    hv = scan_hypervisor_of(cluster, host_id)
    if hv is not None and not hv.in_service:
        return 0
    capacity = res.capacity
    if (
        hv is not None
        and hv.initial_primary_version is not None
        and hv.primary_state() is not None
        and hv.primary_state()[1] != hv.initial_primary_version
    ):
        capacity = res.capacity_after_upgrade
    return capacity - len(scan_vms_on(cluster, host_id))


def assert_lookups_match_scan(cluster):
    for host_id in [*HOSTS, "nowhere"]:
        assert cluster.vms_on(host_id) == scan_vms_on(cluster, host_id)
        assert cluster.components_on(host_id) == scan_components_on(cluster, host_id)
        assert cluster.hypervisor_of(host_id) is scan_hypervisor_of(cluster, host_id)
        assert cluster.storage_backend_of(host_id) is scan_storage_backend_of(cluster, host_id)
        if host_id in cluster.resources:
            assert cluster.free_slots(host_id) == scan_free_slots(cluster, host_id)
    assert cluster.hosts() == scan_hosts(cluster)
    for role in ("compute", "storage", "network"):
        expected = [r.resource_id for r in scan_hosts(cluster) if role in r.roles]
        assert cluster.hosts_with_role(role) == expected


def snapshot(cluster):
    """A deep, comparable copy of everything a clone must not share."""
    return (
        {k: dict(vars(r), installed=dict(r.installed)) for k, r in cluster.resources.items()},
        {k: dict(vars(v)) for k, v in cluster.vms.items()},
        {k: dict(vars(t)) for k, t in cluster.tenants.items()},
        {h: [v.vm_id for v in cluster.vms_on(h)] for h in HOSTS},
        cluster.clock,
    )


# -- random mutation sequences ------------------------------------------------------

hosts_or_none = st.sampled_from([*HOSTS, None])
flags = st.sampled_from(["removed", "up", "active", "present"])


class IndexedClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = _pool()
        self.cluster = _cluster()

    @precondition(lambda self: len(self.cluster.resources) < len(POOL_IDS))
    @rule(data=st.data())
    def add_resource(self, data):
        missing = [r for r in POOL_IDS if r not in self.cluster.resources]
        self.cluster.add_resource(self.pool[data.draw(st.sampled_from(missing))])

    @precondition(lambda self: len(self.cluster.vms) < len(VMS))
    @rule(data=st.data(), tenant=st.sampled_from(TENANTS), group=st.sampled_from(["g1", "g2"]),
          host=hosts_or_none)
    def add_vm(self, data, tenant, group, host):
        vm_id = data.draw(st.sampled_from([v for v in VMS if v not in self.cluster.vms]))
        self.cluster.add_vm(VmState(vm_id, tenant, group, host))

    @precondition(lambda self: self.cluster.vms)
    @rule(data=st.data(), host=hosts_or_none)
    def place_vm(self, data, host):
        vm_id = data.draw(st.sampled_from(sorted(self.cluster.vms)))
        self.cluster.place_vm(self.cluster.vms[vm_id], host)

    @precondition(lambda self: self.cluster.vms)
    @rule(data=st.data())
    def drop_vm(self, data):
        vm_id = data.draw(st.sampled_from(sorted(self.cluster.vms)))
        assert self.cluster.drop_vm(vm_id).vm_id == vm_id

    @precondition(lambda self: self.cluster.vms)
    @rule(data=st.data())
    def flip_vm_up(self, data):
        vm = self.cluster.vms[data.draw(st.sampled_from(sorted(self.cluster.vms)))]
        vm.up = not vm.up

    @precondition(lambda self: self.cluster.resources)
    @rule(data=st.data(), flag=flags)
    def flip_resource_flag(self, data, flag):
        res = self.cluster.resources[data.draw(st.sampled_from(sorted(self.cluster.resources)))]
        setattr(res, flag, not getattr(res, flag))

    @precondition(lambda self: self.cluster.resources)
    @rule(data=st.data(), version=st.sampled_from([None, "1", "2"]))
    def set_installed(self, data, version):
        res = self.cluster.resources[data.draw(st.sampled_from(sorted(self.cluster.resources)))]
        if version is None:
            res.installed.clear()
        else:
            res.installed[res.primary_product or "qemu"] = version

    @rule(data=st.data())
    def mutate_a_clone(self, data):
        before = snapshot(self.cluster)
        twin = self.cluster.clone()
        assert snapshot(twin) == before
        for vm in list(twin.vms.values()):
            twin.place_vm(vm, data.draw(hosts_or_none))
            vm.up = not vm.up
            vm.version = "2"
        for res in twin.resources.values():
            res.installed["qemu"] = "9"
            res.removed = not res.removed
        for tenant in twin.tenants.values():
            tenant.committed += 1
        if twin.vms:
            twin.drop_vm(sorted(twin.vms)[0])
        twin.clock += 1
        assert_lookups_match_scan(twin)
        assert snapshot(self.cluster) == before

    @rule()
    def continue_on_a_clone(self):
        self.cluster = self.cluster.clone()

    @invariant()
    def lookups_match_scan(self):
        assert_lookups_match_scan(self.cluster)


IndexedClusterMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestIndexedCluster = IndexedClusterMachine.TestCase


# -- direct writes --------------------------------------------------------------------


def test_direct_writes_to_the_mappings_raise():
    cluster = _cluster()
    cluster.add_resource(SimResource("h1", "compute-host", roles=frozenset({"compute"})))
    cluster.add_vm(VmState("v1", "T1", "g1", "h1"))
    with pytest.raises(TypeError):
        cluster.vms["v2"] = VmState("v2", "T1", "g1", "h1")
    with pytest.raises(TypeError):
        cluster.resources["h2"] = SimResource("h2", "compute-host")
    with pytest.raises(TypeError):
        del cluster.vms["v1"]
    with pytest.raises(TypeError):
        del cluster.resources["h1"]
    assert [v.vm_id for v in cluster.vms_on("h1")] == ["v1"]


def test_duplicate_ids_and_foreign_vms_are_refused():
    cluster = _cluster()
    cluster.add_resource(SimResource("h1", "compute-host", roles=frozenset({"compute"})))
    cluster.add_vm(VmState("v1", "T1", "g1", "h1"))
    with pytest.raises(InconsistentConfigError):
        cluster.add_resource(SimResource("h1", "compute-host"))
    with pytest.raises(InconsistentConfigError):
        cluster.add_vm(VmState("v1", "T2", "g1", None))
    with pytest.raises(UnknownResourceError):
        cluster.place_vm(VmState("v1", "T1", "g1", "h1"), None)  # not the cluster's own v1
    twin = cluster.clone()
    with pytest.raises(UnknownResourceError):
        twin.place_vm(cluster.vms["v1"], None)
    assert [v.vm_id for v in twin.vms_on("h1")] == ["v1"]
