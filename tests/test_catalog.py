import pytest
from hypothesis import given, strategies as st

from upgradesim.actions import ActionKind
from upgradesim.catalog import (
    CapabilityRange,
    StorageRequirement,
    UpgradeCatalog,
    build_description,
)
from upgradesim.errors import (
    DuplicateComponentError,
    InvalidDescriptionError,
    MissingCatalogEntryError,
)
from upgradesim.requests import UpgradeRequestModel
from upgradesim.scenario import build_catalog, build_cluster, build_events, parse_upgrade_request


def make_catalog() -> UpgradeCatalog:
    catalog = UpgradeCatalog()
    catalog.register(
        build_description(
            "ceph-osd-2", "ceph", "2", "storage-host",
            provides=[("storage-api", 2)],
            requires=[CapabilityRange("storage-api", 2, 2)],
        )
    )
    return catalog


def test_register_then_fetch_identity():
    catalog = make_catalog()
    desc = catalog.find("ceph", "2")
    assert desc.component_id == "ceph-osd-2"
    assert catalog.get("ceph-osd-2") is desc


def test_register_same_content_is_idempotent():
    catalog = make_catalog()
    desc = catalog.get("ceph-osd-2")
    catalog.register(desc)  # no error
    assert catalog.find("ceph", "2") is desc


def test_register_conflicting_content_rejected():
    catalog = make_catalog()
    other = build_description(
        "ceph-osd-2", "ceph", "2", "storage-host", install_time_ms=5_000
    )
    with pytest.raises(DuplicateComponentError):
        catalog.register(other)


def test_empty_undo_templates_rejected():
    desc = build_description("x-1", "x", "1", "hypervisor")
    bad = desc.install_actions[0].__class__(
        action_id="install:x-1",
        target_kind="hypervisor",
        kind=ActionKind.INSTALL,
        duration_ms=1000,
        undo_templates=(),
    )
    broken = type(desc)(
        **{**desc.__dict__, "install_actions": (bad,)}
    )
    with pytest.raises(InvalidDescriptionError, match="undo-templates"):
        UpgradeCatalog().register(broken)


def test_nonpositive_install_time_rejected():
    with pytest.raises(InvalidDescriptionError, match="install-time"):
        UpgradeCatalog().register(build_description("y-1", "y", "1", "router", install_time_ms=0))


class TestCompatibility:
    def test_point_range(self):
        catalog = make_catalog()
        assert catalog.compatible({"ceph": "2"}, {"ceph": "2"})

    def test_disjoint(self):
        catalog = make_catalog()
        catalog.register(
            build_description(
                "ceph-osd-1", "ceph", "1", "storage-host", provides=[("storage-api", 1)]
            )
        )
        catalog.register(
            build_description(
                "rbd-2", "rbd", "2", "other", requires=[CapabilityRange("storage-api", 2, 3)]
            )
        )
        assert not catalog.compatible({"rbd": "2"}, {"ceph": "1"})
        assert catalog.compatible({"rbd": "2"}, {"ceph": "2"})

    def test_storage_version_mismatch_detected(self, scenario_ppu):
        # the old storage's provided version falls outside what the new
        # clients accept, which is what forces the local parallel universe
        catalog = build_catalog(scenario_ppu)
        assert not catalog.compatible({"kvm": "2"}, {"vsan": "1"})
        assert catalog.compatible({"kvm": "2"}, {"ceph": "2"})

    def test_unprovided_capability_constrains_nothing(self):
        # a requirement on a capability the sponsor does not provide at all
        # is not the sponsor's to break; unknown products provide nothing
        catalog = make_catalog()
        assert catalog.compatible({"ceph": "2"}, {"unknown-product": "9"})
        assert catalog.compatible({"unknown-product": "9"}, {"ceph": "2"})

    def test_pure_function(self):
        catalog = make_catalog()
        results = {catalog.compatible({"ceph": "2"}, {"ceph": "2"}) for _ in range(5)}
        assert results == {True}


class TestComplementaryChanges:
    def test_storage_upgrade_expansion(self, scenario_fig1):
        catalog = build_catalog(scenario_fig1)
        cluster = build_cluster(scenario_fig1)
        events = build_events(scenario_fig1)
        request = parse_upgrade_request(events[0].payload["request"])
        storage_set = request.change_sets[0]
        complements = catalog.derive_complementary_changes(storage_set, cluster)
        actions = sorted(c.action for c in complements)
        assert actions == ["add", "install", "remove", "upgrade"]
        hv_change = next(c for c in complements if c.action == "upgrade")
        assert hv_change.product == "kvm"
        # every compute host's hypervisor gets the upgrade
        assert len(hv_change.targets) == 10
        add_change = next(c for c in complements if c.action == "add")
        assert add_change.new_resource_id == "ceph-1"
        assert len(add_change.aggregate_of) == 3

    def test_complete_set_is_fixed_point(self, scenario_a):
        catalog = build_catalog(scenario_a)
        cluster = build_cluster(scenario_a)
        events = build_events(scenario_a)
        request = parse_upgrade_request(events[0].payload["request"])
        change_set = request.change_sets[0]
        change_set.changes[0].targets = tuple(sorted(r for r in cluster.resources if r.startswith("hv")))
        assert catalog.derive_complementary_changes(change_set, cluster) == []

    def test_unregistered_product(self, scenario_a):
        catalog = build_catalog(scenario_a)
        cluster = build_cluster(scenario_a)
        events = build_events(scenario_a)
        request = parse_upgrade_request(events[0].payload["request"])
        change_set = request.change_sets[0]
        change_set.changes[0].product = "xen"
        change_set.changes[0].targets = ("hv01",)
        with pytest.raises(MissingCatalogEntryError, match="xen"):
            catalog.derive_complementary_changes(change_set, cluster)

    def test_idempotent_on_own_output(self, scenario_fig1):
        catalog = build_catalog(scenario_fig1)
        cluster = build_cluster(scenario_fig1)
        model = UpgradeRequestModel()
        events = build_events(scenario_fig1)
        model.submit(parse_upgrade_request(events[0].payload["request"]), cluster, catalog)
        storage_set = model.sets["cs-storage"]
        assert catalog.derive_complementary_changes(storage_set, cluster) == []


class TestOperationResolution:
    def test_hypervisor_upgrade_is_41_seconds(self):
        catalog = UpgradeCatalog()
        catalog.register(build_description("esxi-1", "esxi", "1", "hypervisor", install_time_ms=41_000))
        catalog.register(build_description("kvm-2", "kvm", "2", "hypervisor", install_time_ms=41_000))
        op = catalog.resolve_operation("upgrade", "kvm", "2", "hv1", ("esxi", "1"))
        kinds = [a.kind for a in op.actions]
        assert kinds == [ActionKind.DEACTIVATE, ActionKind.INSTALL, ActionKind.ACTIVATE]
        assert op.duration_ms == 41_000
        assert op.undo_duration_ms == 41_000

    def test_remove_has_symmetric_undo(self):
        catalog = UpgradeCatalog()
        catalog.register(build_description("vsan-1", "vsan", "1", "virtual-storage", install_time_ms=60_000))
        op = catalog.resolve_operation("remove", "vsan", "1", "vs1", ("vsan", "1"))
        assert [a.kind for a in op.actions] == [ActionKind.DEACTIVATE, ActionKind.REMOVE]
        assert [a.kind for a in op.undo_actions] == [ActionKind.INSTALL, ActionKind.ACTIVATE]

    def test_restore_targets_undo_version_templates(self):
        # undo-version different from the source resolves against that
        # version's own description
        catalog = UpgradeCatalog()
        for version, ms in (("0", 7_000), ("1", 41_000), ("2", 41_000)):
            catalog.register(
                build_description(f"qemu-{version}", "qemu", version, "hypervisor", install_time_ms=ms)
            )
        restore = catalog.resolve_restore("hv1", ("qemu", "2"), ("qemu", "0"))
        install = next(a for a in restore if a.kind == ActionKind.INSTALL)
        assert install.params["version"] == "0"
        assert install.duration_ms == 7_000

    def test_restore_noop_when_already_there(self):
        catalog = UpgradeCatalog()
        catalog.register(build_description("qemu-1", "qemu", "1", "hypervisor"))
        assert catalog.resolve_restore("hv1", ("qemu", "1"), ("qemu", "1")) == ()


def _symbolic_apply(state, actions):
    for action in actions:
        if action.kind == ActionKind.INSTALL:
            state = (action.params["product"], action.params["version"])
        elif action.kind == ActionKind.REMOVE:
            state = None
    return state


@given(versions=st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True))
def test_apply_then_undo_is_identity_on_version_state(versions):
    catalog = UpgradeCatalog()
    for v in versions:
        catalog.register(build_description(f"p-{v}", "p", str(v), "router", install_time_ms=1000))
    source, target = str(versions[0]), str(versions[1])
    op = catalog.resolve_operation("upgrade", "p", target, "r1", ("p", source))
    after = _symbolic_apply(("p", source), op.actions)
    assert after == ("p", target)
    assert _symbolic_apply(after, op.undo_actions) == ("p", source)


def test_storage_requirement_bound():
    req = StorageRequirement(min_hosts_for_configuration=3, min_hosts_for_capacity=2)
    assert req.bound == 3
