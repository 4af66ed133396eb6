import pytest
from hypothesis import example, given, strategies as st

from upgradesim.actions import ActionKind, apply_to_installed
from upgradesim.catalog import (
    CapabilityRange,
    ComponentDescription,
    StorageRequirement,
    UpgradeCatalog,
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
        ComponentDescription(
            "ceph-osd-2", "ceph", "2", "storage-host",
            provides=(("storage-api", 2),),
            requires=(CapabilityRange("storage-api", 2, 2),),
        )
    )
    return catalog


def test_register_then_fetch_identity():
    desc = ComponentDescription("ceph-osd-2", "ceph", "2", "storage-host")
    catalog = UpgradeCatalog()
    catalog.register(desc)
    assert catalog.find("ceph", "2") is desc
    assert catalog.descriptions() == [desc]


def test_register_same_content_is_idempotent():
    catalog = make_catalog()
    desc = catalog.find("ceph", "2")
    catalog.register(desc)  # no error
    assert catalog.find("ceph", "2") is desc


def test_register_conflicting_content_rejected():
    catalog = make_catalog()
    other = ComponentDescription(
        "ceph-osd-2", "ceph", "2", "storage-host", install_time_ms=5_000
    )
    with pytest.raises(DuplicateComponentError):
        catalog.register(other)


def test_nonpositive_install_time_rejected():
    with pytest.raises(InvalidDescriptionError, match="install-time"):
        UpgradeCatalog().register(ComponentDescription("y-1", "y", "1", "router", install_time_ms=0))


class TestCompatibility:
    def test_point_range(self):
        catalog = make_catalog()
        assert catalog.compatible({"ceph": "2"}, {"ceph": "2"})

    def test_disjoint(self):
        catalog = make_catalog()
        catalog.register(
            ComponentDescription(
                "ceph-osd-1", "ceph", "1", "storage-host", provides=(("storage-api", 1),)
            )
        )
        catalog.register(
            ComponentDescription(
                "rbd-2", "rbd", "2", "other", requires=(CapabilityRange("storage-api", 2, 3),)
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
        catalog.register(ComponentDescription("esxi-1", "esxi", "1", "hypervisor", install_time_ms=41_000))
        catalog.register(ComponentDescription("kvm-2", "kvm", "2", "hypervisor", install_time_ms=41_000))
        op = catalog.resolve_operation("upgrade", "kvm", "2", "hv1", ("esxi", "1"))
        kinds = [a.kind for a in op.actions]
        assert kinds == [ActionKind.DEACTIVATE, ActionKind.INSTALL, ActionKind.ACTIVATE]
        assert sum(a.duration_ms for a in op.actions) == 41_000
        assert sum(a.duration_ms for a in op.undo_actions) == 41_000

    def test_remove_has_symmetric_undo(self):
        catalog = UpgradeCatalog()
        catalog.register(ComponentDescription("vsan-1", "vsan", "1", "virtual-storage", install_time_ms=60_000))
        op = catalog.resolve_operation("remove", "vsan", "1", "vs1", ("vsan", "1"))
        assert [a.kind for a in op.actions] == [ActionKind.DEACTIVATE, ActionKind.REMOVE]
        assert [a.kind for a in op.undo_actions] == [ActionKind.INSTALL, ActionKind.ACTIVATE]

    def test_restore_targets_undo_version_templates(self):
        # undo-version different from the source resolves against that
        # version's own description
        catalog = UpgradeCatalog()
        for version, ms in (("0", 7_000), ("1", 41_000), ("2", 41_000)):
            catalog.register(
                ComponentDescription(f"qemu-{version}", "qemu", version, "hypervisor", install_time_ms=ms)
            )
        restore = catalog.resolve_restore("hv1", ("qemu", "2"), ("qemu", "0"))
        install = next(a for a in restore if a.kind == ActionKind.INSTALL)
        assert install.params["version"] == "0"
        assert install.duration_ms == 7_000

    def test_restore_noop_when_already_there(self):
        catalog = UpgradeCatalog()
        catalog.register(ComponentDescription("qemu-1", "qemu", "1", "hypervisor"))
        assert catalog.resolve_restore("hv1", ("qemu", "1"), ("qemu", "1")) == ()


def _product_catalog(versions, install_ms, remove_ms) -> UpgradeCatalog:
    catalog = UpgradeCatalog()
    for product in ("p", "q"):
        for v in versions:
            catalog.register(ComponentDescription(
                f"{product}-{v}", product, str(v), "router",
                install_time_ms=install_ms, remove_time_ms=remove_ms,
            ))
    return catalog


INSTALL_MS = st.integers(1, 90_000)
REMOVE_MS = st.integers(0, 90_000)


@given(
    action=st.sampled_from(["upgrade", "install", "add", "remove"]),
    versions=st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True),
    products=st.tuples(st.sampled_from("pq"), st.sampled_from("pq")),
    install_ms=INSTALL_MS,
    remove_ms=REMOVE_MS,
)
@example(action="remove", versions=[0, 1], products=("p", "p"), install_ms=1, remove_ms=0)
def test_apply_then_undo_is_identity_on_version_state(
    action, versions, products, install_ms, remove_ms
):
    # the forward actions make the change; their undo restores the whole map
    catalog = _product_catalog(versions, install_ms, remove_ms)
    source = (products[0], str(versions[0]))
    target = (products[1], str(versions[1]))
    if action == "remove":
        target = source
    current = source if action in ("upgrade", "remove") else None
    installed = {"other": "1"}
    if current is not None:
        installed[current[0]] = current[1]
    op = catalog.resolve_operation(action, *target, "r1", current)

    after = dict(installed)
    for step in op.actions:
        apply_to_installed(after, step)
    expected = {k: v for k, v in installed.items() if (k, v) != current}
    if action != "remove":
        expected[target[0]] = target[1]
    assert after == expected
    for step in op.undo_actions:
        apply_to_installed(after, step)
    assert after == installed
    assert [a.undo for a in op.undo_actions] == [()] * len(op.undo_actions)


@given(
    versions=st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    states=st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
    install_ms=INSTALL_MS,
    remove_ms=REMOVE_MS,
)
def test_restore_is_the_forward_actions_of_the_matching_operation(
    versions, states, install_ms, remove_ms
):
    catalog = _product_catalog(versions, install_ms, remove_ms)
    current, target = (
        None if i < 0 else ("pq"[i % 2], str(versions[i % len(versions)])) for i in states
    )
    restore = catalog.resolve_restore("r1", current, target)
    if current == target:
        assert restore == ()
        return
    if target is None:
        op = catalog.resolve_operation("remove", *current, "r1", current)
    else:
        action = "add" if current is None else "upgrade"
        op = catalog.resolve_operation(action, *target, "r1", current)
    assert restore == op.actions
    installed = dict([current]) if current else {}
    for step in restore:
        apply_to_installed(installed, step)
    assert installed == (dict([target]) if target else {})


def test_storage_requirement_bound():
    req = StorageRequirement(min_hosts_for_configuration=3, min_hosts_for_capacity=2)
    assert req.bound == 3
