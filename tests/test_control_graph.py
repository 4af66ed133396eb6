from upgradesim.control_graph import coarsen
from upgradesim.resource_graph import UpgradeMethod

from conftest import toy_scenario
from test_resource_graph import build_env


def group_of(groups, resource_id):
    """The id of the group that holds the resource, or None."""
    return next((g.group_id for g in groups.values() if resource_id in g.members), None)


def test_identity_coarsening_without_contractable_edges(scenario_a):
    # hosts and their hypervisors merge (containment), nothing else does
    cluster, catalog, model, rg = build_env(toy_scenario(host_count=3))
    groups = coarsen(rg)
    assert sorted(groups) == ["g:h1", "g:h2", "g:h3"]
    assert groups["g:h1"].members == ("h1", "hv1")


def test_contraction_merges_host_hypervisor_and_disks(scenario_fig1):
    cluster, catalog, model, rg = build_env(scenario_fig1)
    groups = coarsen(rg)
    group_id = group_of(groups, "h01")
    assert sorted(groups[group_id].members) == ["d1", "d2", "d3", "d4", "h01", "hv01"]


def test_split_mode_partitions_become_single_vertices():
    # four peers in one split-mode unit -> two control-graph vertices
    from upgradesim.scenario import parse_scenario

    data = {
        "name": "split4",
        "cluster": {
            "hosts": [{"id": "h1", "roles": ["compute"], "capacity": 2}],
            "components": [
                {"id": "hv1", "kind": "hypervisor", "product": "qemu", "version": "1", "host": "h1"},
                {"id": "r1", "kind": "router", "product": "router-os", "version": "1",
                 "peers": ["r2", "r3", "r4"]},
                {"id": "r2", "kind": "router", "product": "router-os", "version": "1",
                 "peers": ["r1", "r3", "r4"]},
                {"id": "r3", "kind": "router", "product": "router-os", "version": "1",
                 "peers": ["r1", "r2", "r4"]},
                {"id": "r4", "kind": "router", "product": "router-os", "version": "1",
                 "peers": ["r1", "r2", "r3"]},
            ],
        },
        "tenants": [],
        "catalog": [
            {"component_id": "qemu-1", "product": "qemu", "version": "1", "kind": "hypervisor",
             "provides": [["vm-runtime", 1]], "requires": []},
            {"component_id": "router-os-1", "product": "router-os", "version": "1",
             "kind": "router", "provides": [["peer-link", 1]],
             "requires": [["peer-link", 1, 1]], "install_seconds": 20},
            {"component_id": "router-os-2", "product": "router-os", "version": "2",
             "kind": "router", "provides": [["peer-link", 2]],
             "requires": [["peer-link", 2, 2]], "install_seconds": 20},
        ],
        "events": [
            {"at_seconds": 0, "kind": "upgrade-request", "request": {
                "id": "req", "change_sets": [
                    {"id": "cs-net", "max_completion_seconds": 10000, "max_retry": 1,
                     "changes": [{"id": "ch-r", "action": "upgrade", "product": "router-os",
                                  "version": "2", "targets": ["r1", "r2", "r3", "r4"],
                                  "undo_threshold": 0}]}
                ]}},
        ],
    }
    cluster, catalog, model, rg = build_env(parse_scenario(data))
    unit = next(u for u in rg.upgrade_units.values() if u.method == UpgradeMethod.SPLIT_MODE)
    assert unit.partitions == (("r1", "r2"), ("r3", "r4"))
    groups = coarsen(rg)
    assert group_of(groups, "r1") == group_of(groups, "r2")
    assert group_of(groups, "r3") == group_of(groups, "r4")
    assert group_of(groups, "r1") != group_of(groups, "r3")


def test_group_ids_stable_across_updates(scenario_fig1):
    cluster, catalog, model, rg = build_env(scenario_fig1)
    before = coarsen(rg)
    rg.resources["hv10"].levels.clear()  # membership unchanged
    after = coarsen(rg)
    assert set(before) == set(after)


def test_first_levels_shrink_with_member_progress():
    cluster, catalog, model, rg = build_env(toy_scenario(host_count=1))
    groups = coarsen(rg)
    group = groups[group_of(groups, "hv1")]
    assert group.first_levels(rg) == [("hv1", rg.resources["hv1"].levels[0])]
    rg.resources["hv1"].levels.pop(0)
    assert group.first_levels(rg) == []


def test_removed_vertex_disappears(scenario_ppu):
    cluster, catalog, model, rg = build_env(scenario_ppu)
    assert group_of(coarsen(rg), "vsan-1") is not None
    cluster.resources["vsan-1"].removed = True
    from upgradesim.resource_graph import refresh_structure

    refresh_structure(rg, cluster, catalog)
    assert group_of(coarsen(rg), "vsan-1") is None

