from upgradesim.actions import ActionKind
from upgradesim.requests import Status, UpgradeRequestModel
from upgradesim.resource_graph import (
    DependencyKind,
    Presence,
    ResourceGraph,
    apply_iteration_outcome,
    refresh_structure,
    sync_graph,
)
from upgradesim.scenario import (
    build_catalog,
    build_cluster,
    build_events,
    parse_upgrade_request,
)

from conftest import toy_scenario


def build_env(scenario, submit=True):
    cluster = build_cluster(scenario)
    catalog = build_catalog(scenario)
    model = UpgradeRequestModel()
    if submit:
        for event in build_events(scenario):
            if event.kind == "upgrade-request":
                model.submit(parse_upgrade_request(event.payload["request"]), cluster, catalog)
    rg = ResourceGraph()
    sync_graph(rg, cluster, model, catalog)
    return cluster, catalog, model, rg


def test_three_host_upgrade_adds_one_level_per_hypervisor():
    cluster, catalog, model, rg = build_env(toy_scenario(host_count=3))
    for hv in ("hv1", "hv2", "hv3"):
        res = rg.resources[hv]
        assert len(res.levels) == 1
        assert res.levels[0].kind == "upgrade"
        kinds = [a.kind for a in res.levels[0].actions]
        assert kinds == [ActionKind.DEACTIVATE, ActionKind.INSTALL, ActionKind.ACTIVATE]
    for host in ("h1", "h2", "h3"):
        assert rg.resources[host].levels == []


def test_empty_model_mirrors_config():
    cluster, catalog, model, rg = build_env(toy_scenario(host_count=2), submit=False)
    assert all(r.levels == [] for r in rg.resources.values())
    assert set(rg.resources) == {"h1", "h2", "hv1", "hv2"}


def test_fig1_analog_structure(scenario_fig1):
    cluster, catalog, model, rg = build_env(scenario_fig1)
    # one vertex per non-removed cluster resource; VMs are not vertices
    assert set(rg.resources) == {rid for rid, r in cluster.resources.items() if not r.removed}
    assert cluster.vms and not set(rg.resources) & set(cluster.vms)
    assert rg.resources["vsan-1"].levels[0].kind == "remove"
    assert rg.resources["ceph-1"].levels[0].kind == "add"
    # the new configuration's dependencies exist only in the future
    future_edges = [
        e for e in rg.edges_from("ceph-1") if e.kind == DependencyKind.AGGREGATION
    ]
    assert future_edges and all(e.presence == Presence.FUTURE for e in future_edges)
    current_edges = [
        e for e in rg.edges_from("vsan-1") if e.kind == DependencyKind.AGGREGATION
    ]
    assert current_edges and all(e.presence == Presence.CURRENT for e in current_edges)


def test_every_level_has_unit_and_undo_unit(scenario_fig1):
    _, _, model, rg = build_env(scenario_fig1)
    for res in rg.resources.values():
        for level in res.levels:
            assert level.unit_id
            assert level.set_id in model.sets
            assert level.set_id in res.undo_unit_ids


class TestIterationOutcome:
    def test_retry_exhaustion_isolates(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=3, max_retry=2))
        res = rg.resources["hv1"]
        res.failed_attempts["cs-1"] = 2
        effects = apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert "hv1" in effects.newly_isolated
        assert res.is_isolated and not res.is_failed
        assert res.levels == []  # the set's work is withdrawn

    def test_attempts_below_threshold_keep_level(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=3, max_retry=2))
        rg.resources["hv1"].failed_attempts["cs-1"] = 1
        apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert not rg.resources["hv1"].is_isolated
        assert len(rg.resources["hv1"].levels) == 1

    def test_undo_threshold_breach_undoes_whole_set(self):
        # four targets, at least three must stay operational, two are bad
        scenario = toy_scenario(host_count=4, undo_threshold=3)
        cluster, catalog, model, rg = build_env(scenario)
        for hv in ("hv1", "hv2"):
            rg.resources[hv].is_failed = True
            rg.resources[hv].is_isolated = True
        # hv3 already upgraded: its undo must restore the source version
        cluster.resources["hv3"].installed = {"qemu": "2"}
        rg.resources["hv3"].levels = []
        effects = apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert effects.undo_triggered == ["cs-1"]
        assert model.sets["cs-1"].status == Status.FAILED
        assert model.sets["cs-1"].undo_reason == "threshold"
        undo_level = rg.resources["hv3"].levels[0]
        assert undo_level.is_undo
        install = next(a for a in undo_level.actions if a.kind == ActionKind.INSTALL)
        assert install.params["version"] == "1"
        # untouched member is already at its source version: nothing to do
        assert rg.resources["hv4"].levels == []
        assert "hv4" in model.sets["cs-1"].undone_resources
        # failed members are excluded from the undo
        assert rg.resources["hv1"].levels == []

    def test_no_undo_when_threshold_respected(self):
        scenario = toy_scenario(host_count=4, undo_threshold=3)
        cluster, catalog, model, rg = build_env(scenario)
        rg.resources["hv1"].is_failed = True
        rg.resources["hv1"].is_isolated = True
        effects = apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert effects.undo_triggered == []
        assert model.sets["cs-1"].status != Status.FAILED

    def test_isolated_only_at_undo_version_released(self):
        scenario = toy_scenario(host_count=4, undo_threshold=3)
        cluster, catalog, model, rg = build_env(scenario)
        for hv in ("hv1", "hv2"):
            rg.resources[hv].is_failed = True
            rg.resources[hv].is_isolated = True
        lonely = rg.resources["hv3"]
        lonely.is_isolated = True  # isolated-only, still at the source version
        apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert not lonely.is_isolated
        assert "hv3" in model.sets["cs-1"].undone_resources

    def test_deadline_exceeded_marks_failed_and_injects_undo(self):
        scenario = toy_scenario(host_count=2, max_completion_seconds=600)
        cluster, catalog, model, rg = build_env(scenario)
        cluster.resources["hv1"].installed = {"qemu": "2"}
        rg.resources["hv1"].levels = []
        apply_iteration_outcome(rg, model, cluster, catalog, now=600_001)
        assert model.sets["cs-1"].status == Status.FAILED
        assert model.sets["cs-1"].undo_reason == "deadline"
        assert rg.resources["hv1"].levels[0].is_undo

    def test_admin_undo_flag_applies(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2))
        model.record_admin_undo("cs-1")
        apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        assert model.sets["cs-1"].status == Status.FAILED
        assert model.sets["cs-1"].undo_reason == "admin"

    def test_explicit_undo_version_used(self):
        scenario = toy_scenario(host_count=2, undo_version="0")
        cluster, catalog, model, rg = build_env(scenario)
        model.record_admin_undo("cs-1")
        apply_iteration_outcome(rg, model, cluster, catalog, now=0)
        level = rg.resources["hv1"].levels[0]
        install = next(a for a in level.actions if a.kind == ActionKind.INSTALL)
        assert install.params["version"] == "0"


class TestMergeNewRequests:
    def test_new_levels_append_after_existing(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2))
        second = {
            "id": "req-2",
            "change_sets": [
                {
                    "id": "cs-2",
                    "max_completion_seconds": 100000,
                    "max_retry": 1,
                    "changes": [
                        {"id": "ch-2", "action": "upgrade", "product": "qemu", "version": "0",
                         "targets": ["hv1"], "undo_threshold": 0, "undo_version": "1"}
                    ],
                }
            ],
        }
        model.submit(parse_upgrade_request(second), cluster, catalog)
        sync_graph(rg, cluster, model, catalog)
        levels = rg.resources["hv1"].levels
        assert [lvl.set_id for lvl in levels] == ["cs-1", "cs-2"]
        assert levels[0].unit_id != levels[1].unit_id
        # the appended level is resolved against the first request's target
        install = next(a for a in levels[1].actions if a.kind == ActionKind.INSTALL)
        assert install.params.get("replaces_version") == "2"

    def test_disjoint_request_adds_independent_levels(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2))
        second = {
            "id": "req-2",
            "change_sets": [
                {
                    "id": "cs-2",
                    "max_completion_seconds": 100000,
                    "max_retry": 1,
                    "changes": [
                        {"id": "ch-2", "action": "upgrade", "product": "qemu", "version": "2",
                         "targets": ["hv2"], "undo_threshold": 0}
                    ],
                }
            ],
        }
        # hv2 is already targeted by cs-1; use a disjoint toy instead
        cluster2 = build_cluster(toy_scenario(host_count=3))
        catalog2 = build_catalog(toy_scenario(host_count=3))
        model2 = UpgradeRequestModel()
        first = {
            "id": "req-1",
            "change_sets": [
                {"id": "cs-1", "max_completion_seconds": 100000, "max_retry": 1,
                 "changes": [{"id": "ch-1", "action": "upgrade", "product": "qemu",
                              "version": "2", "targets": ["hv1"], "undo_threshold": 0}]}
            ],
        }
        model2.submit(parse_upgrade_request(first), cluster2, catalog2)
        rg2 = ResourceGraph()
        sync_graph(rg2, cluster2, model2, catalog2)
        model2.submit(parse_upgrade_request(second), cluster2, catalog2)
        sync_graph(rg2, cluster2, model2, catalog2)
        assert len(rg2.resources["hv1"].levels) == 1
        assert len(rg2.resources["hv2"].levels) == 1
        assert rg2.resources["hv2"].levels[0].set_id == "cs-2"

    def test_undo_injection_rederives_following_levels(self):
        cluster, catalog, model, rg = build_env(toy_scenario(host_count=2))
        second = {
            "id": "req-2",
            "change_sets": [
                {"id": "cs-2", "max_completion_seconds": 100000, "max_retry": 1,
                 "changes": [{"id": "ch-2", "action": "upgrade", "product": "qemu",
                              "version": "0", "targets": ["hv1", "hv2"],
                              "undo_threshold": 0, "undo_version": "2"}]}
            ],
        }
        model.submit(parse_upgrade_request(second), cluster, catalog)
        sync_graph(rg, cluster, model, catalog)
        # the appended level assumed the first request would land on "2"
        later = rg.resources["hv1"].levels[1]
        install = next(a for a in later.actions if a.kind == ActionKind.INSTALL)
        assert install.params["replaces_version"] == "2"

        # hv1 already upgraded by cs-1, hv2 untouched
        cluster.resources["hv1"].installed = {"qemu": "2"}
        rg.resources["hv1"].levels = rg.resources["hv1"].levels[1:]
        model.record_admin_undo("cs-1")
        apply_iteration_outcome(rg, model, cluster, catalog, now=0)

        # hv1: the undo level comes first, then the unrelated set's level
        levels = rg.resources["hv1"].levels
        assert [lvl.set_id for lvl in levels] == ["cs-1", "cs-2"]
        assert levels[0].is_undo and not levels[1].is_undo
        # hv2 had nothing applied, so only the later set remains, re-derived
        # against the restored source version
        levels2 = rg.resources["hv2"].levels
        assert [lvl.set_id for lvl in levels2] == ["cs-2"]
        install2 = next(a for a in levels2[0].actions if a.kind == ActionKind.INSTALL)
        assert install2.params["replaces_version"] == "1"


def test_refresh_tracks_cluster_changes():
    cluster, catalog, model, rg = build_env(toy_scenario(host_count=2), submit=False)
    cluster.resources["hv2"].removed = True
    refresh_structure(rg, cluster, catalog)
    assert "hv2" not in rg.resources
