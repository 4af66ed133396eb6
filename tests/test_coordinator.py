import json

from upgradesim.coordinator import Phase
from upgradesim.scenario import build_coordinator, parse_scenario

from conftest import of_kind, ppu_vm_upgrade_json, scenario_json, toy_scenario


def run(scenario, cap_ms=50_000_000, seed=None):
    coordinator = build_coordinator(scenario, seed_override=seed)
    result = coordinator.run(max_sim_time_ms=cap_ms)
    return coordinator, result


class TestBasics:
    def test_three_host_scenario_completes(self):
        coordinator, result = run(toy_scenario(host_count=3))
        assert result.phase == Phase.TERMINATED
        assert result.set_statuses == {"cs-1": "completed"}
        for hv in ("hv1", "hv2", "hv3"):
            assert coordinator.cluster.resources[hv].installed == {"qemu": "2"}

    def test_first_iteration_report_shape(self):
        coordinator, result = run(toy_scenario(host_count=3))
        report = result.reports[0]
        assert report.index == 1
        assert report.initial_batch == ["g:h1", "g:h2", "g:h3"]
        assert report.final_batch == ["g:h1", "g:h2", "g:h3"]
        assert report.budget["window_ms"] == 82_000
        assert report.schedules and report.schedules[0]["outcomes"]
        assert report.phase_after == "running"

    def test_every_action_reported_exactly_once(self):
        coordinator, result = run(toy_scenario(host_count=4))
        counted = {}
        for report in result.reports:
            for block in report.schedules:
                for outcome in block["outcomes"]:
                    key = (outcome["action_id"], outcome["target"], outcome["started_at"])
                    counted[key] = counted.get(key, 0) + 1
        assert counted and all(v == 1 for v in counted.values())
        # the engine log carries the same actions exactly once each
        logged = [
            (r["action_id"], r["target"], r["started_at"])
            for r in of_kind(result.log, "action")
        ]
        assert sorted(logged) == sorted(counted)

    def test_byte_identical_report_streams(self, scenario_a):
        def stream(seed):
            _, result = run(scenario_a, seed=seed)
            return "".join(r.to_json() + "\n" for r in result.reports) + result.log.to_jsonl()

        assert stream(7) == stream(7)


class TestSuspension:
    def test_suspends_then_resumes_on_scale_in(self, scenario_suspension):
        coordinator, result = run(scenario_suspension, cap_ms=100_000_000)
        assert result.phase == Phase.TERMINATED
        assert result.set_statuses == {"cs-hypervisors": "completed"}
        assert result.reports[0].phase_after == "suspended"
        resumed = [r for r in result.reports if r.phase_after == "running"]
        assert resumed and resumed[0].started_at >= 900_000

    def test_scale_out_does_not_wake_a_suspended_coordinator(self):
        tenants = [
            {"id": "T1", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T1.1", "host": "h1"}, {"id": "T1.2", "host": "h2"}]},
            {"id": "T2", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T2.1", "host": "h1"}, {"id": "T2.2", "host": "h2"}]},
        ]
        scenario = toy_scenario(
            host_count=2,
            tenants=tenants,
            events=[{"at_seconds": 50, "kind": "scale-out", "tenant": "T1"}],
        )
        coordinator, result = run(scenario, cap_ms=2_000_000)
        # both hosts full and mutually unevacuable: suspended and stays so
        assert result.phase == Phase.SUSPENDED
        assert all(r.phase_after == "suspended" for r in result.reports)

    def test_check_sizes_the_wave_with_the_vm_upgrade_time(self):
        # a 20,000 s VM upgrade leaves the new side no room for a wave; the
        # check must say so too, not resume into an iteration that does nothing
        scenario = parse_scenario(ppu_vm_upgrade_json(20_000))
        coordinator, result = run(scenario, cap_ms=1_000_000)
        assert len(result.reports) <= 10
        assert result.phase == Phase.SUSPENDED
        assert result.finished_at <= 1_000_000

    def test_migrated_vms_are_upgraded(self):
        coordinator, result = run(parse_scenario(ppu_vm_upgrade_json(60)))
        assert result.phase == Phase.TERMINATED
        assert result.set_statuses == {"cs-storage": "completed"}
        migrated = sorted({e["vm"] for e in of_kind(result.log, "vm-migrated")})
        assert migrated
        assert all(coordinator.cluster.vms[vm].version == "2" for vm in migrated)
        upgraded = sorted((e["vm"], e["version"]) for e in of_kind(result.log, "vm-upgraded"))
        assert upgraded == [(vm, "2") for vm in migrated]


class TestFailureHandling:
    def _scenario(self, host_count, scripted, max_retry=2, undo_threshold=0):
        return toy_scenario(
            host_count=host_count,
            max_retry=max_retry,
            undo_threshold=undo_threshold,
            failures={"seed": 1, "rates": {}, "scripted": scripted},
        )

    def test_single_failure_recovers_and_retries(self):
        scenario = self._scenario(
            3, [{"action_id": "install:qemu-2", "target": "hv1", "occurrence": 1}]
        )
        coordinator, result = run(scenario)
        assert result.set_statuses == {"cs-1": "completed"}
        assert coordinator.cluster.resources["hv1"].installed == {"qemu": "2"}
        recoveries = [
            block for report in result.reports for block in report.schedules
            if block.get("recovery_for") == "hv1"
        ]
        assert recoveries and recoveries[0]["restored"] is True

    def test_retry_exhaustion_isolates_resource(self):
        scripted = [
            {"action_id": "install:qemu-2", "target": "hv1", "occurrence": 1},
            {"action_id": "install:qemu-2", "target": "hv1", "occurrence": 2},
        ]
        coordinator, result = run(self._scenario(4, scripted, max_retry=2))
        # the set completes without hv1; the isolated-only member is then
        # marked failed so it is never used in the target configuration
        assert result.set_statuses == {"cs-1": "completed"}
        res = coordinator.rg.resources["hv1"]
        assert res.is_failed
        assert coordinator.cluster.resources["hv1"].installed == {"qemu": "1"}
        assert coordinator.cluster.resources["hv2"].installed == {"qemu": "2"}

    def test_failed_recovery_marks_resource_failed(self):
        # the final activate fails, so the recovery must reinstall the source
        # version; failing that reinstall leaves the resource failed+isolated
        scripted = [
            {"action_id": "activate:qemu-2", "target": "hv1", "occurrence": 1},
            {"action_id": "install:qemu-1", "target": "hv1", "occurrence": 1},
        ]
        coordinator, result = run(self._scenario(3, scripted))
        res = coordinator.rg.resources["hv1"]
        assert res.is_failed and res.is_isolated
        failed_reports = [r for r in result.reports if "hv1" in r.failed_resources]
        assert failed_reports

    def test_undo_threshold_breach_restores_survivors(self):
        # four targets, three must stay operational; two resources exhaust
        # retries, so the whole set is undone
        scripted = []
        for hv in ("hv1", "hv2"):
            for occurrence in (1, 2):
                scripted.append(
                    {"action_id": "install:qemu-2", "target": hv, "occurrence": occurrence}
                )
        coordinator, result = run(self._scenario(4, scripted, max_retry=2, undo_threshold=3))
        assert result.set_statuses == {"cs-1": "failed"}
        for hv in ("hv3", "hv4"):
            assert coordinator.cluster.resources[hv].installed == {"qemu": "1"}

    def test_change_set_independence(self):
        data = scenario_json(toy_scenario(host_count=4, max_retry=2))
        request = data["events"][0]["request"]
        request["change_sets"] = [
            {
                "id": "cs-a", "max_completion_seconds": 100000, "max_retry": 2,
                "changes": [{"id": "ch-a", "action": "upgrade", "product": "qemu",
                             "version": "2", "targets": ["hv1", "hv2"], "undo_threshold": 2}],
            },
            {
                "id": "cs-b", "max_completion_seconds": 100000, "max_retry": 2,
                "changes": [{"id": "ch-b", "action": "upgrade", "product": "qemu",
                             "version": "2", "targets": ["hv3", "hv4"], "undo_threshold": 0}],
            },
        ]
        data["failures"]["scripted"] = [
            {"action_id": "install:qemu-2", "target": "hv1", "occurrence": 1},
            {"action_id": "install:qemu-2", "target": "hv1", "occurrence": 2},
        ]
        coordinator, result = run(parse_scenario(data))
        assert result.set_statuses["cs-a"] == "failed"
        assert result.set_statuses["cs-b"] == "completed"
        assert coordinator.cluster.resources["hv3"].installed == {"qemu": "2"}
        assert coordinator.cluster.resources["hv4"].installed == {"qemu": "2"}
        # the undone set's survivor is back at the source version
        assert coordinator.cluster.resources["hv2"].installed == {"qemu": "1"}


class TestClusterEvents:
    def test_host_failure_during_upgrade_covered_by_reservation(self):
        tenants = [
            {"id": "T1", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T1.1", "host": "h1"}]},
            {"id": "T2", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T2.1", "host": "h2"}]},
        ]
        scenario = toy_scenario(
            host_count=5,
            tenants=tenants,
            events=[{"at_seconds": 20, "kind": "host-failure", "host": "h1"}],
            policies={"tolerated_host_failures": 1, "dedicated_upgrade_hosts": 0},
        )
        coordinator, result = run(scenario)
        assert result.phase == Phase.TERMINATED
        assert not of_kind(result.log, "vm-stranded")
        failover = of_kind(result.log, "vm-failover")
        assert failover and failover[0]["vm"] == "T1.1"
        outage = [r for r in of_kind(result.log, "vm-outage") if r["cause"] == "host-failure"]
        assert outage and outage[0]["end"] - outage[0]["start"] == 10_000

    def test_event_log_timestamps_non_decreasing(self, scenario_ppu):
        _, result = run(scenario_ppu)
        stamps = [
            int(__import__("json").loads(line)["at"])
            for line in result.log.to_jsonl().splitlines()
        ]
        assert stamps == sorted(stamps)


class TestAdministratorFlows:
    def test_admin_undo_mid_run(self):
        # issued while the first iteration's schedule is executing: it beats
        # completion and every member is taken back to its source version
        scenario = toy_scenario(
            host_count=6,
            events=[{"at_seconds": 10, "kind": "admin-undo", "set": "cs-1"}],
        )
        coordinator, result = run(scenario)
        assert result.set_statuses == {"cs-1": "failed"}
        for i in range(1, 7):
            assert coordinator.cluster.resources[f"hv{i}"].installed == {"qemu": "1"}

    def test_admin_undo_after_completion_is_refused(self):
        scenario = toy_scenario(
            host_count=2,
            events=[{"at_seconds": 500, "kind": "admin-undo", "set": "cs-1"}],
        )
        coordinator, result = run(scenario)
        assert result.set_statuses == {"cs-1": "completed"}
        assert coordinator.cluster.resources["hv1"].installed == {"qemu": "2"}

    def test_deadline_exceeded_undoes_set(self):
        # tenants throttle the pace so the work cannot finish inside the
        # completion period; the next iteration start triggers the undo
        tenants = [
            {"id": "T1", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T1.1", "host": "h1"}, {"id": "T1.2", "host": "h2"}]},
            {"id": "T2", "min_vms": 1, "max_vms": 4, "scaling_adjustment": 1,
             "cooldown_seconds": 600,
             "vms": [{"id": "T2.1", "host": "h1"}, {"id": "T2.2", "host": "h2"}]},
        ]
        scenario = toy_scenario(host_count=4, tenants=tenants, max_completion_seconds=60)
        coordinator, result = run(scenario)
        assert result.set_statuses == {"cs-1": "failed"}
        assert any(r.failed_undo_units == ["cs-1"] for r in result.reports)
        # everything restored to the source version afterwards
        for i in range(1, 5):
            assert coordinator.cluster.resources[f"hv{i}"].installed == {"qemu": "1"}

    def test_new_request_during_run_is_absorbed(self):
        second = {
            "at_seconds": 30,
            "kind": "upgrade-request",
            "request": {
                "id": "req-2",
                "change_sets": [
                    {"id": "cs-2", "max_completion_seconds": 100000, "max_retry": 1,
                     "changes": [{"id": "ch-2", "action": "upgrade", "product": "qemu",
                                  "version": "0", "targets": ["hv1"], "undo_threshold": 0,
                                  "undo_version": "2"}]}
                ],
            },
        }
        coordinator, result = run(toy_scenario(host_count=2, events=[second]))
        assert result.set_statuses == {"cs-1": "completed", "cs-2": "completed"}
        # the later request ran after the pending one on the shared resource
        assert coordinator.cluster.resources["hv1"].installed == {"qemu": "0"}
        assert coordinator.cluster.resources["hv2"].installed == {"qemu": "2"}
