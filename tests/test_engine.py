import pytest

from upgradesim.actions import ActionKind, Lane, ResolvedAction, RuntimeUpgradeSchedule, TimedAction
from upgradesim.cluster import ClusterState, SimResource, TenantSLA, VmState
from upgradesim.engine import Engine, FailureModel, ScenarioEvent, ScriptedFailure
from upgradesim.errors import UnknownHostError, UnknownResourceError, UnknownTenantError
from upgradesim.planner import TimingConstants


def small_cluster(hosts=3, k=2):
    cluster = ClusterState()
    for i in range(hosts):
        hid = f"h{i+1}"
        cluster.add_resource(SimResource(
            resource_id=hid, kind="compute-host", roles=frozenset({"compute"}),
            capacity=k, capacity_after_upgrade=k,
        ))
        cluster.add_resource(SimResource(
            resource_id=f"hv{i+1}", kind="hypervisor",
            installed={"qemu": "1"}, primary_product="qemu",
            container=hid, initial_primary_version="1",
        ))
    return cluster


def engine_for(cluster, events=(), failures=None, timing=None):
    return Engine(
        cluster,
        list(events),
        failures or FailureModel(seed=0),
        timing or TimingConstants(),
    )


def install_action(target, version="2", duration=41_000):
    return ResolvedAction(
        action_id=f"install:qemu-{version}",
        kind=ActionKind.INSTALL,
        target=target,
        duration_ms=duration,
        params={"product": "qemu", "version": version, "replaces_product": "qemu",
                "replaces_version": "1"},
    )


def migrate_action(vm, src, dst, duration=23_000, outage=600):
    return ResolvedAction(
        action_id=f"migrate:{vm}",
        kind=ActionKind.MIGRATE_VM,
        target=vm,
        duration_ms=duration,
        params={"vm": vm, "from_host": src, "to_host": dst, "tenant": "T1",
                "group": "g1", "outage_ms": outage},
    )


def one_lane(lane_id, *actions, target=None):
    steps = []
    cursor = 0
    for action in actions:
        steps.append(TimedAction(cursor, action))
        cursor += action.duration_ms
    return Lane(lane_id=lane_id, targets=(target or actions[0].target,), steps=tuple(steps))


class TestExecuteSchedule:
    def test_parallel_lanes_end_together(self):
        cluster = small_cluster()
        engine = engine_for(cluster)
        schedule = RuntimeUpgradeSchedule(
            schedule_id="s", issued_at=0,
            lanes=(
                one_lane("l1", install_action("hv1")),
                one_lane("l2", install_action("hv2")),
            ),
        )
        outcomes = engine.execute_schedule(schedule)
        assert [o.ended_at for o in outcomes] == [41_000, 41_000]
        assert cluster.clock == 41_000
        assert cluster.resources["hv1"].installed["qemu"] == "2"

    def test_lane_halts_at_first_failure(self):
        cluster = small_cluster()
        failures = FailureModel(seed=0, scripted=[ScriptedFailure(target="hv1", occurrence=1)])
        engine = engine_for(cluster, failures=failures)
        a1 = install_action("hv1")
        a2 = ResolvedAction("activate:qemu-2", ActionKind.ACTIVATE, "hv1", 0)
        schedule = RuntimeUpgradeSchedule(
            "s", 0, (Lane("l1", ("hv1",), (TimedAction(0, a1), TimedAction(41_000, a2))),)
        )
        outcomes = engine.execute_schedule(schedule)
        assert len(outcomes) == 1  # later actions unreported
        assert not outcomes[0].success
        assert cluster.resources["hv1"].installed["qemu"] == "1"

    def test_migration_outage_window_is_exactly_600ms(self):
        cluster = small_cluster()
        cluster.tenants["T1"] = TenantSLA("T1", 1, 4, 1, 600_000, committed=1)
        cluster.add_vm(VmState("T1.1", "T1", "g1", "h1"))
        engine = engine_for(cluster)
        schedule = RuntimeUpgradeSchedule(
            "s", 0, (one_lane("l1", migrate_action("T1.1", "h1", "h2")),)
        )
        engine.execute_schedule(schedule)
        outage = engine.log.of_kind("vm-outage")[0]
        assert outage["end"] - outage["start"] == 600
        assert outage["end"] == 23_000
        assert cluster.vms["T1.1"].host == "h2"

    def test_unknown_resource_rejected(self):
        engine = engine_for(small_cluster())
        schedule = RuntimeUpgradeSchedule("s", 0, (one_lane("l1", install_action("ghost")),))
        with pytest.raises(UnknownResourceError):
            engine.execute_schedule(schedule)


class TestScaling:
    def _tenant_cluster(self):
        cluster = small_cluster(hosts=3)
        cluster.tenants["T1"] = TenantSLA("T1", 1, 3, 1, 120_000, committed=2)
        cluster.add_vm(VmState("T1.1", "T1", "g1", "h1"))
        cluster.add_vm(VmState("T1.2", "T1", "g1", "h2"))
        return cluster

    def test_scale_out_at_max_is_clamped(self):
        cluster = self._tenant_cluster()
        cluster.tenants["T1"].max_vms = 2
        engine = engine_for(cluster)
        engine.apply_scaling(ScenarioEvent(0, "scale-out", {"tenant": "T1"}))
        assert engine.log.of_kind("scale-out")[0]["clamped"] is True
        assert len(cluster.vms) == 2

    def test_scale_out_within_cooldown_deferred_to_expiry(self):
        cluster = self._tenant_cluster()
        engine = engine_for(cluster)
        engine.apply_scaling(ScenarioEvent(0, "scale-out", {"tenant": "T1"}))
        assert len(cluster.vms) == 3
        engine.apply_scaling(ScenarioEvent(40_000, "scale-out", {"tenant": "T1"}))
        deferred = engine.log.of_kind("scaling-deferred")
        assert deferred and deferred[0]["until"] == 120_000
        engine.advance_to(120_000)
        assert engine.log.of_kind("scale-out")[-1]["at"] == 120_000

    def test_scale_out_respects_anti_affinity(self):
        cluster = self._tenant_cluster()
        engine = engine_for(cluster)
        engine.apply_scaling(ScenarioEvent(0, "scale-out", {"tenant": "T1"}))
        new_vm = next(v for v in cluster.vms.values() if v.vm_id.startswith("T1.s"))
        assert new_vm.host == "h3"  # h1/h2 already hold the group

    def test_scale_in_prefers_emptiest_host(self):
        cluster = self._tenant_cluster()
        cluster.tenants["T2"] = TenantSLA("T2", 0, 2, 1, 120_000, committed=1)
        cluster.add_vm(VmState("T2.1", "T2", "g1", "h1"))
        engine = engine_for(cluster)
        engine.apply_scaling(ScenarioEvent(0, "scale-in", {"tenant": "T1"}))
        assert "T1.2" not in cluster.vms  # h2 held one VM, h1 held two
        assert cluster.tenants["T1"].committed == 1

    def test_unknown_tenant(self):
        engine = engine_for(small_cluster())
        with pytest.raises(UnknownTenantError):
            engine.apply_scaling(ScenarioEvent(0, "scale-out", {"tenant": "nope"}))


class TestHostFailure:
    def test_vm_relocated_with_bounded_outage(self):
        cluster = small_cluster()
        cluster.tenants["T1"] = TenantSLA("T1", 1, 3, 1, 600_000, committed=1)
        cluster.add_vm(VmState("T1.1", "T1", "g1", "h1"))
        engine = engine_for(cluster)
        cluster.clock = 5_000
        engine.inject_host_failure("h1")
        assert not cluster.resources["h1"].up
        assert cluster.vms["T1.1"].host in ("h2", "h3")
        outage = engine.log.of_kind("vm-outage")[0]
        assert outage["cause"] == "host-failure"
        assert outage["end"] - outage["start"] == 10_000

    def test_empty_host_failure_only_shrinks_capacity(self):
        cluster = small_cluster()
        engine = engine_for(cluster)
        engine.inject_host_failure("h3")
        assert not cluster.resources["h3"].up
        assert engine.log.of_kind("vm-outage") == []

    def test_unknown_host(self):
        engine = engine_for(small_cluster())
        with pytest.raises(UnknownHostError):
            engine.inject_host_failure("nope")

    def test_fail_over_without_outage_record_strands_what_finds_no_room(self):
        # the coordinator's isolation of a host: failover at the current
        # instant, no outage record; a VM with no host left is stranded
        cluster = small_cluster(hosts=2, k=1)
        cluster.tenants["T1"] = TenantSLA("T1", 1, 3, 1, 600_000, committed=2)
        cluster.add_vm(VmState("T1.1", "T1", "g1", "h1"))
        cluster.add_vm(VmState("T1.2", "T1", "g2", "h1"))
        engine = engine_for(cluster)
        cluster.clock = 7_000
        cluster.resources["h1"].active = False
        engine.fail_over(cluster.vms_on("h1"), cluster.clock, record_outage=False)
        failover = engine.log.of_kind("vm-failover")
        assert [(r["vm"], r["to_host"], r["at"]) for r in failover] == [("T1.1", "h2", 7_000)]
        assert [r["vm"] for r in engine.log.of_kind("vm-stranded")] == ["T1.2"]
        assert engine.log.of_kind("vm-outage") == []
        assert [v.vm_id for v in cluster.vms_on("h2")] == ["T1.1"]
        assert cluster.vms_on("h1") == [] and cluster.vms["T1.2"].host is None


class TestDeterminism:
    def _run(self, seed):
        cluster = small_cluster()
        cluster.tenants["T1"] = TenantSLA("T1", 1, 4, 2, 60_000, committed=1)
        cluster.add_vm(VmState("T1.1", "T1", "g1", "h1"))
        events = [
            ScenarioEvent(5_000, "scale-out", {"tenant": "T1"}),
            ScenarioEvent(70_000, "scale-out", {"tenant": "T1"}),
        ]
        failures = FailureModel(seed=seed, rates={"install": 0.5})
        engine = engine_for(cluster, events=events, failures=failures)
        schedule = RuntimeUpgradeSchedule(
            "s", 0,
            (one_lane("l1", install_action("hv1")), one_lane("l2", install_action("hv2"))),
        )
        engine.execute_schedule(schedule)
        engine.advance_to(200_000)
        return engine.log.to_jsonl()

    def test_same_seed_same_log(self):
        assert self._run(42) == self._run(42)

    def test_seed_changes_failure_pattern(self):
        logs = {self._run(seed) for seed in range(8)}
        assert len(logs) > 1


class TestScriptedFailures:
    def test_occurrence_counting(self):
        model = FailureModel(seed=0, scripted=[ScriptedFailure(kind="install", occurrence=2)])
        a = install_action("hv1")
        assert model.succeeds(a) is True
        assert model.succeeds(a) is False
        assert model.succeeds(a) is True

    def test_target_matcher(self):
        model = FailureModel(seed=0, scripted=[ScriptedFailure(target="hv2", occurrence=1)])
        assert model.succeeds(install_action("hv1")) is True
        assert model.succeeds(install_action("hv2")) is False
