import json

import pytest

from upgradesim import cli
from upgradesim.cli import EXIT_CHANGE_SET_FAILED, EXIT_OK, EXIT_USAGE, main
from upgradesim.errors import ScenarioError
from upgradesim.scenario import load_scenario, parse_scenario

from conftest import SCENARIO_DIR, ppu_vm_upgrade_json, scenario_json, toy_scenario


class TestLoading:
    def test_bundled_scenario_a_contents(self, scenario_a):
        tenants = scenario_a.data["tenants"]
        assert [t["id"] for t in tenants] == ["T1", "T2", "T3", "T4"]
        assert [len(t["vms"]) for t in tenants] == [2, 3, 3, 1]
        assert [t["min_vms"] for t in tenants] == [2, 3, 2, 1]
        assert [t["max_vms"] for t in tenants] == [6, 7, 5, 4]
        assert len(scenario_a.data["cluster"]["hosts"]) == 10

    def test_timing_defaults_applied(self):
        scenario = toy_scenario()
        assert scenario.data["timing"] == {
            "migration_seconds": 23.0,
            "migration_outage_seconds": 0.6,
            "iteration_overhead_seconds": 0.23,
            "failover_restart_seconds": 10.0,
        }

    def test_missing_field_names_the_path(self):
        data = scenario_json(toy_scenario())
        del data["tenants"]
        data["tenants"] = [{"id": "T1", "min_vms": 1, "max_vms": 2, "scaling_adjustment": 1}]
        with pytest.raises(ScenarioError, match=r"tenants\[0\].cooldown_seconds"):
            parse_scenario(data)

    def test_unknown_host_in_event_rejected(self):
        data = scenario_json(toy_scenario())
        data["events"].append({"at_seconds": 5, "kind": "host-failure", "host": "ghost"})
        with pytest.raises(ScenarioError, match="ghost"):
            parse_scenario(data)

    def test_unknown_tenant_in_event_rejected(self):
        data = scenario_json(toy_scenario())
        data["events"].append({"at_seconds": 5, "kind": "scale-out", "tenant": "ghost"})
        with pytest.raises(ScenarioError, match="ghost"):
            parse_scenario(data)

    def test_admin_undo_must_reference_known_set(self):
        data = scenario_json(toy_scenario())
        data["events"].append({"at_seconds": 5, "kind": "admin-undo", "set": "nope"})
        with pytest.raises(ScenarioError, match="nope"):
            parse_scenario(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="no such file"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_round_trip(self, scenario_a, scenario_ppu, tmp_path):
        for i, scenario in enumerate((scenario_a, scenario_ppu)):
            path = tmp_path / f"rt{i}.json"
            path.write_text(scenario.to_json())
            assert load_scenario(path) == scenario


class TestCli:
    def test_coordinator_mode_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
            "--mode", "coordinator", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "reports.jsonl").exists()
        assert (out / "events.jsonl").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["phase"] == "terminated"
        assert metrics["penalty_q"] == 1.35

    def test_rolling_requires_batch_size(self, tmp_path):
        code = main([
            "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
            "--mode", "rolling", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE

    def test_rolling_mode_row(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
            "--mode", "rolling", "--batch-size", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["batch_size"] == 2
        assert (out / "comparison.csv").read_text().count("\n") == 2

    def test_compare_mode_emits_five_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
            "--mode", "compare", "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + coordinator + four batch sizes
        assert lines[1].startswith("coordinator,")

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["--mode", "coordinator"]) == EXIT_USAGE

    def test_missing_scenario_is_reported(self, tmp_path):
        code = main(["--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_CHANGE_SET_FAILED

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
                "--mode", "coordinator", "--seed", "11", "--out", str(out),
            ])
            outs.append(
                (out / "reports.jsonl").read_bytes()
                + (out / "events.jsonl").read_bytes()
                + (out / "metrics.json").read_bytes()
            )
        assert outs[0] == outs[1]


# comparison.csv of `--mode compare --seed 7`, as written before the rolling
# baseline moved off cloned clusters; the rows must not change
PINNED_COMPARE_SEED_7 = {
    "table1-scenario-a.json": """\
method,total_duration_s,violations_min,violations_max,impacted_min,impacted_max,avg_total_violation_s,penalty_q
coordinator,233.92,1.0,3.0,1,1,1.35,1.35
rolling-batch-1,548.0,1.12,3.38,1,1,1.5,1.5
rolling-batch-2,308.62,1.21,3.17,1,2,1.45,2.0
rolling-batch-3,247.6,1.28,2.94,1,3,1.38,2.55
rolling-batch-4,191.77,1.37,2.71,1,3,1.32,3.15
""",
    "table1-scenario-b.json": """\
method,total_duration_s,violations_min,violations_max,impacted_min,impacted_max,avg_total_violation_s,penalty_q
coordinator,238.69,3.0,5.0,1,1,2.25,2.25
rolling-batch-1,594.0,3.23,5.59,1,1,2.48,2.48
rolling-batch-2,316.67,3.01,4.44,1,2,2.17,3.82
rolling-batch-3,251.86,2.83,3.62,1,3,1.9,5.31
rolling-batch-4,192.0,2.58,2.98,1,4,1.66,7.13
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_COMPARE_SEED_7))
def test_table1_compare_rows_are_pinned(name, tmp_path):
    out = tmp_path / "out"
    code = main(["--scenario", str(SCENARIO_DIR / name), "--mode", "compare",
                 "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "comparison.csv").read_text() == PINNED_COMPARE_SEED_7[name]
    assert "infeasible_batch_sizes" not in json.loads((out / "metrics.json").read_text())


@pytest.mark.parametrize(
    "name, infeasible",
    [("ppu-storage.json", [2, 3, 4]), ("suspension.json", [1, 2, 3, 4])],
)
def test_compare_mode_skips_infeasible_batch_sizes(name, infeasible, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--scenario", str(SCENARIO_DIR / name), "--mode", "compare",
                 "--out", str(out)])
    assert code == EXIT_OK  # the coordinator completes on both
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "events.jsonl", "metrics.json", "reports.jsonl",
    ]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["infeasible_batch_sizes"] == infeasible
    methods = [row["method"] for row in metrics["rows"]]
    assert methods == ["coordinator"] + [
        f"rolling-batch-{b}" for b in (1, 2, 3, 4) if b not in infeasible
    ]
    assert (out / "comparison.csv").read_text().count("\n") == 1 + len(methods)
    err = capsys.readouterr().err
    assert all(f"rolling batch size {b} skipped" in err for b in infeasible)


def test_rolling_mode_still_fails_when_every_ordering_is_infeasible(tmp_path):
    code = main(["--scenario", str(SCENARIO_DIR / "suspension.json"), "--mode", "rolling",
                 "--batch-size", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_CHANGE_SET_FAILED


@pytest.mark.parametrize(
    "mode, flag, sizes",
    [pytest.param("compare", "--batch-sizes", sizes, id=sizes) for sizes in ("1,x", "2,0", "1,-3")]
    + [pytest.param("rolling", "--batch-size", size, id=f"batch-size={size}")
       for size in ("0", "-2", "x")],
)
def test_bad_batch_sizes_are_usage_errors(mode, flag, sizes, tmp_path, capsys):
    bad = sizes.split(",")[-1]
    code = main(["--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
                 "--mode", mode, flag, sizes, "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"batch size {bad!r}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_rolling_mode_counts_infeasible_orderings(tmp_path):
    # h1 holds groups a and b, h3 another b: two of the six orderings strand a VM
    vms = [{"id": "T1.0", "host": "h1", "group": "a"}, {"id": "T1.1", "host": "h1", "group": "b"},
           {"id": "T1.2", "host": "h2", "group": "c"}, {"id": "T1.3", "host": "h3", "group": "b"}]
    tenants = [{"id": "T1", "min_vms": 1, "max_vms": 8, "scaling_adjustment": 1,
                "cooldown_seconds": 600, "vms": vms}]
    path = tmp_path / "partial.json"
    path.write_text(toy_scenario(host_count=3, capacity=2, tenants=tenants).to_json())
    code = main(["--scenario", str(path), "--mode", "rolling", "--batch-size", "1",
                 "--order-policy", "enumerate-all", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert (metrics["orderings"], metrics["infeasible_orderings"]) == (6, 2)


@pytest.mark.parametrize(
    "spec, path",
    [({}, "$.vm_upgrade.product"),
     ({"product": "image", "version": 2, "duration_seconds": 5}, "$.vm_upgrade.version"),
     ({"product": "image", "version": "2", "duration_seconds": "x"},
      "$.vm_upgrade.duration_seconds"),
     ({"product": "image", "version": "2", "duration_seconds": 0},
      "$.vm_upgrade.duration_seconds")],
)
def test_bad_vm_upgrade_names_the_path(spec, path, tmp_path, capsys):
    data = ppu_vm_upgrade_json(60)
    data["vm_upgrade"] = spec
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    code = main(["--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHANGE_SET_FAILED
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["x", -5, float("nan")], ids=["x", "-5", "nan"])
def test_bad_timing_names_the_path(value, tmp_path, capsys):
    data = json.loads(toy_scenario().to_json())
    data["timing"] = {"migration_seconds": value}
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(data))
    code = main(["--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHANGE_SET_FAILED
    err = capsys.readouterr().err
    assert "$.timing.migration_seconds" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-5", "x"])
def test_bad_max_sim_time_is_a_usage_error(value, tmp_path, capsys):
    code = main(["--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
                 "--max-sim-time", value, "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"max sim time {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_max_sim_time_caps_a_suspended_run(tmp_path):
    # suspended until the change set's deadline, far past the cap: the run
    # sleeps only up to the cap and stops there
    scenario = tmp_path / "vm-upgrade.json"
    scenario.write_text(json.dumps(ppu_vm_upgrade_json(20_000)))
    out = tmp_path / "out"
    code = main(["--scenario", str(scenario), "--max-sim-time", "1000", "--out", str(out)])
    assert code == EXIT_CHANGE_SET_FAILED
    metrics = json.loads((out / "metrics.json").read_text())
    assert (metrics["phase"], metrics["duration_s"]) == ("suspended", 1000.0)


def test_vm_upgrade_completes_the_migration(tmp_path):
    scenario = tmp_path / "vm-upgrade.json"
    scenario.write_text(json.dumps(ppu_vm_upgrade_json(60)))
    out = tmp_path / "out"
    assert main(["--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "metrics.json").read_text())["duration_s"] == 387.38


@pytest.mark.parametrize("target", ["nope", "T1.1"])
def test_change_target_naming_no_resource_exits_2(target, tmp_path, capsys):
    # a VM is not a resource a change can target
    tenants = [{"id": "T1", "min_vms": 1, "max_vms": 2, "scaling_adjustment": 1,
                "cooldown_seconds": 600, "vms": [{"id": "T1.1", "host": "h1"}]}]
    data = scenario_json(toy_scenario(host_count=2, tenants=tenants))
    change = data["events"][0]["request"]["change_sets"][0]["changes"][0]
    del change["selector"]
    change["targets"] = ["hv1", target]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHANGE_SET_FAILED
    err = capsys.readouterr().err
    assert err == f"error: change 'ch-qemu': target {target!r} names no resource\n"


def test_add_with_several_targets_and_no_new_resource_exits_2(tmp_path, capsys):
    # an add creates one placeholder resource, so it must say which target is new
    data = scenario_json(toy_scenario(host_count=2))
    change = data["events"][0]["request"]["change_sets"][0]["changes"][0]
    del change["selector"]
    change.update(action="add", targets=["hvx", "hvy"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code = main(["--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CHANGE_SET_FAILED
    err = capsys.readouterr().err
    assert err == "error: change 'ch-qemu': add with several targets requires new_resource_id\n"


def test_calls_in_one_process_share_no_parsed_state(tmp_path, monkeypatch):
    # the parser is built once per process, not per call; each call's
    # flags, and the defaults of those it leaves out, are its own
    monkeypatch.setattr(cli, "make_parser", None)
    scenario = str(SCENARIO_DIR / "table1-scenario-a.json")
    runs = [
        ["--mode", "compare", "--batch-sizes", "1", "--seed", "3"],
        [],
        ["--mode", "compare"],
    ]
    summaries = []
    for i, flags in enumerate(runs):
        out = tmp_path / str(i)
        assert main(["--scenario", scenario, "--out", str(out)] + flags) == EXIT_OK
        summaries.append(json.loads((out / "metrics.json").read_text()))
    first, defaults, compare = summaries
    assert [r["method"] for r in first["rows"]] == ["coordinator", "rolling-batch-1"]
    assert defaults["mode"] == "coordinator"
    assert not (tmp_path / "1" / "comparison.csv").exists()
    assert [r["method"] for r in compare["rows"]] == [
        "coordinator", *(f"rolling-batch-{b}" for b in (1, 2, 3, 4)),
    ]
