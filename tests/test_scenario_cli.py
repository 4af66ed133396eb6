import json
import runpy
import sys

import pytest

from upgradesim.cli import EXIT_CHANGE_SET_FAILED, EXIT_OK, EXIT_USAGE, main
from upgradesim.errors import ScenarioError
from upgradesim.scenario import load_scenario, parse_scenario

from conftest import SCENARIO_DIR, scenario_json, toy_scenario


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


def test_comparison_script_prints_the_cli_compare_rows(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(SCENARIO_DIR.parent / "scripts" / "run_comparison.py"))
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--out", str(tmp_path / "script")])
    assert script["main"]() == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    cli_out = tmp_path / "cli"
    assert main([
        "--scenario", str(SCENARIO_DIR / "table1-scenario-a.json"),
        "--mode", "compare", "--out", str(cli_out),
    ]) == EXIT_OK
    rows = (cli_out / "comparison.csv").read_text().splitlines()
    start = printed.index("== table1-scenario-a") + 1
    assert [line.split() for line in printed[start : start + len(rows)]] == [
        row.split(",") for row in rows
    ]
