"""Batch command-line front end: load a scenario, run it, write artifacts."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from upgradesim import metrics as metrics_mod
from upgradesim.actions import seconds_to_ms
from upgradesim.coordinator import Phase
from upgradesim.errors import EvacuationInfeasibleError, UpgradeSimError
from upgradesim.rolling import RollingBaselineConfig, RollingBaselineResult, run_rolling_baseline
from upgradesim.scenario import (
    build_cluster,
    build_coordinator,
    build_timing,
    load_scenario,
)

EXIT_OK = 0
EXIT_CHANGE_SET_FAILED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64 on usage problems
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _batch_size(text: str) -> int:
    """``--batch-size``: a positive integer."""
    text = text.strip()
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"batch size {text!r} is not a positive integer")
    return int(text)


def _batch_sizes(text: str) -> list[int]:
    """``--batch-sizes``: comma-separated positive integers."""
    return [_batch_size(part) for part in text.split(",") if part.strip()]


def _sim_seconds(text: str) -> float:
    """``--max-sim-time``: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"max sim time {text!r} is not a positive finite number")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="upgradesim", description=__doc__)
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument(
        "--mode",
        choices=["coordinator", "rolling", "compare"],
        default="coordinator",
    )
    parser.add_argument("--batch-size", type=_batch_size, default=None, help="rolling batch size")
    parser.add_argument(
        "--batch-sizes",
        type=_batch_sizes,
        default="1,2,3,4",
        help="comma-separated rolling batch sizes for compare mode",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the failure-model seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--max-sim-time",
        type=_sim_seconds,
        default=None,
        help="simulated-time cap in seconds (positive)",
    )
    parser.add_argument(
        "--order-policy",
        choices=["auto", "enumerate-all", "sample-n", "fixed-order"],
        default="auto",
    )
    return parser


# argparse keeps no state between parse_args calls: each returns a new
# namespace, and string defaults are converted afresh
_PARSER = make_parser()


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def _run_coordinator(scenario, args, out: Path):
    """Run the coordinator and write ``reports.jsonl`` and ``events.jsonl``.

    Returns the result, the sorted tenant ids, the penalty report and the
    exit code: OK only when the run terminated with every set completed.
    """
    coordinator = build_coordinator(scenario, seed_override=args.seed)
    cap = seconds_to_ms(args.max_sim_time) if args.max_sim_time is not None else None
    result = coordinator.run(max_sim_time_ms=cap)
    _write(out / "reports.jsonl", "".join(r.to_json() + "\n" for r in result.reports))
    _write(out / "events.jsonl", result.log.to_jsonl())
    tenants = sorted(coordinator.cluster.tenants)
    violations = metrics_mod.compute_sla_violations(result.log, tenants)
    report = metrics_mod.penalty_report(violations, tenants)
    completed = result.phase == Phase.TERMINATED and result.all_completed()
    return result, tenants, report, EXIT_OK if completed else EXIT_CHANGE_SET_FAILED


def run_coordinator_mode(scenario, args, out: Path) -> int:
    result, tenants, report, code = _run_coordinator(scenario, args, out)
    summary = {
        "scenario": scenario.name,
        "mode": "coordinator",
        "phase": result.phase.value,
        "duration_s": result.duration_ms / 1000,
        "iterations": len(result.reports),
        "set_statuses": result.set_statuses,
        "application_outage_s": {
            t: v / 1000
            for t, v in metrics_mod.compute_application_outage(result.log, tenants).items()
        },
        "per_vm_outage_s": {
            vm: v / 1000 for vm, v in metrics_mod.per_vm_outage_totals(result.log).items()
        },
        "avg_total_violation_s": report.average_total_duration_s,
        "penalty_q": report.average_penalty_q,
    }
    _write(out / "metrics.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code


def _rolling_config(args, batch_size: int) -> RollingBaselineConfig:
    return RollingBaselineConfig(
        batch_size=batch_size,
        order_policy=args.order_policy,
        seed=args.seed if args.seed is not None else 0,
    )


def _rolling_row(result: RollingBaselineResult) -> metrics_mod.ComparisonRow:
    return metrics_mod.comparison_row(
        f"rolling-batch-{result.config.batch_size}",
        result.average_duration_s,
        result.penalty_reports(),
    )


def run_rolling_mode(scenario, args, out: Path) -> int:
    result = run_rolling_baseline(
        build_cluster(scenario), _rolling_config(args, args.batch_size), build_timing(scenario)
    )
    row = _rolling_row(result)
    summary = {
        "scenario": scenario.name,
        "mode": "rolling",
        "batch_size": args.batch_size,
        "orderings": len(result.runs),
        "infeasible_orderings": result.infeasible_orderings,
        "avg_duration_s": result.average_duration_s,
        "avg_evacuation_rounds": result.average_evacuation_rounds,
        "avg_vm_migrations": result.average_vm_migrations,
        "row": row.as_dict(),
    }
    _write(out / "metrics.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _write(out / "comparison.csv", metrics_mod.comparison_csv([row]))
    return EXIT_OK


def run_compare_mode(scenario, args, out: Path) -> int:
    result, _, report, code = _run_coordinator(scenario, args, out)
    rows = [metrics_mod.comparison_row("coordinator", result.duration_ms / 1000, [report])]
    cluster = build_cluster(scenario)
    timing = build_timing(scenario)
    infeasible = []
    for batch_size in args.batch_sizes:
        config = _rolling_config(args, batch_size)
        # no name holds the baseline, so its runs are freed once its row is
        # built, before the next batch size runs
        try:
            rows.append(_rolling_row(run_rolling_baseline(cluster, config, timing)))
        except EvacuationInfeasibleError as exc:
            sys.stderr.write(f"warning: rolling batch size {batch_size} skipped: {exc}\n")
            infeasible.append(batch_size)
    summary = {"scenario": scenario.name, "mode": "compare", "rows": [r.as_dict() for r in rows]}
    if infeasible:
        summary["infeasible_batch_sizes"] = infeasible
    _write(out / "comparison.csv", metrics_mod.comparison_csv(rows))
    _write(out / "metrics.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.mode == "rolling" and args.batch_size is None:
        sys.stderr.write("error: --mode rolling requires --batch-size\n")
        return EXIT_USAGE
    try:
        scenario = load_scenario(args.scenario)
        out = Path(args.out)
        if args.mode == "coordinator":
            return run_coordinator_mode(scenario, args, out)
        if args.mode == "rolling":
            return run_rolling_mode(scenario, args, out)
        return run_compare_mode(scenario, args, out)
    except UpgradeSimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHANGE_SET_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
