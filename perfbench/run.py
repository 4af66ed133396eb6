"""The upgradesim benchmark: one closed-loop client, one scenario at a time.

    python3 perfbench/run.py --workload fleet-hv --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout; it imports upgradesim from ``src/``
and drives it in process through ``upgradesim.cli.main``. A pass runs every
scenario of the workload once; passes repeat until ``--seconds`` is used up.

With ``--trace 0`` it reports the end-to-end metrics (host time with tracing
off, memory, and the simulated outcomes). With ``--trace 1`` it runs one pass
untraced, then traced passes, and reports the per-layer metrics; the spans of
the first traced pass are written to ``.perfbench/spans-<workload>.csv.gz``.

Every scenario run is checked: artifacts are hashed, and must be the same in
every pass, traced or not, and at the default seed equal to the reference
digests in ``perfbench/reference_digests.json``. The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference_digests.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
ARTIFACTS = ("reports.jsonl", "events.jsonl", "metrics.json", "comparison.csv")
SETUP_CALLS = ("load_scenario", "build_coordinator", "build_cluster", "build_timing")

# per-layer metric: the spans whose self time (ms) or calls it sums
SELF_MS = {
    "scenario.load.self_ms": ["scenario.load_scenario"],
    "scenario.build.self_ms": [
        "scenario.build_coordinator", "scenario.build_cluster", "scenario.build_timing",
    ],
    "coordinator.run_iteration.self_ms": ["coordinator.Coordinator.run_iteration"],
    "resource_graph.build.self_ms": ["resource_graph.build_resource_graph"],
    "resource_graph.refresh.self_ms": ["resource_graph.refresh_structure"],
    "resource_graph.apply_outcome.self_ms": ["resource_graph.apply_iteration_outcome"],
    "control_graph.coarsen.self_ms": ["control_graph.coarsen", "control_graph.update_control_graph"],
    "planner.partition_view.self_ms": ["planner.build_partition_view"],
    "planner.consolidation.self_ms": [
        "planner.plan_consolidation", "planner.build_consolidation_schedule",
    ],
    "planner.initial_batch.self_ms": ["planner.initial_batch"],
    "planner.budget.self_ms": ["planner.compute_budget"],
    "planner.final_batch.self_ms": ["planner.select_final_batch"],
    "planner.build_schedule.self_ms": ["planner.build_schedule"],
    "planner.feedback.self_ms": ["planner.process_feedback", "planner.process_recovery_feedback"],
    "vm_migration.budget.self_ms": ["vm_migration.compute_migration_budget"],
    "vm_migration.wave.self_ms": [
        "vm_migration.select_sub_iteration", "vm_migration.reevaluate_new_reservation",
        "vm_migration.build_vm_schedule", "vm_migration.replacement_schedule",
        "vm_migration.plan_first_wave",
    ],
    "engine.execute_schedule.self_ms": ["engine.Engine.execute_schedule"],
    "cluster.lookup.self_ms": ["cluster.ClusterState.*"],
    "cluster.clone.self_ms": ["cluster.ClusterState.clone"],
    "rolling.ordering.self_ms": ["rolling.run_single_ordering"],
    "metrics.sla.self_ms": ["metrics.compute_sla_violations", "metrics.penalty_report"],
    "metrics.outage.self_ms": ["metrics.compute_application_outage", "metrics.per_vm_outage_totals"],
    "cli.serialize.self_ms": [
        "engine.EventLog.to_jsonl", "coordinator.UpgradeIterationReport.to_json",
        "metrics.comparison_csv", "cli.json.dumps",
    ],
    "cli.write.self_ms": ["cli._write"],
}
CALLS = {
    "coordinator.iterations": ["coordinator.Coordinator.run_iteration"],
    "resource_graph.refresh.calls": ["resource_graph.refresh_structure"],
    "control_graph.coarsen.calls": ["control_graph.coarsen", "control_graph.update_control_graph"],
    "planner.partition_view.calls": ["planner.build_partition_view"],
    "engine.advance_to.calls": ["engine.Engine.advance_to"],
    "engine.log_records": ["engine.EventLog.emit"],
    "cluster.vms_on.calls": ["cluster.ClusterState.vms_on"],
    "cluster.components_on.calls": ["cluster.ClusterState.components_on"],
    "cluster.sorted_resources.calls": ["cluster.ClusterState._sorted_resources"],
    "cluster.hosts_with_role.calls": ["cluster.ClusterState.hosts_with_role"],
    "cluster.clone.calls": ["cluster.ClusterState.clone"],
    "rolling.orderings": ["rolling.run_single_ordering"],
    "metrics.sla.calls": ["metrics.compute_sla_violations"],
}
# probe counts reported as they are, and ratios of two probe counts
COUNTS = (
    "coordinator.suspensions", "planner.consolidation.moves", "planner.eliminations",
    "vm_migration.waves", "engine.actions", "rolling.evacuation_rounds", "cli.artifact_bytes",
)
RATIOS = {
    "planner.batch_keep_ratio": ("planner.final_groups", "planner.initial_groups"),
    "vm_migration.migrated_ratio": ("vm_migration.migrated", "vm_migration.migrations"),
    "engine.action_fail_ratio": ("engine.failed_actions", "engine.actions"),
    "rolling.infeasible_ratio": ("rolling.infeasible", "rolling.orderings"),
}
_NOT_LOOKUPS = ("cluster.ClusterState.clone", "cluster.ClusterState.validate")


class Run:
    """The outcome of one scenario run: exit code, artifacts, problems."""

    def __init__(self, name: str, wall_ns: int, setup_ns: int) -> None:
        self.name = name
        self.wall_ns = wall_ns
        self.setup_ns = setup_ns
        self.problems: list[str] = []  # program failures
        self.mismatches: list[str] = []  # output-check failures
        self.digests: dict[str, str] = {}
        self.sim = (0.0, 0.0, 0.0)  # duration s, penalty q, application outage s

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.mismatches)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"


def _app_outage_s(events: Path) -> float:
    from upgradesim.engine import EventLog
    from upgradesim.metrics import compute_application_outage

    log = EventLog()
    log.records = [json.loads(line) for line in events.read_text().splitlines()]
    tenants = sorted({r["tenant"] for r in log.records if r["kind"] == "tenant-initial"})
    return sum(compute_application_outage(log, tenants).values()) / 1000


def _inspect(run: Run, rc: int | None, out: Path) -> None:
    """Hash the artifacts, read the simulated outcome, and check them."""
    run.digests = {name: _digest(out / name) for name in ARTIFACTS}
    if rc is not None and rc != 0:
        run.problems.append(f"exit code {rc}")
    if run.digests["metrics.json"] == "absent":
        run.problems.append("metrics.json not written")
        return
    metrics = json.loads((out / "metrics.json").read_text())
    required = ARTIFACTS if metrics["mode"] == "compare" else ARTIFACTS[:3]
    missing = [name for name in required if run.digests[name] == "absent"]
    if missing:
        run.problems.append("not written: " + ", ".join(missing))
        return
    events = out / "events.jsonl"
    times = [json.loads(line)["at"] for line in events.read_text().splitlines()]
    if times != sorted(times):
        run.mismatches.append("events.jsonl: timestamps out of order")
    if metrics["mode"] == "coordinator":
        not_done = sorted(k for k, v in metrics["set_statuses"].items() if v != "completed")
        if not_done:
            run.problems.append("change sets not completed: " + ", ".join(not_done))
        reports = (out / "reports.jsonl").read_text().splitlines()
        if len(reports) != metrics["iterations"]:
            run.mismatches.append("reports.jsonl: line count differs from metrics.json iterations")
        run.sim = (
            metrics["duration_s"],
            metrics["penalty_q"],
            sum(metrics["application_outage_s"].values()),
        )
    else:
        row = next(r for r in metrics["rows"] if r["method"] == "coordinator")
        rows = (out / "comparison.csv").read_text().splitlines()
        if len(rows) != 1 + len(metrics["rows"]):
            run.mismatches.append("comparison.csv: row count differs from metrics.json rows")
        run.sim = (row["total_duration_s"], row["penalty_q"], _app_outage_s(events))


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from workloads import scenario_runs

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = WORK / f"{workload}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.runs = scenario_runs(workload, seed, ROOT, self.work / "scenarios")
        self.first: list[Run] | None = None
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = reference.get(workload) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one line per failed run or failed check
        self.mismatch = False  # an output check failed
        self.notes: list[str] = []

    def one_pass(self, tracer=None) -> list[Run]:
        """Run every scenario once; with ``tracer``, each run is a root span."""
        import upgradesim.cli as cli

        setup = [0]
        restore = {}
        if tracer is None:
            restore = {name: getattr(cli, name) for name in SETUP_CALLS}
            for name, fn in restore.items():
                setattr(cli, name, _timed(fn, setup))
        results = []
        try:
            for name, argv in self.runs:
                out = self.work / "out" / name
                shutil.rmtree(out, ignore_errors=True)
                args = argv + ["--out", str(out)]
                setup[0] = 0
                rc, error = None, None
                start = time.perf_counter_ns()
                try:
                    rc = tracer.root(cli.main, args) if tracer else cli.main(args)
                except Exception as exc:  # a crash is a failed run, not the end of the benchmark
                    error = f"raised {type(exc).__name__}: {exc}"
                run = Run(name, time.perf_counter_ns() - start, setup[0])
                if error:
                    run.problems.append(error)
                _inspect(run, rc, out)
                results.append(run)
        finally:
            for name, fn in restore.items():
                setattr(cli, name, fn)
        self._check(results)
        return results

    def _check(self, results: list[Run]) -> None:
        """Compare with the first pass and the reference; record failures."""
        if self.first is None:
            self.first = results
        for run, first in zip(results, self.first):
            expected = [("first pass", first.digests)]
            if self.reference is not None:
                expected.append(("reference", self.reference[run.name]))
            for label, digests in expected:
                for name in ARTIFACTS:
                    if run.digests[name] != digests[name]:
                        run.mismatches.append(f"{name}: differs from the {label}")
            if run.sim != first.sim:
                run.mismatches.append("simulated outcome differs from the first pass")
            self.attempted += 1
            if run.failed:
                self.failed += 1
                self.failures.append(f"{run.name}: " + "; ".join(run.problems + run.mismatches))
            self.mismatch = self.mismatch or bool(run.mismatches)

    def passes(self, deadline: float, tracer=None, at_least: int = MIN_PASSES):
        """Passes until the next one would overrun ``deadline``."""
        done = []
        while True:
            started = time.perf_counter()
            if tracer is not None:
                tracer.reset()
            done.append((self.one_pass(tracer), tracer.snapshot() if tracer else None))
            if tracer is not None:
                tracer.keep_spans = False
            took = time.perf_counter() - started
            if len(done) >= at_least and time.perf_counter() + took > deadline:
                return done


def _timed(fn, total: list[int]):
    def timed(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            total[0] += time.perf_counter_ns() - start

    return timed


def end_to_end(bench: Bench) -> dict:
    # a cheap warm-up, so the first timed pass does not pay one-time costs
    import upgradesim.cli as cli

    cli.main(["--scenario", str(ROOT / "scenarios" / "suspension.json"),
              "--out", str(bench.work / "warmup")])
    deadline = time.perf_counter() + bench.seconds
    passes = [runs for runs, _ in bench.passes(deadline)]
    walls = [sum(r.wall_ns for r in p) / 1e9 for p in passes]
    setups = [sum(r.setup_ns for r in p) / 1e9 for p in passes]
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        bench.notes.append(f"{name} over {len(values)} passes: q1 {q1:.6f} median {q2:.6f} "
                           f"q3 {q3:.6f} max {max(values):.6f}")
    sim = [sum(run.sim[i] for run in passes[0]) for i in range(3)]
    # reported by the result line's failed and attempted counts, and by the
    # per-layer metrics.app_outage_s: both are 0 on some workloads
    bench.notes.append(f"fail_ratio {bench.failed / bench.attempted} ratio")
    bench.notes.append(f"sim_app_outage_s {sim[2]} sim_s")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_duration_s": (sim[0], "sim_s"),
        "sim_penalty_q": (sim[1], "q"),
    }


def per_layer(bench: Bench) -> dict:
    import tracer as tracing

    deadline = time.perf_counter() + bench.seconds
    untraced = bench.one_pass()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = bench.passes(deadline, tracer, at_least=1)
    finally:
        uninstall()
    tracer.write_spans(WORK / f"spans-{bench.workload}.csv.gz")
    snaps = [snap for _, snap in traced]
    for snap in snaps[1:]:
        if snap["calls"] != snaps[0]["calls"] or snap["counts"] != snaps[0]["counts"]:
            bench.failures.append("traced passes: call counts differ between passes")
            bench.mismatch = True
    first = snaps[0]

    def total(values: dict, patterns: list[str]) -> int:
        return sum(v for n, v in values.items() if any(_matches(n, p) for p in patterns))

    out = {}
    for metric, patterns in SELF_MS.items():
        out[metric] = (statistics.median(total(s["self_ns"], patterns) for s in snaps) / 1e6, "ms")
    for metric, patterns in CALLS.items():
        out[metric] = (total(first["calls"], patterns), "count")
    counts = {**first["counts"], "rolling.orderings": out["rolling.orderings"][0]}
    for metric in COUNTS:
        out[metric] = (counts.get(metric, 0), "bytes" if metric.endswith("bytes") else "count")
    for metric, (num, den) in RATIOS.items():
        out[metric] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")
    walls = [sum(r.wall_ns for r in runs) for runs, _ in traced]
    covered = [s["root_ns"] - s["self_ns"].get(tracing.ROOT, 0) for s in snaps]
    out["trace.overhead_s"] = (
        (statistics.median(walls) - sum(r.wall_ns for r in untraced)) / 1e9, "s",
    )
    out["trace.coverage"] = (statistics.median(c / w for c, w in zip(covered, walls)), "ratio")
    out["metrics.app_outage_s"] = (sum(run.sim[2] for run in untraced), "sim_s")
    if out["trace.coverage"][0] < 0.95:
        bench.failures.append(f"traced spans cover {out['trace.coverage'][0]:.3f} of wall time")
        bench.mismatch = True
    return out


def _matches(name: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1]) and name not in _NOT_LOOKUPS
    return name == pattern


def write_reference() -> None:
    """Record the artifact digests of every workload at the default seed."""
    from workloads import WORKLOADS

    digests = {}
    for workload in WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED, 0)
        bench.reference = None
        digests[workload] = {run.name: run.digests for run in bench.one_pass()}
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference digests at the default seed and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "upgradesim").is_dir() or not (ROOT / "scenarios").is_dir():
        sys.stderr.write(f"error: {ROOT} has no src/upgradesim or scenarios/ to benchmark\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(args.workload, args.seed, args.seconds)
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the result
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    for failure, times in Counter(bench.failures).items():
        print(f"FAILED {times}x {failure}")
    print(f"runs attempted {bench.attempted}, failed {bench.failed}")
    for note in bench.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not bench.mismatch,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
