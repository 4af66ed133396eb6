"""Span tracing of upgradesim from outside the package.

``install`` replaces functions with timing wrappers at the names their callers
look up, and methods of the traced classes on the class itself; the returned
callable puts every original back. Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, run id). Self time is a span's
duration minus the time its child spans cover. Per-name calls and self time
are summed as spans close; the spans themselves are kept in memory only while
``keep_spans`` is set, and written out by ``write_spans``. ClusterState
lookups are summed but not kept one by one: there are over a million of them
in a pass of the Table-1 comparison.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

# Classes whose methods are wrapped on the class: "all" methods including
# private ones, so that every scan of the cluster is counted (summed, not kept
# as spans); "public" ones; or public ones when called from another module
# ("outside": the coordinator logs each report through to_json, cli writes them).
_CLASSES = {
    "cluster.ClusterState": "all",
    "engine.Engine": "public",
    "engine.EventLog": "public",
    "coordinator.Coordinator": "public",
    "coordinator.UpgradeIterationReport": "outside",
}
# Functions called from their own module that still mark a layer boundary.
_INTRA_MODULE = ["rolling.run_single_ordering", "cli._write"]

ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.vm_schedules: set[str] = set()
        self.spans = array("q")  # flat records: name, start, end, parent, run
        self.keep_spans = True
        self.active = False
        self.run_id = 0
        self.root_ns = 0
        # open spans: [index of the nearest kept span, start ns, child ns]
        self._stack: list[list[int]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, fn, name: str, outside: dict | None = None, keep: bool = True):
        """A wrapper timing ``fn`` as span ``name``.

        With ``outside`` set to a module's globals, calls made from that
        module itself are passed straight through. With ``keep`` false the
        span is only summed; its children name its parent as theirs.
        """
        tracer = self
        nid = self.name_id(name)
        probe = _PROBES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (
                outside is not None and sys._getframe(1).f_globals is outside
            ):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = -1
            if keep and tracer.keep_spans:
                index = len(tracer.spans) // 5
                tracer.spans.extend((nid, 0, 0, parent, tracer.run_id))
            entry = [index if index >= 0 else parent, 0, 0]
            stack.append(entry)
            entry[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += duration - entry[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.root_ns += duration
                if index >= 0:
                    tracer.spans[5 * index + 1] = start
                    tracer.spans[5 * index + 2] = end
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def root(self, fn, *args):
        """Call ``fn`` as a new run under the root span."""
        self.run_id += 1
        self.active = True
        try:
            return self.wrap(fn, ROOT)(*args)
        finally:
            self.active = False

    def reset(self) -> None:
        """Zero the sums between passes; span records are kept."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = defaultdict(int)
        self.vm_schedules = set()
        self.root_ns = 0

    def snapshot(self) -> dict:
        return {
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "self_ns": {n: s for n, s, c in zip(self.names, self.self_ns, self.calls) if c},
            "counts": dict(self.counts),
            "root_ns": self.root_ns,
        }

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_ns,end_ns,parent,run\n")
            for i in range(len(s) // 5):
                k = 5 * i
                f.write(f"{i},{self.names[s[k]]},{s[k + 1]},{s[k + 2]},{s[k + 3]},{s[k + 4]}\n")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(tracer: Tracer):
    """Wrap upgradesim for ``tracer``; returns a callable that unwraps it."""
    import upgradesim

    modules = {
        info.name: importlib.import_module(f"upgradesim.{info.name}")
        for info in pkgutil.iter_modules(upgradesim.__path__)
    }
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    imported_as_module = set()
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.ModuleType) and value.__name__.startswith("upgradesim."):
                imported_as_module.add(value.__name__)
            # a function another upgradesim module defines, imported by name
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__.startswith("upgradesim.")
                and value.__module__ != module.__name__
            ):
                patch(module, attr, tracer.wrap(value, _span_name(value)))
    # modules used as ``module.function``: trace calls from other modules
    for full_name in sorted(imported_as_module):
        module = sys.modules[full_name]
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == full_name
            ):
                patch(module, attr, tracer.wrap(value, _span_name(value), vars(module)))
    for dotted, which in _CLASSES.items():
        module_name, class_name = dotted.split(".")
        module = modules[module_name]
        cls = getattr(module, class_name)
        outside = vars(module) if which == "outside" else None
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType) or attr.startswith("__"):
                continue
            if attr.startswith("_") and which != "all":
                continue
            patch(cls, attr, tracer.wrap(value, _span_name(value), outside, which != "all"))
    for dotted in _INTRA_MODULE:
        module_name, attr = dotted.split(".")
        fn = getattr(modules[module_name], attr)
        patch(modules[module_name], attr, tracer.wrap(fn, _span_name(fn)))
    # cli serializes metrics.json and comparison rows through json.dumps
    shim = types.ModuleType("json")
    shim.__dict__.update(vars(json))
    shim.dumps = tracer.wrap(json.dumps, "cli.json.dumps")
    patch(modules["cli"], "json", shim)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- counts taken from the values crossing a boundary ---------------------------------


def _initial_batch(t: Tracer, args, result) -> None:
    batch, eliminations = result
    t.counts["planner.initial_groups"] += len(batch.groups)
    t.counts["planner.eliminations"] += len(eliminations)


def _final_batch(t: Tracer, args, result) -> None:
    t.counts["planner.final_groups"] += len(result.groups)


def _consolidation(t: Tracer, args, result) -> None:
    t.counts["planner.consolidation.moves"] += len(result)


def _vm_schedule(t: Tracer, args, result) -> None:
    if result is not None and result.lanes:
        t.vm_schedules.add(result.schedule_id)


def _wave(t: Tracer, args, result) -> None:
    _vm_schedule(t, args, result)
    if result.lanes:
        t.counts["vm_migration.waves"] += 1


def _execute(t: Tracer, args, result) -> None:
    schedule = args[1]
    t.counts["engine.actions"] += len(result)
    t.counts["engine.failed_actions"] += sum(1 for o in result if not o.success)
    if schedule.schedule_id in t.vm_schedules:
        for o in result:
            if o.kind.value == "migrate-vm":
                t.counts["vm_migration.migrations"] += 1
                t.counts["vm_migration.migrated"] += o.success


def _iteration(t: Tracer, args, result) -> None:
    t.counts["coordinator.suspensions"] += result.phase_after == "suspended"


def _ordering(t: Tracer, args, result) -> None:
    t.counts["rolling.evacuation_rounds"] += result.evacuation_rounds
    t.counts["rolling.infeasible"] += result.infeasible


def _write(t: Tracer, args, result) -> None:
    t.counts["cli.artifact_bytes"] += len(args[1].encode())


_PROBES = {
    "planner.initial_batch": _initial_batch,
    "planner.select_final_batch": _final_batch,
    "planner.plan_consolidation": _consolidation,
    "vm_migration.build_vm_schedule": _wave,
    "vm_migration.replacement_schedule": _vm_schedule,
    "engine.Engine.execute_schedule": _execute,
    "coordinator.Coordinator.run_iteration": _iteration,
    "rolling.run_single_ordering": _ordering,
    "cli._write": _write,
}
