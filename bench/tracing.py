"""Per-layer tracing from outside the package.

``install`` wraps every public function and public method of the layer
modules and rebinds each wrapper wherever the original is bound in an
``eolab`` module (``eolab.search.dovetail`` as well as
``eolab.vm.dovetail``).  Calls of module-level functions become spans:
name, start, end, parent span and job id, kept in memory.  Pattern
functions and methods are hot leaves (a million ``eo_leq`` calls in one
poset build), so their calls are aggregated per parent span instead:
calls, total time, self time and the time of calls made directly from the
span.  Self time of a span is its duration minus its direct children, both
spans and aggregated leaves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "expressions", "vm", "patterns", "poset", "search", "oracle")

#: Traced names reported together under one per-layer metric prefix.
GROUPS = {
    "expressions.ArithExpr.evaluate": "expressions.evaluate",
    "expressions.GuardExpr.evaluate": "expressions.evaluate",
    "expressions.parse_arith": "expressions.parse",
    "expressions.parse_guard": "expressions.parse",
    "search.search_eo_witness": "search.witness",
    "search.search_uniform_witness": "search.witness",
    "patterns.ascents": "patterns.pairsets",
    "patterns.inversions": "patterns.pairsets",
    "patterns.uniform": "patterns.relations",
    "patterns.eo_equiv": "patterns.relations",
    "patterns.eo_lt": "patterns.relations",
    "patterns.incomparable": "patterns.relations",
}

STATUSES = ("witness_found", "space_exhausted", "budget_exceeded")


def group_of(name: str) -> str:
    if name.startswith("oracle.check_"):
        return "oracle.check"
    return GROUPS.get(name, name)


def _observe(counts: Counter, group: str, result) -> None:
    """Counters read off a layer's return value, at its boundary."""
    if group == "vm.dovetail":
        counts["vm.dovetail.rounds"] += result.rounds
        counts["vm.dovetail.steps_charged"] += result.steps_charged
        counts["vm.dovetail.halted_inputs"] += len(result.halted_inputs)
        counts["vm.dovetail.emitted"] += len(result.emitted)
        counts["vm.dovetail.truncated"] += bool(result.truncated)
    elif group == "search.witness":
        counts["search.nodes_explored"] += result.nodes_explored
        counts[f"search.{result.status}"] += 1
    elif group == "poset.build_poset":
        counts["poset.hasse_edges"] += len(result.hasse)
    elif group == "oracle.check":
        counts["oracle.checked"] += result.checked


class Tracer:
    """Spans and leaf aggregates of one traced pass over a job list."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, job) by span id
        self.leaves: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])  # calls, total, self, direct
        self.counts: Counter = Counter()
        self.frames: list = []  # [child time, span id or None] per open call
        self.open_spans: list[int] = []
        self.job = None

    def wrap(self, name: str, fn, leaf: bool):
        group = group_of(name)
        frames, open_spans = self.frames, self.open_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = None if leaf else len(self.spans)
            if sid is not None:
                self.spans.append(None)
            frame = [0.0, sid]
            frames.append(frame)
            parent_span = open_spans[-1] if open_spans else -1
            if sid is not None:
                open_spans.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sid is not None:
                    _observe(self.counts, group, result)
                return result
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                direct = not frames or frames[-1][1] is not None
                if frames:
                    frames[-1][0] += duration
                if sid is None:
                    agg = self.leaves[(parent_span, name)]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
                    if direct:
                        agg[3] += duration
                else:
                    open_spans.pop()
                    self.spans[sid] = (name, start, end, parent_span, self.job)

        return traced

    def layer_totals(self, skip_jobs=frozenset()) -> dict[str, list]:
        """{group: [calls, self seconds]}, self time computed from the spans.

        Spans of ``skip_jobs`` and the leaves under them are left out.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            child[parent] += end - start
        for (parent, _), (_, _, _, direct) in self.leaves.items():
            child[parent] += direct
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, (name, start, end, _, job) in enumerate(self.spans):
            if job not in skip_jobs:
                entry = totals[group_of(name)]
                entry[0] += 1
                entry[1] += end - start - child[sid]
        for (parent, name), (calls, _, self_s, _) in self.leaves.items():
            if parent < 0 or self.spans[parent][4] not in skip_jobs:
                entry = totals[group_of(name)]
                entry[0] += calls
                entry[1] += self_s
        return totals

    def records(self, pass_no: int):
        """Spans and leaf aggregates as JSON-ready dicts."""
        for sid, (name, start, end, parent, job) in enumerate(self.spans):
            yield {"pass": pass_no, "span": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "job": job}
        for (parent, name), (calls, total, self_s, _) in self.leaves.items():
            yield {"pass": pass_no, "leaf": name, "parent": parent, "calls": calls,
                   "total_s": total, "self_s": self_s}


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns a callable that undoes it."""
    wrapped = {}
    undo = []
    for layer in LAYERS:
        module = importlib.import_module(f"eolab.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj, leaf=layer == "patterns")
            elif inspect.isclass(obj):
                for name, method in list(vars(obj).items()):
                    if not name.startswith("_") and inspect.isfunction(method):
                        setattr(obj, name, tracer.wrap(f"{layer}.{attr}.{name}", method, True))
                        undo.append((obj, name, method))
    for name, module in list(sys.modules.items()):
        if name == "eolab" or name.startswith("eolab."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    undo.append((module, attr, obj))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
