"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces
module and class attributes of bmatch with wrappers that time each call,
and ``uninstall`` puts the originals back.  A span is (name, start, end,
parent); spans stay in memory and are written out when the run ends.
Counters are read from returned objects after the span closes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable


def _path_counts(path: Any) -> dict[str, int]:
    """Search effort of one ``grow_forest`` result."""
    steps = path.steps
    arrivals = sum(op[0] in ("park", "unfeed") for op in steps)
    starts_at_pool = bool(steps) and steps[0][0] in ("feed", "release")
    return {"settled": sum(path.forest.settled), "pool_transits": arrivals + starts_at_pool}


def targets(bmatch: Any) -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, counter) for every wrapped call.

    ``validate_instance`` is wrapped in each module that calls it, since
    each holds its own reference.
    """
    model, expansion, solver, cli = bmatch.model, bmatch.expansion, bmatch.solver, bmatch.cli
    return [
        *(
            (mod, "validate_instance", "model.validate_instance", None)
            for mod in (model, expansion, solver, cli)
        ),
        (solver, "normalize_instance", "model.normalize_instance", None),
        (cli, "instance_from_json", "model.instance_from_json", None),
        (cli, "instance_digest", "model.instance_digest", None),
        (solver, "build_expanded_graph", "expansion.build_expanded_graph", None),
        (solver, "project_matching", "expansion.project_matching", None),
        (solver.SolverState, "__init__", "solver.state_init", None),
        (solver.SolverState, "apply_potentials", "solver.apply_potentials", None),
        (solver.SolverState, "dual_objective", "solver.dual_objective", None),
        (solver.CapacitatedMatching, "copy_pairs", "solver.copy_pairs", None),
        (solver, "grow_forest", "solver.grow_forest", _path_counts),
        (solver, "augment", "solver.augment", None),
        (cli, "solve_ga", "solver.solve", None),
        (cli, "check_assignment", "oracles.check_assignment", None),
        (cli, "parse_instance", "cli.parse_instance", None),
    ]


class Tracer:
    """Collects spans for one process; one caller, so one open-span stack."""

    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, counters)
        self.spans: list[tuple[int, int, str, int, int, dict | None]] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, counter: Callable | None = None, **kw: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        sid, parent = len(self.spans), self._stack[-1]
        self.spans.append((sid, parent, name, 0, 0, None))  # holds the id until the span closes
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kw)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, None)
        if counter is not None:
            self.spans[sid] = (sid, parent, name, start, end, counter(result))
        return result

    def install(self, bmatch: Any) -> None:
        for owner, attr, name, counter in targets(bmatch):
            original = owner.__dict__.get(attr)
            if original is None:  # the program no longer has it: 0 calls
                continue
            self._saved.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, _counter=counter, **kw):
                return self.call(_name, _fn, *args, counter=_counter, **kw)

            setattr(owner, attr, functools.wraps(original)(wrapper))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def solve_breakdown(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name under ``root`` (inclusive): calls, inclusive ms,
        self ms (duration minus child spans) and summed counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_ns: dict[int, int] = defaultdict(int)
        spans = self.spans[root:]
        for _sid, parent, _name, start, end, _c in spans:
            child_ns[parent] += end - start
        for sid, _parent, name, start, end, counts in spans:
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child_ns[sid]) / 1e6
            for key, value in (counts or {}).items():
                agg[key] += value
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")
