"""The benchmark's tracer still sees every solver layer it times.

``perfbench/spans.py`` wraps module and class attributes of bmatch by
name; a solver change that stops calling one of them through its
attribute would silently zero that layer in the traced benchmark.  The
tracer is loaded from its file and used as is.
"""

import importlib.util
from pathlib import Path

import bmatch
import bmatch.cli  # spans.targets wraps bmatch.cli, which `import bmatch` leaves unloaded
from bmatch import Instance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_records_every_solver_layer():
    # The column start places one pair; one unit goes through phase 1 and
    # one through phase 2, each search settling at least one node.
    fixture = Instance.from_lists(
        cost=[[2, 0, 0], [3, 1, 3]], a_demand=[0, 1], a_capacity=[1, 2], b_demand=[1, 1, 1], b_capacity=[1, 1, 2]
    )
    grow_forest = bmatch.solver.grow_forest
    tracer = load_spans().Tracer()
    tracer.install(bmatch)
    try:
        tracer.call("solver.solve", bmatch.solve_ga, fixture)
    finally:
        tracer.uninstall()
    assert bmatch.solver.grow_forest is grow_forest

    spans = tracer.solve_breakdown(0)
    # The tracer also wraps solver.build_expanded_graph, which a solve
    # never calls (only reading SolverState.graph builds the copy view), and
    # solver.project_matching and CapacitatedMatching.copy_pairs, which
    # are gone from the solve (the answer is read off the matched
    # matrix): those are known stale targets and record nothing.
    for name in (
        "model.normalize_instance",
        "solver.grow_forest",
        "solver.augment",
        "solver.apply_potentials",
        "solver.state_init",
    ):
        assert spans[name]["calls"] >= 1, name
    assert spans["model.validate_instance"]["calls"] == 1
    assert spans["solver.grow_forest"]["calls"] == 2
    assert spans["solver.grow_forest"]["settled"] >= 1
