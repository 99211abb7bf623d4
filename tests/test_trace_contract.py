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


def test_path_counts_read_the_path_views():
    # The tracer counts a search's settles from path.forest and its pool
    # transits from path.steps: one per arrival at the pool (park, unfeed)
    # plus one when the path starts there (feed, release).
    counts = load_spans()._path_counts

    def searched(cost, bounds, roots):
        state = bmatch.SolverState(Instance.from_lists(cost, *bounds))
        for root in roots:
            path = bmatch.grow_forest(state, root)
            bmatch.augment(state.matching, path)
            state.apply_potentials(path)
        return path

    # Row 0 parks its unit in column 0's spare slot.
    park = searched([[0, 0, 0, 0]], ([1], [2], [0, 0, 0, 0], [1, 1, 1, 1]), [0])
    assert park.steps == (("match", 0, 0), ("park", 0)) and park.nodes[-1] == 1 + 4
    assert counts(park) == {"settled": 3, "pool_transits": 1}
    # Column 1 (node 6) enters through row 1's spare slot.
    bounds = ([1, 0, 0, 0, 0], [1] * 5, [1, 1], [2, 2])
    feed = searched([[0, 9], [0, 0], [0, 0], [0, 0], [0, 0]], bounds, [0, 6])
    assert feed.steps == (("feed", 1), ("match", 1, 1))
    assert counts(feed) == {"settled": 3, "pool_transits": 1}
    # Row 0 parks at column 0 and the pool feeds row 1 on to column 1:
    # the pool passes one unit through.
    bounds = ([1, 0, 0, 0], [1, 1, 1, 1], [0, 1], [1, 1])
    through = searched([[0, 5], [9, 0], [9, 0], [9, 0]], bounds, [0])
    assert through.steps == (("match", 0, 0), ("park", 0), ("feed", 1), ("match", 1, 1))
    assert counts(through) == {"settled": 7, "pool_transits": 1}
