"""Solver behavior: worked examples, regressions, and invariant checks.

The regression instances here were found by differential testing and by
hand analysis; each one broke (or would break) a simpler augmenting
strategy, so they are frozen verbatim.
"""

import hashlib
import heapq
import json
import random
import types

import numpy as np
import pytest

from bmatch import (
    AugmentingPath,
    InfeasibleInstanceError,
    Instance,
    InternalSolverError,
    SolverState,
    augment,
    grow_forest,
    solve_ga,
    solve_lca,
)
from conftest import draw_feasible, draw_instance, draw_unit
from bmatch import expansion
from bmatch import solver as solver_module
from bmatch.oracles import brute_force_optimum, check_assignment, feasibility_check, solve_flow_reference
from bmatch.solver import INF, LIFT


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


def _search(path):
    """The search behind a ``grow_forest`` path, read off the path's own
    arrays as plain Python values; ``vars`` of it is the record the search
    digests hash."""
    s = path.s
    return types.SimpleNamespace(
        root=("a", path.root) if path.root < s else ("b", path.root - s),
        orientation="row" if path.root < s else "col",
        dist=tuple(path.dist.tolist()),
        parent=tuple(path.parent.tolist()),
        settled=tuple(path.settled.tolist()),
        terminal=path.terminal,
        terminal_dist=int(path.dist[path.terminal]),
    )


def _leaf(path):
    """The copy where a search's path ends, as ``(side, index)``: the short
    column ``("b", j)`` or row ``("a", i)`` it finished at, or, on a pool
    finish, the surplus copy ``("a'", i)`` or ``("b'", j)`` next to the pool."""
    s, pool, v = path.s, len(path.dist) - 1, path.terminal
    if v != pool:
        return ("a", v) if v < s else ("b", v - s)
    u = int(path.parent[pool])
    return ("a'", u) if u < s else ("b'", u - s)


class TestWorkedExamples:
    def test_forced_row_takes_both_columns(self):
        asg, rep = solve_ga(inst([[5, 7]], [2], [2], [0, 0], [1, 1]))
        assert asg.pairs == ((0, 0), (0, 1))
        assert asg.total_cost == 12
        assert rep.dual_objective == 12

    def test_diagonal_beats_cross(self):
        asg, _ = solve_ga(inst([[1, 10], [10, 1]], [1, 1], [2, 2], [1, 1], [1, 1]))
        assert asg.pairs == ((0, 0), (1, 1))
        assert asg.total_cost == 2

    def test_single_column_takes_both_rows(self):
        asg, _ = solve_ga(inst([[3], [4]], [1, 1], [1, 1], [1], [2]))
        assert asg.pairs == ((0, 0), (1, 0))
        assert asg.total_cost == 7

    def test_second_phase_uses_row_surplus(self):
        # The column start gives both columns row 0, whose capacity of 1
        # keeps (0, 0) on the tie; column 1's demand is then served by
        # row 1's spare capacity, in one phase-2 search.
        asg, rep = solve_ga(inst([[1, 0], [2, 1]], [1, 0], [1, 1], [1, 1], [1, 2]))
        assert asg.pairs == ((0, 0), (1, 1))
        assert asg.total_cost == 2
        assert (rep.warm_start_pairs, rep.phase1_augmentations, rep.phase2_augmentations) == (1, 0, 2)

    def test_lca_diagonal(self):
        asg, rep = solve_lca(inst([[1, 2], [3, 1]], [1, 1], [1, 1], [1, 1], [1, 1]))
        assert asg.total_cost == 2
        assert rep.algorithm == "lca"

    def test_lca_shared_column(self):
        asg, _ = solve_lca(inst([[2], [5], [9]], [1, 1, 1], [1, 1, 1], [1], [3]))
        assert asg.pairs == ((0, 0), (1, 0), (2, 0))
        assert asg.total_cost == 16

    def test_lca_ignores_unneeded_surplus(self):
        asg, _ = solve_lca(inst([[1, 9], [9, 1]], [1, 1], [2, 2], [1, 1], [2, 2]))
        assert asg.pairs == ((0, 0), (1, 1))
        assert asg.total_cost == 2

    def test_lca_rejects_non_unit_demand(self):
        with pytest.raises(ValueError, match="demand"):
            solve_lca(inst([[5, 7]], [2], [2], [0, 0], [1, 1]))


class TestRegressions:
    def test_parked_unit_must_move_for_optimality(self):
        # A greedy two-pass scheme (first satisfy rows, then columns)
        # matches (0,0) for row 0, then must add (1,1) at cost 9 or
        # (0,1)+(1,0) at cost 2 for column 1.  The optimum is the single
        # pair (0,1): the row-0 unit has to land on column 1 directly.
        fixture = inst([[0, 1], [1, 9]], [1, 0], [1, 1], [0, 1], [1, 1])
        asg, rep = solve_ga(fixture)
        assert asg.pairs == ((0, 1),)
        assert asg.total_cost == 1
        assert rep.dual_objective == 1

    def test_one_augmentation_may_add_two_pairs(self):
        # The column start gives columns 0 and 1 row 1, whose capacity of 1
        # keeps (1, 0), so row 0 and column 1 each still need a unit and
        # there is no park budget.  The cheapest way to serve both is a
        # single path through spare capacity: match (0,2), park at column
        # 2, feed row 2, match (2,1).  Forcing one-pair-per-path would pay
        # 2 instead of 1.
        fixture = inst([[2, 2, 0], [0, 1, 2], [0, 1, 0]], [1, 0, 0], [1, 1, 2], [1, 1, 0], [3, 1, 1])
        asg, rep = solve_ga(fixture)
        assert asg.total_cost == 1
        assert asg.pairs == ((0, 2), (1, 0), (2, 1))
        assert (rep.warm_start_pairs, rep.phase1_augmentations, rep.phase2_augmentations) == (1, 1, 1)

    def test_saturated_four_cycle(self):
        # Both rows need both columns; the optimum is forced and the dual
        # certificate must still price it exactly.
        asg, rep = solve_ga(inst([[1, 0], [5, 1]], [2, 2], [2, 2], [0, 0], [2, 2]))
        assert asg.total_cost == 7
        assert rep.dual_objective == 7
        assert len(asg.pairs) == 4

    def test_zero_cost_surplus_pair_is_pruned(self):
        # The column start gives column 0 row 0 at cost 0, on row 0's
        # surplus; row 1's unit then parks at column 0, so no demand needs
        # the zero-cost pair (0, 0).  The cleanup pass must drop it and
        # report doing so, leaving an optimum.
        fixture = inst([[0], [2]], [0, 1], [1, 1], [1], [2])
        asg, rep = solve_ga(fixture)
        assert rep.pruned_pairs == 1 and asg.pairs == ((1, 0),)
        assert check_assignment(fixture, asg).feasible
        assert asg.total_cost == brute_force_optimum(fixture).total_cost == 2


class TestInfeasible:
    def test_structural_bottleneck_is_caught(self):
        # Per-vertex and aggregate sums all pass (sum demand 6 <= sum
        # capacity 7), but rows 0 and 1 demand 3 partners each from only
        # 2 high-capacity columns plus one capacity-1 column.
        fixture = inst(
            [[1, 1, 1], [1, 1, 1], [0, 0, 0]],
            [3, 3, 0], [3, 3, 3], [0, 0, 0], [3, 3, 1],
        )
        with pytest.raises(InfeasibleInstanceError) as err:
            solve_ga(fixture)
        assert err.value.root is not None
        assert "b2" in err.value.reached  # the saturated column is part of the cut

    def test_aggregate_shortfall_is_infeasible_not_a_crash(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_ga(inst([[5, 7]], [1], [1], [0, 0], [0, 0]))

    def test_malformed_instance_is_a_value_error(self):
        broken = Instance(
            s=2, t=2, cost=((1, 2),), a_demand=(0, 0), a_capacity=(1, 1),
            b_demand=(0, 0), b_capacity=(1, 1),
        )
        with pytest.raises(ValueError, match="malformed"):
            solve_ga(broken)
        with pytest.raises(ValueError, match="malformed"):
            solve_lca(broken)


class TestSearchPrimitives:
    def state(self):
        return SolverState(inst([[2, 3]], [1], [2], [1, 1], [1, 1]))

    def test_initial_labels_match_weight_space(self):
        st = self.state()
        la, lb = st.labels()
        weights_row_max = max(st.graph.transform.to_weight(c) for c in (2, 3))
        assert la == (weights_row_max,)
        assert lb == (0, 0)

    # Node ids on this 1x2 instance: row 0, columns 1 and 2, pool 3.
    def test_single_edge_path_when_adjacent_column_is_free(self):
        st = self.state()
        path = grow_forest(st, 0)
        assert (path.root, path.nodes) == (0, (0, 1))
        assert path.steps == (("match", 0, 0),)
        assert _leaf(path) == ("b", 0) and path.nodes[-1] != 1 + 2
        assert _search(path).terminal_dist == 0

    def test_grow_rejects_saturated_root(self):
        st = self.state()
        path = grow_forest(st, 0)
        augment(st.matching, path)
        with pytest.raises(ValueError, match=r"^root \('a', 0\) is not a free demand copy$"):
            grow_forest(st, 0)
        with pytest.raises(ValueError, match="free demand copy"):
            grow_forest(st, 1)  # column 0: its demand of 1 is met by (0, 0)
        with pytest.raises(ValueError, match=r"^root \('b', 1\) is not a free demand copy$"):
            grow_forest(SolverState(inst([[2, 3]], [1], [2], [1, 0], [1, 1])), 2)  # demand 0

    def test_grow_rejects_a_node_that_is_not_a_row_or_column(self):
        for node in (-1, 3):  # 3 is the pool
            with pytest.raises(ValueError, match="demand cop"):
                grow_forest(self.state(), node)

    def test_column_phase_enters_through_row_surplus(self):
        st = self.state()
        augment(st.matching, grow_forest(st, 0))
        path = grow_forest(st, 2)
        assert (path.root, path.nodes) == (2, (3, 0, 2))  # pool -> row 0 -> column 1
        assert _leaf(path) == ("a'", 0) and path.nodes[-1] != 1 + 2
        assert path.steps == (("feed", 0), ("match", 0, 1))
        assert _search(path).orientation == "col"

    def test_path_arrays_record_the_search(self):
        st = self.state()
        path = grow_forest(st, 0)
        f = _search(path)
        assert len(f.dist) == len(f.parent) == len(f.settled) == 1 + 2 + 1  # rows, columns, pool
        assert f.settled[0] and f.dist[0] == 0  # the root row
        assert f.terminal == 1 and f.parent[1] == 0  # b0, reached from a0

    def test_augment_applies_the_path_and_counters(self):
        st = self.state()
        path = grow_forest(st, 0)
        augment(st.matching, path)
        m = st.matching
        assert m.pairs == ((0, 0),)
        assert list(m.deg - m.extra) == [1, 1, 0] and list(m.extra) == [0, 0, 0]

    def test_tracer_views_are_plain_python_values(self):
        # The benchmark tracer sums and serializes path.forest.settled and
        # reads path.steps; numpy scalars would break json.dumps.
        def plain(x):
            if isinstance(x, tuple):
                return all(plain(y) for y in x)
            return type(x) in (int, bool, str)

        st = self.state()
        row = grow_forest(st, 0)
        augment(st.matching, row)
        col = grow_forest(st, 2)
        for path in (row, col):
            settled = path.forest.settled
            assert vars(path.forest) == {"settled": settled}
            assert all(type(x) is bool for x in settled) and settled == tuple(path.settled.tolist())
            assert plain(path.steps) and plain(path.nodes) and plain(path.root)
            assert json.loads(json.dumps(sum(settled))) == sum(settled) == int(path.settled.sum())

    def test_state_construction_rejects_unservable_vertex(self):
        with pytest.raises(ValueError):
            SolverState(inst([[1]], [1], [1], [0], [0]))


def test_output_check_catches_broken_counters():
    st = SolverState(inst([[2, 3]], [0], [2], [0, 0], [1, 1]))
    solver_module._check_output(st)  # the empty matching meets every bound
    st.matching.deg[0] += 1
    with pytest.raises(InternalSolverError, match="disagree"):
        solver_module._check_output(st)
    demanding = SolverState(inst([[2, 3]], [1], [2], [0, 0], [1, 1]))
    with pytest.raises(InternalSolverError, match="outside its bounds"):
        solver_module._check_output(demanding)


def test_output_check_names_the_first_droppable_pair_in_row_major_order():
    # Every demand is 0, so each of the three pairs is above demand on
    # both of its sides.  Column-major order would name (1, 0) first.
    st = SolverState(inst([[0, 0], [0, 0]], [0, 0], [2, 2], [0, 0], [2, 2]))
    for i, j in ((1, 0), (1, 1), (0, 1)):
        st.matching.flip(i, j, 1)
    with pytest.raises(InternalSolverError, match=r"^pair \(0, 1\) is above demand on both sides$"):
        solver_module._check_output(st)


def _free_state():
    # Every demand 0 and every surplus 2: r = (1, 2, 0, 0), and every arc
    # family of check_dual_invariants has members to test.
    return SolverState(inst([[1, 3], [2, 2]], [0, 0], [2, 2], [0, 0], [2, 2]))


def _set(st, name, k, value):
    getattr(st, name)[k] = value


DUAL_FAULTS = {
    "unmatched pair with negative reduced cost": lambda st: _set(st, "r", 0, 2),
    "matched pair with positive reduced cost": lambda st: st.matching.flip(0, 1, 1),
    "pool->row arc with negative reduced cost": lambda st: _set(st, "r", 0, -1),
    "row->pool arc with negative reduced cost": lambda st: (
        st.matching.flip(0, 0, 1), _set(st.matching, "extra", 0, 1)
    ),
    "column->pool arc with negative reduced cost": lambda st: _set(st, "r", 2, -1),
    "pool->column arc with negative reduced cost": lambda st: (
        _set(st.matching, "extra", 2, 1), _set(st, "r", slice(None), [0, 1, 1, 1])
    ),
}


@pytest.mark.parametrize("message", DUAL_FAULTS)
def test_dual_check_names_each_broken_arc_family(message):
    st = _free_state()
    st.check_dual_invariants()
    DUAL_FAULTS[message](st)
    with pytest.raises(InternalSolverError, match=f"^{message}$"):
        st.check_dual_invariants()


def test_prune_refuses_a_droppable_pair_of_non_zero_cost():
    st = _free_state()
    st.matching.flip(0, 1, 1)  # above its row's and its column's demand of 0
    with pytest.raises(InternalSolverError) as err:
        solver_module._prune_unneeded_pairs(st)
    assert str(err.value) == "optimal matching carries a droppable pair (0, 1) of non-zero cost 3"


END_FAULTS = {
    "phases ended with unmet demand": (solver_module.CapacitatedMatching, "unmet", lambda m, root: False),
    "dual objective 0 does not certify the matched cost 1": (
        solver_module.SolverState, "dual_objective", lambda st: 0
    ),
}


@pytest.mark.parametrize("message", END_FAULTS)
def test_end_of_solve_checks_raise(message, monkeypatch):
    fixture = inst([[1, 3]], [1], [2], [0, 0], [1, 1])  # no warm start; optimum 1
    assert solve_ga(fixture)[0].total_cost == 1
    monkeypatch.setattr(*END_FAULTS[message])
    with pytest.raises(InternalSolverError, match=f"^{message}$"):
        solve_ga(fixture)


# Hand-built node chains through augment.  Each case holds an instance,
# the (chain, root) paths applied first, and the (chain, root) path under
# test, a chain being node ids in arc direction.  SURPLUS has rows 0 and
# 1, columns 2 and 3 and pool 4, with one surplus slot at every vertex.
# ONE_BY_TWO has row 0, columns 1 and 2 and pool 3: row 0 has a surplus
# slot and the columns none.  TWO_BY_ONE has rows 0 and 1, column 2 of
# capacity 1, and pool 3.
SURPLUS = inst([[2, 3], [4, 5]], [1, 1], [2, 2], [1, 1], [2, 2])
ONE_BY_TWO = inst([[2, 3]], [1], [2], [1, 1], [1, 1])
TWO_BY_ONE = inst([[1], [2]], [1, 0], [1, 1], [1], [1])

# Each arc kind, with the pairs, degrees and surplus counts it leaves.
ARC_CHAINS = {
    "match": (SURPLUS, [], ((0, 2), 0), ((0, 0),), [1, 0, 1, 0], [0, 0, 0, 0]),
    "unmatch": (SURPLUS, [((0, 2), 0)], ((1, 2, 0), 1), ((1, 0),), [0, 1, 1, 0], [0, 0, 0, 0]),
    "park": (SURPLUS, [], ((0, 2, 4), 0), ((0, 0),), [1, 0, 1, 0], [0, 0, 1, 0]),
    "release": (SURPLUS, [((0, 2, 4), 0)], ((4, 2, 0, 3), 3), ((0, 1),), [1, 0, 0, 1], [0, 0, 0, 0]),
    "feed": (SURPLUS, [], ((4, 1, 3), 3), ((1, 1),), [0, 1, 0, 1], [0, 1, 0, 0]),
    "unfeed": (SURPLUS, [((4, 1, 3), 3)], ((0, 3, 1, 4), 0), ((0, 1),), [1, 0, 0, 1], [0, 0, 0, 0]),
    # Column 2 holds row 1; the path matches (0, 0) before it unmatches
    # (1, 0), so column 2 sits one above its capacity midway.
    "overshoot the path undoes": (TWO_BY_ONE, [((1, 2), 2)], ((0, 2, 1), 0), ((0, 0),), [1, 0, 1], [0, 0, 0]),
}

ARC_FAULTS = {
    r"path matches already-matched pair \(0, 0\)": (ONE_BY_TWO, [((0, 1), 0)], ((0, 1), 0)),
    r"path unmatches unmatched pair \(0, 0\)": (ONE_BY_TWO, [], ((1, 0), 0)),
    "column 0 parked above its surplus quota": (ONE_BY_TWO, [], ((0, 1, 3), 0)),
    "row 0 fed above its surplus quota": (inst([[2, 3]], [1], [1], [0, 0], [1, 1]), [], ((3, 0, 1), 1)),
    "row 0 unfed below zero": (ONE_BY_TWO, [], ((0, 3), 0)),
    "column 1 released below zero": (ONE_BY_TWO, [], ((3, 2), 2)),
    "impossible arc 1->0 in augmenting path": (TWO_BY_ONE, [], ((1, 0), 0)),  # row -> row
    "impossible arc 1->2 in augmenting path": (ONE_BY_TWO, [], ((0, 1, 2), 0)),  # column -> column
    "impossible arc 3->3 in augmenting path": (ONE_BY_TWO, [], ((3, 3), 1)),  # pool -> pool
    "row 0 routed above its demand quota": (ONE_BY_TWO, [((0, 1), 0)], ((0, 2), 0)),
    "column 1 routed above its demand quota": (inst([[2, 3]], [1], [2], [1, 0], [1, 1]), [], ((0, 2), 2)),
    # Column 2 holds row 1 and takes row 0 too, with nothing undoing it.
    "augmentation exceeded a capacity": (TWO_BY_ONE, [((1, 2), 2)], ((0, 2), 0)),
}


def _chained(fixture, before):
    """The matching of ``fixture`` after the (chain, root) paths ``before``."""
    m = SolverState(fixture).matching
    for chain, root in before:
        augment(m, AugmentingPath(root=root, nodes=chain))
    return m


@pytest.mark.parametrize("kind", ARC_CHAINS)
def test_augment_applies_each_arc_kind(kind):
    fixture, before, path, pairs, deg, extra = ARC_CHAINS[kind]
    m = _chained(fixture, [*before, path])
    assert (m.pairs, m.deg.tolist(), m.extra.tolist()) == (pairs, deg, extra)
    assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)


@pytest.mark.parametrize("message", ARC_FAULTS)
def test_augment_names_each_fault(message):
    fixture, before, (chain, root) = ARC_FAULTS[message]
    m = _chained(fixture, before)
    with pytest.raises(InternalSolverError, match=f"^{message}$"):
        augment(m, AugmentingPath(root=root, nodes=chain))


def test_solves_build_no_expanded_graph(monkeypatch, rng):
    # A solve reads its bounds from the matching's arrays, and
    # SolverState.graph builds the view on read.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a solve built an ExpandedGraph")

    cases = (
        [(solve_ga, inst([[2, 3]], [1], [2], [1, 1], [1, 1]))]
        + [(solve_ga, draw_feasible(rng)) for _ in range(20)]
        + [(solve_lca, draw_feasible(rng, demands_one=True)) for _ in range(10)]
    )
    states = []
    with monkeypatch.context() as patched:
        patched.setattr(expansion.ExpandedGraph, "__init__", refuse)
        answers = [solve(fixture, observer=states.append)[0] for solve, fixture in cases]
    assert answers == [solve(fixture)[0] for solve, fixture in cases]
    graph = states[0].graph
    assert isinstance(graph, expansion.ExpandedGraph) and graph.instance == states[0].inst
    assert graph.transform.offset == states[0].offset


def test_matching_quotas_equal_the_instance_bounds(rng):
    # The matching's counters are the paper's copy quotas: a demand copy
    # holds the demand, a surplus copy the capacity above it.
    for _ in range(60):
        state = SolverState(draw_feasible(rng, max_s=5, max_t=5, cap_max=4))
        inst, m = state.inst, state.matching
        demand = [*inst.a_demand, *inst.b_demand]
        capacity = [*inst.a_capacity, *inst.b_capacity]
        assert m.demand.tolist() == demand
        assert m.capacity.tolist() == capacity
        assert m.surplus.tolist() == [c - d for d, c in zip(demand, capacity)]
        assert state.graph.transform == expansion.transform_costs(inst)[1]


def _advanced(fixture, steps):
    """A state for ``fixture`` after its first ``steps`` augmentations,
    each rooted at the lowest node still short of demand, with no warm
    start."""
    state = SolverState(fixture)
    for _ in range(steps):
        root = next(v for v in range(state.s + state.t) if state.matching.unmet(v))
        path = grow_forest(state, root)
        augment(state.matching, path)
        state.apply_potentials(path)
    return state


def test_search_after_another_equals_search_on_fresh_state():
    # A search that follows another one on the same state, stuck or not,
    # returns what the same search returns on a fresh state with the same
    # matching and duals.
    def outcome(state, root):
        try:
            path = grow_forest(state, root)
        except InfeasibleInstanceError as err:
            return ("stuck", err.root, err.reached)
        return (_search(path), path.nodes, path.steps, _leaf(path))

    rng = random.Random(0xF7E5)
    cases = [(draw_feasible(rng, max_s=4, max_t=4, cap_max=3), 0) for _ in range(40)]
    # Every search on an empty matching that passed the screen reaches a
    # finish, so two infeasible instances come in after five units: row 0
    # and column 0 hold all three of the other side, so row 1 (column 1)
    # cannot get a third partner past the one of capacity 1, while row 2
    # (column 2) still can.
    cost = [[1, 1, 1], [1, 1, 1], [0, 0, 0]]
    rows = inst(cost, [3, 3, 1], [3, 3, 3], [0, 0, 0], [3, 3, 1])
    columns = inst([list(c) for c in zip(*cost)], [0, 0, 0], [3, 3, 1], [3, 3, 1], [3, 3, 3])
    cases += [(rows, 5), (columns, 5)]
    firsts = set()
    for fixture, steps in cases:
        state = _advanced(fixture, steps)
        roots = [v for v in range(state.s + state.t) if state.matching.unmet(v)]
        for first in roots:
            for then in roots:
                if then != first:
                    firsts.add(outcome(state, first)[0] == "stuck")
                    assert outcome(state, then) == outcome(_advanced(fixture, steps), then)
    assert firsts == {True, False}


class _CopiedSlices(np.ndarray):
    """An array whose slices are copies, not views."""

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return item.copy() if isinstance(key, slice) else item


def test_search_with_a_settled_node_back_in_cand_raises(monkeypatch):
    # The solver's np.ones hands each search an unsettled array whose
    # slices are copies, so the live masks on each side stay all True and
    # relaxes put settled nodes back into cand.  On the first instance
    # such a search never ends by itself; it must raise once it has
    # settled more nodes than the graph has.  In the second, row 2's
    # search feeds rows back in through the pool, and the step that
    # settles them together goes over the count.  On both, the column
    # start leaves a row unit for phase 1.
    leaky_np = types.SimpleNamespace(**vars(np))
    leaky_np.ones = lambda *args, **kwargs: np.ones(*args, **kwargs).view(_CopiedSlices)
    monkeypatch.setattr(solver_module, "np", leaky_np)
    leaky = [
        (inst([[1, 2], [2, 2]], [1, 2], [1, 2], [1, 1], [2, 1]), 5),
        (inst([[2, 0, 1], [1, 1, 2], [1, 1, 2]], [1, 1, 1], [1, 3, 3], [1, 2, 1], [1, 2, 1]), 7),
    ]
    for fixture, nodes in leaky:
        with pytest.raises(InternalSolverError, match=f"settled more than its {nodes} nodes"):
            solve_ga(fixture)
    with pytest.raises(InternalSolverError, match="cycle"):
        solver_module._chain(np.array([1, 2, 0]), 0)


def test_lifted_matrix_follows_every_pair_flip(rng):
    # lifted == cost + LIFT * matched after every augmentation and after
    # the prune (the observer's state is the live one, pruned on return).
    states, pruned = [], 0

    def watch(state):
        m = state.matching
        assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)
        states[:] = [state]

    fixtures = [draw_feasible(rng, max_s=5, max_t=5, cap_max=4) for _ in range(60)]
    fixtures.append(inst([[0], [2]], [0, 1], [1, 1], [1], [2]))
    for fixture in fixtures:
        states.clear()
        _, rep = solve_ga(fixture, observer=watch)
        pruned += rep.pruned_pairs
        for state in states:
            m = state.matching
            assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)
    assert pruned >= 1


def _check_partner_record(m):
    """``partner_sum`` equals the sum of each node's partners' node ids
    in ``matched``, so on a node of degree 1 it names that one partner."""
    s, t = m.matched.shape
    rows, cols = np.nonzero(m.matched)
    want = np.zeros(s + t, dtype=np.int64)
    np.add.at(want, rows, s + cols)
    np.add.at(want, s + cols, rows)
    assert np.array_equal(m.partner_sum, want)


def _draw_sparse_demand(rng, max_s, max_t):
    """One instance with capacities 1 to 3 and a demand on about a third
    of the vertices, not necessarily feasible."""
    s, t = rng.randint(1, max_s), rng.randint(1, max_t)
    a_cap = [rng.randint(1, 3) for _ in range(s)]
    b_cap = [rng.randint(1, 3) for _ in range(t)]
    a_dem = [rng.randint(1, c) if rng.random() < 0.3 else 0 for c in a_cap]
    b_dem = [rng.randint(1, c) if rng.random() < 0.3 else 0 for c in b_cap]
    return inst([[rng.randint(0, 20) for _ in range(t)] for _ in range(s)], a_dem, a_cap, b_dem, b_cap)


def test_partner_record_follows_every_pair_flip(monkeypatch, rng):
    # After each start, after every augmentation (the observer) and after
    # the prune (the live state the observer saw last, pruned on return).
    starts, states, pruned, solved = {"_warm_start": 0, "_column_start": 0}, [], 0, 0

    def checked(name):
        original = getattr(solver_module, name)

        def start(state):
            placed = original(state)
            _check_partner_record(state.matching)
            starts[name] += 1
            return placed

        monkeypatch.setattr(solver_module, name, start)

    for name in starts:
        checked(name)

    def watch(state):
        _check_partner_record(state.matching)
        states[:] = [state]

    fixtures = [draw_unit(rng, rng.randint(2, 8), 5) for _ in range(40)]
    fixtures += [_draw_sparse_demand(rng, 7, 7) for _ in range(80)]
    fixtures += [draw_instance(rng, max_s=6, max_t=6, cap_max=4, cost_max=20) for _ in range(80)]
    fixtures.append(inst([[0], [2]], [0, 1], [1, 1], [1], [2]))
    for fixture in fixtures:
        states.clear()
        try:
            _, rep = solve_ga(fixture, observer=watch)
        except ValueError:  # InfeasibleInstanceError included
            continue
        pruned += rep.pruned_pairs
        solved += 1
        for state in states:
            _check_partner_record(state.matching)
    assert solved >= 150 and pruned >= 1 and min(starts.values()) >= 40, (solved, pruned, starts)


def test_search_arrays_read_late_equal_arrays_read_at_once(monkeypatch):
    # Two identical solves in lockstep.  One copies each path's search
    # arrays as grow_forest returns; the other reads them only after the
    # solve, by which time later augmentations and dual updates have
    # changed the matching and the potentials the search ran on.
    # The column start places 4 pairs; two row searches and two column
    # searches place the rest.
    fixture = inst(
        [[7, 2, 5, 5], [0, 1, 3, 1], [4, 1, 2, 5], [4, 3, 4, 2]],
        [2, 1, 0, 2], [3, 1, 1, 3], [1, 2, 3, 2], [2, 2, 3, 2],
    )
    original = solver_module.grow_forest

    def solve_recording(read_at_once):
        paths, copies = [], []

        def recording(state, root):
            path = original(state, root)
            paths.append(path)
            if read_at_once:
                copies.append(_search(path))
            return path

        monkeypatch.setattr(solver_module, "grow_forest", recording)
        _, rep = solve_ga(fixture)
        return paths, copies, rep

    _, at_once, rep = solve_recording(True)
    paths, _, _ = solve_recording(False)
    late = [_search(path) for path in paths]
    assert rep.dual_updates >= 3 and rep.phase2_augmentations - rep.warm_start_pairs == 2
    assert [f.orientation for f in late] == ["row", "row", "col", "col"]
    assert late == at_once


def _solve_record(solve, fixture):
    """Plain-int record of one solve: its answer and counters, or its error."""
    try:
        asg, rep = solve(fixture)
    except ValueError as err:  # InfeasibleInstanceError included
        return [type(err).__name__, str(err)]
    counters = (
        rep.phase1_augmentations, rep.phase2_augmentations, rep.dual_updates,
        rep.dual_objective, rep.pruned_pairs,
    )
    return [
        rep.algorithm,
        [[int(i), int(j)] for i, j in asg.pairs],
        int(asg.total_cost),
        [int(x) for x in counters],
    ]


def _all_unit(fixture):
    """Every demand and capacity is 1 once capacities are clipped to the
    opposite side's size: the instances the warm start serves."""
    bounds = (
        *fixture.a_demand, *fixture.b_demand,
        *(min(c, fixture.t) for c in fixture.a_capacity),
        *(min(c, fixture.s) for c in fixture.b_capacity),
    )
    return set(bounds) == {1}


def _row_demand_zero(fixture):
    """Every row demand is 0 (normalization leaves demands as they are):
    the instances with no phase 1, where the column start's rows take
    only surplus pairs."""
    return not any(fixture.a_demand)


def _bucket(fixture):
    """Which pinned digest a fixture's records go to."""
    return "unit" if _all_unit(fixture) else "row0" if _row_demand_zero(fixture) else "rest"


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


# sha256 of every record of the seeded corpus below, with all-unit
# instances (see _all_unit) and row-demand-0 instances (see
# _row_demand_zero) each hashed apart from the rest, so a change to one
# start, or to how it meets phase 1, shows that every other solve stayed
# as it was.  A change that moves a tie-break, a counter or a message
# changes a digest; such a change updates the constant and says why.
# PINNED_OUTPUTS last moved when the column start began to run on every
# instance that is not all-unit, not only where every row demand is 0:
# 331 of the bucket's 335 solved records changed their counters and 36
# took other pairs of equal cost.  Every cost, dual objective and message
# stayed as it was, and PINNED_UNIT_OUTPUTS and PINNED_ROW0_OUTPUTS kept
# their values.
PINNED_OUTPUTS = "e38861583efb0aafa20f4da06095c5b1f0db3b7f0ddfd6f9751909d6c058229c"
# PINNED_UNIT_OUTPUTS last moved when bidding rounds, every free row at
# once, replaced the warm start's sequential augmenting row reduction: 10
# of the bucket's 110 solved records changed, 6 taking other pairs of
# equal cost and 4 other dual-update counts.  Every cost, dual objective
# and message stayed as it was, and the other two digests kept their values.
PINNED_UNIT_OUTPUTS = "afefc50400a36379ff43317f288d1f5a420b2b32c218f558e6c74f845b531df4"
PINNED_ROW0_OUTPUTS = "f706f3f832ff8a50d2647cd876e02bba13dcbddabae9ecbd29739b4978fc8257"


def test_outputs_are_pinned():
    rng = random.Random(0x9E3779B9)
    shapes = [{}] * 200 + [dict(max_s=7, max_t=7, cap_max=4, cost_max=30)] * 100 + [
        dict(max_s=6, max_t=6, demands_one=True)
    ] * 100
    fixtures = [draw_instance(rng, **shape) for shape in shapes]
    fixtures += [draw_unit(rng, n, cost_max) for n in range(2, 10) for cost_max in (3, 9, 99) * 2]
    records = {"rest": [], "unit": [], "row0": []}
    for fixture in fixtures:
        for solve in (solve_ga, solve_lca):
            records[_bucket(fixture)].append(_solve_record(solve, fixture))
    assert all(records.values())
    digests = tuple(_digest(records[key]) for key in ("rest", "unit", "row0"))
    assert digests == (PINNED_OUTPUTS, PINNED_UNIT_OUTPUTS, PINNED_ROW0_OUTPUTS), digests


# sha256 of every search of the seeded corpus below: each search's record
# (see _search) with its path's steps and leaf, or a stuck search's root and reached
# set, bucketed as PINNED_OUTPUTS is.  It pins the settle
# order and tie-breaks inside grow_forest, which PINNED_OUTPUTS sees only
# through the answers.  A change to the search loop must leave it as it
# is; a change that means to move a search updates it and says why.
# PINNED_SEARCHES last moved when the column start began to run on every
# instance that is not all-unit: the searches start from its matching and
# duals, so fewer of them run, from other states.  Every cost, dual
# objective and message of the corpus stayed as it was.
# PINNED_UNIT_SEARCHES and PINNED_ROW0_SEARCHES kept their values.
PINNED_SEARCHES = "7b556a8dda4d6bfe2056fbce210b668c53bb465010fad4f29bda9a65bee901a7"
# PINNED_UNIT_SEARCHES last moved when bidding rounds replaced the warm
# start's sequential augmenting row reduction: the searches start from
# the rounds' matching and duals, 14 of them where 12 ran before.  Every
# cost, dual objective and message of the corpus stayed as it was, and
# the other two digests kept their values.
PINNED_UNIT_SEARCHES = "12e36d1a717c5608a86d8fe8cb3705301238d158199a5e658f3f5c3432dd63ba"
PINNED_ROW0_SEARCHES = "ada68a9acb0646b304796a34f510f1f732e957d28b2b901d91f57fa5d44dfc00"


def test_searches_are_pinned(monkeypatch):
    original = solver_module.grow_forest
    records, seen = {"rest": [], "unit": [], "row0": []}, set()
    bucket = "rest"

    def recording(state, root):
        try:
            path = original(state, root)
        except InfeasibleInstanceError as err:
            records[bucket].append(["stuck", list(err.root), list(err.reached)])
            seen.add("stuck")
            raise
        f = _search(path)
        pool = state.s + state.t
        for v, done in enumerate(f.settled):
            if done and v != root:
                assert f.parent[v] >= 0 and f.settled[f.parent[v]], (root, v)
        seen.add(f.orientation)
        if path.nodes[-1] == pool:
            seen.add("pool finish")
        if f.settled[pool] and f.terminal != pool:
            seen.add("pool pass-through")  # the pool did not end it: no park budget left
        records[bucket].append([vars(f), [list(op) for op in path.steps], list(_leaf(path))])
        return path

    monkeypatch.setattr(solver_module, "grow_forest", recording)
    rng = random.Random(0x5EA7C4)
    shapes = (
        [dict(max_s=6, max_t=6, cap_max=4, cost_max=20)] * 150
        + [dict(max_s=5, max_t=5, cap_max=5)] * 100
        + [dict(max_s=7, max_t=7, demands_one=True)] * 50
    )
    fixtures = [draw_instance(rng, **shape) for shape in shapes]
    fixtures += [draw_unit(rng, n, cost_max) for n in range(2, 10) for cost_max in (3, 9, 99) * 2]
    for fixture in fixtures:
        bucket = _bucket(fixture)
        try:
            solve_ga(fixture)
        except ValueError:  # InfeasibleInstanceError included
            pass
    assert seen == {"row", "col", "pool finish", "pool pass-through", "stuck"}
    assert all(records.values())
    digests = tuple(_digest(records[key]) for key in ("rest", "unit", "row0"))
    assert digests == (PINNED_SEARCHES, PINNED_UNIT_SEARCHES, PINNED_ROW0_SEARCHES), digests


# sha256 of every search of the corpus in
# test_relax_branches_cover_every_partner_count, recorded as
# test_searches_are_pinned records them.  A search whose settled side-Y
# nodes all relaxed side X through a full column of the lifted matrix
# gave this same digest.  PINNED_BRANCH_SEARCHES last moved when the
# step that settles the rows the pool fed stopped deciding a finish of
# its own and always relaxed side Y: 4 of the corpus's 433 searches
# changed, each only in the dist and parent of nodes it left unsettled.
# Every root, path, terminal and settled set stayed as it was, and
# PINNED_BRANCH_OUTPUTS kept its value.
PINNED_BRANCH_SEARCHES = "2f6581188fdf7022a29c878a81b684ba9782b3a64d01c2afdbd37dda11cdba7a"


def _branch_fixtures():
    """The seeded corpus of both branch pins: general bounds, then rows
    of demand 0."""
    rng = random.Random(0xDE6)
    fixtures = [_draw_bounds(rng, rng.randint(2, 8), rng.randint(2, 8), (2, 20)[k % 2]) for k in range(200)]
    fixtures += [_draw_row_demand_zero(rng, rng.randint(4, 10), rng.randint(2, 6), (2, 20)[k % 2]) for k in range(100)]
    return fixtures


def test_relax_branches_cover_every_partner_count(monkeypatch):
    # A side-Y node that settles and does not finish relaxes side X only
    # through its partners: not at all at degree 0, by one scalar entry at
    # degree 1, through a column of the lifted matrix at 2 or more.  The
    # corpus reaches each degree from row roots and column roots alike;
    # the draws whose row demands are all 0 give the column roots' rows
    # of degree 0, which general draws seldom settle.
    original = solver_module.grow_forest
    counts = {(side, k): 0 for side in ("row", "col") for k in (0, 1, 2)}
    records = []

    def counting(state, root):
        deg = state.matching.deg.copy()
        try:
            path = original(state, root)
        except InfeasibleInstanceError as err:
            records.append(["stuck", list(err.root), list(err.reached)])
            raise
        f, s = _search(path), state.s
        side_y = range(s, s + state.t) if f.orientation == "row" else range(s)
        for y in side_y:
            if f.settled[y] and y != f.terminal:
                counts[f.orientation, min(int(deg[y]), 2)] += 1
        records.append([vars(f), [list(op) for op in path.steps], list(_leaf(path))])
        return path

    monkeypatch.setattr(solver_module, "grow_forest", counting)
    for fixture in _branch_fixtures():
        try:
            solve_ga(fixture)
        except ValueError:  # InfeasibleInstanceError included
            pass
    assert min(counts.values()) >= 50, counts
    assert _digest(records) == PINNED_BRANCH_SEARCHES, _digest(records)


# sha256 of each solve of the same corpus: its pairs, total cost, dual
# objective and dual-update count, or its error's type and message.  A
# change that moves only PINNED_BRANCH_SEARCHES's search arrays leaves it
# as it is.
PINNED_BRANCH_OUTPUTS = "409a48f7197be22625dbf130e1b2baefc9e8523828f31460874ade9974188756"


def test_branch_outputs_are_pinned():
    records = []
    for fixture in _branch_fixtures():
        try:
            asg, rep = solve_ga(fixture)
        except ValueError as err:  # InfeasibleInstanceError included
            records.append([type(err).__name__, str(err)])
            continue
        pairs = [[int(i), int(j)] for i, j in asg.pairs]
        records.append([pairs, int(asg.total_cost), int(rep.dual_objective), int(rep.dual_updates)])
    assert _digest(records) == PINNED_BRANCH_OUTPUTS, _digest(records)


class TestRuntimeInvariants:
    def test_dual_feasibility_after_every_augmentation(self, rng):
        checked = 0

        def watch(state):
            nonlocal checked
            state.check_dual_invariants()
            m = state.matching
            assert np.all(m.deg - m.extra <= m.demand)
            assert np.all(m.extra <= m.surplus)
            assert np.all(m.extra >= 0)
            assert np.all(m.extra <= m.deg)
            checked += 1

        for _ in range(40):
            solve_ga(draw_feasible(rng), observer=watch)
        assert checked >= 80

    def test_copy_counters_at_termination(self, rng):
        for _ in range(40):
            fixture = draw_feasible(rng)
            asg, _ = solve_ga(fixture)
            # re-run to inspect final state through the observer
            final = []
            solve_ga(fixture, observer=lambda s: final.append(s) or final[:-1].clear())
            if not final:
                continue  # zero-demand instance: no augmentations at all
            state = final[0]
            m = state.matching
            assert (m.deg - m.extra).tolist() == [*fixture.a_demand, *fixture.b_demand]

    def test_phase_one_count_equals_total_row_demand(self, rng, monkeypatch):
        # Phase 1 places, one search each, the row units the column start
        # left unmet; with the units the start placed, that is the total
        # row demand.  The warm start's pairs count as phase-1 units.
        original = solver_module._column_start
        started = []

        def recording(state):
            placed = original(state)
            m = state.matching
            started.append(int(np.minimum(m.deg, m.demand)[: state.s].sum()))
            return placed

        monkeypatch.setattr(solver_module, "_column_start", recording)
        by_start = by_search = 0
        for _ in range(30):
            fixture = draw_feasible(rng)
            started.clear()
            _, rep = solve_ga(fixture)
            assert rep.phase1_augmentations + sum(started) == sum(fixture.a_demand)
            by_start += sum(started)
            by_search += rep.phase1_augmentations
        assert by_start > 0 and by_search > 0, (by_start, by_search)

    def test_deterministic_output(self, rng):
        for _ in range(20):
            fixture = draw_feasible(rng)
            a1, r1 = solve_ga(fixture)
            a2, r2 = solve_ga(fixture)
            assert a1 == a2
            assert (r1.phase1_augmentations, r1.phase2_augmentations, r1.dual_updates) == (
                r2.phase1_augmentations, r2.phase2_augmentations, r2.dual_updates)


def test_matches_enumeration_on_random_instances(rng):
    for _ in range(250):
        fixture = draw_feasible(rng, max_s=4, max_t=4, cost_max=12)
        asg, rep = solve_ga(fixture)
        want = brute_force_optimum(fixture)
        assert asg.total_cost == want.total_cost, fixture
        assert rep.dual_objective == asg.total_cost
        assert check_assignment(fixture, asg).feasible


def test_lca_agrees_with_ga_on_unit_demands(rng):
    for _ in range(120):
        fixture = draw_feasible(rng, demands_one=True)
        a1, _ = solve_lca(fixture)
        a2, _ = solve_ga(fixture)
        assert a1.total_cost == a2.total_cost
        assert check_assignment(fixture, a1).feasible


def test_wide_cost_range_stays_exact():
    # Large integer costs must not overflow or lose precision.
    fixture = inst(
        [[10**9, 1], [1, 10**9]], [1, 1], [1, 1], [1, 1], [1, 1]
    )
    asg, rep = solve_ga(fixture)
    assert asg.total_cost == 2
    assert rep.dual_objective == 2


def test_costs_that_could_wrap_int64_are_rejected():
    # Both used to fail inside the solve: 2**63 with OverflowError, and
    # this 8x8 instance with "pruning changed the total cost" after the
    # cost sum and the dual objective wrapped alike.
    rng = random.Random(0)
    cost = [[rng.randint(2**59, 2**60) for _ in range(8)] for _ in range(8)]
    wraps = inst(cost, [3] * 8, [3] * 8, [0] * 8, [8] * 8)
    for fixture in (wraps, inst([[2**63]], [1], [1], [1], [1])):
        with pytest.raises(ValueError, match="overflow 64-bit") as err:
            solve_ga(fixture)
        assert not isinstance(err.value, InfeasibleInstanceError)


def test_largest_in_domain_costs_stay_exact(rng):
    # At the edge of the domain the solve must still match exact
    # enumeration over Python ints.
    for _ in range(30):
        fixture = draw_feasible(rng, max_s=3, max_t=3)
        s, t = fixture.s, fixture.t
        pairs = min(sum(min(c, t) for c in fixture.a_capacity), sum(min(c, s) for c in fixture.b_capacity))
        top = (INF - 1) // (2 * s * t * (pairs + s + t + 1))
        bounds = (fixture.a_demand, fixture.a_capacity, fixture.b_demand, fixture.b_capacity)
        cost = [[top - c for c in row] for row in fixture.cost]
        asg, rep = solve_ga(inst(cost, *bounds))
        assert asg.total_cost == brute_force_optimum(inst(cost, *bounds)).total_cost
        assert rep.dual_objective == asg.total_cost
        cost[0][0] = top + 1
        with pytest.raises(ValueError, match="overflow"):
            solve_ga(inst(cost, *bounds))


def test_top_of_domain_stays_exact_on_every_small_shape():
    # At the top of the domain the lifted entries come closest to 2**63,
    # and s = t = 1 is the tightest case (see _check_exact_domain).  Costs
    # mix 0, the largest accepted cost and values between, so labels and
    # distances spread as far as the domain allows.  After every
    # augmentation each dual lies within the proof's K, and the final
    # duals, read in Python integers, certify the cost.
    rng = random.Random(0x70D0)
    observed = 0
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            for _ in range(25):
                fixture = draw_feasible(rng, max_s=s, max_t=t)
                while (fixture.s, fixture.t) != (s, t):
                    fixture = draw_feasible(rng, max_s=s, max_t=t)
                pairs = min(
                    sum(min(c, t) for c in fixture.a_capacity),
                    sum(min(c, s) for c in fixture.b_capacity),
                )
                top = (INF - 1) // (2 * s * t * (pairs + s + t + 1))
                cost = [[rng.choice((0, top, rng.randint(0, top))) for _ in range(t)] for _ in range(s)]
                cost[rng.randrange(s)][rng.randrange(t)] = top
                top_inst = inst(cost, fixture.a_demand, fixture.a_capacity, fixture.b_demand, fixture.b_capacity)
                states = []

                def watch(state):
                    m = state.matching
                    unit = bool((m.demand == 1).all() and (m.capacity == 1).all())  # the warm start's K
                    assert int(np.abs(state.r).max()) <= (pairs + 1 + unit) * top, top_inst
                    states.append(state)

                asg, rep = solve_ga(top_inst, observer=watch)
                assert asg.total_cost == brute_force_optimum(top_inst).total_cost, top_inst
                assert rep.dual_objective == asg.total_cost
                observed += len(states)
                if states:
                    r, norm = states[-1].r.tolist(), states[-1].inst
                    dual = (
                        sum(d * max(x, 0) for d, x in zip((*norm.a_demand, *norm.b_demand), r))
                        - sum(c * max(-x, 0) for c, x in zip((*norm.a_capacity, *norm.b_capacity), r))
                        - sum(max(0, r[i] + r[s + j] - cost[i][j]) for i in range(s) for j in range(t))
                    )
                    assert dual == asg.total_cost, top_inst
    assert observed >= 300, observed


def _unit_optimum(cost):
    """Cheapest perfect matching of a square cost matrix, in Python ints:
    for each set of columns, the cheapest way the first rows take it."""
    best = {0: 0}
    for row in cost:
        nxt = {}
        for used, value in best.items():
            for j, c in enumerate(row):
                if not used >> j & 1:
                    key = used | 1 << j
                    nxt[key] = min(nxt.get(key, value + c), value + c)
        best = nxt
    return best[(1 << len(cost)) - 1]


def test_top_of_domain_stays_exact_on_unit_instances():
    # Every bound 1, so the warm start sets the first labels: r in [0, C]
    # on rows and in [-C, C] on columns (see _check_exact_domain), with C
    # the largest cost the domain accepts at this size.
    rng = random.Random(0x70D1)
    for n in range(1, 9):
        top = (INF - 1) // (2 * n * n * (3 * n + 1))
        for _ in range(12):
            cost = [[rng.choice((0, top, rng.randint(0, top))) for _ in range(n)] for _ in range(n)]
            cost[rng.randrange(n)][rng.randrange(n)] = top
            fixture = inst(cost, [1] * n, [1] * n, [1] * n, [1] * n)
            first = []

            def watch(state):
                if not first:
                    first.append((state.r[:n].copy(), state.r[n:].copy()))

            asg, rep = solve_ga(fixture, observer=watch)
            want = _unit_optimum(cost)
            if n <= 4:
                assert want == brute_force_optimum(fixture).total_cost
            assert asg.total_cost == rep.dual_objective == want, fixture
            assert rep.warm_start_pairs >= 1
            p, q = first[0]
            assert p.min() >= 0 and p.max() <= top and q.min() >= -top and q.max() <= top
            cost[0][0] = top + 1
            with pytest.raises(ValueError, match="overflow"):
                solve_ga(inst(cost, [1] * n, [1] * n, [1] * n, [1] * n))


def test_unit_instances_match_linear_sum_assignment():
    # Wide costs leave few ties; costs 0..3 are nearly all ties, so the
    # bidding rounds displace rows and leave more to search,
    # and costs 0..2 leave searches that mostly end at a tied free column.
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(0x15A7)
    beyond_column_reduction = {10**6: 0, 3: 0, 2: 0, 1: 0, 0: 0}
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        for cost_max in beyond_column_reduction:
            for _ in range(3):
                fixture = draw_unit(rng, n, cost_max)
                c = np.array(fixture.cost)
                asg, rep = solve_lca(fixture)
                rows, cols = optimize.linear_sum_assignment(c)
                assert asg.total_cost == rep.dual_objective == int(c[rows, cols].sum())
                assert check_assignment(fixture, asg).feasible
                if rep.warm_start_pairs > len(set(c.argmin(axis=0).tolist())):
                    beyond_column_reduction[cost_max] += 1
    assert all(beyond_column_reduction.values()), beyond_column_reduction


def test_warm_start_serves_only_all_unit_instances(monkeypatch, rng):
    original = solver_module.grow_forest
    searches = []

    def counting(state, root):
        searches.append(root)
        return original(state, root)

    monkeypatch.setattr(solver_module, "grow_forest", counting)
    # Both column minima sit on distinct rows: the warm start matches every
    # row, no search runs, and the observer still sees the solve once.
    seen = []
    _, rep = solve_ga(inst([[1, 2], [3, 1]], [1, 1], [1, 1], [1, 1], [1, 1]), observer=seen.append)
    assert (rep.warm_start_pairs, rep.phase1_augmentations, len(searches), len(seen)) == (2, 2, 0, 1)
    for _ in range(20):
        fixture = draw_unit(rng, rng.randint(3, 12), 5)
        searches.clear()
        seen.clear()
        _, rep = solve_lca(fixture, observer=seen.append)
        assert rep.phase1_augmentations == fixture.s == rep.warm_start_pairs + len(searches)
        assert len(seen) == 1 + len(searches) and rep.phase2_augmentations == 0
    # A capacity of 2 that normalization keeps: the column start, not the
    # warm start, places both pairs, and they count as phase-2 units.
    searches.clear()
    _, rep = solve_ga(inst([[1, 2], [3, 1]], [1, 1], [2, 1], [1, 1], [1, 1]))
    assert (rep.warm_start_pairs, rep.phase1_augmentations, rep.phase2_augmentations, len(searches)) == (2, 0, 2, 0)


def _unit_start(cost):
    """A state for the all-unit instance ``cost`` after its warm start,
    and the pairs the start placed."""
    n = len(cost)
    state = SolverState(inst(cost, [1] * n, [1] * n, [1] * n, [1] * n))
    return state, solver_module._warm_start(state)[0]


def test_bidding_round_takes_the_lowest_offer(monkeypatch):
    # Row 2 holds every column minimum and keeps column 2; rows 0 and 1
    # both bid for column 2.  A row offers q lowered by the gap between
    # its two cheapest reduced costs; the lower offer wins, ties go to the
    # lower row, and the loser and the displaced holder stay free.  One
    # round only, so nothing bids again.
    monkeypatch.setattr(solver_module, "_BID_ROUNDS", 1)
    for cost, winner in (
        ([[7, 3, 1], [5, 6, 1], [0, 0, 0]], 1),  # offers -2 and -4
        ([[5, 6, 1], [6, 5, 1], [0, 0, 0]], 0),  # offers -4 and -4
    ):
        state, placed = _unit_start(cost)
        assert (placed, state.matching.pairs) == (1, ((winner, 2),))
        assert state.r[3:].tolist() == [0, 0, -4]
    # Let the rounds run on: every row ends matched, at the optimum.
    monkeypatch.undo()
    state, placed = _unit_start([[7, 3, 1], [5, 6, 1], [0, 0, 0]])
    assert placed == 3 and sum(state.matching.cost[state.matching.matched]) == 4


def test_tied_bidder_takes_its_runner_up_column():
    # Row 0 ties columns 0 and 1; row 2 holds column 0.  The tied row
    # bids for its runner-up, column 1, at q as it stands: no q falls.
    state, placed = _unit_start([[1, 1, 5], [9, 0, 0], [0, 0, 9]])
    assert (placed, state.matching.pairs) == (3, ((0, 1), (1, 2), (2, 0)))
    assert state.r.tolist() == [1, 0, 0, 0, 0, 0]


def test_bidding_rounds_stop_on_all_ties(monkeypatch):
    # Every reduced cost ties.  Column reduction gives row 0 column 59,
    # rounds 1 and 2 give columns 0 and 1 to rows 1 and 2, and round 3
    # only moves column 1 to row 3 and lowers no q: the rounds stop there,
    # well inside the cap.  Each round runs one lexsort.
    class CountingNumpy:
        rounds = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def lexsort(self, keys):
            self.rounds += 1
            return np.lexsort(keys)

    counting = CountingNumpy()
    monkeypatch.setattr(solver_module, "np", counting)
    state, placed = _unit_start([[0] * 60 for _ in range(60)])
    state.check_dual_invariants()
    assert (counting.rounds, placed) == (3, 3) and not state.r.any()


def test_bidding_rounds_place_nearly_every_pair_on_wide_costs():
    # Two sequential passes of augmenting row reduction place about 284
    # of 300 pairs here and the rounds 293 or 294, so the floor catches a
    # fall back to the passes.
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        cost = [[rng.randint(0, 10**6) for _ in range(300)] for _ in range(300)]
        state, placed = _unit_start(cost)
        assert placed >= 290, (seed, placed)


# sha256 of each warm start of the seeded corpus below: ``_warm_start``'s
# pairs and capped flag, the start's ``r`` and the flat indices of its
# matched pairs.  The two 300x300 draws at cost maximum 10**6 run all
# ``_BID_ROUNDS`` rounds, the three at 20, 3 and 0 stall on ties, and the
# small draws stop with every row matched, so every way out of the rounds
# is pinned bid for bid.  The PINNED_UNIT_* corpora stop at n = 9 and
# never reach the cap.
PINNED_WARM_STARTS = "4fa9f51c970accd309aa907e01f396bcb43c78ec1b7f16bd77757e9e12f757fd"


def test_warm_starts_are_pinned():
    rng = random.Random(0x8105)
    fixtures = [draw_unit(rng, 300, cost_max) for cost_max in (10**6, 10**6, 20, 3, 0)]
    fixtures += [draw_unit(rng, rng.randint(1, 12), rng.choice((0, 1, 3, 20, 10**6))) for _ in range(300)]
    records = []
    for fixture in fixtures:
        state = SolverState(fixture)
        placed, capped = solver_module._warm_start(state)
        records.append([placed, capped, state.r.tolist(), np.flatnonzero(state.matching.matched).tolist()])
    assert [capped for _, capped, *_ in records[:5]] == [True, True, False, False, False]
    assert all(placed < 300 for placed, *_ in records[:5])
    assert _digest(records) == PINNED_WARM_STARTS, _digest(records)


def _unit_searches(monkeypatch):
    """Each ``grow_forest`` call of the solves that follow, as
    ``(root, terminal, settled nodes)``."""
    original, searches = solver_module.grow_forest, []

    def recording(state, root):
        path = original(state, root)
        searches.append((root, path.terminal, int(path.settled.sum())))
        return path

    monkeypatch.setattr(solver_module, "grow_forest", recording)
    return searches


def test_searches_root_at_free_columns_once_the_bidding_rounds_run_out(monkeypatch):
    # These draws run all the bidding rounds and leave 6 or 7 rows free.
    # Each remaining search roots at a free column, which no row bid for,
    # and ends at a free row: about 300 settles per solve, where searches
    # from the rows that lost the last price wars settled about 1,350.
    optimize = pytest.importorskip("scipy.optimize")
    searches = _unit_searches(monkeypatch)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        cost = [[rng.randint(0, 10**6) for _ in range(300)] for _ in range(300)]
        searches.clear()
        asg, rep = solve_lca(inst(cost, [1] * 300, [1] * 300, [1] * 300, [1] * 300),
                             observer=SolverState.check_dual_invariants)
        c = np.array(cost)
        rows, cols = optimize.linear_sum_assignment(c)
        assert asg.total_cost == rep.dual_objective == int(c[rows, cols].sum())
        assert searches and all(root >= 300 > end for root, end, _ in searches)
        assert (rep.phase1_augmentations, rep.phase2_augmentations) == (rep.warm_start_pairs, len(searches))
        assert sum(n for *_, n in searches) < 600, (seed, searches)


def test_column_rooted_searches_match_the_flow_referee(monkeypatch):
    # One bidding round leaves rows free on most small draws, so the
    # searches root at the free columns; the largest costs sit at the edge
    # of the exact domain, 2*n*n*C*(3n + 1) < 2**62.  Every label stays
    # within K = (P + 2)*C, P = n, of the pool's.
    monkeypatch.setattr(solver_module, "_BID_ROUNDS", 1)
    searches = _unit_searches(monkeypatch)
    rng = random.Random(0xC01F)
    from_columns = 0
    for cost_max in (0, 2, 20, 10**6, None):
        for _ in range(250):
            n = rng.randint(1, 9)
            edge = (2**62 - 1) // (2 * n * n * (3 * n + 1))
            fixture = draw_unit(rng, n, edge if cost_max is None else cost_max)
            c_max = max(map(max, fixture.cost))
            peak = []

            def observe(state):
                state.check_dual_invariants()
                peak.append(int(np.abs(state.r).max()))

            searches.clear()
            asg, rep = solve_lca(fixture, observer=observe)
            assert asg.total_cost == rep.dual_objective == solve_flow_reference(fixture).total_cost
            assert max(peak, default=0) <= (n + 2) * c_max
            from_columns += bool(searches) and searches[0][0] >= n
            assert all((root >= n) == (searches[0][0] >= n) for root, *_ in searches)
    assert from_columns >= 500, from_columns


def test_searches_stay_at_the_rows_when_the_bidding_rounds_stall(monkeypatch):
    # On tied costs the rounds stop early, placing nothing and lowering no
    # q, and the rows stay the cheaper side to search from.
    searches = _unit_searches(monkeypatch)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        fixture = draw_unit(rng, 300, 20)
        searches.clear()
        _, rep = solve_lca(fixture)
        assert searches and all(root < 300 <= end for root, end, _ in searches)
        assert rep.phase2_augmentations == 0


def _draw_row_demand_zero(rng, s, t, cost_max):
    """One s x t instance whose every row demand is 0, not necessarily
    feasible.  Capacities and column demands may be 0, and capacities may
    exceed the opposite side's size."""
    a_cap = [rng.randint(0, t + 1) for _ in range(s)]
    b_cap = [rng.randint(0, s + 1) for _ in range(t)]
    b_dem = [rng.randint(0, min(c, s)) for c in b_cap]
    cost = [[rng.randint(0, cost_max) for _ in range(t)] for _ in range(s)]
    return inst(cost, [0] * s, a_cap, b_dem, b_cap)


def _draw_bounds(rng, s, t, cost_max):
    """One s x t instance with capacities 0 to 4 and each demand up to its
    capacity, not necessarily feasible."""
    a_cap = [rng.randint(0, 4) for _ in range(s)]
    b_cap = [rng.randint(0, 4) for _ in range(t)]
    cost = [[rng.randint(0, cost_max) for _ in range(t)] for _ in range(s)]
    return inst(cost, [rng.randint(0, c) for c in a_cap], a_cap, [rng.randint(0, c) for c in b_cap], b_cap)


def _column_start_reference(fixture):
    """The column start's rule in plain Python: the pairs it
    places, p, q, how many rows over capacity drop a pair that ties a
    kept one on c - q, and the set of rows over capacity.  ``sorted`` is
    stable, so ties go to the lowest row and, within a row, to the lowest
    column."""
    s, t, cost = fixture.s, fixture.t, fixture.cost
    col = [[cost[i][j] for i in range(s)] for j in range(t)]
    took = [sorted(range(s), key=col[j].__getitem__)[: fixture.b_demand[j]] for j in range(t)]
    q = [col[j][took[j][-1]] if took[j] else 0 for j in range(t)]
    pairs, p, tied, over = set(), [0] * s, 0, set()
    for i in range(s):
        mine = sorted((cost[i][j] - q[j], j) for j in range(t) if i in took[j])
        cap = min(fixture.a_capacity[i], t)
        if len(mine) > cap:
            over.add(i)
            tied += cap > 0 and mine[cap - 1][0] == mine[cap][0]
            mine = mine[:cap]
            p[i] = mine[-1][0] if mine else min(0, *(cost[i][j] - q[j] for j in range(t)))
        pairs |= {(i, j) for _, j in mine}
    return pairs, p, q, tied, over


def test_column_start_follows_its_rule():
    # Costs up to 0 or 2 tie nearly everywhere, so the tie-breaks decide
    # most picks; costs up to 50 tie less.
    rng = random.Random(0xC01)
    checked = tied = 0
    for _ in range(600):
        fixture = _draw_row_demand_zero(rng, rng.randint(1, 6), rng.randint(1, 6), rng.choice((0, 2, 50)))
        try:
            state = SolverState(fixture)
        except InfeasibleInstanceError:
            continue
        placed = solver_module._column_start(state)
        pairs, p, q, ties, _ = _column_start_reference(fixture)
        m = state.matching
        got = {(int(i), int(j)) for i, j in zip(*np.nonzero(m.matched))}
        assert (got, state.r.tolist()) == (pairs, p + q), fixture
        assert placed == len(pairs) == int(m.deg[state.s :].sum())
        assert m.deg[: state.s].tolist() == m.matched.sum(axis=1).tolist() and not (m.deg - m.extra)[: state.s].any()
        assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)
        checked += 1
        tied += ties
    assert checked >= 300 and tied >= 40, (checked, tied)


def test_set_start_records_a_column_above_its_demand():
    # Both unit rows take column 0, which demands 1 of a capacity of 2:
    # its second pair sits on its surplus copy, as a parked unit would.
    state = SolverState(inst([[0, 0], [0, 0]], [1, 1], [1, 1], [1, 0], [2, 1]))
    pick = np.array([[True, False], [True, False]])
    zero = np.zeros(2, dtype=np.int64)
    assert solver_module._set_start(state, pick, zero, zero) == 2  # passes check_dual_invariants
    assert state.matching.extra.tolist() == [0, 0, 1, 0]


def test_surplus_counts_balance_the_pool(monkeypatch):
    # A unit on a column's surplus copy came into the pool and a unit on a
    # row's left it.  Each pair the start puts on a row's surplus copy
    # takes one out (it puts none on a column's), a phase-1 pool finish
    # leaves one unit in the pool and spends one of park budget, a
    # pass-through leaves none, and a phase-2 search takes one out.
    original_start, original_grow = solver_module._set_start, solver_module.grow_forest
    starts, roots = [], []

    def starting(state, *args):
        placed = original_start(state, *args)
        starts.append((state.matching.parks_left, int(state.matching.extra[: state.s].sum())))
        return placed

    def counting(state, root):
        roots.append(root >= state.s)  # a column root
        return original_grow(state, root)

    monkeypatch.setattr(solver_module, "_set_start", starting)
    monkeypatch.setattr(solver_module, "grow_forest", counting)
    rng = random.Random(0x9001)
    checked = fed_at_start = 0
    for _ in range(3000):
        fixture = draw_instance(rng, max_s=6, max_t=6, cap_max=4)
        states, starts[:], roots[:] = [], [], []
        try:
            solve_ga(fixture, observer=states.append)
        except ValueError:  # InfeasibleInstanceError included
            continue
        if not states:
            continue  # nothing placed
        st = states[-1]
        m, s = st.matching, st.s
        (budget, fed), = starts
        into_pool = int(m.extra[s:].sum()) - int(m.extra[:s].sum())
        assert into_pool == budget - m.parks_left - sum(roots) - fed, fixture
        checked += 1
        fed_at_start += fed > 0
    assert checked >= 2000 and fed_at_start >= 500, (checked, fed_at_start)


def test_park_budget_on_the_matching_equals_the_rule_before_every_row_search(monkeypatch):
    # The start sets parks_left by park_budget() and only augment lowers
    # it, yet before every row search it equals park_budget() recomputed
    # on the current matching, and it is 0 once phase 1 ends: at every
    # column search and after the solve (see _column_start).  The state
    # keeps only the matching and its duals between searches.
    original = solver_module.grow_forest
    counts = {"row searches with budget": 0, "last unit parked": 0}

    def checked(state, root):
        m = state.matching
        left = m.parks_left
        if root < state.s:
            assert left == m.park_budget(), root
            counts["row searches with budget"] += left > 0
        else:
            assert left == 0, root
        path = original(state, root)
        counts["last unit parked"] += left == 1 and path.nodes[-1] == state.s + state.t
        return path

    monkeypatch.setattr(solver_module, "grow_forest", checked)
    rng = random.Random(0xB0D6E7)
    solved = 0
    for _ in range(1500):
        fixture = draw_instance(rng, max_s=6, max_t=6, cost_max=10**6, cap_max=4)
        states = []
        try:
            solve_ga(fixture, observer=states.append)
        except InfeasibleInstanceError:
            continue
        solved += 1
        if states:
            assert states[-1].matching.parks_left == 0 == states[-1].matching.park_budget()
            assert vars(states[-1]).keys() == {"inst", "s", "t", "offset", "matching", "r", "dual_updates"}
    assert solved >= 1000, solved
    assert counts["row searches with budget"] >= 1500 and counts["last unit parked"] >= 600, counts


def test_top_of_domain_stays_exact_on_row_demand_zero_shapes(monkeypatch):
    # Every row demand 0, so the column start sets the first labels:
    # r in [-C, 0] on rows and in [0, C] on columns (see _check_exact_domain),
    # with C the largest cost the domain accepts at this size.  Each shape up to
    # 3x3 meets a column of demand 0 and a row of capacity 0, and each with
    # s, t >= 2 a row over its capacity whose kept and dropped pairs tie
    # on c - q.
    original = solver_module._column_start
    starts = []

    def recording(state):
        placed = original(state)
        starts.append((state.r[: state.s].copy(), state.r[state.s :].copy()))
        return placed

    monkeypatch.setattr(solver_module, "_column_start", recording)
    rng = random.Random(0x70D2)
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            # A row over its capacity needs two columns to take it, and
            # another row to serve what it drops.
            want = {"demand-0 column", "capacity-0 row"} | ({"tied over-capacity row"} if s > 1 < t else set())
            seen, solved = set(), 0
            for _ in range(5000):
                if solved >= 25 and seen == want:
                    break
                fixture = _draw_row_demand_zero(rng, s, t, 1)
                if not feasibility_check(fixture)[0]:
                    continue
                bounds = fixture.a_demand, fixture.a_capacity, fixture.b_demand, fixture.b_capacity
                pairs = min(sum(min(c, t) for c in fixture.a_capacity), sum(min(c, s) for c in fixture.b_capacity))
                top = (INF - 1) // (2 * s * t * (pairs + s + t + 1))
                # Costs of 0 and top tie c - q within a row that two of its
                # columns take as their last row.
                cost = [[rng.choice((0, top, top, rng.randint(0, top))) for _ in range(t)] for _ in range(s)]
                cost[rng.randrange(s)][rng.randrange(t)] = top
                top_inst = inst(cost, *bounds)
                starts.clear()
                asg, rep = solve_ga(top_inst)
                assert asg.total_cost == rep.dual_objective == brute_force_optimum(top_inst).total_cost, top_inst
                (p, q), = starts
                assert -top <= p.min() and p.max() <= 0 and 0 <= q.min() and q.max() <= top
                solved += 1
                seen |= {"demand-0 column"} if 0 in fixture.b_demand else set()
                seen |= {"capacity-0 row"} if 0 in fixture.a_capacity else set()
                seen |= {"tied over-capacity row"} if _column_start_reference(top_inst)[3] else set()
                cost[0][0] = top + 1
                with pytest.raises(ValueError, match="overflow"):
                    solve_ga(inst(cost, *bounds))
            assert solved >= 25 and seen == want, (s, t, solved, seen)


def test_top_of_domain_stays_exact_on_shapes_with_row_demand():
    # Rows with demand: the column start sets the first labels and phase 1
    # runs after it.  With C the largest cost the domain accepts at this
    # size, every entry of r stays within K = (P + 1)*C after the start and
    # after every augmentation (see _check_exact_domain), and the final
    # duals certify the cost in Python integers.  Each shape up to 3x3
    # meets a row search, and each with s, t >= 2 a row over its capacity
    # that has demand.
    rng = random.Random(0x70D3)
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            # A row over its capacity needs two columns to take it, and
            # another row to serve what it drops.
            want = {"row search"} | ({"over-capacity row with demand"} if s > 1 < t else set())
            seen, solved = set(), 0
            for _ in range(5000):
                if solved >= 25 and seen == want:
                    break
                fixture = _draw_bounds(rng, s, t, 1)
                if not any(fixture.a_demand) or _all_unit(fixture) or not feasibility_check(fixture)[0]:
                    continue
                bounds = fixture.a_demand, fixture.a_capacity, fixture.b_demand, fixture.b_capacity
                demand = [*fixture.a_demand, *fixture.b_demand]
                capacity = [*(min(c, t) for c in fixture.a_capacity), *(min(c, s) for c in fixture.b_capacity)]
                pairs = min(sum(capacity[:s]), sum(capacity[s:]))
                top = (INF - 1) // (2 * s * t * (pairs + s + t + 1))
                cost = [[rng.choice((0, top, top, rng.randint(0, top))) for _ in range(t)] for _ in range(s)]
                cost[rng.randrange(s)][rng.randrange(t)] = top
                top_inst = inst(cost, *bounds)
                states, widest = [], []

                def watch(state):
                    states[:] = [state]
                    widest.append(int(np.abs(state.r).max()))

                asg, rep = solve_ga(top_inst, observer=watch)
                assert max(widest) <= (pairs + 1) * top, top_inst
                r = [int(x) for x in states[0].r]
                dual = sum(d * max(x, 0) - c * max(-x, 0) for d, c, x in zip(demand, capacity, r)) - sum(
                    max(0, r[i] + r[s + j] - cost[i][j]) for i in range(s) for j in range(t)
                )
                assert asg.total_cost == rep.dual_objective == dual == brute_force_optimum(top_inst).total_cost, top_inst
                solved += 1
                seen |= {"row search"} if rep.phase1_augmentations else set()
                over = _column_start_reference(top_inst)[4]
                seen |= {"over-capacity row with demand"} if any(fixture.a_demand[i] for i in over) else set()
                cost[0][0] = top + 1
                with pytest.raises(ValueError, match="overflow"):
                    solve_ga(inst(cost, *bounds))
            assert solved >= 25 and seen == want, (s, t, solved, seen)


def test_random_bounds_match_the_referees():
    # The column start runs on every instance that is not all-unit, and
    # the park budget is then recomputed from its matching (see
    # _column_start).  Over random bounds, solve_ga must call an instance
    # infeasible exactly when feasibility_check does, and price every other
    # one as solve_flow_reference does.
    rng = random.Random(0xB0D6)
    feasible = infeasible = 0
    for k in range(3000):
        fixture = _draw_bounds(rng, rng.randint(1, 6), rng.randint(1, 6), (0, 2, 20, 10**6)[k % 4])
        ok = feasibility_check(fixture)[0]
        try:
            asg, rep = solve_ga(fixture)
        except InfeasibleInstanceError:
            assert not ok, fixture
            infeasible += 1
            continue
        assert ok, fixture
        assert asg.total_cost == rep.dual_objective == solve_flow_reference(fixture).total_cost, fixture
        feasible += 1
    assert feasible >= 1000 and infeasible >= 1000, (feasible, infeasible)


def test_row_demand_zero_instances_match_the_flow_reference():
    rng = random.Random(0xF10)
    feasible = infeasible = 0
    for cost_max in (0, 1, 3, 20, 10**6):
        for _ in range(420):
            fixture = _draw_row_demand_zero(rng, rng.randint(1, 7), rng.randint(1, 7), cost_max)
            try:
                want = solve_flow_reference(fixture)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    solve_ga(fixture)
                infeasible += 1
                continue
            asg, rep = solve_ga(fixture)
            assert asg.total_cost == rep.dual_objective == want.total_cost, fixture
            assert check_assignment(fixture, asg).feasible
            feasible += 1
    assert feasible >= 1000 and infeasible >= 200, (feasible, infeasible)


def test_row_demand_zero_instances_match_highs():
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    rng = random.Random(0x41635)
    solved = 0
    for s, t in ((1, 1), (3, 7), (8, 5), (13, 21), (34, 21), (40, 60), (60, 60)):
        for cost_max in (3, 10**6):
            fixture = None
            while fixture is None:
                a_cap = [rng.randint(0, 3 * t // s + 2) for _ in range(s)]
                b_cap = [rng.randint(0, min(s, 4)) for _ in range(t)]
                b_dem = [rng.randint(0, c) for c in b_cap]
                cost = [[rng.randint(0, cost_max) for _ in range(t)] for _ in range(s)]
                candidate = inst(cost, [0] * s, a_cap, b_dem, b_cap)
                fixture = candidate if feasibility_check(candidate)[0] else None
            # x_ij in [0, 1], row sums in [0, a_cap], column sums in
            # [b_dem, b_cap]: a bipartite LP, so its optimum is integral.
            cells = np.arange(s * t)
            rows = sparse.csr_matrix((np.ones(s * t), (cells // t, cells)), shape=(s, s * t))
            cols = sparse.csr_matrix((np.ones(s * t), (cells % t, cells)), shape=(t, s * t))
            res = optimize.linprog(
                np.array(cost, dtype=float).ravel(),
                A_ub=sparse.vstack([rows, cols, -cols]),
                b_ub=np.concatenate([a_cap, b_cap, np.negative(b_dem)]).astype(float),
                bounds=(0, 1),
                method="highs",
            )
            assert res.status == 0, res.message
            asg, rep = solve_ga(fixture)
            assert asg.total_cost == rep.dual_objective == round(res.fun), (s, t, cost_max)
            assert check_assignment(fixture, asg).feasible
            solved += 1
    assert solved == 14


def test_column_start_serves_every_instance_that_is_not_all_unit(monkeypatch):
    original = solver_module.grow_forest
    searches = []

    def counting(state, root):
        searches.append("a" if root < state.s else "b")
        return original(state, root)

    monkeypatch.setattr(solver_module, "grow_forest", counting)
    rng = random.Random(0xC02)
    seen = []
    started = 0
    for _ in range(200):
        fixture = _draw_row_demand_zero(rng, rng.randint(2, 9), rng.randint(2, 9), 5)
        if not feasibility_check(fixture)[0]:
            continue
        searches.clear()
        seen.clear()
        _, rep = solve_ga(fixture, observer=seen.append)
        assert rep.phase1_augmentations == 0 and rep.phase2_augmentations == sum(fixture.b_demand)
        assert len(searches) == rep.phase2_augmentations - rep.warm_start_pairs
        # The observer sees a start that placed pairs once, then each search.
        assert len(seen) == len(searches) + (rep.warm_start_pairs > 0)
        started += rep.warm_start_pairs > 0
    assert started >= 30, started
    # With row demand too: phase 1 searches from the rows the start left
    # short, and the start's pairs count as phase-2 units.
    row_units = 0
    for _ in range(200):
        fixture = draw_feasible(rng, max_s=9, max_t=9, cap_max=4)
        if _all_unit(fixture) or not any(fixture.a_demand):
            continue
        searches.clear()
        seen.clear()
        _, rep = solve_ga(fixture, observer=seen.append)
        assert rep.phase1_augmentations == searches.count("a")
        assert rep.phase2_augmentations == rep.warm_start_pairs + searches.count("b")
        assert len(seen) == len(searches) + (rep.warm_start_pairs > 0)
        row_units += sum(fixture.a_demand) - rep.phase1_augmentations
    assert row_units >= 100, row_units
    # One row demand of 1: the start meets it, and no search runs.
    searches.clear()
    _, rep = solve_ga(inst([[1, 2], [3, 1]], [1, 0], [2, 2], [1, 1], [1, 1]))
    assert (rep.warm_start_pairs, rep.phase1_augmentations, rep.phase2_augmentations, len(searches)) == (2, 0, 2, 0)


def test_phase_loop_visits_only_the_vertices_short_after_the_start(monkeypatch, rng):
    # Only a path's two ends raise a demand count and nothing lowers one,
    # so the phase loop asks unmet once per search and once more per
    # vertex the start left short, not once per vertex.  grow_forest's own
    # check of its root is not counted.
    original_unmet = solver_module.CapacitatedMatching.unmet
    original_grow, original_start = solver_module.grow_forest, solver_module._set_start
    counts, searching = {"unmet": 0, "searches": 0, "short": 0}, []

    def unmet(m, v):
        counts["unmet"] += not searching
        return original_unmet(m, v)

    def growing(state, root):
        counts["searches"] += 1
        searching.append(root)
        try:
            return original_grow(state, root)
        finally:
            searching.pop()

    def starting(state, *args):
        placed = original_start(state, *args)
        m = state.matching
        counts["short"] += int((m.deg - m.extra < m.demand).sum())
        return placed

    monkeypatch.setattr(solver_module.CapacitatedMatching, "unmet", unmet)
    monkeypatch.setattr(solver_module, "grow_forest", growing)
    monkeypatch.setattr(solver_module, "_set_start", starting)
    fixtures = [draw_feasible(rng, max_s=9, max_t=9, cap_max=4) for _ in range(60)]
    fixtures += [draw_unit(rng, n) for n in (5, 12)]
    searched = 0
    for fixture in fixtures:
        counts.update(unmet=0, searches=0, short=0)
        solve_ga(fixture)
        assert counts["unmet"] <= counts["searches"] + counts["short"], (fixture, counts)
        searched += counts["searches"]
    assert searched >= 100, searched


# A search finishes at the first finish tied at the distance it is
# settling, instead of settling every lower-id node at that distance
# first.  Each hand-built case below pins the search's terminal and the
# number of nodes it settled.
def _searched(fixture, roots):
    """Route one unit from each root, a node id, in turn, as a solve does;
    return the last path."""
    state = SolverState(fixture)
    for root in roots:
        path = grow_forest(state, root)
        augment(state.matching, path)
        state.apply_potentials(path)
    return path


def test_row_search_finishes_at_a_short_column_tied_with_its_root():
    # Row 1 reaches short column 2 at distance 0 on its own.  Settling
    # ties by id would take column 0, row 0 through the matched pair
    # (0, 0), then short column 1: four settles and a three-step path.
    fixture = inst([[0, 0, 9], [0, 5, 0]], [1, 1], [2, 2], [1, 1, 1], [1, 1, 1])
    path = _searched(fixture, [0, 1])
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled)) == (4, 0, 2)
    assert path.nodes == (1, 4) and _leaf(path) == ("b", 2)
    assert path.steps == (("match", 1, 2),)


def test_row_search_with_park_budget_finishes_at_the_pool_once_it_ties():
    # Every column has demand 0 and a spare slot, and the row demand is
    # a park budget of 1.  Column 0's spare slot puts the pool at 0, so
    # the pool settles next instead of after columns 1 to 3.
    fixture = inst([[0, 0, 0, 0]], [1], [2], [0, 0, 0, 0], [1, 1, 1, 1])
    path = _searched(fixture, [0])
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled)) == (5, 0, 3)
    assert path.nodes[-1] == 1 + 4 and path.nodes == (0, 1, 5) and _leaf(path) == ("b'", 0)
    assert path.steps == (("match", 0, 0), ("park", 0))


def test_column_search_finishes_at_the_pool_once_it_ties():
    # Rows 1 to 4 tie at 0 from column 1, each with a spare slot.  Row 1
    # puts the pool at 0, so the pool settles next instead of after rows
    # 2 to 4.
    fixture = inst([[0, 9], [0, 0], [0, 0], [0, 0], [0, 0]], [1, 0, 0, 0, 0], [1] * 5, [1, 1], [2, 2])
    path = _searched(fixture, [0, 6])
    f = _search(path)
    assert (f.orientation, f.terminal, f.terminal_dist, sum(f.settled)) == ("col", 7, 0, 3)
    assert path.nodes == (7, 1, 6) and path.nodes[-1] != 5 + 2 and _leaf(path) == ("a'", 1)
    assert path.steps == (("feed", 1), ("match", 1, 1))


def test_row_search_with_park_budget_finishes_through_the_first_pool_relax():
    # Potentials set by hand: in a solve, phase 1 keeps every pool arc
    # tight while park budget remains, so the first spare slot settled at
    # the pool's distance ends the search.  Here column 1's spare slot
    # costs 1 and column 0's 0.  Column 1 settles at 0 and puts the pool
    # at 1; column 0 settles at 1 and ties it.  The path parks in column
    # 1, whose relax set the pool's distance; preferring the lowest spare
    # slot would park in column 0 at the same cost.
    state = SolverState(inst([[2, 2]], [1], [2], [0, 0], [1, 1]))
    state.r[:] = [1, 0, 1]
    state.check_dual_invariants()
    path = grow_forest(state, 0)
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled), f.parent[3]) == (3, 1, 4, 2)
    assert path.nodes[-1] == 1 + 2 and path.nodes == (0, 2, 3) and _leaf(path) == ("b'", 1)
    assert path.steps == (("match", 0, 1), ("park", 1))


def test_column_search_finishes_through_the_first_pool_relax():
    # Phase 1 leaves row 0's unit parked in column 0 (demand 0), and row 1
    # with a spare slot.  From column 1, column 0 settles at 0 and its
    # parked unit puts the pool at 1; row 1 settles next at 0 and its
    # spare slot ties it.  The path releases column 0's unit, whose relax
    # set the pool's distance; preferring spare slots would feed row 1 at
    # the same cost.
    fixture = inst([[2, 3], [0, 1], [3, 0]], [1, 1, 0], [2, 2, 2], [0, 3], [1, 3])
    path = _searched(fixture, [0, 1, 4])
    f = _search(path)
    assert (f.orientation, f.terminal, f.terminal_dist, sum(f.settled), f.parent[5]) == ("col", 5, 1, 5, 3)
    assert path.nodes == (5, 3, 0, 4) and _leaf(path) == ("b'", 0)
    assert path.steps == (("release", 0), ("unmatch", 0, 0), ("match", 0, 1))


# Once the pool passes a unit through (row roots, no park budget left),
# the rows it feeds at one distance settle in one step when the pick is
# one of them.  Each case below is a search from row 0: column 0's spare
# slot puts the pool at 0, and the pool feeds rows 1 to 3 at 0.
def test_rows_the_pool_feeds_settle_together_and_finish_at_the_lowest_tight_row():
    # Rows 1 to 3 are all tight to short column 1.  Settling one row at a
    # time ends at row 1 (5 settles); the batch settles rows 2 and 3 too,
    # and the path is the same.
    state = SolverState(inst([[0, 5], [9, 0], [9, 0], [9, 0]], [1, 0, 0, 0], [1, 1, 1, 1], [0, 1], [1, 1]))
    path = grow_forest(state, 0)
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled), f.parent[5]) == (5, 0, 7, 1)
    assert f.parent[1:4] == (6, 6, 6) and f.dist[1:4] == (0, 0, 0)
    assert path.nodes == (0, 4, 6, 1, 5) and _leaf(path) == ("b", 1)
    assert path.steps == (("match", 0, 0), ("park", 0), ("feed", 1), ("match", 1, 1))


def test_rows_the_pool_feeds_relax_each_column_from_the_lowest_row_at_its_minimum():
    # No fed row is tight to short column 1.  The fed rows reach column 1
    # at 3, 2, 2 and column 2 at 0, 0, 0; each column's parent is the
    # lowest row at its minimum, as when the rows settle one at a time.
    fixture = inst(
        [[0, 5, 9], [9, 3, 0], [9, 2, 0], [9, 2, 0]], [1, 0, 0, 0], [1] * 4, [0, 1, 0], [1, 1, 1]
    )
    path = grow_forest(SolverState(fixture), 0)
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled)) == (5, 2, 8)
    assert f.parent[4:] == (0, 2, 1, 4)  # columns 0 to 2, then the pool
    assert path.nodes == (0, 4, 7, 2, 5)
    assert path.steps == (("match", 0, 0), ("park", 0), ("feed", 2), ("match", 2, 1))


def test_rows_the_pool_feeds_finish_at_the_lowest_short_column_any_of_them_reaches():
    # Fed row 1 is tight only to short column 2 and fed row 2 only to
    # short column 1.  The step that settles both finishes nothing: its
    # relax puts both columns at 0, and the tie check then takes column 1,
    # the lower, from row 2.  Column 2 stays unsettled, at 0 from row 1.
    fixture = inst([[0, 5, 5], [9, 9, 0], [9, 0, 9]], [1, 0, 0], [1] * 3, [0, 1, 1], [1] * 3)
    path = grow_forest(SolverState(fixture), 0)
    f = _search(path)
    assert (f.terminal, f.terminal_dist, sum(f.settled), f.parent[4]) == (4, 0, 6, 2)
    assert f.settled[1:3] == (True, True) and f.parent[1:3] == (6, 6)
    assert (f.settled[5], f.dist[5], f.parent[5]) == (False, 0, 1)
    assert path.nodes == (0, 3, 6, 2, 4) and _leaf(path) == ("b", 1)
    assert path.steps == (("match", 0, 0), ("park", 0), ("feed", 2), ("match", 2, 1))


def _reference_search(state, root):
    """A plain heap Dijkstra from node ``root`` over the residual graph,
    in reduced costs, that settles a finish without relaxing from it.
    Returns the distances it reached and the finishes: the far side's
    short nodes, and the pool where the park budget is left or the root
    is a column."""
    m, s, t = state.matching, state.s, state.t
    pool = s + t
    forward = root < s
    side_x = range(s) if forward else range(s, pool)
    side_y = range(s, pool) if forward else range(s)
    cost, matched, r = m.cost.tolist(), m.matched.tolist(), state.r.tolist()
    extra, surplus = m.extra.tolist(), m.surplus.tolist()
    finishes = {y for y in side_y if m.deg[y] - extra[y] < m.demand[y]}
    if m.parks_left > 0 or not forward:
        finishes.add(pool)

    def pair(x, y):
        i, j = (x, y - s) if forward else (y, x - s)
        return cost[i][j], matched[i][j]

    def arcs(u):
        if u == pool:
            yield from ((x, r[x]) for x in side_x if extra[x] < surplus[x])
            yield from ((y, -r[y]) for y in side_y if extra[y] > 0)
        elif u in side_x:
            for y in side_y:
                c, on = pair(u, y)
                if not on:
                    yield y, c - r[u] - r[y]
            if extra[u] > 0:
                yield pool, -r[u]
        else:
            for x in side_x:
                c, on = pair(x, u)
                if on:
                    yield x, r[x] + r[u] - c
            if extra[u] < surplus[u]:
                yield pool, r[u]

    dist, done, heap = {root: 0}, set(), [(0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u in finishes:
            continue
        for v, w in arcs(u):
            assert w >= 0, (root, u, v, w)
            if d + w < dist.get(v, INF):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist, finishes


def test_searches_agree_with_a_reference_dijkstra(monkeypatch):
    # Every node a search settles has the reference distance, and the
    # search ends at a finish that no other finish beats.  A stuck search
    # must leave every finish unreached.  The corpus mixes general draws,
    # tie-heavy draws whose park budget runs out, so that the pool feeds
    # rows, and all-unit draws whose one bidding round leaves the
    # searches to the free columns.  grow_forest calls np.arange only in
    # the step that settles the rows the pool fed, which counts them.
    original = solver_module.grow_forest
    counts = {"row": 0, "col": 0, "all-unit col": 0, "stuck": 0, "fed steps": 0}

    class CountingNumpy:
        inside = False

        def __getattr__(self, name):
            return getattr(np, name)

        def arange(self, *args, **kwargs):
            counts["fed steps"] += self.inside
            return np.arange(*args, **kwargs)

    counting = CountingNumpy()

    def checked(state, root):
        want, finishes = _reference_search(state, root)
        counting.inside = True
        try:
            path = original(state, root)
        except InfeasibleInstanceError:
            assert not finishes & want.keys(), (root, want, finishes)
            counts["stuck"] += 1
            raise
        finally:
            counting.inside = False
        f = _search(path)
        assert all(f.dist[v] == want[v] for v, done in enumerate(f.settled) if done), (root, f, want)
        assert f.terminal in finishes, (root, f.terminal, finishes)
        assert min(want[v] for v in finishes & want.keys()) == f.terminal_dist, (root, f, want)
        counts[f.orientation] += 1
        m = state.matching
        counts["all-unit col"] += f.orientation == "col" and bool((m.demand == 1).all() and (m.capacity == 1).all())
        return path

    monkeypatch.setattr(solver_module, "grow_forest", checked)
    monkeypatch.setattr(solver_module, "np", counting)
    monkeypatch.setattr(solver_module, "_BID_ROUNDS", 1)
    rng = random.Random(0x5EF)
    fixtures = [draw_instance(rng, max_s=7, max_t=7, cost_max=(0, 1, 2, 20)[k % 4],
                              cap_max=rng.randint(1, 4)) for k in range(1000)]
    while len(fixtures) < 1700:
        fixture = draw_instance(rng, max_s=7, max_t=7, cost_max=len(fixtures) % 3, cap_max=rng.randint(1, 4))
        if sum(fixture.a_demand) <= sum(fixture.b_demand):
            fixtures.append(fixture)
    fixtures += [draw_unit(rng, rng.randint(1, 9), (0, 2, 20)[k % 3]) for k in range(400)]
    for fixture in fixtures:
        try:
            solve_ga(fixture)
        except ValueError:  # InfeasibleInstanceError included
            pass
    assert min(counts.values()) >= 5 and counts["fed steps"] >= 20 and counts["all-unit col"] >= 200, counts


def test_tie_heavy_instances_without_park_budget_settle_fed_rows_together(monkeypatch):
    # Total row demand at most total column demand keeps the park budget
    # low: only the column start's pairs on row surplus copies raise it
    # (see _column_start).  Where it is 0 the pool never ends a row search
    # and every pass-through feeds rows.  The start places most units, so
    # it takes 2,000 solves to see enough searches.  Costs up to 0, 1 or 2
    # tie the fed rows.  Some searches must settle two or more
    # fed rows at one distance, and some must settle a fed row above the
    # finishing row at the finish's distance, which only the batch does.
    original = solver_module.grow_forest
    seen = {"together": 0, "past the finish": 0}

    def counting(state, root):
        path = original(state, root)
        f, s = _search(path), state.s
        fed = [x for x in range(s) if f.settled[x] and f.parent[x] == state.s + state.t]
        dists = [f.dist[x] for x in fed]
        seen["together"] += any(dists.count(d) >= 2 for d in dists)
        u = f.parent[f.terminal]
        if f.orientation == "row" and 0 <= u < s and u in fed and f.dist[u] == f.terminal_dist:
            seen["past the finish"] += any(x > u and f.dist[x] == f.terminal_dist for x in fed)
        return path

    monkeypatch.setattr(solver_module, "grow_forest", counting)
    rng = random.Random(0xBA7C)
    checked = solved = 0

    def watch(state):
        nonlocal checked
        state.check_dual_invariants()
        checked += 1

    while solved < 2000:
        fixture = draw_feasible(rng, max_s=7, max_t=7, cost_max=solved % 3, cap_max=rng.randint(1, 4))
        if sum(fixture.a_demand) > sum(fixture.b_demand):
            continue
        asg, rep = solve_ga(fixture, observer=watch)
        assert asg.total_cost == rep.dual_objective == solve_flow_reference(fixture).total_cost, fixture
        solved += 1
    assert checked >= 1000 and min(seen.values()) >= 10, (checked, seen)


def test_tie_heavy_instances_match_the_flow_reference(monkeypatch):
    # Costs up to 0, 1 or 2 tie nearly everywhere, so many searches end at
    # a tied finish.  The duals must stay feasible after every augmentation,
    # and every pool finish must end through its parent: a settled node
    # whose pool arc reaches the terminal distance exactly, and the leaf's.
    original = solver_module.grow_forest
    pool_finishes = {"row": 0, "col": 0}

    def finishing(state, root):
        path = original(state, root)
        f = _search(path)
        if f.terminal == state.s + state.t:
            u = f.parent[f.terminal]
            # Reduced cost of u's pool arc in the search's direction, read
            # before the solve applies this search's dual update.
            flip = 1 if f.orientation == "row" else -1
            if u < state.s:
                leaf, arc = ("a'", u), -flip * int(state.r[u])
            else:
                leaf, arc = ("b'", u - state.s), flip * int(state.r[u])
            assert f.settled[u] and f.dist[u] + arc == f.terminal_dist and _leaf(path) == leaf, (root, f)
            pool_finishes[f.orientation] += 1
        return path

    monkeypatch.setattr(solver_module, "grow_forest", finishing)
    rng = random.Random(0x71E5)
    checked = feasible = infeasible = 0

    def watch(state):
        nonlocal checked
        state.check_dual_invariants()
        checked += 1

    for k in range(4500):  # the column start places most units: more draws for as many searches
        fixture = draw_instance(rng, max_s=7, max_t=7, cost_max=k % 3, cap_max=rng.randint(1, 4))
        try:
            want = solve_flow_reference(fixture)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                solve_ga(fixture)
            infeasible += 1
            continue
        asg, rep = solve_ga(fixture, observer=watch)
        assert asg.total_cost == rep.dual_objective == want.total_cost, fixture
        assert check_assignment(fixture, asg).feasible
        feasible += 1
    assert feasible >= 1000 and infeasible >= 200 and checked >= 5000, (feasible, infeasible, checked)
    assert min(pool_finishes.values()) >= 500, pool_finishes

