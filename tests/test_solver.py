"""Solver behavior: worked examples, regressions, and invariant checks.

The regression instances here were found by differential testing and by
hand analysis; each one broke (or would break) a simpler augmenting
strategy, so they are frozen verbatim.
"""

import dataclasses
import hashlib
import json
import random

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
    is_free,
    solve_ga,
    solve_lca,
)
from conftest import draw_feasible, draw_instance
from bmatch import solver as solver_module
from bmatch.oracles import brute_force_optimum, check_assignment
from bmatch.solver import INF, LIFT


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


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
        # Phase 1 satisfies the row with its cheaper column; the other
        # column's demand is then served by the row's spare capacity.
        asg, rep = solve_ga(inst([[2, 3]], [1], [2], [1, 1], [1, 1]))
        assert asg.pairs == ((0, 0), (0, 1))
        assert asg.total_cost == 5
        assert rep.phase2_augmentations == 1

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
        # Cheapest way to serve both the row demand and the column demand
        # is a single path through spare capacity: match (0,0), park
        # nothing, feed row 1, match (1,1).  Forcing one-pair-per-path
        # would pay 100 instead of 0.
        fixture = inst([[0, 100], [0, 0]], [1, 0], [1, 1], [0, 1], [1, 1])
        asg, rep = solve_ga(fixture)
        assert asg.total_cost == 0
        assert asg.pairs == ((0, 0), (1, 1))
        assert rep.phase1_augmentations == 1
        assert rep.phase2_augmentations == 0

    def test_saturated_four_cycle(self):
        # Both rows need both columns; the optimum is forced and the dual
        # certificate must still price it exactly.
        asg, rep = solve_ga(inst([[1, 0], [5, 1]], [2, 2], [2, 2], [0, 0], [2, 2]))
        assert asg.total_cost == 7
        assert rep.dual_objective == 7
        assert len(asg.pairs) == 4

    def test_zero_cost_surplus_pair_is_pruned(self):
        # Row 1's spare capacity lets the solver route through a zero-cost
        # pair that no demand needs; the cleanup pass must drop it and
        # report doing so, leaving an optimum.
        fixture = inst([[0, 2, 1], [0, 0, 2]], [1, 1], [1, 3], [0, 1, 2], [1, 2, 2])
        asg, rep = solve_ga(fixture)
        assert rep.pruned_pairs >= 1
        assert check_assignment(fixture, asg).feasible
        assert asg.total_cost == brute_force_optimum(fixture).total_cost == 3


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

    def test_is_free_tracks_quota(self):
        st = self.state()
        assert is_free(("a", 0), st.matching)
        assert not is_free(("b'", 0), st.matching)  # zero quota

    def test_single_edge_path_when_adjacent_column_is_free(self):
        st = self.state()
        path = grow_forest(st, ("a", 0))
        assert path.steps == (("match", 0, 0),)
        assert path.leaf == ("b", 0)
        assert path.forest.terminal_dist == 0

    def test_grow_rejects_saturated_root(self):
        st = self.state()
        path = grow_forest(st, ("a", 0))
        augment(st.matching, path)
        with pytest.raises(ValueError, match="free demand copy"):
            grow_forest(st, ("a", 0))

    def test_grow_rejects_surplus_root(self):
        with pytest.raises(ValueError, match="demand cop"):
            grow_forest(self.state(), ("a'", 0))

    def test_column_phase_enters_through_row_surplus(self):
        st = self.state()
        augment(st.matching, grow_forest(st, ("a", 0)))
        path = grow_forest(st, ("b", 1))
        assert path.leaf == ("a'", 0)
        assert ("match", 0, 1) in path.steps
        assert path.forest.orientation == "col"

    def test_forest_records_the_search(self):
        st = self.state()
        path = grow_forest(st, ("a", 0))
        f = path.forest
        assert len(f.dist) == len(f.parent) == len(f.settled) == 1 + 2 + 1  # rows, columns, pool
        assert f.settled[0] and f.dist[0] == 0  # the root row
        assert f.terminal == 1 and f.parent[1] == 0  # b0, reached from a0

    def test_augment_applies_steps_and_counters(self):
        st = self.state()
        path = grow_forest(st, ("a", 0))
        augment(st.matching, path)
        m = st.matching
        assert m.pairs == ((0, 0),)
        assert m.num(("a", 0)) == 1 and m.num(("a'", 0)) == 0
        assert m.num(("b", 0)) == 1 and m.num(("b'", 0)) == 0

    def test_augment_rejects_double_match(self):
        st = self.state()
        path = grow_forest(st, ("a", 0))
        augment(st.matching, path)
        with pytest.raises(InternalSolverError, match="already-matched"):
            augment(st.matching, AugmentingPath(
                root=("a", 0), leaf=("b", 0), steps=(("match", 0, 0),),
                finished_at_pool=False, forest=path.forest,
            ))

    def test_augment_rejects_bogus_unmatch(self):
        st = self.state()
        probe = grow_forest(st, ("a", 0))
        with pytest.raises(InternalSolverError, match="unmatches"):
            augment(st.matching, AugmentingPath(
                root=("a", 0), leaf=("b", 0), steps=(("unmatch", 0, 0),),
                finished_at_pool=False, forest=probe.forest,
            ))

    def hand_path(self, st, root, steps):
        probe = grow_forest(SolverState(st.inst), ("a", 0))
        return AugmentingPath(
            root=root, leaf=("b", 0), steps=steps, finished_at_pool=False, forest=probe.forest
        )

    def test_augment_rejects_park_above_surplus_quota(self):
        st = self.state()  # every column has capacity == demand: no surplus slot
        with pytest.raises(InternalSolverError, match="parked above its surplus quota"):
            augment(st.matching, self.hand_path(st, ("a", 0), (("park", 0),)))

    def test_augment_rejects_release_below_zero(self):
        st = self.state()
        with pytest.raises(InternalSolverError, match="released below zero"):
            augment(st.matching, self.hand_path(st, ("a", 0), (("release", 1),)))

    def test_augment_rejects_routing_above_demand(self):
        st = self.state()  # row 0 demands 1 and may take 2
        augment(st.matching, grow_forest(st, ("a", 0)))
        with pytest.raises(InternalSolverError, match="routed above its demand quota"):
            augment(st.matching, self.hand_path(st, ("a", 0), (("match", 0, 1),)))

    def test_augment_rejects_exceeding_a_capacity(self):
        st = SolverState(inst([[2, 3]], [1], [1], [0, 0], [1, 1]))
        steps = (("match", 0, 0), ("match", 0, 1))  # row 0 may take only 1
        with pytest.raises(InternalSolverError, match="exceeded a capacity"):
            augment(st.matching, self.hand_path(st, ("b", 0), steps))

    def test_augment_accepts_a_capacity_overshoot_that_the_path_undoes(self):
        # Column 0 (capacity 1) holds row 1.  A path from row 0 matches
        # (0, 0) before it unmatches (1, 0), so column 0 sits one above
        # its capacity midway and back within it at the end.
        st = SolverState(inst([[1], [2]], [1, 0], [1, 1], [1], [1]))
        m = st.matching
        augment(m, self.hand_path(st, ("b", 0), (("match", 1, 0),)))
        augment(m, self.hand_path(st, ("a", 0), (("match", 0, 0), ("unmatch", 1, 0))))
        assert m.pairs == ((0, 0),)
        assert list(m.deg_a) == [1, 0] and list(m.deg_b) == [1]
        assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)

    def test_forest_and_steps_are_plain_python_values(self):
        # Trace consumers sum and serialize these fields; numpy scalars
        # would break json.dumps.
        def plain(x):
            if isinstance(x, tuple):
                return all(plain(y) for y in x)
            return type(x) in (int, bool, str)

        st = self.state()
        row = grow_forest(st, ("a", 0))
        augment(st.matching, row)
        col = grow_forest(st, ("b", 1))
        for path in (row, col):
            f = path.forest
            for field in dataclasses.fields(f):
                assert plain(getattr(f, field.name)), field.name
            assert plain(path.steps) and plain(path.leaf)
            assert json.loads(json.dumps(sum(f.settled))) == sum(f.settled)
        assert (row.forest.orientation, col.forest.orientation) == ("row", "col")

    def test_state_construction_rejects_unservable_vertex(self):
        with pytest.raises(ValueError):
            SolverState(inst([[1]], [1], [1], [0], [0]))


def test_output_check_catches_broken_counters():
    st = SolverState(inst([[2, 3]], [0], [2], [0, 0], [1, 1]))
    solver_module._check_output(st)  # the empty matching meets every bound
    st.matching.deg_a[0] += 1
    with pytest.raises(InternalSolverError, match="disagree"):
        solver_module._check_output(st)
    demanding = SolverState(inst([[2, 3]], [1], [2], [0, 0], [1, 1]))
    with pytest.raises(InternalSolverError, match="outside its bounds"):
        solver_module._check_output(demanding)


def test_search_arrays_are_reset_after_every_search(monkeypatch):
    # The state's cand and unsettled arrays serve every search; each
    # search, stuck ones included, leaves them all INF and all True.
    original = solver_module.grow_forest
    seen = set()

    def checked(state, root):
        try:
            return original(state, root)
        except InfeasibleInstanceError:
            seen.add("stuck")
            raise
        finally:
            assert np.all(state.cand == INF) and state.unsettled.all(), root
            seen.add(root[0])

    monkeypatch.setattr(solver_module, "grow_forest", checked)
    rng = random.Random(0x5C4A7C)
    fixtures = [draw_instance(rng, max_s=5, max_t=5, cap_max=4) for _ in range(80)]
    # Passes the aggregate screen, then a search gets stuck.
    fixtures.append(inst([[1, 1, 1], [1, 1, 1], [0, 0, 0]], [3, 3, 0], [3, 3, 3], [0, 0, 0], [3, 3, 1]))
    for fixture in fixtures:
        try:
            solve_ga(fixture)
        except ValueError:  # InfeasibleInstanceError included
            pass
    assert seen == {"a", "b", "stuck"}


def test_search_after_another_equals_search_on_fresh_state():
    # A search that follows another one on the same state, stuck or not,
    # returns what the same search returns on a fresh state.
    def outcome(state, root):
        try:
            path = grow_forest(state, root)
        except InfeasibleInstanceError as err:
            return ("stuck", err.root, err.reached)
        return (path.forest, path.steps, path.leaf)

    rng = random.Random(0xF7E5)
    firsts = set()
    for _ in range(40):
        fixture = draw_feasible(rng, max_s=4, max_t=4, cap_max=3)
        state = SolverState(fixture)
        roots = [("a", i) for i in range(fixture.s) if fixture.a_demand[i]]
        roots += [("b", j) for j in range(fixture.t) if fixture.b_demand[j]]
        for first in roots:
            for then in roots:
                if then != first:
                    firsts.add(outcome(state, first)[0] == "stuck")
                    assert outcome(state, then) == outcome(SolverState(fixture), then)
    assert firsts == {True, False}


def test_search_with_a_settled_node_back_in_cand_raises():
    # Detach the live masks from the state's unsettled array, so relaxes
    # put settled nodes back into cand.  On this instance such a search
    # never ends by itself; it must raise once it has settled more nodes
    # than the graph has.
    fixture = inst([[2, 5], [1, 0]], [0, 1], [2, 1], [1, 2], [1, 2])
    state = SolverState(fixture)
    state.blocks = {
        group: tuple((cand, np.ones(len(cand), dtype=bool)) for cand, _ in views)
        for group, views in state.blocks.items()
    }
    with pytest.raises(InternalSolverError, match="settled more than its 5 nodes"):
        solver_module._solve(state, "ga", None, 0.0)
    with pytest.raises(InternalSolverError, match="cycle"):
        solver_module._reconstruct(np.array([1, 2, 0]), 0)


def test_lifted_matrix_follows_every_pair_flip(rng):
    # lifted == cost + LIFT * matched after every augmentation and after
    # the prune (the observer's state is the live one, pruned on return).
    states, pruned = [], 0

    def watch(state):
        m = state.matching
        assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)
        states[:] = [state]

    fixtures = [draw_feasible(rng, max_s=5, max_t=5, cap_max=4) for _ in range(60)]
    fixtures.append(inst([[0, 2, 1], [0, 0, 2]], [1, 1], [1, 3], [0, 1, 2], [1, 2, 2]))
    for fixture in fixtures:
        states.clear()
        _, rep = solve_ga(fixture, observer=watch)
        pruned += rep.pruned_pairs
        for state in states:
            m = state.matching
            assert np.array_equal(m.lifted, m.cost + LIFT * m.matched)
    assert pruned >= 1


def test_forest_read_late_equals_forest_read_at_once(monkeypatch):
    # Two identical solves in lockstep.  One reads each path's forest as
    # grow_forest returns; the other reads them only after the solve, by
    # which time later augmentations and dual updates have changed the
    # matching and the potentials the forest was computed from.
    fixture = inst(
        [[4, 1, 7, 3], [2, 8, 5, 6], [9, 3, 2, 4]],
        [2, 1, 0], [3, 2, 3], [1, 1, 1, 1], [2, 2, 2, 1],
    )
    original = solver_module.grow_forest

    def solve_recording(read_at_once):
        paths, forests = [], []

        def recording(state, root):
            path = original(state, root)
            paths.append(path)
            if read_at_once:
                forests.append(path.forest)
            return path

        monkeypatch.setattr(solver_module, "grow_forest", recording)
        _, rep = solve_ga(fixture)
        return paths, forests, rep

    _, at_once, rep = solve_recording(True)
    paths, _, _ = solve_recording(False)
    late = [path.forest for path in paths]
    assert rep.dual_updates >= 2 and rep.phase2_augmentations >= 1
    assert {f.orientation for f in late} == {"row", "col"}
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


# sha256 of every record of the seeded corpus below.  A change that moves
# a tie-break, a counter or a message changes it; such a change updates
# the constant and says why.
PINNED_OUTPUTS = "304e97efc178ca63872c3dcb871b3ed7f46648cfc20d4c22beb5f175bb5df3f2"


def test_outputs_are_pinned():
    rng = random.Random(0x9E3779B9)
    shapes = [{}] * 200 + [dict(max_s=7, max_t=7, cap_max=4, cost_max=30)] * 100 + [
        dict(max_s=6, max_t=6, demands_one=True)
    ] * 100
    records = [
        _solve_record(solve, fixture)
        for shape in shapes
        for fixture in [draw_instance(rng, **shape)]
        for solve in (solve_ga, solve_lca)
    ]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == PINNED_OUTPUTS


# sha256 of every search of the seeded corpus below: each forest snapshot
# with its path's steps and leaf, or a stuck search's root and reached
# set.  It pins the settle order and tie-breaks inside grow_forest, which
# PINNED_OUTPUTS sees only through the answers.  A change to the search
# loop must leave it as it is; a change that means to move a search
# updates it and says why.
PINNED_SEARCHES = "5e15846938d31c2ba5f190c93e7786c31194e944a9a94fb3d46398922a6b6057"


def test_searches_are_pinned(monkeypatch):
    original = solver_module.grow_forest
    records, seen = [], set()

    def recording(state, root):
        try:
            path = original(state, root)
        except InfeasibleInstanceError as err:
            records.append(["stuck", list(err.root), list(err.reached)])
            seen.add("stuck")
            raise
        f = path.forest
        pool = state.s + state.t
        root_id = root[1] if root[0] == "a" else state.s + root[1]
        for v, done in enumerate(f.settled):
            if done and v != root_id:
                assert f.parent[v] >= 0 and f.settled[f.parent[v]], (root, v)
        seen.add(f.orientation)
        if path.finished_at_pool:
            seen.add("pool finish")
        if f.settled[pool] and f.terminal != pool:
            seen.add("pool pass-through")  # the pool did not end it: no park budget left
        records.append([dataclasses.asdict(f), [list(op) for op in path.steps], list(path.leaf)])
        return path

    monkeypatch.setattr(solver_module, "grow_forest", recording)
    rng = random.Random(0x5EA7C4)
    shapes = (
        [dict(max_s=6, max_t=6, cap_max=4, cost_max=20)] * 150
        + [dict(max_s=5, max_t=5, cap_max=5)] * 100
        + [dict(max_s=7, max_t=7, demands_one=True)] * 50
    )
    for shape in shapes:
        try:
            solve_ga(draw_instance(rng, **shape))
        except ValueError:  # InfeasibleInstanceError included
            pass
    assert seen == {"row", "col", "pool finish", "pool pass-through", "stuck"}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == PINNED_SEARCHES, digest


class TestRuntimeInvariants:
    def test_dual_feasibility_after_every_augmentation(self, rng):
        checked = 0

        def watch(state):
            nonlocal checked
            state.check_dual_invariants()
            m = state.matching
            assert np.all(m.routed <= state.alpha)
            assert np.all(m.parked <= state.beta_cap - state.beta)
            assert np.all(m.deg_a >= m.routed)
            for i in range(state.s):
                assert m.num(("a", i)) + m.num(("a'", i)) == m.deg_a[i]
            for j in range(state.t):
                assert m.num(("b", j)) + m.num(("b'", j)) == m.deg_b[j]
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
            for i in range(state.s):
                assert m.num(("a", i)) == fixture.a_demand[i]
            for j in range(state.t):
                assert m.num(("b", j)) == fixture.b_demand[j]

    def test_phase_one_count_equals_total_row_demand(self, rng):
        for _ in range(30):
            fixture = draw_feasible(rng)
            _, rep = solve_ga(fixture)
            assert rep.phase1_augmentations == sum(fixture.a_demand)

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
    # distances spread as far as the domain allows.
    rng = random.Random(0x70D0)
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
                asg, rep = solve_ga(top_inst)
                assert asg.total_cost == brute_force_optimum(top_inst).total_cost, top_inst
                assert rep.dual_objective == asg.total_cost
