from collections import Counter

import pytest

from bmatch import Instance, InfeasibleInstanceError, solve_ga, transform_costs
from bmatch.solver import SolverState


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


def test_transform_flips_order_and_keeps_sums_comparable():
    # The whole point of the affine transform: cheaper pair MULTISETS stay
    # better.  Costs {1,4} (sum 5) lose to {2,2} (sum 4); with W = 5 - c the
    # weights are {4,1} (sum 5) vs {3,3} (sum 6), same winner. A reciprocal
    # transform would invert that verdict.
    fixture = inst([[1, 4], [2, 2]], [1, 1], [1, 1], [1, 1], [1, 1])
    weights, tr = transform_costs(fixture)
    assert tr.c_max == 4 and tr.offset == 5
    assert weights == ((4, 1), (3, 3))
    assert sum((4, 1)) < sum((3, 3))


def test_transform_round_trips_and_is_positive():
    fixture = inst([[0, 7], [3, 2]], [1, 1], [1, 1], [1, 1], [1, 1])
    weights, tr = transform_costs(fixture)
    for i in range(2):
        for j in range(2):
            w = weights[i][j]
            assert w >= 1
            assert tr.to_cost(w) == fixture.cost[i][j]
            assert tr.to_weight(fixture.cost[i][j]) == w


# The paper's copy quotas live on the matching: entry k of ``demand`` is
# the demand copy's quota of vertex k (rows, then columns), and entry k
# of ``surplus`` the surplus copy's, ``capacity - demand``.


def test_quota_arithmetic():
    m = SolverState(inst([[1, 1, 1], [1, 1, 1]], [1, 1], [2, 3], [2, 1, 0], [2, 1, 2])).matching
    assert m.demand.tolist() == [1, 1, 2, 1, 0]
    assert m.capacity.tolist() == [2, 3, 2, 1, 2]
    assert m.surplus.tolist() == [1, 2, 0, 0, 2]


def test_quota_zero_surplus_when_demand_equals_capacity():
    m = SolverState(inst([[1, 2], [3, 4]], [1, 1], [1, 1], [1, 1], [1, 1])).matching
    assert m.surplus.tolist() == [0, 0, 0, 0]


def test_surplus_only_vertex_has_no_surplus_surplus_edge():
    fixture = inst([[5]], [0], [1], [0], [1])
    m = SolverState(fixture).matching
    assert m.demand.tolist() == [0, 0] and m.surplus.tolist() == [1, 1]
    # The only pair would join two surplus copies, so no answer uses it.
    asg, _ = solve_ga(fixture)
    assert asg.pairs == () and asg.total_cost == 0


def test_build_rejects_invalid_instance():
    with pytest.raises(InfeasibleInstanceError, match="cannot be satisfied"):
        SolverState(inst([[1, 1]], [3], [3], [0, 0], [1, 1]))


def test_solver_allocations_survive_projection(rng):
    # Referee: a copy allocation of the solver's answer, rebuilt here
    # from scratch, must need no surplus-surplus pair.  The greedy split
    # fills the demand copies first, so every copy quota holds exactly
    # when every degree lies within its bounds.
    from conftest import draw_feasible
    from bmatch import solve_ga
    from bmatch.oracles import check_assignment

    # The first instance needs the solver's cleanup: without it, pair
    # (1, 0) would be above demand on both of its sides.
    needs_prune = inst([[0, 2, 1], [0, 0, 2]], [1, 1], [1, 3], [0, 1, 2], [1, 2, 2])
    for fixture in [needs_prune] + [draw_feasible(rng, max_s=3, max_t=3) for _ in range(60)]:
        asg, _ = solve_ga(fixture)
        # rebuild the copy allocation from scratch: demand slots first
        a_left = list(fixture.a_demand)
        b_left = list(fixture.b_demand)
        copy_pairs = []
        for i, j in asg.pairs:
            a_side = ("a", i) if a_left[i] > 0 else ("a'", i)
            if a_left[i] > 0:
                a_left[i] -= 1
            b_side = ("b", j) if b_left[j] > 0 else ("b'", j)
            if b_left[j] > 0:
                b_left[j] -= 1
            copy_pairs.append((a_side, b_side))
        # No returned pair may be above demand on both of its sides; the
        # greedy split then never needs a surplus-surplus pair.
        deg_a, deg_b = Counter(i for i, _ in asg.pairs), Counter(j for _, j in asg.pairs)
        assert not any(
            deg_a[i] > fixture.a_demand[i] and deg_b[j] > fixture.b_demand[j] for i, j in asg.pairs
        ), asg.pairs
        assert not any(x[0] == "a'" and y[0] == "b'" for x, y in copy_pairs), asg.pairs
        assert check_assignment(fixture, asg).feasible
