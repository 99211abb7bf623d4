"""Oracle correctness and cross-oracle agreement.

The oracles are the ground truth for everything else in the suite, so
they get tested against hand-computed answers and against each other.
"""

import hashlib
import itertools
import json
import random
import time
import tracemalloc

import pytest

from bmatch import Assignment, InfeasibleInstanceError, Instance, make_assignment, solve_ga
from bmatch.oracles import (
    DiffRecord,
    GenParams,
    brute_force_optimum,
    build_flow_network,
    check_assignment,
    differential_test,
    feasibility_check,
    random_instance,
    solve_flow_reference,
)
from bmatch.model import instance_to_json
from conftest import draw_feasible, draw_instance


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


def _literal_tie_rule(fixture):
    """The tie rule as defined, by plain enumeration: the least sorted
    pair tuple among the cheapest subsets that meet every bound, with
    all of those cheapest subsets."""
    cells = [(i, j) for i in range(fixture.s) for j in range(fixture.t)]
    feasible = []
    for n in range(len(cells) + 1):
        for subset in itertools.combinations(cells, n):  # sorted tuples
            rows = [sum(1 for i, _ in subset if i == r) for r in range(fixture.s)]
            cols = [sum(1 for _, j in subset if j == c) for c in range(fixture.t)]
            if all(lo <= d <= hi for d, lo, hi in zip(rows, fixture.a_demand, fixture.a_capacity)) and all(
                lo <= d <= hi for d, lo, hi in zip(cols, fixture.b_demand, fixture.b_capacity)
            ):
                feasible.append((sum(fixture.cost[i][j] for i, j in subset), subset))
    cheapest = min(cost for cost, _ in feasible)
    tied = [subset for cost, subset in feasible if cost == cheapest]
    return min(tied), tied


def _mask(fixture, pairs):
    return sum(1 << (i * fixture.t + j) for i, j in pairs)


class TestCheckAssignment:
    def test_good_assignment(self):
        fixture = inst([[3], [4]], [1, 1], [1, 1], [1], [2])
        report = check_assignment(fixture, make_assignment(fixture, [(0, 0), (1, 0)]))
        assert report.feasible
        assert report.degree_violations == ()
        assert report.duplicate_pairs == ()
        assert report.recomputed_cost == 7

    def test_unmet_row_demand_is_named(self):
        fixture = inst([[3], [4]], [1, 1], [1, 1], [1], [2])
        report = check_assignment(fixture, make_assignment(fixture, [(0, 0)]))
        assert not report.feasible
        assert ("a1", 0, (1, 1)) in report.degree_violations

    def test_column_capacity_overflow_is_named(self):
        fixture = inst([[1], [1], [1]], [0, 0, 0], [1, 1, 1], [0], [2])
        asg = make_assignment(fixture, [(0, 0), (1, 0), (2, 0)])
        report = check_assignment(fixture, asg)
        assert ("b0", 3, (0, 2)) in report.degree_violations

    def test_duplicates_reported_not_collapsed(self):
        # make_assignment rejects duplicates, so build the container directly
        fixture = inst([[2]], [0], [2], [0], [2])
        dup = Assignment(pairs=((0, 0), (0, 0)), total_cost=4)
        report = check_assignment(fixture, dup)
        assert not report.feasible
        assert report.duplicate_pairs == ((0, 0),)
        assert report.recomputed_cost == 4

    def test_out_of_range_pair_raises(self):
        fixture = inst([[2]], [0], [1], [0], [1])
        with pytest.raises(ValueError):
            check_assignment(fixture, Assignment(pairs=((0, 5),), total_cost=0))


class TestBruteForce:
    def test_hand_optimum(self):
        asg = brute_force_optimum(inst([[1, 10], [10, 1]], [1, 1], [2, 2], [1, 1], [1, 1]))
        assert asg.pairs == ((0, 0), (1, 1))
        assert asg.total_cost == 2

    def test_tie_break_is_lexicographic(self):
        asg = brute_force_optimum(inst([[0, 0]], [1], [1], [0, 0], [1, 1]))
        assert asg.pairs == ((0, 0),)  # (0,1) costs the same; smaller tuple wins

    def test_empty_set_wins_zero_demand_ties(self):
        asg = brute_force_optimum(inst([[0]], [0], [1], [0], [1]))
        assert asg.pairs == ()
        assert asg.total_cost == 0

    def test_tie_rule_matches_its_definition(self):
        # Cheap costs tie many subsets, so the rule decides most answers.
        rng = random.Random(0x71E5)
        prefix_ties = mask_order_differs = 0
        for k in range(300):
            max_s, max_t = ((4, 3), (3, 4), (2, 6), (6, 2))[k % 4]
            fixture = draw_feasible(rng, max_s=max_s, max_t=max_t, cost_max=k % 2)
            winner, tied = _literal_tie_rule(fixture)
            assert brute_force_optimum(fixture).pairs == winner, fixture
            prefix_ties += any(len(p) > len(winner) and p[: len(winner)] == winner for p in tied)
            mask_order_differs += _mask(fixture, winner) != min(_mask(fixture, p) for p in tied)
        # The corpus reaches a winner that is a prefix of another tied
        # subset, and one that is not the tied subset of least bit mask.
        assert prefix_ties >= 20 and mask_order_differs >= 20, (prefix_ties, mask_order_differs)

    @pytest.mark.parametrize(
        "a_demand, a_capacity, expected",
        [
            ([0] * 4, [5] * 4, ()),
            ([1] * 4, [2] * 4, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0))),
        ],
        ids=["empty", "prefix"],
    )
    def test_full_budget_all_tied(self, a_demand, a_capacity, expected):
        # Cost 0 everywhere: every feasible subset of the 20 cells ties.
        b_demand, b_capacity = [0] * 5, [4] * 5
        fixture = inst([[0] * 5] * 4, a_demand, a_capacity, b_demand, b_capacity)
        started = time.perf_counter()
        asg = brute_force_optimum(fixture)
        elapsed = time.perf_counter() - started
        assert asg.pairs == expected and asg.total_cost == 0
        assert elapsed < 1.0, elapsed

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleInstanceError):
            brute_force_optimum(inst([[1]], [1], [1], [0], [0]))

    def test_budget_guard(self):
        big = inst([[1] * 7] * 3, [0] * 3, [7] * 3, [0] * 7, [3] * 7)
        with pytest.raises(ValueError, match="21 pair cells"):
            brute_force_optimum(big)

    def test_full_budget_fits_in_memory(self):
        # numpy reports its buffers to tracemalloc, so the peak is the same
        # on every run: at 20 cells each subset bit takes one byte.
        params = GenParams(min_s=4, max_s=4, min_t=5, max_t=5)
        fixture = random_instance(params, random.Random(5))
        tracemalloc.start()
        try:
            asg = brute_force_optimum(fixture)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, peak
        assert asg.total_cost == solve_flow_reference(fixture).total_cost

    def test_full_budget_beyond_int64_fits_in_memory(self):
        # Costs near 2**62: 20 cells of them can total past 2**63, so the
        # totals take two limbs, and the peak stays that of the bits.
        params = GenParams(min_s=4, max_s=4, min_t=5, max_t=5)
        bounds = random_instance(params, random.Random(5))
        rng = random.Random(61)
        fixture = Instance.from_lists(
            cost=[[rng.randint(2**61, 2**62) for _ in range(5)] for _ in range(4)],
            a_demand=bounds.a_demand, a_capacity=bounds.a_capacity,
            b_demand=bounds.b_demand, b_capacity=bounds.b_capacity,
        )
        tracemalloc.start()
        try:
            asg = brute_force_optimum(fixture)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, peak
        assert asg.total_cost >= 2**63
        assert asg.total_cost == solve_flow_reference(fixture).total_cost


class TestFlowNetwork:
    def test_structure(self):
        net = build_flow_network(inst([[3, 1], [2, 4]], [1, 1], [2, 2], [1, 1], [1, 1]))
        assert len(net.nodes) == 2 + 2 + 2  # rows, cols, source, sink
        assert net.pair_arc(1, 0)[:2] == (1, 2 + 0)
        assert net.pair_arc(1, 0)[2:] == (0, 1, 2)  # lower 0, cap 1, cost c[1][0]
        tail, head, lower, cap, cost = net.arcs[0]
        assert (tail, head) == (net.source, 0)
        assert (lower, cap, cost) == (1, 2, 0)

    def test_bound_arcs_carry_demand_intervals(self):
        net = build_flow_network(inst([[5]], [0], [1], [1], [1]))
        col_arc = next(a for a in net.arcs if a[1] == net.sink)
        assert col_arc[2:4] == (1, 1)


class TestFeasibilityCheck:
    def test_feasible_returns_witness(self):
        fixture = inst([[3], [4]], [1, 1], [1, 1], [1], [2])
        ok, cert = feasibility_check(fixture)
        assert ok
        assert cert["kind"] == "assignment"
        witness = make_assignment(fixture, [tuple(p) for p in cert["pairs"]])
        assert check_assignment(fixture, witness).feasible

    def test_structural_bottleneck_yields_cut(self):
        fixture = inst(
            [[1, 1, 1], [1, 1, 1], [0, 0, 0]],
            [3, 3, 0], [3, 3, 3], [0, 0, 0], [3, 3, 1],
        )
        ok, cert = feasibility_check(fixture)
        assert not ok
        # Rows 0 and 1 reach only column 2, whose capacity is 1.
        assert cert == {"kind": "cut", "nodes": ["a0", "a1", "b2", "super-source"], "unmet_demand": 1}

    def test_aggregate_shortfall(self):
        ok, cert = feasibility_check(inst([[1, 1]], [2], [2], [0, 0], [0, 0]))
        assert not ok
        assert cert == {"kind": "cut", "nodes": ["a0", "b0", "b1", "super-source"], "unmet_demand": 2}


class TestFlowReference:
    def test_worked_examples(self):
        assert solve_flow_reference(inst([[5, 7]], [2], [2], [0, 0], [1, 1])).total_cost == 12
        assert solve_flow_reference(
            inst([[1, 10], [10, 1]], [1, 1], [2, 2], [1, 1], [1, 1])
        ).total_cost == 2
        assert solve_flow_reference(inst([[3], [4]], [1, 1], [1, 1], [1], [2])).total_cost == 7

    def test_parked_unit_regression(self):
        asg = solve_flow_reference(inst([[0, 1], [1, 9]], [1, 0], [1, 1], [0, 1], [1, 1]))
        assert asg.total_cost == 1

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleInstanceError):
            solve_flow_reference(inst([[1]], [1], [1], [0], [0]))

    def test_output_verifies(self, rng):
        for _ in range(60):
            fixture = draw_feasible(rng)
            asg = solve_flow_reference(fixture)
            assert check_assignment(fixture, asg).feasible


# A demand above its capacity: the lower-bound reduction would give that
# vertex's bound arc a negative residual capacity.
@pytest.mark.parametrize(
    "fixture, bound",
    [
        (inst([[3, 0, 5], [2, 7, 1]], [3, 0], [2, 1], [0, 1, 0], [1, 2, 1]), ("a0", 3, 2)),
        (inst([[1, 2]], [0], [2], [2, 0], [1, 1]), ("b0", 2, 1)),
    ],
    ids=["row", "column"],
)
def test_flow_referees_refuse_a_demand_above_capacity(fixture, bound):
    node, demand, capacity = bound
    assert feasibility_check(fixture) == (
        False, {"kind": "bound", "node": node, "demand": demand, "capacity": capacity}
    )
    with pytest.raises(InfeasibleInstanceError, match=f"^flow reference: {node} demand {demand} exceeds"):
        solve_flow_reference(fixture)


class TestRandomInstance:
    def test_respects_shape_bounds(self):
        rng = random.Random(7)
        params = GenParams(min_s=2, max_s=3, min_t=1, max_t=2, cap_max=2)
        for _ in range(40):
            fixture = random_instance(params, rng)
            assert 2 <= fixture.s <= 3 and 1 <= fixture.t <= 2
            assert all(c <= 2 for c in fixture.a_capacity + fixture.b_capacity)

    def test_always_feasible(self):
        rng = random.Random(11)
        for params in (GenParams(), GenParams(demands_one=True), GenParams(cap_max=1)):
            for _ in range(40):
                ok, _ = feasibility_check(random_instance(params, rng))
                assert ok

    def test_demands_one_means_unit_demands(self):
        rng = random.Random(3)
        for _ in range(20):
            fixture = random_instance(GenParams(demands_one=True), rng)
            assert set(fixture.a_demand) == {1} and set(fixture.b_demand) == {1}

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(min_s=0)
        with pytest.raises(ValueError):
            GenParams(min_t=4, max_t=3)
        with pytest.raises(ValueError):
            GenParams(cap_max=0)


class TestDifferential:
    def test_no_disagreements_default_shape(self):
        report = differential_test(GenParams(), trials=60, seed=20260815)
        assert report.trials == 60 and len(report.records) == 60
        assert report.disagreements == ()
        assert all(r.fixture is None for r in report.records)
        # every record ran at least ga + flow + brute at this size
        assert all(len(r.costs) >= 3 for r in report.records)

    def test_unit_demand_shape_includes_lca(self):
        report = differential_test(GenParams(demands_one=True), trials=30, seed=5)
        assert report.disagreements == ()
        assert all(dict(r.costs).get("lca") is not None for r in report.records)

    def test_beyond_brute_budget_still_cross_checked(self):
        params = GenParams(min_s=5, max_s=6, min_t=5, max_t=6)
        report = differential_test(params, trials=25, seed=99)
        assert report.disagreements == ()
        for r in report.records:
            names = set(dict(r.costs))
            assert "brute" not in names and {"ga", "flow"} <= names

    def test_same_seed_same_ndjson(self):
        a = differential_test(GenParams(), trials=25, seed=42).to_ndjson()
        b = differential_test(GenParams(), trials=25, seed=42).to_ndjson()
        assert a == b
        for line in a.splitlines():
            json.loads(line)  # every record is one valid JSON object

    def test_record_serialization_is_stable(self):
        rec = DiffRecord(
            trial=3, digest="abc123", costs=(("flow", 5), ("ga", 5)), agree=True
        )
        assert rec.to_json() == (
            '{"agree":true,"costs":{"flow":5,"ga":5},"digest":"abc123",'
            '"fixture":null,"notes":[],"trial":3}'
        )


def test_three_way_agreement_on_random_instances(rng):
    hits = 0
    for _ in range(150):
        fixture = draw_feasible(rng, max_s=4, max_t=4, cost_max=15)
        got, _ = solve_ga(fixture)
        flow = solve_flow_reference(fixture)
        assert got.total_cost == flow.total_cost, fixture
        if fixture.s * fixture.t <= 20:
            brute = brute_force_optimum(fixture)
            assert got.total_cost == brute.total_cost, fixture
            hits += 1
    assert hits > 100


def _referee_answer(referee, fixture):
    """A referee's pairs and cost, or its error's type and message."""
    try:
        asg = referee(fixture)
    except ValueError as err:  # InfeasibleInstanceError included
        return [type(err).__name__, str(err)]
    return [[list(p) for p in asg.pairs], asg.total_cost]


# sha256 of the referees' verdicts on the seeded corpus below: every
# feasibility_check record (witness, bound or cut), every
# solve_flow_reference and brute_force_optimum answer or error, then the
# canonical text of random_instance draws, the last shape of which is
# never feasible before the attempt-50 fallback.  The referees are the
# ground truth for the rest of the suite, so a change to how they reach
# a verdict must leave it as it is.
PINNED_REFEREE_RECORDS = "1ec5c6482d993c36794b59eab08408a10ea012fb64360978c5e42eb6239a3a16"


def test_referee_records_are_pinned():
    rng = random.Random(0x0AC1E5)
    cost_maxima = (0, 1, 2, 9, 10**6)
    records = []
    for k in range(640):
        fixture = draw_instance(rng, max_s=5, max_t=4, cost_max=cost_maxima[k % 5], demands_one=k % 4 == 3)
        records.append(
            [
                list(feasibility_check(fixture)),
                _referee_answer(solve_flow_reference, fixture),
                _referee_answer(brute_force_optimum, fixture),
            ]
        )
    assert {verdict["kind"] for (_, verdict), *_ in records} == {"assignment", "cut"}
    fallback = GenParams(max_s=2, min_t=3, max_t=3, cap_max=1, demands_one=True)
    for params in (GenParams(), GenParams(demands_one=True), fallback):
        draws = [random_instance(params, rng) for _ in range(300)]
        records.append([instance_to_json(fixture) for fixture in draws])
    assert all(fixture.a_capacity == (3,) * fixture.s for fixture in draws)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == PINNED_REFEREE_RECORDS, digest
