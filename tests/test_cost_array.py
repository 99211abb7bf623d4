"""The one read-only int64 cost array a solve carries from the screen to
the answer (``Instance.costs``): the screen's verdicts and messages, the
exact int64 domain, one conversion per solve, and the pricing of pairs."""

import json
from dataclasses import replace
from enum import IntEnum

import numpy as np
import pytest

from bmatch import (
    Assignment,
    InfeasibleInstanceError,
    Instance,
    SolverState,
    assignment_cost,
    instance_to_json,
    make_assignment,
    solve_ga,
    solve_lca,
    validate_instance,
)
from bmatch.cli import EXIT_OK, EXIT_USAGE, main
from bmatch.oracles import brute_force_optimum, check_assignment, solve_flow_reference


class _Cost(IntEnum):
    THREE = 3


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


def unit(cost):
    """An instance whose every bound is 1, with its cost rows kept as given."""
    n = len(cost)
    return Instance(
        s=n, t=n, cost=tuple(cost),
        a_demand=(1,) * n, a_capacity=(1,) * n, b_demand=(1,) * n, b_capacity=(1,) * n,
    )


@pytest.fixture
def instance_file(tmp_path):
    def write(instance):
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(instance) + "\n")
        return str(path)

    return write


def test_bool_deep_in_a_long_row_is_named():
    row = [7] * 1000
    row[777] = True
    cost = [[1] * 1000, row]
    broken = Instance(
        s=2, t=1000, cost=tuple(map(tuple, cost)), a_demand=(0, 0), a_capacity=(1, 1),
        b_demand=(0,) * 1000, b_capacity=(1,) * 1000,
    )
    report = validate_instance(broken)
    assert report.violations == ("type: cost[1][777] = True is not a non-negative integer",)
    assert report.malformed
    with pytest.raises(ValueError, match=r"malformed instance: type: cost\[1\]\[777\] = True"):
        solve_ga(broken)


@pytest.mark.parametrize(
    "cost, violations",
    [
        ([[1, 2, 3], [4, 1.5, 6], [7, 8, 9]], ("type: cost[1][1] = 1.5 is not a non-negative integer",)),
        ([[1, 2, 3], [4, 5], [7, 8, 9]], ("shape: cost row 1 has length 2, expected 3",)),
        ([[1, 2, 3], 5, [7, 8, 9]], ("shape: cost row 1 is not a sequence",)),
        ([[1, 2, 3], [4, -5, 6], [7, 8, -9]], (
            "type: cost[1][1] = -5 is not a non-negative integer",
            "type: cost[2][2] = -9 is not a non-negative integer",
        )),
        ([[1, 2, 3], [4, -2**64, 6], [7, 8, 9]], (
            f"type: cost[1][1] = {-2**64} is not a non-negative integer",
        )),
    ],
)
def test_bad_cost_rows_are_named_and_malformed(cost, violations):
    broken = unit(cost)
    report = validate_instance(broken)
    assert report.violations == violations
    assert report.malformed and not report.feasible_necessary
    with pytest.raises(ValueError, match="malformed instance: ") as err:
        solve_ga(broken)
    assert str(err.value) == "malformed instance: " + "; ".join(violations)
    assert not isinstance(err.value, InfeasibleInstanceError)


def test_bool_cost_in_a_file_exits_1(instance_file, capsys):
    path = instance_file(unit([[1, 2], [True, 4]]))
    assert main(["solve", path]) == EXIT_USAGE
    assert "type: cost[1][0] = True is not a non-negative integer" in capsys.readouterr().err


def test_intenum_costs_pass_and_solve_like_plain_ints():
    enum_costs = unit([[_Cost.THREE, 1], [1, _Cost.THREE]])
    assert validate_instance(enum_costs).violations == ()
    (asg, rep), (plain, _) = solve_ga(enum_costs), solve_ga(unit([[3, 1], [1, 3]]))
    assert asg == plain and rep.dual_objective == asg.total_cost == 2
    state = SolverState(enum_costs)
    assert state.matching.cost.dtype == np.int64 and not state.matching.cost.flags.writeable


@pytest.mark.parametrize("big", [2**63, 2**64])
@pytest.mark.parametrize("solve", [solve_ga, solve_lca])
def test_costs_beyond_int64_end_in_the_domain_check(solve, big):
    with pytest.raises(ValueError) as err:
        solve(inst([[big]], [1], [1], [1], [1]))
    assert type(err.value) is ValueError
    assert str(err.value) == (
        f"costs up to {big} on a 1x1 instance with up to 1 pairs can overflow 64-bit arithmetic; "
        "the exact domain needs 2*s*t*max_cost*(pairs + s + t + 1) < 2**62"
    )
    # The screen passes the instance as it did: the domain check names it.
    assert validate_instance(inst([[big, 1], [1, 0]], [1, 1], [1, 1], [1, 1], [1, 1])).violations == ()


@pytest.mark.parametrize("big", [2**63, 2**64])
def test_costs_beyond_int64_exit_1_from_the_console(big, instance_file, capsys):
    path = instance_file(inst([[1, big], [big, 2]], [1, 1], [1, 1], [1, 1], [1, 1]))
    assert main(["solve", path]) == EXIT_USAGE
    assert f"costs up to {big} on a 2x2 instance" in capsys.readouterr().err


def test_flow_answers_and_verify_price_costs_beyond_int64_exactly(instance_file, tmp_path, capsys):
    big = inst([[2**64, 1], [1, 2**63]], [1, 1], [1, 1], [1, 1], [1, 1])
    path = instance_file(big)
    assert main(["solve", "--algorithm", "flow", path]) == EXIT_OK
    assert '"total_cost":2' in capsys.readouterr().out
    answer = tmp_path / "answer.json"
    answer.write_text('{"pairs": [[0, 0], [1, 1]]}')
    assert main(["verify", path, "--assignment", str(answer)]) == EXIT_OK
    assert f'"recomputed_cost":{2**64 + 2**63}' in capsys.readouterr().out
    assert assignment_cost(big, [(0, 0), [1, 1]]) == 2**64 + 2**63
    dup = Assignment(pairs=((0, 0), (0, 0)), total_cost=0)
    assert check_assignment(big, dup).recomputed_cost == 2**65


# One row, two columns of capacity 1: a cost beyond int64 beside one that
# fits (row demand 1), and two costs that fit whose sum does not (row demand 2).
BEYOND_INT64 = {
    "cost-2**63": (inst([[2**63, 7]], [1], [2], [0, 0], [1, 1]), 7),
    "sum-2**63": (inst([[2**62, 2**62]], [2], [2], [0, 0], [1, 1]), 2**63),
}


@pytest.mark.parametrize("fixture, optimum", BEYOND_INT64.values(), ids=BEYOND_INT64)
def test_brute_and_flow_price_totals_beyond_int64_exactly(fixture, optimum):
    brute, flow = brute_force_optimum(fixture), solve_flow_reference(fixture)
    assert brute == flow
    assert brute.total_cost == sum(fixture.cost[i][j] for i, j in brute.pairs) == optimum


@pytest.mark.parametrize("algorithm", ["brute", "flow"])
@pytest.mark.parametrize("fixture, optimum", BEYOND_INT64.values(), ids=BEYOND_INT64)
def test_brute_and_flow_solve_totals_beyond_int64_from_the_console(
    fixture, optimum, algorithm, instance_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--algorithm", algorithm, instance_file(fixture)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["total_cost"] == optimum
    assert not list(tmp_path.glob("bmatch-internal-*.json"))


def test_the_array_is_read_only_and_the_solve_shares_it():
    fixture = inst([[4, 1, 3], [2, 0, 5]], [1, 1], [9, 9], [0, 0, 0], [9, 9, 9])
    costs = fixture.costs
    assert costs.dtype == np.int64 and costs.shape == (2, 3) and not costs.flags.writeable
    assert fixture.costs is costs
    with pytest.raises(ValueError, match="read-only"):
        costs[0, 0] = 7
    state = SolverState(fixture)
    assert state.inst.a_capacity == (3, 3)  # the clipped copy ...
    assert state.matching.cost is costs and np.shares_memory(state.matching.cost, costs)  # ... shares the array
    assert not np.shares_memory(state.matching.lifted, costs)


@pytest.mark.parametrize(
    "run, conversions",
    [
        (lambda fixture, path: solve_ga(fixture), 1),
        (lambda fixture, path: solve_lca(fixture), 1),
        # A canonical file's cost is read as the array itself: no rows to convert.
        (lambda fixture, path: main(["solve", path]), 0),
    ],
    ids=["solve_ga", "solve_lca", "bmatch solve"],
)
def test_a_solve_converts_the_cost_rows_once(run, conversions, instance_file, monkeypatch, capsys):
    calls = []
    convert = Instance.costs.func

    def counting(self):
        calls.append(self.cost)
        return convert(self)

    monkeypatch.setattr(Instance.costs, "func", counting)
    # Capacities above the opposite side's size: the screen's copy clips them.
    fixture = inst([[4, 1, 3], [2, 0, 5], [1, 1, 1]], [1, 1, 1], [5, 5, 5], [1, 1, 1], [4, 4, 4])
    run(fixture, instance_file(fixture))
    assert calls == [fixture.cost] * conversions


@pytest.mark.parametrize("price", [assignment_cost, lambda i, ps: make_assignment(i, ps).total_cost])
def test_pricing_rejects_bad_pairs_with_the_same_messages(price):
    fixture = inst([[1, 2], [4, 8]], [0, 0], [2, 2], [0, 0], [2, 2])
    assert price(fixture, [[0, 1], (1, 0), [1, 1]]) == 14
    assert price(fixture, np.array([[1, 1], [0, 0]])) == 9
    assert price(fixture, []) == 0
    for pairs, message in [
        ([(0, 0), (2, 0)], "pair (2, 0) out of range for 2x2 instance"),
        ([(0, 0), (0, -1)], "pair (0, -1) out of range for 2x2 instance"),
        ([(0, 0), (2**70, 0)], f"pair ({2**70}, 0) out of range for 2x2 instance"),
        ([(1, 1), (0, 0), (1, 1)], "duplicate pair (1, 1)"),
    ]:
        with pytest.raises(ValueError) as err:
            price(fixture, pairs)
        assert str(err.value) == message


def test_assignment_cost_names_the_first_bad_pair_as_given():
    fixture = inst([[1, 2], [4, 8]], [0, 0], [2, 2], [0, 0], [2, 2])
    for pairs, message in [
        ([[0, 0], (1, 1), (0, 0)], "duplicate pair (0, 0)"),
        ([(0, 0), [1, 1], [0, 0]], "duplicate pair [0, 0]"),
        ([[0, 0], [0, 0], [5, 5]], "duplicate pair [0, 0]"),
        ([[5, 5], [0, 0], [0, 0]], "pair [5, 5] out of range for 2x2 instance"),
    ]:
        with pytest.raises(ValueError) as err:
            assignment_cost(fixture, pairs)
        assert str(err.value) == message


def test_a_replaced_cost_matrix_gets_its_own_array():
    fixture = inst([[1, 2]], [0], [2], [0, 0], [1, 1])
    assert fixture.costs.tolist() == [[1, 2]]
    assert replace(fixture, cost=((5, 6),)).costs.tolist() == [[5, 6]]


def _loop_cost(fixture, pairs):
    """The per-pair reference for ``assignment_cost``: its value, or the
    message of the ValueError it raises."""
    seen, total = set(), 0
    for p in pairs:
        i, j = p
        if not (0 <= i < fixture.s and 0 <= j < fixture.t):
            return f"pair {p!r} out of range for {fixture.s}x{fixture.t} instance"
        if (i, j) in seen:
            return f"duplicate pair {p!r}"
        seen.add((i, j))
        total += fixture.cost[i][j]
    return total


def _loop_check(fixture, asg):
    """The per-pair reference for ``check_assignment``'s report."""
    deg_a, deg_b, seen = [0] * fixture.s, [0] * fixture.t, {}
    for i, j in asg.pairs:
        deg_a[i] += 1
        deg_b[j] += 1
        seen[(i, j)] = seen.get((i, j), 0) + 1
    violations = [
        (f"{x}{k}", deg[k], (lo[k], hi[k]))
        for x, deg, lo, hi in (
            ("a", deg_a, fixture.a_demand, fixture.a_capacity),
            ("b", deg_b, fixture.b_demand, fixture.b_capacity),
        )
        for k in range(len(deg))
        if not lo[k] <= deg[k] <= hi[k]
    ]
    duplicates = tuple(sorted(p for p, n in seen.items() if n > 1))
    cost = sum(fixture.cost[i][j] for i, j in asg.pairs)
    return (not violations and not duplicates, tuple(violations), duplicates, cost)


def test_vectorized_pricing_and_checks_match_the_per_pair_reference(rng):
    from conftest import draw_instance

    for k in range(600):
        fixture = draw_instance(rng, max_s=5, max_t=5, cost_max=(0, 9, 10**6, 2**62)[k % 4])
        if k % 2:
            fixture.costs  # half the draws price from the array, half from the rows
        s, t = fixture.s, fixture.t
        pairs = [(rng.randint(0, s - 1), rng.randint(0, t - 1)) for _ in range(rng.randint(0, s * t))]
        if k % 3 == 0 and pairs:
            pairs[rng.randrange(len(pairs))] = (rng.choice((-1, s)), rng.randint(0, t - 1))
        pairs = [list(p) if rng.random() < 0.3 else p for p in pairs]
        try:
            got = assignment_cost(fixture, pairs)
        except ValueError as err:
            got = str(err)
        assert got == _loop_cost(fixture, pairs)
        valid = [tuple(p) for p in pairs if 0 <= p[0] < s and 0 <= p[1] < t]
        asg = Assignment(pairs=tuple(valid), total_cost=0)
        report = check_assignment(fixture, asg)
        want = _loop_check(fixture, asg)
        assert (report.feasible, report.degree_violations, report.duplicate_pairs, report.recomputed_cost) == want
