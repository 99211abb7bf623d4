import hashlib
import json
import random
from dataclasses import replace
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmatch import (
    Assignment,
    InfeasibleInstanceError,
    Instance,
    assignment_cost,
    instance_digest,
    instance_from_json,
    instance_to_json,
    make_assignment,
    normalize_instance,
    solve_ga,
    validate_instance,
)
from bmatch.oracles import check_assignment


class _Level(IntEnum):
    TWO = 2


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


class TestFromLists:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("cost", [[1.9, 2.5]], "cost[0][0] = 1.9 is not an integer"),
            ("cost", [[1, "3"]], "cost[0][1] = '3' is not an integer"),
            ("cost", [[1, True]], "cost[0][1] = True is not an integer"),
            ("a_demand", [True], "a_demand[0] = True is not an integer"),
            ("b_capacity", [1, np.float64(2)], "b_capacity[1] = np.float64(2.0) is not an integer"),
        ],
        ids=["float", "string", "bool-cost", "bool-demand", "numpy-float"],
    )
    def test_refuses_non_integer_entries(self, field, value, message):
        lists = dict(cost=[[1, 2]], a_demand=[1], a_capacity=[1], b_demand=[0, 0], b_capacity=[1, 1])
        lists[field] = value
        with pytest.raises(TypeError) as err:
            Instance.from_lists(**lists)
        assert str(err.value) == message

    def test_converts_numpy_and_intenum_integers(self):
        fixture = Instance.from_lists(
            cost=np.array([[4, 1], [2, 3]]), a_demand=np.ones(2, dtype=np.int32),
            a_capacity=[_Level.TWO, 1], b_demand=[1, 1], b_capacity=[1, 1],
        )
        assert fixture.cost == ((4, 1), (2, 3)) and fixture.a_capacity == (2, 1)
        fields = (*fixture.cost, fixture.a_demand, fixture.a_capacity)
        assert {type(x) for row in fields for x in row} == {int}
        assert solve_ga(fixture)[0].total_cost == 3


class TestValidate:
    def test_demand_above_opposite_size_and_aggregate(self):
        report = validate_instance(inst([[1, 1]], [3], [3], [0, 0], [1, 1]))
        assert not report.feasible_necessary
        assert any("a_demand[0]=3 exceeds t=2" in v for v in report.violations)
        assert any(v.startswith("aggregate: sum(a_demand)") for v in report.violations)

    def test_permutation_instance_passes(self):
        report = validate_instance(inst([[9, 2], [4, 4]], [1, 1], [1, 1], [1, 1], [1, 1]))
        assert report.feasible_necessary
        assert report.violations == ()

    def test_demand_above_capacity(self):
        report = validate_instance(inst([[1], [1]], [1, 1], [1, 1], [2], [1]))
        assert not report.feasible_necessary
        assert any("b_demand[0]=2 exceeds b_capacity[0]=1" in v for v in report.violations)

    def test_feasible_necessary_iff_no_violations(self, rng):
        from conftest import draw_instance

        for _ in range(200):
            report = validate_instance(draw_instance(rng))
            assert report.feasible_necessary == (len(report.violations) == 0)

    def test_bad_shapes_reported_not_raised(self):
        broken = Instance(
            s=2, t=2, cost=((1, 2),), a_demand=(0,), a_capacity=(1, 1),
            b_demand=(0, 0), b_capacity=(1, 1),
        )
        report = validate_instance(broken)
        assert not report.feasible_necessary
        assert any(v.startswith("shape:") for v in report.violations)

    def test_bool_is_not_an_integer(self):
        broken = Instance(
            s=1, t=1, cost=((True,),), a_demand=(0,), a_capacity=(1,),
            b_demand=(0,), b_capacity=(1,),
        )
        report = validate_instance(broken)
        assert any(v.startswith("type:") for v in report.violations)

    def test_violations_are_pinned(self):
        """Every verdict and message, in order, over 24,000 seeded draws of
        odd entries (bools, floats, strings, None, an IntEnum member,
        negatives, 2**70), ragged rows, mis-sized bound vectors and bad
        s/t.  A change to the screen's wording or order changes the digest."""
        rng = random.Random(20261018)
        odd = (True, False, 1.0, -1, -3, "3", None, _Level.TWO, 2**70, 0)

        def entry(low, high, rate):
            return rng.choice(odd) if rng.random() < rate else rng.randint(low, high)

        def vector(n, low, high, rate):
            n += rng.choice((-1, 1)) if rng.random() < rate / 2 else 0
            return tuple(entry(low, high, rate) for _ in range(n))

        digest = hashlib.sha256()
        for _ in range(24_000):
            rate = rng.choice((0.0, 0.0, 0.02, 0.1, 0.3))
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            rows = s + (rng.choice((-1, 1)) if rng.random() < rate / 2 else 0)
            drawn = Instance(
                s=rng.choice((0, -1, True, s + 1)) if rng.random() < rate / 3 else s,
                t=rng.choice((0, -1, True, t + 1)) if rng.random() < rate / 3 else t,
                cost=tuple(vector(t, 0, 9, rate) for _ in range(rows)),
                a_demand=vector(s, 0, 2, rate),
                a_capacity=vector(s, 1, 3, rate),
                b_demand=vector(t, 0, 2, rate),
                b_capacity=vector(t, 1, 3, rate),
            )
            report = validate_instance(drawn)
            digest.update(repr((report.feasible_necessary, report.violations)).encode())
        assert digest.hexdigest()[:16] == "3922757c63ed9c11"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("a_demand", None, "shape: a_demand is not a sequence"),
            ("cost", (None,), "shape: cost row 0 is not a sequence"),
            ("cost", 5, "shape: cost is not a sequence"),
            ("b_capacity", 7, "shape: b_capacity is not a sequence"),
        ],
    )
    def test_field_without_length_is_malformed(self, field, value, message):
        broken = replace(inst([[1]], [1], [1], [1], [1]), **{field: value})
        report = validate_instance(broken)
        assert report.malformed and not report.feasible_necessary
        assert message in report.violations
        with pytest.raises(ValueError, match="malformed instance: shape") as err:
            solve_ga(broken)
        assert not isinstance(err.value, InfeasibleInstanceError)


class TestNormalize:
    def test_clips_a_capacity_to_t(self):
        out = normalize_instance(inst([[1, 2], [3, 4]], [1, 1], [5, 5], [1, 1], [2, 2]))
        assert out.a_capacity == (2, 2)
        assert out.cost == ((1, 2), (3, 4))

    def test_clips_b_capacity_to_s(self):
        out = normalize_instance(inst([[1, 2]], [0], [1], [0, 0], [9, 1]))
        assert out.b_capacity == (1, 1)

    def test_idempotent(self):
        one = normalize_instance(inst([[1, 2], [3, 4]], [1, 1], [5, 5], [1, 1], [9, 2]))
        assert normalize_instance(one) == one

    def test_rejects_hard_violation(self):
        with pytest.raises(ValueError, match="a_demand"):
            normalize_instance(inst([[1, 1]], [3], [3], [0, 0], [1, 1]))
        # Violated bounds are infeasible; a ragged matrix is malformed.
        with pytest.raises(InfeasibleInstanceError, match="b_demand"):
            normalize_instance(inst([[1, 1]], [0], [2], [2, 0], [2, 1]))
        ragged = Instance(
            s=2, t=2, cost=((1, 2), (3,)), a_demand=(0, 0), a_capacity=(1, 1),
            b_demand=(0, 0), b_capacity=(1, 1),
        )
        with pytest.raises(ValueError, match="malformed instance: shape") as err:
            normalize_instance(ragged)
        assert not isinstance(err.value, InfeasibleInstanceError)


class TestAssignmentCost:
    def test_diagonal(self):
        assert assignment_cost(inst([[1, 2], [3, 1]], [1, 1], [1, 1], [1, 1], [1, 1]), [(0, 0), (1, 1)]) == 2

    def test_empty(self):
        assert assignment_cost(inst([[5]], [0], [1], [0], [1]), []) == 0

    def test_row_pair(self):
        assert assignment_cost(inst([[5, 7]], [2], [2], [0, 0], [1, 1]), [(0, 0), (0, 1)]) == 12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            assignment_cost(inst([[5]], [0], [1], [0], [1]), [(0, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            assignment_cost(inst([[5]], [1], [1], [1], [1]), [(0, 0), (0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            assignment_cost(inst([[5]], [1], [1], [1], [1]), [[0, 0], (0, 0)])

    def test_list_pairs(self):
        fixture = inst([[1, 2], [3, 1]], [1, 1], [1, 1], [1, 1], [1, 1])
        assert assignment_cost(fixture, [[0, 0], [1, 1]]) == 2
        assert assignment_cost(fixture, [[0, 1], (1, 0)]) == 5

    @given(st.permutations([(0, 0), (0, 1), (1, 0), (1, 1)]))
    def test_order_invariant(self, pairs):
        fixture = inst([[1, 2], [4, 8]], [2, 2], [2, 2], [2, 2], [2, 2])
        assert assignment_cost(fixture, pairs) == 15


@pytest.mark.parametrize("built", [False, True], ids=["rows", "costs"])
@pytest.mark.parametrize("pair, cost", [
    ((0.5, 1), None),
    ((1.9, 0), None),
    ((1, np.float64(0)), None),
    ((True, 0), None),
    ((1, False), None),
    ((np.int64(1), np.int32(0)), 3),
], ids=["float", "float-rounds-down", "numpy-float", "bool-row", "bool-column", "numpy-int"])
def test_pair_indices_must_be_integers(pair, cost, built):
    # One rule wherever pairs are priced, whether or not the int64 costs
    # were built: an index passes operator.index and is not a bool.
    fixture = inst([[1, 2], [3, 4]], [0, 0], [2, 2], [0, 0], [2, 2])
    if built:
        fixture.costs
    for price in [
        lambda: assignment_cost(fixture, [pair]),
        lambda: make_assignment(fixture, [pair]).total_cost,
        lambda: check_assignment(fixture, Assignment(pairs=(pair,), total_cost=0)).recomputed_cost,
    ]:
        if cost is not None:
            assert price() == cost
            continue
        with pytest.raises(ValueError) as err:
            price()
        assert str(err.value) == f"pair {pair!r} is not two integer indices"


def test_make_assignment_sorts_and_prices():
    a = make_assignment(inst([[1, 2], [3, 1]], [1, 1], [1, 1], [1, 1], [1, 1]), [(1, 1), (0, 0)])
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 2


def test_assignment_sorts_on_construction():
    assert Assignment(pairs=((1, 0), (0, 1)), total_cost=0).pairs == ((0, 1), (1, 0))


class TestJson:
    def test_round_trip_is_identity(self):
        fixture = inst([[0, 3], [2, 1]], [1, 0], [2, 1], [0, 1], [1, 2])
        text = instance_to_json(fixture)
        assert instance_from_json(text) == fixture
        assert instance_to_json(instance_from_json(text)) == text

    def test_canonical_encoding(self):
        text = instance_to_json(inst([[5]], [1], [1], [1], [1]))
        assert text == (
            '{"a_capacity":[1],"a_demand":[1],"b_capacity":[1],"b_demand":[1],'
            '"cost":[[5]],"s":1,"t":1}'
        )

    def test_missing_key_named(self):
        doc = json.loads(instance_to_json(inst([[5]], [1], [1], [1], [1])))
        del doc["b_demand"]
        with pytest.raises(ValueError, match="b_demand"):
            instance_from_json(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(instance_to_json(inst([[5]], [1], [1], [1], [1])))
        doc["comment"] = "hi"
        with pytest.raises(ValueError, match="unknown instance keys: comment"):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("s", "1", "s and t must be integers"),
            ("t", True, "s and t must be integers"),
            ("cost", [[5], 7], "cost must be a list of lists"),
            ("b_demand", 1, "b_demand must be a list"),
        ],
    )
    def test_wrong_types_are_named(self, key, value, message):
        doc = json.loads(instance_to_json(inst([[5]], [1], [1], [1], [1])))
        doc[key] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            instance_from_json(json.dumps(doc))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            instance_from_json("[1,2,3]")

    def test_digest_is_stable(self):
        fixture = inst([[5, 7]], [2], [2], [0, 0], [1, 1])
        assert instance_digest(fixture) == instance_digest(fixture)
        assert len(instance_digest(fixture)) == 12

    def test_encoding_and_digest_are_pinned(self):
        # Fixture files and diff records are keyed by these bytes.
        fixture = inst([[5, 7]], [2], [2], [0, 0], [1, 1])
        assert instance_to_json(fixture) == (
            '{"a_capacity":[2],"a_demand":[2],"b_capacity":[1,1],"b_demand":[0,0],'
            '"cost":[[5,7]],"s":1,"t":2}'
        )
        assert instance_digest(fixture) == "74632672f5b1"


_CANONICAL = instance_to_json(inst([[5, 7]], [2], [2], [0, 0], [1, 1]))


def _swap(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


# Texts that parse to an instance; "canonical" marks those whose digest is
# taken from the text as read.
_DIGEST_CORPUS = [
    ("canonical", _CANONICAL, True),
    ("trailing LF", _CANONICAL + "\n", True),
    ("trailing CRLF", _CANONICAL + "\r\n", True),
    ("JSON whitespace around", " \t\r\n" + _CANONICAL + "\n\n", True),
    ("indent 2", json.dumps(json.loads(_CANONICAL), indent=2), False),
    ("sorted with spaces", json.dumps(json.loads(_CANONICAL), sort_keys=True), False),
    ("keys out of order", json.dumps(dict(reversed(json.loads(_CANONICAL).items())), separators=(",", ":")), False),
    ("duplicate key", _swap(_CANONICAL, '"s":1', '"s":0,"s":1'), False),
    ('"s" as a nested key', _swap(_CANONICAL, "[[5,7]]", '[[5,{"s":7}]]'), False),
    ("-0", _swap(_CANONICAL, "[[5,7]]", "[[-0,7]]"), False),
    ("1.0", _swap(_CANONICAL, "[[5,7]]", "[[1.0,7]]"), False),
    ("1e0", _swap(_CANONICAL, "[[5,7]]", "[[1e0,7]]"), False),
    ("true", _swap(_CANONICAL, "[[5,7]]", "[[true,7]]"), False),
    ("escaped key", _swap(_CANONICAL, '"s":', '"\\u0073":'), False),
    ("a cost beyond int64", _swap(_CANONICAL, "[[5,7]]", "[[9223372036854775808,7]]"), True),
    ("[[[1]]]", _swap(_CANONICAL, "[[5,7]]", "[[[1]]]"), True),
    ("[[{}]]", _swap(_CANONICAL, "[[5,7]]", "[[{}]]"), True),
]


class TestDigestAsRead:
    @pytest.mark.parametrize("text", [text for _, text, _ in _DIGEST_CORPUS], ids=[n for n, _, _ in _DIGEST_CORPUS])
    def test_digest_agrees_with_the_encoding(self, text):
        parsed = instance_from_json(text)
        assert instance_digest(parsed) == hashlib.sha256(instance_to_json(parsed).encode()).hexdigest()[:12]

    def test_canonical_text_is_never_encoded(self, monkeypatch):
        import bmatch.model

        calls = []
        encode = bmatch.model.instance_to_json
        monkeypatch.setattr(bmatch.model, "instance_to_json", lambda i: calls.append(1) or encode(i))
        for name, text, canonical in _DIGEST_CORPUS:
            before = len(calls)
            instance_digest(instance_from_json(text))
            assert len(calls) - before == (not canonical), name

    def test_pinned_digest_is_read_from_the_text(self):
        assert instance_digest(instance_from_json(_CANONICAL + "\n")) == "74632672f5b1"

    def test_only_the_sorted_key_order_spells_the_remainder(self):
        from itertools import permutations

        keys = ("s", "t", "cost", "a_demand", "a_capacity", "b_demand", "b_capacity")
        spelled = ["".join(order) for order in permutations(keys)]
        assert spelled.count("a_capacitya_demandb_capacityb_demandcostst") == 1

    def test_clipped_copy_does_not_inherit_the_digest(self):
        parsed = instance_from_json(instance_to_json(inst([[1, 2]], [1], [5], [0, 0], [1, 1])))
        clipped = normalize_instance(parsed)
        assert clipped.a_capacity == (2,)
        assert instance_digest(clipped) == hashlib.sha256(instance_to_json(clipped).encode()).hexdigest()[:12]
        assert instance_digest(clipped) != instance_digest(parsed)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normalize_idempotent_on_random_instances(data):
    s = data.draw(st.integers(1, 4))
    t = data.draw(st.integers(1, 4))
    cost = data.draw(
        st.lists(st.lists(st.integers(0, 9), min_size=t, max_size=t), min_size=s, max_size=s)
    )
    a_cap = data.draw(st.lists(st.integers(1, 6), min_size=s, max_size=s))
    b_cap = data.draw(st.lists(st.integers(1, 6), min_size=t, max_size=t))
    a_dem = [data.draw(st.integers(0, min(c, t))) for c in a_cap]
    b_dem = [data.draw(st.integers(0, min(c, s))) for c in b_cap]
    fixture = inst(cost, a_dem, a_cap, b_dem, b_cap)
    if not validate_instance(fixture).feasible_necessary:
        return
    once = normalize_instance(fixture)
    assert normalize_instance(once) == once
    assert once.a_demand == fixture.a_demand and once.b_demand == fixture.b_demand
