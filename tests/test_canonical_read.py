"""Canonical instance text read with its cost matrix as one int64 array.

Every text must give what the whole-text ``json.loads`` path gives: the
same ``Instance``, cost array and digest, or the same exception.  The
reference is a copy of the text with one space before its closing brace,
which is no longer canonical and so is read whole; errors in the cost
segment keep their positions."""

import json
import random
import re

import numpy as np
import pytest

import bmatch.model
from bmatch import (
    Instance,
    instance_digest,
    instance_from_json,
    instance_to_json,
    normalize_instance,
    solve_ga,
    validate_instance,
)
from bmatch.cli import EXIT_USAGE, main
from bmatch.solver import SolverState

INT64_MAX = 2**63 - 1


def doc(cost, s=None, t=None, **bounds):
    """A document with the given cost rows and loose bounds."""
    s = len(cost) if s is None else s
    t = (len(cost[0]) if cost and isinstance(cost[0], list) else 0) if t is None else t
    out = {"s": s, "t": t, "cost": cost, "a_demand": [0] * s, "a_capacity": [t] * s,
           "b_demand": [0] * t, "b_capacity": [s] * t}
    out.update(bounds)
    return out


def canonical(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def with_cost_text(d, segment):
    """Canonical text of ``d`` with its cost value spelled as ``segment``."""
    text = canonical(dict(d, cost=[]))
    return text.replace('"cost":[]', f'"cost":{segment}', 1)


def whole_text_copy(text):
    """The same document, read whole: a space before the closing brace."""
    body = text.rstrip(" \t\r\n")
    assert body.endswith("}")
    return body[:-1] + " }"


def outcome(text):
    """What reading ``text`` gives: the instance, its cost array (or the
    error building it) and its digest; or the exception's type and message."""
    try:
        inst = instance_from_json(text)
    except (ValueError, RecursionError) as err:
        return type(err), str(err)
    try:
        costs = inst.costs.dtype, inst.costs.tolist()
    except (OverflowError, TypeError, ValueError) as err:
        costs = type(err), str(err)
    return inst, costs, instance_digest(inst)


def read_as_array(text):
    return "cost" not in vars(instance_from_json(text))


BASE = doc([[7, 0, 12], [3, 40, 5]])

# (name, text, read as one array)
CORPUS = [
    ("canonical", canonical(BASE), True),
    ("LF tail", canonical(BASE) + "\n", True),
    ("CRLF tail", canonical(BASE) + "\r\n", True),
    ("s = 1", canonical(doc([[4, 0, 9, 1]])), True),
    ("t = 1", canonical(doc([[4], [0], [9]])), True),
    ("1 x 1", canonical(doc([[0]])), True),
    ("zeros", canonical(doc([[0, 0], [0, 10]])), True),
    ("19 digits", canonical(doc([[1234567890123456789, 9223372036854775806]])), True),
    ("19 digits, int64 max", canonical(doc([[1, INT64_MAX]])), False),
    ("19 digits beyond int64", canonical(doc([[9999999999999999999, 1]])), False),
    ("20 digits", canonical(doc([[10000000000000000000, 1]])), False),
    ("20 nines", canonical(doc([[99999999999999999999]])), False),
    ("2**64 + 5", canonical(doc([[2**64 + 5, 2]])), False),
    ("ragged, total s*t", with_cost_text(BASE, "[[7,0],[12,3,40,5]]"), False),
    ("ragged the other way", with_cost_text(BASE, "[[7,0,12,3],[40,5]]"), False),
    ("[[]]", with_cost_text(doc([[1]]), "[[]]"), False),
    ("[]", with_cost_text(doc([[1]]), "[]"), False),
    ("an empty row", with_cost_text(BASE, "[[7,0,12],[]]"), False),
    ("an empty first row", with_cost_text(BASE, "[[],[7,0,12]]"), False),
    ("trailing comma in a row", with_cost_text(BASE, "[[7,0,12,],[3,40,5]]"), False),
    ("trailing comma after the rows", with_cost_text(BASE, "[[7,0,12],[3,40,5],]"), False),
    ("leading comma", with_cost_text(BASE, "[[,7,0,12],[3,40,5]]"), False),
    (",,", with_cost_text(BASE, "[[7,,0,12],[3,40,5]]"), False),
    (",, between rows", with_cost_text(BASE, "[[7,0,12],,[3,40,5]]"), False),
    (",, with t - 1 commas", with_cost_text(BASE, "[[7,,12],[3,40,5]]"), False),
    ("leading comma with t - 1 commas", with_cost_text(BASE, "[[,7,12],[3,40,5]]"), False),
    ("trailing comma with t - 1 commas", with_cost_text(BASE, "[[7,0,12],[3,40,]]"), False),
    ("an empty row with t = 1", with_cost_text(doc([[4], [2]]), "[[4],[]]"), False),
    ("{} inside an entry", with_cost_text(BASE, "[[7,0,{}12],[3,40,5]]"), False),
    ("a colon inside an entry", with_cost_text(BASE, "[[7,0,1:2],[3,40,5]]"), False),
    ("an entry between rows", with_cost_text(BASE, "[[7,0,12],5[40,5,6]]"), False),
    ("a digit for the comma between rows", with_cost_text(BASE, "[[7,0,12,9]5[3,40,5]]"), False),
    ("a digit before the segment", with_cost_text(BASE, "5[[7,0,12],[3,40,5]]"), False),
    (",, and a digit after the segment", with_cost_text(BASE, "[[7,,12],[3,40,5]]5"), False),
    (",, and a digit between the opening brackets", with_cost_text(BASE, "[5[7,,12],[3,40,5]]"), False),
    (",, and a digit between the closing brackets", with_cost_text(BASE, "[[7,,12],[3,40,5]5]"), False),
    (",, and a digit after a row", with_cost_text(BASE, "[[7,,12]5,[3,40,5]]"), False),
    (",, and a digit before a row", with_cost_text(BASE, "[[7,,12],5[3,40,5]]"), False),
    ("07 and a digit before the segment", with_cost_text(BASE, "5[[07,0,12],[3,40,5]]"), False),
    ("01", with_cost_text(BASE, "[[7,0,12],[03,40,5]]"), False),
    ("00", with_cost_text(BASE, "[[7,00,12],[3,40,5]]"), False),
    ("010 first", with_cost_text(BASE, "[[010,0,12],[3,40,5]]"), False),
    ("00 last", with_cost_text(BASE, "[[7,0,12],[3,40,00]]"), False),
    ("nested", with_cost_text(doc([[1, 2]]), "[[1,[2]]]"), False),
    ("nested row", with_cost_text(BASE, "[[[7,0,12]],[3,40,5]]"), False),
    ("{} entry", with_cost_text(BASE, "[[7,{},12],[3,40,5]]"), False),
    ("colon", with_cost_text(BASE, "[[7,0:12],[3,40,5]]"), False),
    ("rows not separated", with_cost_text(BASE, "[[7,0,12][3,40,5]]"), False),
    ("unclosed", with_cost_text(BASE, "[[7,0,12],[3,40,5]"), False),
    ("a scalar cost", with_cost_text(BASE, "5"), False),
    ("a flat cost", with_cost_text(BASE, "[7,0,12,3,40,5]"), False),
    ("s disagrees", canonical(dict(BASE, s=3)), False),
    ("t disagrees", canonical(dict(BASE, t=2)), False),
    ("s = 0", canonical(doc([], s=0, t=0)), False),
    ("huge s", canonical(dict(BASE, s=99999999999999999999)), False),
    ("s a list", canonical(dict(BASE, s=[2])), False),
    ("a bound not a list", canonical(dict(BASE, a_demand=5)), False),
    ("a bound of lists", canonical(dict(BASE, a_demand=[[0], [0]])), True),
    ("deep bounds", canonical(BASE).replace('"a_demand":[0,0]', '"a_demand":' + "[" * 100000 + "]" * 100000), False),
]


@pytest.mark.parametrize("text, as_array", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_a_canonical_text_reads_as_the_whole_text_does(text, as_array):
    got, want = outcome(text), outcome(whole_text_copy(text))
    assert got[0] == want[0]
    assert got[1:] == want[1:]
    if isinstance(got[0], Instance):
        assert read_as_array(text) == as_array


def _lenient_fromstring(text, dtype, sep):
    """A stand-in for ``np.fromstring`` that refuses nothing: each
    comma-separated piece is the number its digits spell (none: 0),
    saturated at 2**63 - 1.  Structure that is not proven before the parse
    gets through it."""
    pieces = text.split(sep.encode())
    return np.array([min(int(b"".join(re.findall(rb"\d", p)) or b"0"), INT64_MAX) for p in pieces], dtype=dtype)


@pytest.mark.parametrize("text", [c[1] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_the_array_read_relies_on_no_refusal_by_the_number_parser(text, monkeypatch):
    want = outcome(whole_text_copy(text))
    monkeypatch.setattr(np, "fromstring", _lenient_fromstring)
    got = outcome(text)
    assert got[0] == want[0]
    assert got[1:] == want[1:]


def test_the_reference_copy_is_read_whole():
    copies = [whole_text_copy(text) for _, text, as_array in CORPUS if as_array]
    assert copies and not any(map(read_as_array, copies))


_MUTATION_BYTES = "0123456789,[]{}:"


def _mutants(rng, text):
    """Single-byte edits inside the cost segment of ``text``."""
    i = text.index('"cost":') + len('"cost":')
    j = text.index(',"s":')
    for _ in range(40):
        k = rng.randrange(i, j)
        op = rng.randrange(3)
        if op == 0:
            yield text[:k] + rng.choice(_MUTATION_BYTES) + text[k + 1 :]
        elif op == 1:
            yield text[:k] + text[k + 1 :]
        else:
            yield text[:k] + rng.choice(_MUTATION_BYTES) + text[k:]


def test_random_canonical_texts_and_byte_edits_read_as_the_whole_text_does():
    rng = random.Random(0xA77A)
    checked = arrays = 0
    for _ in range(60):
        s, t = rng.randint(1, 4), rng.randint(1, 4)
        top = rng.choice((1, 9, 10, 1000, 10**18, INT64_MAX - 1))
        cost = [[rng.choice((0, rng.randint(0, top))) for _ in range(t)] for _ in range(s)]
        text = canonical(doc(cost))
        for variant in (text, *_mutants(rng, text)):
            got, want = outcome(variant), outcome(whole_text_copy(variant))
            assert got[0] == want[0], variant
            assert got[1:] == want[1:], variant
            checked += 1
            arrays += isinstance(got[0], Instance) and read_as_array(variant)
    assert checked == 60 * 41 and arrays > 60


def test_the_array_read_instance_holds_no_rows_until_they_are_read():
    text = canonical(BASE)
    parsed = instance_from_json(text)
    assert "cost" not in vars(parsed)
    assert parsed.costs.dtype == np.int64 and not parsed.costs.flags.writeable
    assert parsed.costs.tolist() == BASE["cost"]
    assert instance_digest(parsed) == bmatch.model._sha12(text.encode())
    assert validate_instance(parsed).violations == ()
    clipped = normalize_instance(parsed)
    assert "cost" not in vars(clipped) and clipped.costs is parsed.costs
    assert "digest" not in vars(clipped)
    assert clipped.b_capacity == (2, 2, 2) and clipped.a_capacity == (3, 3)
    solve_ga(parsed)
    assert "cost" not in vars(parsed)
    state = SolverState(parsed)
    assert state.graph.transform.c_max == 40
    assert "cost" not in vars(state.inst)
    # Read, the rows are tuples of ints, built once and then held.
    rows = parsed.cost
    assert rows == ((7, 0, 12), (3, 40, 5)) and type(rows[0][0]) is int
    assert parsed.cost is rows
    assert instance_to_json(parsed) == text


def test_the_rows_descriptor_leaves_the_field_without_a_default():
    with pytest.raises(TypeError):
        Instance(s=1, t=1, a_demand=(1,), a_capacity=(1,), b_demand=(1,), b_capacity=(1,))
    with pytest.raises(AttributeError):
        Instance.cost
    built = Instance(s=1, t=1, cost=((4,),), a_demand=(1,), a_capacity=(1,), b_demand=(1,), b_capacity=(1,))
    assert built.cost == ((4,),) and "cost" in vars(built)


@pytest.mark.parametrize("cost", [2**63 - 2, 2**63 - 1, 2**63, 10**18, 99999999999999999999])
def test_int64_edge_costs_end_in_the_domain_check_with_the_exact_cost(cost, tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(canonical(doc([[cost]], a_demand=[1], a_capacity=[1], b_demand=[1], b_capacity=[1])) + "\n")
    assert main(["solve", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {path}: costs up to {cost} on a 1x1 instance with up to 1 pairs can overflow 64-bit arithmetic; "
        "the exact domain needs 2*s*t*max_cost*(pairs + s + t + 1) < 2**62\n"
    )
    assert read_as_array(path.read_text()) == (cost < INT64_MAX)
