"""Shared helpers: seeded random instances for cross-checking solvers."""

import os
import random
from pathlib import Path

import pytest

from bmatch import Instance
from bmatch.oracles import feasibility_check

# Tests that start `python -m bmatch` need the checkout's package too, which
# pytest's `pythonpath` setting puts on this process's path only.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def draw_instance(rng, max_s=4, max_t=4, cost_max=9, cap_max=3, demands_one=False):
    """One random instance, not necessarily feasible."""
    s = rng.randint(1, max_s)
    t = rng.randint(1, max_t)
    cost = [[rng.randint(0, cost_max) for _ in range(t)] for _ in range(s)]
    a_cap = [rng.randint(1, min(cap_max, t)) for _ in range(s)]
    b_cap = [rng.randint(1, min(cap_max, s)) for _ in range(t)]
    if demands_one:
        a_dem, b_dem = [1] * s, [1] * t
    else:
        a_dem = [rng.randint(0, c) for c in a_cap]
        b_dem = [rng.randint(0, c) for c in b_cap]
    return Instance.from_lists(
        cost=cost, a_demand=a_dem, a_capacity=a_cap, b_demand=b_dem, b_capacity=b_cap
    )


def draw_feasible(rng, **kw):
    while True:
        inst = draw_instance(rng, **kw)
        ok, _ = feasibility_check(inst)
        if ok:
            return inst


@pytest.fixture
def rng():
    return random.Random(0xB347C4)


def draw_unit(rng, n, cost_max=9):
    """One n x n instance whose every demand and capacity is 1."""
    ones = [1] * n
    cost = [[rng.randint(0, cost_max) for _ in range(n)] for _ in range(n)]
    return Instance.from_lists(cost=cost, a_demand=ones, a_capacity=ones, b_demand=ones, b_capacity=ones)
