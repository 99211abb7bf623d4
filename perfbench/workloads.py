"""Seeded instance generators for the benchmark workloads.

Every instance is a function of (workload, seed, index) alone and is
feasible by construction: each generator also returns a witness pair set
that meets every degree bound, and ``generate`` checks it.  Nothing here
rejection-samples, so generation stays cheap at benchmark sizes.

Instances are plain int64 numpy arrays so that the benchmark process and
the yardstick process build identical inputs from the same code without
importing bmatch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class Problem(NamedTuple):
    cost: np.ndarray  # (s, t)
    a_demand: np.ndarray
    a_capacity: np.ndarray
    b_demand: np.ndarray
    b_capacity: np.ndarray
    witness: np.ndarray  # (k, 2) feasible pair set


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "lca", "ga" or "cli"
    yardstick: str  # "lsa" (linear_sum_assignment) or "highs" (linprog)
    yardstick_repeats: int  # timed yardstick solves per instance
    full: Callable[[np.random.Generator], Problem]
    tiny: Callable[[np.random.Generator], Problem]


def _one_to_one(rng: np.random.Generator, n: int) -> Problem:
    cost = rng.integers(0, 10**6, size=(n, n), endpoint=True)
    ones = np.ones(n, dtype=np.int64)
    witness = np.stack([np.arange(n), np.arange(n)], axis=1)
    return Problem(cost, ones, ones, ones, ones, witness)


def _heavy_rect(rng: np.random.Generator, s: int, t: int) -> Problem:
    """Rows: demand 0, capacity 25; columns: demand 10, capacity 12.

    Witness: column j takes rows (10j + r) mod s for r < 10.
    """
    cost = rng.integers(0, 10**6, size=(s, t), endpoint=True)
    cols = np.repeat(np.arange(t), 10)
    rows = (10 * cols + np.tile(np.arange(10), t)) % s
    return Problem(
        cost,
        np.zeros(s, dtype=np.int64),
        np.full(s, 25, dtype=np.int64),
        np.full(t, 10, dtype=np.int64),
        np.full(t, 12, dtype=np.int64),
        np.stack([rows, cols], axis=1),
    )


def _sparse_demand(rng: np.random.Generator, n: int) -> Problem:
    """Costs in [0, 1000], capacities in 1..4, and a demand in 1..cap on
    each vertex with probability 0.05 (otherwise 0)."""
    cost = rng.integers(0, 1000, size=(n, n), endpoint=True)
    a_cap = rng.integers(1, 4, size=n, endpoint=True)
    b_cap = rng.integers(1, 4, size=n, endpoint=True)
    a_dem = np.where(rng.random(n) < 0.05, rng.integers(1, a_cap, endpoint=True), 0)
    b_dem = np.where(rng.random(n) < 0.05, rng.integers(1, b_cap, endpoint=True), 0)
    return Problem(cost, a_dem, a_cap, b_dem, b_cap, _realize(a_dem, a_cap, b_dem, b_cap))


def _realize(a_dem, a_cap, b_dem, b_cap) -> np.ndarray:
    """A pair set meeting every demand within capacity.

    Degree targets start at max(demand, 1); the side with the smaller
    total is raised one unit at a time, always on a least-loaded vertex
    with spare capacity, until both totals agree.  The targets are then
    realized greedily, largest row target first, each row taking the
    columns with the most remaining target (bipartite Havel-Hakimi).  With
    every target at least 1, targets at most 4 and at least 12 columns,
    the Gale-Ryser condition holds, so the greedy step cannot get stuck.
    """
    x, y = np.maximum(a_dem, 1), np.maximum(b_dem, 1)
    gap = int(x.sum() - y.sum())
    low, cap = (y, b_cap) if gap > 0 else (x, a_cap)
    for _ in range(abs(gap)):
        spare = np.flatnonzero(low < cap)
        low[spare[np.argmin(low[spare])]] += 1
    pairs = []
    for i in np.argsort(-x, kind="stable"):
        cols = np.argsort(-y, kind="stable")[: x[i]]
        if y[cols[-1]] == 0:
            raise RuntimeError("degree targets are not realizable")
        y[cols] -= 1
        pairs += [(int(i), int(j)) for j in cols]
    return np.array(pairs, dtype=np.int64)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "o2o-dense", "lca", "lsa", yardstick_repeats=5,
            full=lambda rng: _one_to_one(rng, 300),
            tiny=lambda rng: _one_to_one(rng, 30),
        ),
        Workload(
            "heavy-rect", "ga", "highs", yardstick_repeats=1,
            full=lambda rng: _heavy_rect(rng, 120, 240),
            tiny=lambda rng: _heavy_rect(rng, 12, 24),
        ),
        Workload(
            "sparse-cli", "cli", "highs", yardstick_repeats=1,
            full=lambda rng: _sparse_demand(rng, 400),
            tiny=lambda rng: _sparse_demand(rng, 40),
        ),
    )
}


def generate(workload: Workload, seed: int, k: int, tiny: bool = False) -> Problem:
    """Instance ``k`` of ``workload`` for ``seed``; checks its witness."""
    rng = np.random.default_rng([seed, k])
    prob = (workload.tiny if tiny else workload.full)(rng)
    check_pairs(prob, prob.witness)
    return prob


def check_pairs(prob: Problem, pairs: np.ndarray) -> None:
    """Raise ValueError unless ``pairs`` is a duplicate-free pair set
    within every degree bound of ``prob``."""
    s, t = prob.cost.shape
    if len({(int(i), int(j)) for i, j in pairs}) != len(pairs):
        raise ValueError("duplicate pairs")
    deg_a = np.bincount(pairs[:, 0], minlength=s)
    deg_b = np.bincount(pairs[:, 1], minlength=t)
    if np.any(deg_a < prob.a_demand) or np.any(deg_a > prob.a_capacity):
        raise ValueError("row degree out of bounds")
    if np.any(deg_b < prob.b_demand) or np.any(deg_b > prob.b_capacity):
        raise ValueError("column degree out of bounds")


def array_hash(prob: Problem) -> str:
    """Hash of the instance arrays, comparing inputs across processes."""
    h = hashlib.sha256()
    for a in prob[:5]:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]
