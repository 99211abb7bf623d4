"""Vertex-splitting view of a bounded-degree instance, and the cost→weight flip.

A row i that must take between ``a_demand[i]`` and ``a_capacity[i]`` partners
is split into a *demand copy* (quota ``a_demand[i]``, must be fully matched)
and a *surplus copy* (quota ``a_capacity[i] - a_demand[i]``, may be matched);
columns are split the same way.  Every original pair (i, j) is usable between
three of the four copy combinations — demand-demand, demand-surplus and
surplus-demand — all carrying the same weight.  Surplus-surplus pairs are
deliberately absent: with non-negative costs, an optimal solution that is
edge-minimal never matches two slots that nobody demanded.

Copies are quota counters, not materialized vertices, so the structure costs
O(s + t) on top of the cost matrix.

Weights are transformed costs: W = offset - c with offset = max(c) + 1, so
all weights are >= 1 and cheaper pairs are strictly heavier.  (A reciprocal
transform 1/c would not preserve sum optima: costs {1, 4} beat {2, 2} on
sums, but lose on reciprocal sums.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Assignment, Instance, make_assignment, validate_instance

__all__ = [
    "CopyRef",
    "ExpandedGraph",
    "WeightTransform",
    "DuplicatePairError",
    "build_expanded_graph",
    "transform_costs",
    "project_matching",
]

# A vertex copy is (group, index): group "a"/"b" are demand copies,
# "a'"/"b'" the matching surplus copies.
CopyRef = tuple[str, int]

_A_GROUPS = ("a", "a'")
_B_GROUPS = ("b", "b'")


class DuplicatePairError(ValueError):
    """Two copy-level matches collapse to the same original pair.

    Raised by ``project_matching``; a solver that produces this has
    violated the one-match-per-pair rule and the result is unusable.
    """


@dataclass(frozen=True)
class WeightTransform:
    """Order-reversing affine map between costs and weights."""

    c_max: int
    offset: int

    def to_weight(self, cost: int) -> int:
        return self.offset - cost

    def to_cost(self, weight: int) -> int:
        return self.offset - weight


@dataclass(frozen=True)
class ExpandedGraph:
    """Quota counters for the four copy groups plus replicated weights."""

    instance: Instance
    transform: WeightTransform
    a_demand_quota: tuple[int, ...]
    a_surplus_quota: tuple[int, ...]
    b_demand_quota: tuple[int, ...]
    b_surplus_quota: tuple[int, ...]

    def quota(self, copy: CopyRef) -> int:
        group, k = copy
        if group == "a":
            return self.a_demand_quota[k]
        if group == "a'":
            return self.a_surplus_quota[k]
        if group == "b":
            return self.b_demand_quota[k]
        if group == "b'":
            return self.b_surplus_quota[k]
        raise ValueError(f"unknown copy group {group!r}")

    def has_edge(self, x: CopyRef, y: CopyRef) -> bool:
        """True iff the copy groups are adjacent (everything but surplus-surplus)."""
        if x[0] not in _A_GROUPS or y[0] not in _B_GROUPS:
            raise ValueError(f"edge must go from an A-side copy to a B-side copy, got {x!r}-{y!r}")
        return not (x[0] == "a'" and y[0] == "b'")

    def weight(self, x: CopyRef, y: CopyRef) -> int:
        """Replicated weight of copy edge (x, y); surplus-surplus has no edge."""
        if not self.has_edge(x, y):
            raise ValueError(f"no edge between surplus copies {x!r} and {y!r}")
        return self.transform.to_weight(self.instance.cost[x[1]][y[1]])


def transform_costs(inst: Instance) -> tuple[tuple[tuple[int, ...], ...], WeightTransform]:
    """Flip costs into positive weights: W[i][j] = (max cost + 1) - cost[i][j]."""
    c_max = max(max(row) for row in inst.cost)
    tr = WeightTransform(c_max=c_max, offset=c_max + 1)
    weights = tuple(tuple(tr.to_weight(c) for c in row) for row in inst.cost)
    return weights, tr


def build_expanded_graph(inst: Instance) -> ExpandedGraph:
    """Split each vertex into demand and surplus copies with derived quotas."""
    report = validate_instance(inst)
    if not report.feasible_necessary:
        raise ValueError("cannot expand an invalid instance: " + "; ".join(report.violations))
    c_max = max(map(max, inst.cost))
    return ExpandedGraph(
        instance=inst,
        transform=WeightTransform(c_max=c_max, offset=c_max + 1),
        a_demand_quota=inst.a_demand,
        a_surplus_quota=tuple(c - d for d, c in zip(inst.a_demand, inst.a_capacity)),
        b_demand_quota=inst.b_demand,
        b_surplus_quota=tuple(c - d for d, c in zip(inst.b_demand, inst.b_capacity)),
    )


def project_matching(graph: ExpandedGraph, expanded_pairs: Iterable[tuple[CopyRef, CopyRef]]) -> Assignment:
    """Merge copy-level matches back to original indices.

    Checks quotas, group adjacency and index ranges.  Two copy matches that
    collapse onto one original pair mean the solver double-used a pair;
    that is surfaced loudly as ``DuplicatePairError`` rather than silently
    deduplicated.
    """
    inst = graph.instance
    used: dict[CopyRef, int] = {}
    seen: set[tuple[int, int]] = set()
    for x, y in expanded_pairs:
        if not graph.has_edge(x, y):
            raise ValueError(f"copy pair {x!r}-{y!r} uses a nonexistent surplus-surplus edge")
        i, j = x[1], y[1]
        if not (0 <= i < inst.s and 0 <= j < inst.t):
            raise ValueError(f"copy pair {x!r}-{y!r} out of range")
        for copy in (x, y):
            used[copy] = used.get(copy, 0) + 1
            if used[copy] > graph.quota(copy):
                raise ValueError(f"copy {copy!r} matched {used[copy]} times, quota {graph.quota(copy)}")
        if (i, j) in seen:
            raise DuplicatePairError(f"original pair ({i}, {j}) produced by two copy-level matches")
        seen.add((i, j))
    return make_assignment(inst, seen)
