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

from .model import Instance, _c_max, validate_instance

__all__ = [
    "CopyRef",
    "ExpandedGraph",
    "WeightTransform",
    "build_expanded_graph",
    "transform_costs",
]

# A vertex copy is (group, index): group "a"/"b" are demand copies,
# "a'"/"b'" the matching surplus copies.
CopyRef = tuple[str, int]


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
    """Quota counters for the four copy groups, and the cost→weight transform."""

    instance: Instance
    transform: WeightTransform
    a_demand_quota: tuple[int, ...]
    a_surplus_quota: tuple[int, ...]
    b_demand_quota: tuple[int, ...]
    b_surplus_quota: tuple[int, ...]


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
    c_max = _c_max(inst)
    return ExpandedGraph(
        instance=inst,
        transform=WeightTransform(c_max=c_max, offset=c_max + 1),
        a_demand_quota=inst.a_demand,
        a_surplus_quota=tuple(c - d for d, c in zip(inst.a_demand, inst.a_capacity)),
        b_demand_quota=inst.b_demand,
        b_surplus_quota=tuple(c - d for d, c in zip(inst.b_demand, inst.b_capacity)),
    )

