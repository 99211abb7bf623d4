"""The cost→weight flip that puts a bmatch solve in the paper's terms.

The paper splits each vertex into a demand copy and a surplus copy and
runs the Hungarian method on weights.  A solve keeps the copies as
counters on its matching (``CapacitatedMatching.extra`` and
``.surplus``) and works on costs; this module holds the map between the
two.

Weights are transformed costs: W = offset - c with offset = max(c) + 1, so
all weights are >= 1 and cheaper pairs are strictly heavier.  (A reciprocal
transform 1/c would not preserve sum optima: costs {1, 4} beat {2, 2} on
sums, but lose on reciprocal sums.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance

__all__ = ["ExpandedGraph", "WeightTransform", "transform_costs"]


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
    """An instance with its cost→weight transform.  Only
    ``SolverState.graph`` builds one: acceptance criterion 6b reads a
    solve's weights back through ``state.graph.transform``."""

    instance: Instance
    transform: WeightTransform


def transform_costs(inst: Instance) -> tuple[tuple[tuple[int, ...], ...], WeightTransform]:
    """Flip costs into positive weights: W[i][j] = (max cost + 1) - cost[i][j]."""
    c_max = max(max(row) for row in inst.cost)
    tr = WeightTransform(c_max=c_max, offset=c_max + 1)
    weights = tuple(tuple(tr.to_weight(c) for c in row) for row in inst.cost)
    return weights, tr
