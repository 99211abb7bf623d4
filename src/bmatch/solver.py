"""Exact solver for bounded-degree bipartite assignment.

The engine is a successive-shortest-path primal-dual method working on the
original vertices plus one extra *pool* node that accounts for optional
capacity (everything a vertex may take beyond what it must take).  Each
unmet demand unit is routed along a cheapest augmenting path in the
residual graph under node potentials, so every intermediate matching is a
cheapest matching for the demand units already placed, and the final one
is a global optimum certified by its dual values.

One dual per vertex, ``r`` over the search's node ids (rows, then
columns): a pair costs ``c[i][j] - r[i] - r[s + j]`` reduced, and a pool
arc ``r[v]`` onto v's surplus copy, ``-r[v]`` off it.  Invariants kept
after every update: unmatched pairs have reduced cost >= 0, matched
pairs <= 0, and every available pool arc has non-negative reduced cost.
Exposed labels
(``SolverState.labels``) are the weight-space view of the same duals:
``l_a[i] = offset - r[i]``, ``l_b[j] = -r[s + j]``, identical on the
demand and surplus copy of a vertex, and initialized at the row maximum
of the transformed weights / zero.  The labels and the per-pair terms
``z_ij = max(0, W[i][j] - l_a[i] - l_b[j])`` (the dual of "each pair at
most once") together form the full dual: matched pairs have
``l_a[i] + l_b[j] <= W[i][j]`` with the gap exactly ``z_ij``, and
unmatched pairs have ``l_a[i] + l_b[j] >= W[i][j]``.

A warm start places most units first, without a search: when every
demand and capacity is 1, ``_warm_start`` matches most rows; on every
other instance ``_column_start`` gives each column its cheapest rows
within the row capacities.  Then two phases, mirroring the two vertex
sides:

* Phase 1 roots at every row whose demand is unmet (index order) and
  routes one unit per search toward a column that still needs partners
  or — when the rows' unmet demand exceeds the columns' — into spare
  column capacity ("parking").
* Phase 2 roots at every column whose demand is still unmet and searches
  backward to the pool, entering through spare row capacity.  On an
  all-unit instance whose bidding rounds ran out with rows still free,
  phase 1 is skipped: phase 2 roots at the free columns, and each search
  ends at a free row, as a phase-1 search ends at a short column.

Both phases run one search, ``grow_forest``: phase 2 is the phase-1
Dijkstra run on the reversed residual graph, with rows and columns
trading roles (the successive-shortest-path scheme of Ahuja, Magnanti &
Orlin, *Network Flows*, 1993, ch. 9).  Building the ``SolverState`` runs
the one input screen of a solve, ``model.normalize_instance``.

Paths may pass through the pool (park one unit, feed another), so a
single augmentation can add more than one pair; this is required for
optimality, not an optimization.  After the phases a zero-cost cleanup
drops pairs that no demand on either side needs (any such pair must cost
0 at an optimum, which is asserted), so every returned pair leans on a
demand slot on at least one side: the answer never needs a
surplus-surplus pair of the vertex-split graph.  The assignment is read
straight off the ``matched`` matrix, after one array check of the pruned
matching (``_check_output``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .expansion import ExpandedGraph, WeightTransform
from .model import Assignment, InfeasibleInstanceError, Instance, _c_max, normalize_instance

__all__ = [
    "INF",
    "InfeasibleInstanceError",
    "InternalSolverError",
    "CapacitatedMatching",
    "AugmentingPath",
    "SolveReport",
    "SolverState",
    "grow_forest",
    "augment",
    "solve_ga",
    "solve_lca",
]

INF = 2**62
# Added to ``cost`` at every matched pair in ``CapacitatedMatching.lifted``,
# so a relax through the lifted matrix pushes the pairs it may not use to
# INF or above (see ``_check_exact_domain``).
LIFT = 3 * 2**61
# At most this many bidding rounds in ``_warm_start``.  Rounds that only
# move held columns between rows go on while their ``q`` fall, by small
# steps near the end; past about this many, searches place the last few
# free rows of a 300x300 instance sooner.
_BID_ROUNDS = 60


class InternalSolverError(RuntimeError):
    """A solver invariant broke mid-run; the result would be untrustworthy."""


def _mask_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a mask's True entries, row-major; a 2-D np.nonzero costs more."""
    return divmod(np.flatnonzero(mask), mask.shape[1])


@dataclass
class CapacitatedMatching:
    """Mutable matching over original pairs with per-copy bookkeeping.

    The vertex arrays run over the search's node ids (rows 0..s-1, then
    columns s..s+t-1).  ``extra[v]`` counts v's matches on its surplus
    copy, the units the pool fed a row or parked at a column, so
    ``deg - extra`` counts its demand copy's, on either side.  ``cost``
    and the quotas (``demand``, ``capacity``, ``surplus`` = capacity -
    demand) are the instance's, as int64 arrays built once.  ``lifted``
    is ``cost + LIFT * matched`` and ``partner_sum[v]`` the sum of the
    node ids v is matched to, so v's one partner where ``deg[v] == 1``;
    every pair flip keeps both in step.  ``parks_left`` is the park
    budget, set by ``park_budget`` on the empty and the warm-start
    matching and lowered only by ``augment``.
    """

    matched: np.ndarray  # (s, t) bool
    cost: np.ndarray  # (s, t) int64
    lifted: np.ndarray  # (s, t) int64
    partner_sum: np.ndarray  # per node id: the sum of its partners' node ids
    deg: np.ndarray
    extra: np.ndarray
    demand: np.ndarray
    capacity: np.ndarray
    surplus: np.ndarray
    parks_left: int = 0

    @classmethod
    def empty(cls, inst: Instance) -> "CapacitatedMatching":
        demand = np.array((*inst.a_demand, *inst.b_demand), dtype=np.int64)
        capacity = np.array((*inst.a_capacity, *inst.b_capacity), dtype=np.int64)
        m = cls(
            matched=np.zeros((inst.s, inst.t), dtype=bool),
            cost=inst.costs,
            lifted=inst.costs.copy(), partner_sum=np.zeros_like(demand),
            deg=np.zeros_like(demand), extra=np.zeros_like(demand),
            demand=demand, capacity=capacity, surplus=capacity - demand,
        )
        m.parks_left = m.park_budget()
        return m

    def unmet(self, v: int) -> bool:
        """Whether node ``v``'s demand copy still has a unit to place."""
        return self.deg[v] - self.extra[v] < self.demand[v]

    def flip(self, i: int, j: int, d: int) -> None:
        """Add (``d = 1``) or drop (``d = -1``) pair (i, j), keeping
        ``matched``, ``lifted``, ``partner_sum`` and both degrees in step."""
        y = len(self.matched) + j
        self.matched[i, j] = d > 0
        self.lifted[i, j] += d * LIFT
        self.partner_sum[i] += d * y
        self.partner_sum[y] += d * i
        self.deg[i] += d
        self.deg[y] += d

    def park_budget(self) -> int:
        """How many row units may still end in spare column capacity: the
        rows' summed shortfall less the columns', floored at 0, where a
        vertex's shortfall is ``max(0, demand - (deg - extra))``."""
        short, s = np.maximum(self.demand - (self.deg - self.extra), 0), len(self.matched)
        return max(0, int(short[:s].sum() - short[s:].sum()))

    def droppable(self) -> np.ndarray:
        """Mask of the matched pairs above demand on both sides."""
        above, s = self.deg > self.demand, len(self.matched)
        return self.matched & above[:s, None] & above[None, s:]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(x.tolist() for x in _mask_pairs(self.matched))))


@dataclass(frozen=True)
class AugmentingPath:
    """One cheapest augmentation from demand copy ``root``, as the node
    ids (rows 0..s-1, columns s..s+t-1, pool s+t) it passes in arc
    direction: root -> leaf from a row, leaf -> root from a column, whose
    leaf is the pool or a row short of demand.

    A path from ``grow_forest`` also carries ``s``, the ``terminal`` node
    where its search finished and the search's arrays over node ids:
    ``dist``, reduced-cost distance from the root (INF if unreached);
    ``parent``, -1 or the first settled node whose relax gave that
    distance; ``settled``, whether the distance is final.  Nothing writes
    them once the search returns, so they, and ``steps`` and ``forest``
    built from them on first read, read the same late as at once.  A
    hand-built path has none of them.
    """

    root: int
    nodes: tuple[int, ...]
    s: int = field(default=-1, repr=False, compare=False)
    dist: np.ndarray | None = field(default=None, repr=False, compare=False)
    parent: np.ndarray | None = field(default=None, repr=False, compare=False)
    settled: np.ndarray | None = field(default=None, repr=False, compare=False)
    terminal: int = field(default=-1, repr=False, compare=False)

    @cached_property
    def steps(self) -> tuple[tuple, ...]:
        """The arcs as primal operations: ``("match"|"unmatch", i, j)``,
        ``("park"|"release", j)`` or ``("feed"|"unfeed", i)``."""
        s, pool = self.s, len(self.dist) - 1
        steps: list[tuple] = []
        for u, v in zip(self.nodes, self.nodes[1:]):
            if v == pool:
                steps.append(("park", u - s) if u >= s else ("unfeed", u))
            elif u == pool:
                steps.append(("release", v - s) if v >= s else ("feed", v))
            else:
                steps.append(("match", u, v - s) if u < s else ("unmatch", v, u - s))
        return tuple(steps)

    @cached_property
    def forest(self) -> SimpleNamespace:
        """``settled`` as plain bools, which the benchmark tracer sums and
        JSON-encodes; it and ``steps`` go once the tracer reads the arrays."""
        return SimpleNamespace(settled=tuple(self.settled.tolist()))


@dataclass(frozen=True)
class SolveReport:
    """Per-solve diagnostics; ``dual_objective`` equals the optimal cost."""

    algorithm: str
    phase1_augmentations: int
    phase2_augmentations: int
    dual_updates: int
    dual_objective: int
    pruned_pairs: int
    wall_time_ms: float
    # Units a warm start placed, not a search: phase-1 units on all-unit
    # instances (_warm_start), phase-2 units on every other one (_column_start).
    # An all-unit instance whose bidding rounds ran out places the rest from
    # column roots, which count as phase-2 units.
    warm_start_pairs: int = 0


def _check_exact_domain(inst: Instance, c_max: int) -> None:
    """Reject costs for which a solve's int64 arithmetic could wrap.

    Let C = ``c_max`` and P = min(sum a_capacity, sum b_capacity) on the
    clipped instance, so no matching has more than P pairs.  Track one
    node label phi, the pool's included, that ``r`` reads against the
    pool's: ``phi[v] - phi[pool]`` on a row, ``phi[pool] - phi[v]`` on a
    column.  A residual arc u->v then has reduced cost
    ``cost(u, v) - phi[u] + phi[v]``, with cost c_ij on a match, -c_ij on
    an unmatch and 0 on a pool arc, so a path's reduced length D is its
    cost plus the label difference of its ends.  Labels start in [0, C].
    A phase-1 update lowers every label by min(dist, D), which lies in
    [0, D]; a phase-2 update raises it by the same amount.

    * Phase 1.  Every column still short of demand (its demand count only
      grows at a path's end) and the pool, while park budget remains, is
      a possible finish, so its dist is at least D and it drops by
      exactly D.  These started at 0, so they sit at -S1, S1 being the sum
      of D so far; the root row sits at -S1 or above.  Hence
      D <= cost(path), and S1 is at most the phase-1 matching cost.
    * Phase 2.  The pool always finishes, so it rises by exactly D.  The
      root column was short of demand all through phase 1, so it ended
      phase 1 at -S1, not above the pool, and has risen no more than the
      pool since.  Hence again D <= cost(path), and S2 is at most the cost
      phase 2 adds.
    * So every label lies in [-S1, C + S2] with S1 + S2 <= P*C, and every
      entry of ``r``, a difference of two labels, is at most
      K = (P + 1)*C in size.

    Then settled distances are at most min(s, t)*C + K and tentative ones
    at most that plus one arc, C + K; ``INF + K`` fits in int64; each term
    of the dual objective is at most K per bound unit or pair, and its
    partial sums at most 2*s*t*K; the matched cost is at most P*C.

    A search relaxes through ``lifted = cost + LIFT*matched`` with
    LIFT = INF + 2**61, and every pair a relax may not use must come out
    in [INF, 2**63): never below a candidate, and never wrapped.  Settling
    node v at dv, with rc the pair's reduced cost:

    * from side X, a matched pair reads LIFT + dv + rc with rc in [-K, 0];
    * from side Y, an unmatched pair reads LIFT + dv - rc with rc in
      [0, C + K], and the scalar ``LIFT + dv + ry[y]`` is its largest
      partial sum (``g[x] - ry`` and ``rx - g[:, y]`` stay within
      LIFT + C + K in size).  At degree 1, side Y's relax computes its
      partner's entry alone, in Python ints: the same value, which
      needs no bound.

    Bounding dv and ``ry[y]`` apart (min(s, t)*C + 2K) is too loose for
    s = t = 1.  Jointly: dv is the tree path's cost plus the difference of
    its end labels, and ``ry[y]`` trades the label of y for the pool's, so
    ``dv + ry[y]`` is the path's cost, at most min(s, t)*C (each match arc
    leaves a distinct row for a distinct column; other arcs cost <= 0),
    less the root's ``r``, at most K in size.  So ``dv + ry[y]`` and dv
    are at most min(s, t)*C + K, and the lifted values lie in
    [LIFT - C - K, LIFT + min(s, t)*C + K].
    That is inside [INF, 2**63) when (P + 1 + max(1, min(s, t)))*C < 2**61.
    The step that settles the rows the pool fed at one distance
    (``grow_forest``) computes, in int64 arrays, the entries each of those
    rows' own relax would, ``g[x] - ry`` and ``dv - rx[x]`` among them, so
    these bounds cover it as they stand.  It relaxes no pool arc: the pool
    that fed the rows is already settled.

    All of it holds when 2*s*t*C*(P + s + t + 1) < 2**62 = INF, which is
    checked here in Python integers.  C is the max of the screen's int64
    cost array.  A cost beyond int64 fails that conversion, so no array is
    built; the caller then passes the rows' exact max, which fails here.

    When every bound is 1, ``_warm_start`` sets the first labels,
    ``r = (p, q)`` with the pool's at 0; then s = t = P = n, and no pool
    arc is used.  Its q only falls from the column minima, so
    each ``p[i] = min(c[i] - q)`` is >= 0.
    Before any q falls every reduced cost is <= C.  A held column stays
    held and only a held column's q falls, so a column still free when a
    bidding round starts has its minimum as q, and one exists while a row
    is free.  Every bid of a round reads the q at its start, so each
    bidder's cheapest reduced cost is <= C, and so is its second-cheapest
    when its cheapest column is held: the one case where its offer lowers
    a q.  Hence each lowered q, c_ij less one of these (the reduction
    transfer's included), is >= -C.  And p <= C: where column reduction
    matched every row, each p is that row's second-smallest reduced cost
    before the transfer; else some column was free when the last round
    started, and it kept its minimum as q.  A column that ends a path was
    free since the warm start, so its label started in [-C, 0] and
    D <= cost(path) as before.  Labels lie in [-C - S1, C], and every
    bound above holds with K = (P + 2)*C: (2n + 2)*C < 2**61 and
    n*n*K < 2**61 follow from the same check, as n*n*(3n + 1) is at least
    2n + 2 and n*n*(n + 2).

    Where the rounds ran out with rows still free, every search roots at
    a free column instead, and each update raises every label by
    min(dist, D), the mirror of phase 1.  Every row still free is a
    possible finish, so its dist is at least D and it rises by exactly D:
    a row that ends a path was free since the warm start, so it sits at
    its p, which is >= 0, plus S2, the sum of D so far.  The root column
    was free since the warm start too: it started in [-C, 0] and has
    risen by at most S2.  Hence D <= cost(path) - p <= cost(path), S2 is
    at most the cost these searches add to the start's matching, labels
    lie in [-C, C + S2], and the same K = (P + 2)*C holds.

    On every other instance ``_column_start`` sets the first labels,
    ``r = (p, q)`` again, with the pool's at 0.  Each q[j] is a cost or 0,
    so q lies in [0, C]; each p[i] is 0 or some c_ij - q_j, so p lies in
    [-C, 0].  Labels start in [-C, 0], and phase 1 runs after the start.

    * Phase 1.  A root row is short of demand, so the start left its
      label at 0 (see ``_column_start``), and it sits at -S1 or above.  A
      column that finishes a path was short since the start, so it
      started at -q_j <= 0 and sits at -q_j - S1 <= -S1; the pool, while
      park budget remains, sits at exactly -S1.  Hence D <= cost(path) as
      before, and S1 is at most the cost phase 1 adds to the start's
      matching.
    * Phase 2.  The root column was short since the start: it began at
      -q_j, not above the pool's 0, and phase 1 lowered it by exactly D
      at every update and the pool by at most D.  So it ended phase 1 not
      above the pool, and the phase-2 argument holds as it stands.
    * So every label lies in [-C - S1, S2], where S1 + S2 is at most the
      final cost less the start's, at most P*C, and every entry of ``r``
      is at most K = (P + 1)*C in size: every bound above holds
      unchanged.  Where every row demand is 0, phase 1 is empty and
      S1 = 0.
    """
    s, t = inst.s, inst.t
    pairs = min(sum(inst.a_capacity), sum(inst.b_capacity))
    if 2 * s * t * c_max * (pairs + s + t + 1) >= INF:
        raise ValueError(
            f"costs up to {c_max} on a {s}x{t} instance with up to {pairs} pairs can "
            "overflow 64-bit arithmetic; the exact domain needs "
            "2*s*t*max_cost*(pairs + s + t + 1) < 2**62"
        )


class SolverState:
    """Matching plus dual potentials; owns all mutable state of one solve.

    Construction runs the solve's one screen, ``normalize_instance``, then
    rejects costs outside the exact int64 domain with ``ValueError``.
    ``inst`` is the normalized instance (capacities clipped to the
    opposite side size).  ``matching`` holds the cost and bound arrays
    and the park budget; ``labels`` reads ``offset``.  Between two
    augmentations a solve keeps only the matching and its duals ``r``:
    each search allocates its own scratch arrays.
    """

    mu = 0  # the pool's dual: ``r`` holds every vertex's relative to it

    def __init__(self, inst: Instance):
        inst = normalize_instance(inst)
        c_max = _c_max(inst)
        _check_exact_domain(inst, c_max)
        self.inst = inst
        self.s, self.t = inst.s, inst.t
        self.offset = c_max + 1
        self.matching = m = CapacitatedMatching.empty(inst)
        # Feasible initial duals: reduced costs start >= 0 everywhere.
        self.r = np.concatenate((m.cost.min(axis=1), np.zeros(inst.t, dtype=np.int64)))
        self.dual_updates = 0

    @property
    def graph(self) -> ExpandedGraph:
        """``inst`` with the cost→weight transform that ``labels`` uses,
        built from ``offset`` on every read; nothing in a solve reads it."""
        return ExpandedGraph(self.inst, WeightTransform(c_max=self.offset - 1, offset=self.offset))

    def labels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Weight-space vertex labels (shared by demand and surplus copies).

        Together with the per-pair terms
        ``z_ij = max(0, W[i][j] - l_a[i] - l_b[j])`` they form the full
        dual.  Matched pairs have label sum <= weight (tight once ``z_ij``
        is added), unmatched pairs label sum >= weight.
        """
        off, s = self.offset, self.s
        return tuple(int(off - x) for x in self.r[:s]), tuple(int(-x) for x in self.r[s:])

    def check_dual_invariants(self) -> None:
        """Raise if any residual arc has negative reduced cost."""
        m, s, r = self.matching, self.s, self.r
        rc = m.cost - r[:s, None]
        rc -= r[None, s:]
        if np.any((rc < 0) & ~m.matched):
            raise InternalSolverError("unmatched pair with negative reduced cost")
        if np.any((rc > 0) & m.matched):
            raise InternalSolverError("matched pair with positive reduced cost")
        # A spare surplus slot has a pool arc that needs r >= 0, a unit on
        # a surplus copy one that needs r <= 0.
        spare, back = (r < 0) & (m.extra < m.surplus), (r > 0) & (m.extra > 0)
        for arc, bad in (("pool->row", spare[:s]), ("row->pool", back[:s]),
                         ("column->pool", spare[s:]), ("pool->column", back[s:])):
            if bad.any():
                raise InternalSolverError(f"{arc} arc with negative reduced cost")

    def dual_objective(self) -> int:
        """Value of the dual solution carried by the current potentials.

        By weak duality it lower-bounds every feasible assignment's cost;
        at termination it equals the matched cost, certifying optimality.
        """
        m, s, r = self.matching, self.s, self.r
        w = r[:s, None] + r[None, s:]
        w -= m.cost
        np.maximum(w, 0, out=w)
        return (
            int((m.demand * np.maximum(r, 0)).sum())
            - int((m.capacity * np.maximum(-r, 0)).sum())
            - int(w.sum())
        )

    def apply_potentials(self, path: AugmentingPath) -> None:
        """Shift potentials so the augmenting path's arcs become tight.

        Reads the search's ``path.dist`` directly, so no snapshot is
        built.  The distances, capped at the terminal's and taken less the
        pool's, shift the node labels (``r`` on rows, ``-r`` on columns)
        down from a row root and up from a column root, whose search ran
        on the reversed graph.
        """
        cap = int(path.dist[path.terminal])
        if cap <= 0:
            return
        d = np.minimum(path.dist, cap)
        shift = d - d[-1] if path.root < self.s else d[-1] - d
        self.r[: self.s] -= shift[: self.s]
        self.r[self.s :] += shift[self.s : -1]
        self.dual_updates += 1


def _chain(parent: np.ndarray, terminal: int) -> list[int]:
    """Node ids from ``terminal`` back to the root along ``parent``."""
    nodes = [terminal]
    while (p := int(parent[nodes[-1]])) >= 0:
        if len(nodes) == len(parent):
            raise InternalSolverError("parent pointers form a cycle")
        nodes.append(p)
    return nodes


def grow_forest(state: SolverState, root: int) -> AugmentingPath:
    """Find a cheapest augmenting path from node ``root``'s free demand copy.

    Row roots (phase 1) search forward toward a column that still needs
    partners, spare column capacity, or a returnable optional row match;
    column roots (phase 2) search backward toward a row that still needs
    partners, or to the pool through spare row capacity.  A column root
    meets a short row only on an all-unit instance (see ``_warm_start``):
    elsewhere phase 2 starts once every row demand is met.  A search ends
    as soon as a finish ties the distance it has just settled (the early
    exit of Jonker & Volgenant's scan step, *Computing* 38, 1987): the
    lowest short node on the far side, before the pool.  The other nodes
    at that distance stay unsettled.  A pool
    finish takes the arc its relax recorded, from the pool's parent (any
    shortest path will do: the dual update reads distances only).  When
    that tie check's pick is a row the pool fed (a row root with no park
    budget left), every side-X node at its distance settles in one step:
    the lowest short column any of them is tight to finishes, from the
    lowest row tight to it; else one ``(k, ny)`` min/argmin relaxes side
    Y, the lowest row winning ties as it does settling one at a time.
    Raises ``InfeasibleInstanceError`` when no finish is reachable, with
    the reached vertex set as certificate.

    Both directions run one Dijkstra.  It searches from side X (the
    root's) across pairs to side Y and through the pool; a column root is
    the row case on transposed views, ``(lifted, r[:s], r[s:])`` becoming
    ``(lifted.T, r[s:], r[:s])``.  Node ids keep one layout (rows, columns,
    pool) in both directions, so ties break the same way.  Relaxes read
    the lifted cost matrix, where every pair a relax may not use comes
    out at INF or above, so no relax needs a mask of ``matched``.  A
    side-X node relaxes all of side Y.  A side-Y node can reach only its
    matched partners, so it relaxes those alone: none at degree 0, the
    one that ``partner_sum`` names at degree 1 as one scalar entry in
    Python ints, and all of side X through one column of the lifted
    matrix at degree 2 or more.  Every other entry of that column is at
    INF or above and would never be written, so the three give the
    same search.
    """
    s, t = state.s, state.t
    pool = s + t
    if not 0 <= root < pool:
        raise ValueError(f"roots must be demand copies of rows or columns, got node {root!r}")
    forward = root < s
    ref = ("a", root) if forward else ("b", root - s)
    m = state.matching
    if not m.unmet(root):
        raise ValueError(f"root {ref!r} is not a free demand copy")
    g, x0, y0 = (m.lifted, 0, s) if forward else (m.lifted.T, s, 0)
    nx, ny = g.shape
    side_x, side_y = slice(x0, x0 + nx), slice(y0, y0 + ny)
    rx, ry = state.r[side_x], state.r[side_y]
    # ret: a surplus-copy unit that can go back to the pool; spare: a
    # surplus slot the pool can feed.
    ret, spare = m.extra > 0, m.extra < m.surplus
    x_ret, y_spare = ret[side_x], spare[side_y]
    # Far-side nodes that still need partners: columns from a row root,
    # rows from a column root (none once phase 1 has met every row demand).
    y_short = (m.deg - m.extra < m.demand)[side_y]
    pool_ends = m.parks_left > 0 or not forward
    short = np.flatnonzero(y_short)

    # cand holds each reached, unsettled node's tentative distance and INF
    # elsewhere, so one argmin picks each settle; relaxes write through each
    # side's views.  dist takes each distance as it settles, then the rest.
    cand = np.full(pool + 1, INF, dtype=np.int64)
    unsettled = np.ones(pool + 1, dtype=bool)
    dist = np.empty(pool + 1, dtype=np.int64)
    parent = np.full(pool + 1, -1, dtype=np.int64)
    on_x, on_y = ((cand[b], parent[b], unsettled[b]) for b in (side_x, side_y))
    (cand_x, parent_x, live_x), cand_y = on_x, on_y[0]
    deg, partner_sum = m.deg, m.partner_sum
    settles = 0
    level = -1  # dv of the last settle if it may have put a finish at dv
    over_cap = f"search from {ref!r} settled more than its {pool + 1} nodes"

    def relax(views: tuple, nd: np.ndarray, v: int | np.ndarray) -> None:
        cd, par, live = views
        better = nd < cd
        better &= live  # settled nodes read INF in cand; this mask guards them
        np.copyto(cd, nd, where=better)
        np.copyto(par, v, where=better)

    def relax_pool(nd: int, v: int) -> None:
        if unsettled[pool] and nd < cand[pool]:
            cand[pool] = nd
            parent[pool] = v

    cand[root] = 0
    while True:
        v = int(cand.argmin())
        dv = int(cand[v])
        if dv >= INF:
            raise _stuck(state, ref, ~unsettled)
        if dv == level:
            # The pick ties the settle just done, which may have put a
            # finish at dv: if so, that finish settles instead and ends
            # the search, the lowest short far-side node before the
            # pool.  No unsettled node has a cand below dv, so the path
            # through it is a shortest one.
            k = int(short[cand_y[short].argmin()]) if short.size else -1
            if k >= 0 and cand_y[k] == dv:
                v = y0 + k
            elif pool_ends and cand[pool] == dv:
                v = pool
            elif x0 <= v < x0 + nx and parent[v] == pool:
                # A row the pool fed (row roots only, no park budget
                # left): every side-X node at dv settles in this one
                # step.  The pool is settled, so none relaxes it.
                xs = np.flatnonzero(cand_x == dv)
                settles += xs.size
                if settles > pool + 1:
                    raise InternalSolverError(over_cap)
                ids = x0 + xs
                dist[ids] = dv
                cand[ids] = INF
                unsettled[ids] = False
                tight = g[np.ix_(xs, short)] - ry[short] == rx[xs][:, None]
                hit = tight.any(axis=0)
                if not hit.any():
                    # One relax of side Y; argmin takes the first of
                    # tied rows, the one the one-node order settles first.
                    nd = g[xs] - ry
                    nd += (dv - rx[xs])[:, None]
                    best = nd.argmin(axis=0)
                    relax(on_y, nd[best, np.arange(ny)], ids[best])
                    level = -1  # no short column at dv, and the pool is settled
                    continue
                # A tight arc to a short column: the lowest such column
                # finishes, reached from the lowest row tight to it.
                k = int(hit.argmax())
                v = y0 + int(short[k])
                parent[v] = ids[tight[:, k].argmax()]
        if settles > pool:
            raise InternalSolverError(over_cap)
        settles += 1
        dist[v] = dv
        cand[v] = INF
        unsettled[v] = False
        if v == pool:
            if pool_ends:
                break
            # Pool without park budget left (row roots only): pass
            # through it into a row's spare slot or a parked column unit.
            relax(on_x, np.where(spare[side_x], dv + rx, INF), v)
            relax(on_y, np.where(ret[side_y], dv - ry, INF), v)
            level = dv
        elif x0 <= v < x0 + nx:
            x = v - x0
            nd = g[x] - ry  # matched pairs: INF or above
            nd += dv - rx[x]
            relax(on_y, nd, v)
            level = dv  # side Y holds the short nodes, if any
            if x_ret[x]:
                relax_pool(dv - int(rx[x]), v)
        else:
            y = v - y0
            if y_short[y]:
                break  # a far-side node that still needs partners: finish here
            # Only v's partners can come in under INF: none to relax at
            # degree 0, one scalar entry at degree 1.
            k = deg.item(v)
            if k == 1:
                x = partner_sum.item(v) - x0
                nd = rx.item(x) - g.item(x, y) + LIFT + dv + ry.item(y)
                if live_x.item(x) and nd < cand_x.item(x):
                    cand_x[x] = nd
                    parent_x[x] = v
            elif k:
                nd = rx - g[:, y]  # unmatched pairs: INF or above
                nd += LIFT + dv + ry[y]
                relax(on_x, nd, v)
            level = -1  # side X holds no finish
            if y_spare[y]:
                relax_pool(dv + int(ry[y]), v)
                level = dv
    np.copyto(dist, cand, where=unsettled)

    # The pointers lead back from the terminal: along the arcs on a column
    # root's reversed search, against them on a row root's.
    nodes = _chain(parent, v)
    return AugmentingPath(
        root=root, nodes=tuple(nodes[::-1] if forward else nodes),
        s=s, dist=dist, parent=parent, settled=~unsettled, terminal=v,
    )


def _stuck(state: SolverState, root: tuple[str, int], settled: np.ndarray) -> InfeasibleInstanceError:
    s, t = state.s, state.t
    reached = tuple(
        [f"a{i}" for i in range(s) if settled[i]]
        + [f"b{j}" for j in range(t) if settled[s + j]]
        + (["pool"] if settled[s + t] else [])
    )
    return InfeasibleInstanceError(
        f"demand at {root[0]}{root[1]} cannot be met: no augmenting path "
        f"leaves the reachable set {reached}",
        root=root,
        reached=reached,
    )


def augment(m: CapacitatedMatching, path: AugmentingPath) -> CapacitatedMatching:
    """Apply one augmenting path to the matching, in place.

    Reads each arc (u, v) by its node-id ranges: row -> column matches the
    pair and column -> row unmatches it, keeping ``lifted`` in step; a
    pool arc moves ``extra`` at its other end, up on a feed (pool -> row)
    or a park (column -> pool), down on an unfeed or a release.  A
    malformed path (double match, counter out of range, any other arc)
    raises ``InternalSolverError``.  Plain alternating paths add exactly
    one pair; pool-passing paths add one pair per pool transit as well.

    A path may take a vertex over its capacity midway and back by its
    end, so capacities are checked once the arcs are done, at the
    vertices a match raised: only there can a degree have grown.  The
    root's demand copy, which no pool arc counts, is checked last.  A
    path ending at the pool, as only a row root's can, spends a park.
    """
    s, pool = len(m.matched), len(m.deg)
    raised: list[int] = []
    for u, v in zip(path.nodes, path.nodes[1:]):
        if u < s <= v < pool:
            if m.matched[u, v - s]:
                raise InternalSolverError(f"path matches already-matched pair ({u}, {v - s})")
            m.flip(u, v - s, 1)
            raised += (u, v)
        elif v < s <= u < pool:
            if not m.matched[v, u - s]:
                raise InternalSolverError(f"path unmatches unmatched pair ({v}, {u - s})")
            m.flip(v, u - s, -1)
        elif (u == pool) != (v == pool):
            w = u + v - pool
            d = 1 if (u == pool) == (w < s) else -1
            m.extra[w] += d
            if not 0 <= m.extra[w] <= m.surplus[w]:
                done = ("fed", "unfed") if w < s else ("parked", "released")
                fault = "below zero" if m.extra[w] < 0 else "above its surplus quota"
                raise InternalSolverError(f"{_vertex(w, s)} {done[d < 0]} {fault}")
        else:
            raise InternalSolverError(f"impossible arc {u}->{v} in augmenting path")
    if any(m.deg[w] > m.capacity[w] for w in raised):
        raise InternalSolverError("augmentation exceeded a capacity")
    if path.nodes[-1] == pool:
        m.parks_left -= 1
    v = path.root
    if m.deg[v] - m.extra[v] > m.demand[v]:
        raise InternalSolverError(f"{_vertex(v, s)} routed above its demand quota")
    return m


def _vertex(v: int, s: int) -> str:
    """Node ``v`` by side and index, as fault messages name it."""
    return f"row {v}" if v < s else f"column {v - s}"


def _warm_start(state: SolverState) -> tuple[int, bool]:
    """Match most rows without a search when every bound is 1.

    Jonker & Volgenant's start (*Computing* 38, 1987) under reduced cost
    ``c - p - q``; such an instance is square and has no pool arc.  Column
    reduction sets ``q`` to the column minima and gives each column,
    highest index first, to its lowest-index argmin row unless that row
    holds one already; a row holding exactly one column moves its
    second-smallest reduced cost onto that column's ``q``.

    Bidding rounds follow, at most ``_BID_ROUNDS``: Bertsekas's auction
    with zero increment (*Annals of OR* 14, 1988), bid in Jacobi fashion,
    every free row at once, where JV's augmenting row reduction bids one
    row at a time.  A free row's cheapest reduced cost is u1, at column
    j1, and its second-cheapest u2, at j2.  A strict row (u1 < u2) bids
    for j1, offering to lower its ``q`` to ``c[i, j1] - u2``; a tied row
    bids for j1 if it is free, else for j2, offering ``q`` as it stands.
    Each column takes the lowest offer, ties to the lowest row, and its
    holder goes free; only a held column's ``q`` falls, to the winning
    offer.  The rounds stop once no row is free, or after a round that
    placed no net pair and lowered no ``q``.

    Every matched row keeps a cheapest column of ``c - q``.  A winner
    holds one: each column has one winner, its own column sits at its u1
    (or at u2 = u1 when tied, or at u2 once its offer lowers ``q``), and
    the round's lowered ``q`` only raise its other reduced costs above
    that.  A holder that no row displaced keeps its column's ``q``, and
    its other reduced costs only rose.  So ``p = min(c - q)`` per row is
    dual feasible with tight matched pairs, as ``check_dual_invariants``
    confirms.

    Returns the number of pairs matched and whether the rounds ran all
    ``_BID_ROUNDS`` and left rows free.  Rounds that run that long have
    lowered ``q`` on the columns rows fought over, so the rows left free
    have just lost a price war and a search from one settles most of
    the instance; a free column, which no row bid for, reaches a free
    row far sooner, so ``_solve`` then roots the searches at the free
    columns.  Rounds that stall on ties lower no ``q``, and there the
    rows stay the cheaper side to search from.
    """
    c, n = state.matching.cost, state.s
    q, argmin = c.min(axis=0), c.argmin(axis=0)
    col_of = np.full(n, -1, dtype=np.int64)  # row -> column, -1 when free
    np.maximum.at(col_of, argmin, np.arange(n))
    if n > 1:  # reduction transfer
        single = np.flatnonzero(np.bincount(argmin, minlength=n) == 1)
        q[col_of[single]] -= np.partition(c[single] - q, 1, axis=1)[:, 1]
    row_of = np.full(n, -1, dtype=np.int64)  # column -> row
    row_of[col_of[col_of >= 0]] = np.flatnonzero(col_of >= 0)

    # Column reduction matches the only row when n == 1, so a bidder always
    # has a runner-up column.
    capped = False
    for _ in range(_BID_ROUNDS):
        free = np.flatnonzero(col_of < 0)
        if not free.size:
            break
        h = c[free]  # the one |free| x n scratch array of a round
        h -= q
        at = np.arange(free.size)
        j1 = h.argmin(axis=1)
        u1 = h[at, j1]
        h[at, j1] = INF
        j2 = h.argmin(axis=1)
        gap = h[at, j2] - u1
        target = np.where((gap > 0) | (row_of[j1] < 0), j1, j2)
        offer = q[target] - gap
        order = np.lexsort((offer, target))  # stable: ties go to the lowest row
        first = order[np.flatnonzero(np.diff(target[order], prepend=-1))]
        won, cols, offer = free[first], target[first], offer[first]
        holder = row_of[cols]
        held = holder >= 0
        lowered = offer[held] < q[cols[held]]
        q[cols[held]] = offer[held]  # only a held column's q falls
        col_of[holder[held]] = -1
        col_of[won], row_of[cols] = cols, won
        if held.all() and not lowered.any():
            break
    else:
        capped = bool((col_of < 0).any())

    rows = np.flatnonzero(col_of >= 0)
    pick = np.zeros((n, n), dtype=bool)
    pick[rows, col_of[rows]] = True
    return _set_start(state, pick, (c - q).min(axis=1), q), capped


def _column_start(state: SolverState) -> int:
    """Place most column demand without a search on an instance that is
    not all-unit.

    Column reduction (the first step of ``_warm_start``) on b-matching
    bounds.  Each column j takes its ``b_demand[j]`` cheapest rows, ties
    to the lowest row, and ``q[j]`` is the ``b_demand[j]``-th smallest
    cost of column j (0 when ``b_demand[j]`` is 0), so every pair a
    column took has ``c - q <= 0`` and every other pair ``c - q >= 0``;
    ``p`` starts at 0.  A row over its capacity keeps the
    ``a_capacity[i]`` pairs with the smallest ``c - q``, ties to the
    lowest column, and sets ``p[i]`` to the largest kept value, or to
    ``min(0, min(c[i] - q))`` when it keeps none.  Phase 1 then searches
    from the rows this left short of demand, and phase 2 from the columns
    it left short.  Returns the number of pairs placed.

    The duals are feasible, pool arcs included:

    * Pairs.  A row that kept every pair its columns gave it has
      ``p[i] = 0`` and reads ``c - q`` as above.  A row over capacity has
      ``c - q <= p[i]`` on the pairs it kept and ``>= p[i]`` on those it
      dropped; every other pair of it has ``c - q >= 0 >= p[i]``, as
      ``p[i]`` is a kept ``c - q`` of a pair a column took, or at most 0.
    * Rows.  ``p <= 0`` everywhere, so every row->pool arc holds.  Only a
      row over capacity may have ``p[i] < 0``, and it keeps exactly
      ``a_capacity[i] >= a_demand[i]`` pairs: its surplus is full, so it
      has no pool->row arc.  A row short of demand thus starts at
      ``p[i] = 0``.
    * Columns.  No column takes more than its demand, so nothing is
      parked and no pool->column arc exists; ``q >= 0`` holds every
      column->pool arc.

    ``_set_start`` then sets the park budget ``m.parks_left`` by the rule
    that sets it on the empty matching, ``park_budget``: R - C floored at
    0, with R and C the summed shortfalls of rows and columns.  Only
    ``augment`` changes it after: a phase-1 path that finishes at a short
    column lowers R and C by one each, and one that finishes at the pool
    lowers R and ``parks_left`` by one.  So R - C - parks_left keeps its
    start value, min(0, R - C) <= 0, and as only a search with budget
    left finishes at the pool, ``parks_left`` stays the rule's value on
    the current matching without the rule running again.  On a feasible
    instance take a b-matching that meets every bound, each vertex
    filling its demand copy first.  Its difference from the current
    matching is a flow along residual arcs, pool arcs included, out of
    the rows short of demand (R units) into the columns short of demand
    (C units), and the pool passes on the balance.  With budget left the
    pool is a finish, so the root's units reach a finish along that
    flow.  With none, R <= C: the pool takes in no more of the flow
    than it sends out, so some unit out of the root reaches a short
    column, through the pool if need be.  Either way every search from a
    row short of demand finishes.  The rule on the empty matching's
    shortfalls would not do: the start's pairs on row surplus copies
    lower C but not R, so that budget runs out while R > C, and a feasible
    instance could be called infeasible.
    """
    m, s, t = state.matching, state.s, state.t
    c, demand, cap = m.cost, m.demand[s:], m.capacity[:s]
    # Only the columns with demand take rows: rank those alone when some
    # column has none.  Ranking by c*s + i (distinct keys, in int64 by the
    # exact domain) breaks cost ties toward the lowest row; c - q ranks by
    # (c - q)*t + j.
    need = np.flatnonzero(demand)
    key = (c if need.size == t else c[:, need]) * s + np.arange(s)[:, None]
    last = np.sort(key, axis=0)[demand[need] - 1, np.arange(need.size)]
    q = np.zeros(t, dtype=np.int64)
    q[need] = last // s
    took = key <= last
    pick = np.zeros((s, t), dtype=bool)
    pick[:, need] = took
    p = np.zeros(s, dtype=np.int64)
    over = np.flatnonzero(took.sum(axis=1) > cap)
    if over.size:
        k = cap[over]
        h = c[over] - q
        key = np.where(pick[over], h * t + np.arange(t), INF)
        last = np.sort(key, axis=1)[np.arange(over.size), np.maximum(k - 1, 0)]
        pick[over] &= (key <= last[:, None]) & (k > 0)[:, None]
        p[over] = np.where(k > 0, last // t, np.minimum(0, h.min(axis=1)))
    return _set_start(state, pick, p, q)


def _set_start(state: SolverState, pick: np.ndarray, p: np.ndarray, q: np.ndarray) -> int:
    """Write a warm start's pairs and labels onto the empty matching.

    ``pick`` is the start's matched mask and ``(p, q)`` its duals for
    ``r``; ``matched``, ``lifted``, ``partner_sum`` and the degrees change
    as ``augment`` would change them, each vertex's pairs filling its
    demand copy first.
    ``parks_left`` is set again by ``park_budget`` on the start's matching
    (see ``_column_start``).  One ``check_dual_invariants`` confirms the
    start.
    Returns the number of pairs placed.
    """
    m, s = state.matching, state.s
    m.matched |= pick
    rows, cols = _mask_pairs(pick)
    m.lifted[rows, cols] += LIFT
    cols += s
    ends = np.concatenate((rows, cols))
    m.deg += np.bincount(ends, minlength=len(m.deg))
    np.add.at(m.partner_sum, ends, np.concatenate((cols, rows)))
    np.maximum(m.deg - m.demand, 0, out=m.extra)
    state.r[:s], state.r[s:] = p, q
    m.parks_left = m.park_budget()
    state.check_dual_invariants()
    return rows.size


def _prune_unneeded_pairs(state: SolverState) -> int:
    """Drop pairs that no demand on either side needs.

    At an optimum any such pair costs 0 (otherwise dropping it would beat
    the optimum), so this never changes the total cost; a non-zero cost
    here means the solve was wrong and is raised loudly.  Afterwards every
    remaining pair leans on a demand slot on at least one side.  One pass
    in index order over the pairs droppable at the start suffices:
    dropping a pair only lowers degrees, so no other pair can become
    droppable, and each candidate is checked again when its turn comes.
    """
    m, s = state.matching, state.s
    removed = 0
    for i, j in zip(*(x.tolist() for x in _mask_pairs(m.droppable()))):
        if m.deg[i] > m.demand[i] and m.deg[s + j] > m.demand[s + j]:
            if m.cost[i, j] != 0:
                raise InternalSolverError(
                    f"optimal matching carries a droppable pair ({i}, {j}) "
                    f"of non-zero cost {int(m.cost[i, j])}"
                )
            m.flip(i, j, -1)
            m.extra[[i, s + j]] -= 1  # both ends are above demand: each drops a surplus unit
            removed += 1
    return removed


def _check_output(state: SolverState) -> None:
    """The last fault check on a solve's pruned matching.

    The degree counters must equal the row and column sums of
    ``matched``, every degree must lie within its vertex's bounds, and no
    matched pair may be above demand on both of its sides.
    """
    m = state.matching
    if np.any(np.concatenate((m.matched.sum(axis=1), m.matched.sum(axis=0))) != m.deg):
        raise InternalSolverError("degree counters disagree with the matched pairs")
    if np.any((m.deg < m.demand) | (m.deg > m.capacity)):
        raise InternalSolverError("a vertex degree is outside its bounds")
    rows, cols = _mask_pairs(m.droppable())
    if rows.size:
        raise InternalSolverError(f"pair ({rows[0]}, {cols[0]}) is above demand on both sides")


def _solve(
    state: SolverState, algorithm: str, observer: Callable[[SolverState], None] | None, t0: float
) -> tuple[Assignment, SolveReport]:
    m, s = state.matching, state.s
    placed = [0, 0]  # units placed from row roots (phase 1) and column roots (phase 2)
    from_columns = False
    if np.all(m.demand == 1) and np.all(m.capacity == 1):
        warm, from_columns = _warm_start(state)
        placed[0] = warm
    else:
        warm = placed[1] = _column_start(state)
    if warm and observer is not None:
        observer(state)

    # Phase 1 roots at the rows in index order, then phase 2 at the columns.
    # Only a path's two ends raise a demand count, and nothing lowers one,
    # so every root is short of demand once the start is done.  Where the
    # bidding rounds ran out, each search roots at a free column instead
    # and ends at a free row, so the free rows need no search of their own.
    roots = np.flatnonzero(m.deg - m.extra < m.demand)
    if from_columns:
        roots = roots[roots >= s]
    for root in roots.tolist():
        while m.unmet(root):
            path = grow_forest(state, root)
            augment(m, path)
            state.apply_potentials(path)
            placed[root >= s] += 1
            if observer is not None:
                observer(state)

    if np.any(m.deg - m.extra != m.demand):
        raise InternalSolverError("phases ended with unmet demand")

    cost = int(m.cost[m.matched].sum())
    dual = state.dual_objective()
    if dual != cost:
        raise InternalSolverError(
            f"dual objective {dual} does not certify the matched cost {cost}"
        )
    pruned = _prune_unneeded_pairs(state)
    _check_output(state)
    assignment = Assignment(pairs=m.pairs, total_cost=cost)

    report = SolveReport(
        algorithm=algorithm,
        phase1_augmentations=placed[0],
        phase2_augmentations=placed[1],
        dual_updates=state.dual_updates,
        dual_objective=dual,
        pruned_pairs=pruned,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        warm_start_pairs=warm,
    )
    return assignment, report


def solve_ga(
    inst: Instance, observer: Callable[[SolverState], None] | None = None
) -> tuple[Assignment, SolveReport]:
    """Minimum-cost assignment under general demand/capacity bounds.

    Returns the optimal assignment and a report whose ``dual_objective``
    equals the cost (the optimality certificate).  Raises
    ``InfeasibleInstanceError`` when demands cannot be met and
    ``ValueError`` on malformed input or costs outside the exact int64
    domain (see ``SolverState``).

    ``observer``, if given, is called after every augmentation, and once
    after a warm start that placed pairs, with the live ``SolverState``:
    the same object on every call, which the solve keeps mutating and
    which after return holds the pruned matching.  Callers that want
    per-augmentation values must copy them inside the call.
    """
    t0 = time.perf_counter()
    return _solve(SolverState(inst), "ga", observer, t0)


def solve_lca(
    inst: Instance, observer: Callable[[SolverState], None] | None = None
) -> tuple[Assignment, SolveReport]:
    """solve_ga restricted to unit demands (every vertex needs exactly one
    partner; capacities stay arbitrary).  Rejects other demand vectors.
    ``observer`` receives the live state, as in ``solve_ga``."""
    t0 = time.perf_counter()
    state = SolverState(inst)
    m = state.matching
    if np.any(m.demand != 1):
        raise ValueError("this algorithm requires every demand to be exactly 1")
    return _solve(state, "lca", observer, t0)
