"""Exact solver for bounded-degree bipartite assignment.

The engine is a successive-shortest-path primal-dual method working on the
original vertices plus one extra *pool* node that accounts for optional
capacity (everything a vertex may take beyond what it must take).  Each
unmet demand unit is routed along a cheapest augmenting path in the
residual graph under node potentials, so every intermediate matching is a
cheapest matching for the demand units already placed, and the final one
is a global optimum certified by its dual values.

Node potentials: ``p[i]`` (rows), ``q[j]`` (columns), ``mu`` (pool), with
reduced pair cost ``c[i][j] - p[i] - q[j]``.  Invariants kept after every
update: unmatched pairs have reduced cost >= 0, matched pairs <= 0, and
every available pool arc has non-negative reduced cost.  Exposed labels
(``SolverState.labels``) are the weight-space view of the same duals:
``l_a[i] = offset - p[i]``, ``l_b[j] = -q[j]``, identical on the demand
and surplus copy of a vertex, and initialized at the row maximum of the
transformed weights / zero.  The labels, the pool potential ``mu`` and
the per-pair terms ``z_ij = max(0, W[i][j] - l_a[i] - l_b[j])`` (the dual
of "each pair at most once") together form the full dual: matched pairs
have ``l_a[i] + l_b[j] <= W[i][j]`` with the gap exactly ``z_ij``, and
unmatched pairs have ``l_a[i] + l_b[j] >= W[i][j]``.

Two phases, mirroring the two vertex sides:

* Phase 1 roots at every row whose demand is unmet (index order) and
  routes one unit per search toward a column that still needs partners
  or — when total row demand exceeds total column demand — into spare
  column capacity ("parking").
* Phase 2 roots at every column whose demand is still unmet and searches
  backward to the pool, entering through spare row capacity.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .expansion import CopyRef, ExpandedGraph, expand_screened
from .model import Assignment, InfeasibleInstanceError, Instance, make_assignment, normalize_instance

__all__ = [
    "INF",
    "InfeasibleInstanceError",
    "InternalSolverError",
    "CapacitatedMatching",
    "AlternatingForest",
    "AugmentingPath",
    "SolveReport",
    "SolverState",
    "is_free",
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


class InternalSolverError(RuntimeError):
    """A solver invariant broke mid-run; the result would be untrustworthy."""


@dataclass
class CapacitatedMatching:
    """Mutable matching over original pairs with per-copy bookkeeping.

    ``routed[i]`` counts row i's matches on its demand copy and
    ``parked[j]`` column j's matches on its surplus copy; the other two
    copy counts follow from the degrees.  ``num``/``quota`` expose the
    four counter arrays per vertex copy.  ``cost`` and the capacities are
    the instance's, as int64 arrays built once.  ``lifted`` is
    ``cost + LIFT * matched``, kept in step by every pair flip.
    """

    graph: ExpandedGraph
    matched: np.ndarray  # (s, t) bool
    deg_a: np.ndarray
    deg_b: np.ndarray
    routed: np.ndarray
    parked: np.ndarray
    cost: np.ndarray  # (s, t) int64
    lifted: np.ndarray  # (s, t) int64
    a_capacity: np.ndarray
    b_capacity: np.ndarray

    @classmethod
    def empty(cls, graph: ExpandedGraph) -> "CapacitatedMatching":
        inst = graph.instance
        s, t = inst.s, inst.t
        cost = np.asarray(inst.cost, dtype=np.int64)
        return cls(
            graph=graph,
            matched=np.zeros((s, t), dtype=bool),
            deg_a=np.zeros(s, dtype=np.int64),
            deg_b=np.zeros(t, dtype=np.int64),
            routed=np.zeros(s, dtype=np.int64),
            parked=np.zeros(t, dtype=np.int64),
            cost=cost,
            lifted=cost.copy(),
            a_capacity=np.asarray(inst.a_capacity, dtype=np.int64),
            b_capacity=np.asarray(inst.b_capacity, dtype=np.int64),
        )

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(np.nonzero(self.matched)), strict=True))

    def covered(self, j: int) -> int:
        """Column j matches counted against its demand copy."""
        return int(self.deg_b[j] - self.parked[j])

    def num(self, copy: CopyRef) -> int:
        group, k = copy
        if group == "a":
            return int(self.routed[k])
        if group == "a'":
            return int(self.deg_a[k] - self.routed[k])
        if group == "b":
            return int(self.deg_b[k] - self.parked[k])
        if group == "b'":
            return int(self.parked[k])
        raise ValueError(f"unknown copy group {group!r}")

    def quota(self, copy: CopyRef) -> int:
        return self.graph.quota(copy)

    def total_cost(self) -> int:
        return int(self.cost[self.matched].sum())


def is_free(copy: CopyRef, m: CapacitatedMatching) -> bool:
    """True iff the vertex copy can take one more match (num < quota)."""
    return m.num(copy) < m.quota(copy)


@dataclass(frozen=True)
class AlternatingForest:
    """Snapshot of one augmenting search, built on first read of
    ``AugmentingPath.forest``.

    ``dist`` holds reduced-cost distances from the root over node ids
    0..s-1 (rows), s..s+t-1 (columns), s+t (pool); INF marks unreached.
    ``parent`` holds each reached node's predecessor (-1 for none) and
    ``settled`` the nodes the search took off its queue.
    """

    root: CopyRef
    orientation: str  # "row" (phase 1) or "col" (phase 2)
    dist: tuple[int, ...]
    parent: tuple[int, ...]
    settled: tuple[bool, ...]
    terminal: int  # node id where the search finished
    terminal_dist: int


class _Search(NamedTuple):
    """What one ``grow_forest`` search ends with, in its own arrays.

    ``apply_potentials`` reads ``dist`` directly; ``snapshot`` builds the
    plain-Python ``AlternatingForest``.  The arrays are the search's own
    and nothing writes them after it returns, so a late snapshot equals
    one taken at once.
    """

    root: CopyRef
    orientation: str
    dist: np.ndarray
    parent: np.ndarray
    settled: np.ndarray
    terminal: int
    terminal_dist: int

    def snapshot(self) -> AlternatingForest:
        return AlternatingForest(
            root=self.root,
            orientation=self.orientation,
            dist=tuple(self.dist.tolist()),
            parent=tuple(self.parent.tolist()),
            settled=tuple(self.settled.tolist()),
            terminal=self.terminal,
            terminal_dist=self.terminal_dist,
        )


class _BuiltOnFirstRead:
    """``AugmentingPath.forest``: set to a ``_Search``, it keeps the search
    (as ``_search``) and builds the forest from it on first read."""

    def __get__(self, path: "AugmentingPath | None", owner: type | None = None) -> AlternatingForest:
        if path is None:
            raise AttributeError("forest")  # the field has no default
        fields = path.__dict__
        if "forest" not in fields:
            fields["forest"] = fields["_search"].snapshot()
        return fields["forest"]

    def __set__(self, path: "AugmentingPath", value: "AlternatingForest | _Search") -> None:
        path.__dict__["_search" if isinstance(value, _Search) else "forest"] = value


@dataclass(frozen=True)
class AugmentingPath:
    """Ordered primal operations realizing one cheapest augmentation.

    A path from ``grow_forest`` builds its ``forest`` snapshot on first
    read, from the search's own arrays; reading it late gives the same
    value as reading it at once.
    """

    root: CopyRef
    leaf: CopyRef
    steps: tuple[tuple, ...]  # ("match"|"unmatch", i, j) / ("park"|"release", j) / ("feed"|"unfeed", i)
    finished_at_pool: bool
    forest: AlternatingForest = _BuiltOnFirstRead()  # type: ignore[assignment]


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


def _check_exact_domain(inst: Instance, c_max: int) -> None:
    """Reject costs for which a solve's int64 arithmetic could wrap.

    Let C = ``c_max`` and P = min(sum a_capacity, sum b_capacity) on the
    clipped instance, so no matching has more than P pairs.  Write the
    potentials as one node label phi: ``p[i]`` on rows, ``-q[j]`` on
    columns, ``-mu`` on the pool.  A residual arc u->v then has reduced
    cost ``cost(u, v) - phi[u] + phi[v]``, with cost c_ij on a match, -c_ij
    on an unmatch and 0 on a pool arc, so a path's reduced length D is
    its cost plus the label difference of its ends.  Labels start in
    [0, C].  A phase-1 update lowers every label by min(dist, D), which
    lies in [0, D]; a phase-2 update raises it by the same amount.

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
      potential, or difference of two, is at most K = (P + 1)*C in size.

    Then settled distances are at most min(s, t)*C + K and tentative ones
    at most that plus one arc, C + K; ``INF + K`` fits in int64; each term
    of the dual objective is at most K and its partial sums at most
    s*t*K; the matched cost is at most P*C.

    A search relaxes through ``lifted = cost + LIFT*matched`` with
    LIFT = INF + 2**61, and every pair a relax may not use must come out
    in [INF, 2**63): never below a candidate, and never wrapped.  Settling
    node v at dv, with r the pair's reduced cost:

    * from side X, a matched pair reads LIFT + dv + r with r in [-K, 0];
    * from side Y, an unmatched pair reads LIFT + dv - r with r in
      [0, C + K], and the scalar ``LIFT + dv + py[y]`` is its largest
      partial sum (``g[x] - py`` and ``px - g[:, y]`` stay within
      LIFT + C + K in size).

    Bounding dv and ``py[y]`` apart (min(s, t)*C + 2K) is too loose for
    s = t = 1.  Jointly: dv is the tree path's cost plus the difference of
    its end labels, and ``py[y]`` cancels the label of y, so ``dv + py[y]``
    is the path's cost, at most min(s, t)*C (each match arc leaves a
    distinct row for a distinct column; other arcs cost <= 0), plus the
    root's label term: at least -S1 on a row root, at most C + S2 on a
    column root.  So ``dv + py[y]`` and dv are at most min(s, t)*C + K,
    and the lifted values lie in [LIFT - C - K, LIFT + min(s, t)*C + K].
    That is inside [INF, 2**63) when (P + 1 + max(1, min(s, t)))*C < 2**61.

    All of it holds when 2*s*t*C*(P + s + t + 1) < 2**62 = INF, which is
    checked here in Python integers, before any numpy conversion.
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
    opposite side size).

    ``cand`` and ``unsettled`` are the search's scratch arrays over node
    ids: all INF and all True between searches, which reset them.
    ``blocks`` holds their views of side X and side Y for each root
    group ("a": rows then columns; "b": columns then rows).
    """

    def __init__(self, inst: Instance):
        inst = normalize_instance(inst)
        c_max = max(map(max, inst.cost))
        _check_exact_domain(inst, c_max)
        self.graph = expand_screened(inst, c_max)
        self.inst = inst
        self.matching = m = CapacitatedMatching.empty(self.graph)
        self.c, self.alpha_cap, self.beta_cap = m.cost, m.a_capacity, m.b_capacity
        self.alpha = np.asarray(inst.a_demand, dtype=np.int64)
        self.beta = np.asarray(inst.b_demand, dtype=np.int64)
        # Feasible initial duals: reduced costs start >= 0 everywhere.
        self.p = self.c.min(axis=1).astype(np.int64)
        self.q = np.zeros(inst.t, dtype=np.int64)
        self.mu = 0
        # How many demand units may still end in spare column capacity.
        self.park_budget = max(0, int(self.alpha.sum() - self.beta.sum()))
        self.dual_updates = 0
        s, t = inst.s, inst.t
        self.cand = np.full(s + t + 1, INF, dtype=np.int64)
        self.unsettled = np.ones(s + t + 1, dtype=bool)
        rows, cols = ((self.cand[b], self.unsettled[b]) for b in (slice(0, s), slice(s, s + t)))
        self.blocks = {"a": (rows, cols), "b": (cols, rows)}

    @property
    def s(self) -> int:
        return self.inst.s

    @property
    def t(self) -> int:
        return self.inst.t

    def labels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Weight-space vertex labels (shared by demand and surplus copies).

        Together with ``mu`` and the per-pair terms
        ``z_ij = max(0, W[i][j] - l_a[i] - l_b[j])`` they form the full
        dual.  Matched pairs have label sum <= weight (tight once ``z_ij``
        is added), unmatched pairs label sum >= weight.
        """
        off = self.graph.transform.offset
        return tuple(int(off - x) for x in self.p), tuple(int(-x) for x in self.q)

    def reduced_costs(self) -> np.ndarray:
        return self.c - self.p[:, None] - self.q[None, :]

    def check_dual_invariants(self) -> None:
        """Raise if any residual arc has negative reduced cost."""
        rc = self.reduced_costs()
        m = self.matching
        if np.any(rc[~m.matched] < 0):
            raise InternalSolverError("unmatched pair with negative reduced cost")
        if np.any(rc[m.matched] > 0):
            raise InternalSolverError("matched pair with positive reduced cost")
        fed = m.deg_a - m.routed
        if np.any((self.mu + self.p)[fed < self.alpha_cap - self.alpha] < 0):
            raise InternalSolverError("pool->row arc with negative reduced cost")
        if np.any((-self.p - self.mu)[fed > 0] < 0):
            raise InternalSolverError("row->pool arc with negative reduced cost")
        if np.any((self.q - self.mu)[m.parked < self.beta_cap - self.beta] < 0):
            raise InternalSolverError("column->pool arc with negative reduced cost")
        if np.any((self.mu - self.q)[m.parked > 0] < 0):
            raise InternalSolverError("pool->column arc with negative reduced cost")

    def dual_objective(self) -> int:
        """Value of the dual solution carried by the current potentials.

        By weak duality it lower-bounds every feasible assignment's cost;
        at termination it equals the matched cost, certifying optimality.
        """
        r = self.mu + self.p
        s_ = self.q - self.mu
        w = np.maximum(0, r[:, None] + s_[None, :] - self.c)
        value = (
            int((self.alpha * np.maximum(r, 0)).sum())
            - int((self.alpha_cap * np.maximum(-r, 0)).sum())
            + int((self.beta * np.maximum(s_, 0)).sum())
            - int((self.beta_cap * np.maximum(-s_, 0)).sum())
            - int(w.sum())
        )
        return value

    def apply_potentials(self, forest: AlternatingForest) -> None:
        """Shift potentials so the augmenting path's arcs become tight.

        ``forest`` is a path's ``AlternatingForest`` or, as in a solve, the
        search it is built from on first read: that search's distance
        array is read directly, so no snapshot is built here.
        """
        cap = forest.terminal_dist
        if cap <= 0:
            return
        shift = np.minimum(np.asarray(forest.dist, dtype=np.int64), cap)
        if forest.orientation == "row":
            self.p -= shift[: self.s]
            self.q += shift[self.s : self.s + self.t]
            self.mu += int(shift[self.s + self.t])
        else:
            self.p += shift[: self.s]
            self.q -= shift[self.s : self.s + self.t]
            self.mu -= int(shift[self.s + self.t])
        self.dual_updates += 1


def _reconstruct(parent: np.ndarray, start: int) -> list[int]:
    """Follow parent pointers from ``start`` until a node without one."""
    chain = [start]
    while parent[chain[-1]] >= 0:
        if len(chain) == len(parent):
            raise InternalSolverError("parent pointers form a cycle")
        chain.append(int(parent[chain[-1]]))
    return chain


def _steps_from_chain(chain: list[int], s: int, t: int) -> tuple[tuple, ...]:
    """Turn a node-id chain into primal operations.

    Row-rooted chains run root->leaf and column-rooted ones leaf->root,
    but both list nodes in arc direction, so consecutive (u, v) is
    always one residual arc u->v.
    """
    pool = s + t
    steps: list[tuple] = []
    for u, v in zip(chain, chain[1:], strict=False):
        if u < s and s <= v < pool:
            steps.append(("match", u, v - s))
        elif s <= u < pool and v < s:
            steps.append(("unmatch", v, u - s))
        elif s <= u < pool and v == pool:
            steps.append(("park", u - s))
        elif u == pool and s <= v < pool:
            steps.append(("release", v - s))
        elif u == pool and v < s:
            steps.append(("feed", v))
        elif u < s and v == pool:
            steps.append(("unfeed", u))
        else:
            raise InternalSolverError(f"impossible arc {u}->{v} in augmenting path")
    return tuple(steps)


def grow_forest(state: SolverState, root: CopyRef) -> AugmentingPath:
    """Find a cheapest augmenting path from a free demand copy.

    Row roots (phase 1) search forward toward a column that still needs
    partners, spare column capacity, or a returnable optional row match;
    column roots (phase 2) search backward to the pool through spare row
    capacity.  Ties prefer finishing at a demand copy over a surplus
    copy, then the lowest index.  Raises ``InfeasibleInstanceError`` when
    no finish is reachable, with the reached vertex set as certificate.

    Both directions run one Dijkstra.  It searches from side X (the
    root's) across pairs to side Y and through the pool; a column root is
    the row case on transposed views, ``(lifted, p, q, mu)`` becoming
    ``(lifted.T, q, p, -mu)``.  Node ids keep one layout (rows, columns,
    pool) in both directions, so ties break the same way.  Relaxes read
    the lifted cost matrix, where every pair a relax may not use comes
    out at INF or above, so no relax needs a mask of ``matched``.
    """
    if root[0] not in ("a", "b"):
        raise ValueError(f"roots must be demand copies, got {root!r}")
    if not is_free(root, state.matching):
        raise ValueError(f"root {root!r} is not a free demand copy")
    s, t = state.s, state.t
    pool = s + t
    m = state.matching
    fed = m.deg_a - m.routed
    forward = root[0] == "a"
    # x_ret: an optional match on side X that can go back to the pool;
    # y_spare: a spare surplus slot on side Y that the pool can feed.
    if forward:
        g, px, py, mu = m.lifted, state.p, state.q, state.mu
        x0, y0, other = 0, s, "b"
        x_ret, y_spare = fed > 0, m.parked < state.beta_cap - state.beta
        y_short = (m.deg_b - m.parked) < state.beta  # columns that still need partners
        pool_ends = state.park_budget > 0
    else:
        g, px, py, mu = m.lifted.T, state.q, state.p, -state.mu
        x0, y0, other = s, 0, "a"
        x_ret, y_spare = m.parked > 0, fed < state.alpha_cap - state.alpha
        y_short = np.zeros(s, dtype=bool)
        pool_ends = True
    nx, ny = len(px), len(py)

    # cand (the state's, all INF between searches) holds the tentative
    # distance of each reached, unsettled node and INF elsewhere, so one
    # argmin picks each settle.  dist takes a node's distance as it
    # settles and the tentative ones at the end.  Relaxing writes through
    # each block's views.
    cand, unsettled = state.cand, state.unsettled
    (cand_x, live_x), (cand_y, live_y) = state.blocks[root[0]]
    dist = np.empty(pool + 1, dtype=np.int64)
    parent = np.full(pool + 1, -1, dtype=np.int64)
    on_x = (cand_x, parent[x0 : x0 + nx], live_x)
    on_y = (cand_y, parent[y0 : y0 + ny], live_y)
    order: list[int] = []  # settled nodes, in settle order

    def relax(views: tuple, nd: np.ndarray, v: int) -> None:
        cd, par, live = views
        better = nd < cd
        better &= live  # settled nodes read INF in cand; this mask guards them
        np.copyto(cd, nd, where=better)
        np.copyto(par, v, where=better)

    def relax_pool(nd: int, v: int) -> None:
        if unsettled[pool] and nd < cand[pool]:
            cand[pool] = nd
            parent[pool] = v

    cand[x0 + root[1]] = 0
    try:
        while True:
            v = int(cand.argmin())
            dv = int(cand[v])
            if dv >= INF:
                raise _stuck(state, root, ~unsettled)
            if len(order) > pool:
                raise InternalSolverError(
                    f"search from {root!r} settled more than its {pool + 1} nodes"
                )
            order.append(v)
            dist[v] = dv
            cand[v] = INF
            unsettled[v] = False
            if v == pool:
                if pool_ends:
                    break
                # Pool without park budget left (row roots only): pass
                # through it into a row's spare slot or a parked column unit.
                relax(on_x, np.where(fed < state.alpha_cap - state.alpha, dv + (mu + px), INF), v)
                relax(on_y, np.where(m.parked > 0, dv + (mu - py), INF), v)
            elif x0 <= v < x0 + nx:
                x = v - x0
                nd = g[x] - py  # matched pairs: INF or above
                nd += dv - px[x]
                relax(on_y, nd, v)
                if x_ret[x]:
                    relax_pool(dv - int(px[x]) - mu, v)
            else:
                y = v - y0
                if y_short[y]:
                    break  # a column that still needs partners: finish here
                nd = px - g[:, y]  # unmatched pairs: INF or above
                nd += LIFT + dv + py[y]
                relax(on_x, nd, v)
                if y_spare[y]:
                    relax_pool(dv + int(py[y]) - mu, v)
        np.copyto(dist, cand, where=unsettled)
        settled = ~unsettled
    finally:
        cand.fill(INF)
        unsettled.fill(True)

    D = int(dist[v])
    if v == pool:
        # Choose the finishing arc into the pool: the other side's spare
        # slot first, lowest index, then this side's optional match.  Only
        # settled nodes can finish at D: the pool, highest id, settled at
        # D, so every unsettled node has cand > D, and pool arcs have
        # reduced cost >= 0.
        for b0, ok, label, sign, group in ((y0, y_spare, py, 1, other), (x0, x_ret, px, -1, root[0])):
            ends = [
                u - b0 for u in order
                if 0 <= u - b0 < len(ok) and ok[u - b0] and int(dist[u]) + sign * int(label[u - b0]) - mu == D
            ]
            if ends:
                leaf: CopyRef = (group + "'", min(ends))
                parent[pool] = b0 + leaf[1]
                break
        else:
            raise InternalSolverError("pool finish without a finishing arc")
    else:
        leaf = (other, v - y0)

    chain = _reconstruct(parent, v)  # terminal -> root
    return AugmentingPath(
        root=root,
        leaf=leaf,
        # Both chains list nodes in arc direction: root -> leaf forward,
        # pool -> root on the reversed graph.
        steps=_steps_from_chain(chain[::-1] if forward else chain, s, t),
        finished_at_pool=forward and v == pool,
        forest=_Search(root, "row" if forward else "col", dist, parent, settled, v, D),
    )


def _stuck(state: SolverState, root: CopyRef, settled: np.ndarray) -> InfeasibleInstanceError:
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

    Swaps matched and unmatched pairs along the path, keeping ``lifted``
    in step, and updates every copy counter; a malformed path (double
    match, counter out of range) raises ``InternalSolverError``.  Plain
    alternating paths add exactly one pair; pool-passing paths add one
    pair per pool transit as well.

    A path may take a vertex over its capacity midway and back by its
    end, so capacities are checked once the steps are done, at the
    vertices a match step raised: only there can a degree have grown.
    """
    inst = m.graph.instance
    raised: list[tuple[int, int]] = []
    for op in path.steps:
        kind = op[0]
        if kind == "match":
            _, i, j = op
            if m.matched[i, j]:
                raise InternalSolverError(f"path matches already-matched pair ({i}, {j})")
            m.matched[i, j] = True
            m.lifted[i, j] += LIFT
            m.deg_a[i] += 1
            m.deg_b[j] += 1
            raised.append((i, j))
        elif kind == "unmatch":
            _, i, j = op
            if not m.matched[i, j]:
                raise InternalSolverError(f"path unmatches unmatched pair ({i}, {j})")
            m.matched[i, j] = False
            m.lifted[i, j] -= LIFT
            m.deg_a[i] -= 1
            m.deg_b[j] -= 1
        elif kind == "park":
            j = op[1]
            m.parked[j] += 1
            if m.parked[j] > inst.b_capacity[j] - inst.b_demand[j]:
                raise InternalSolverError(f"column {j} parked above its surplus quota")
        elif kind == "release":
            j = op[1]
            if m.parked[j] == 0:
                raise InternalSolverError(f"column {j} released below zero")
            m.parked[j] -= 1
        elif kind in ("feed", "unfeed"):
            pass  # row-side split is tracked by deg_a - routed
        else:
            raise InternalSolverError(f"unknown path step {op!r}")
    if path.root[0] == "a":
        r = path.root[1]
        m.routed[r] += 1
        if m.routed[r] > inst.a_demand[r]:
            raise InternalSolverError(f"row {r} routed above its demand quota")
    for i, j in raised:
        if m.deg_a[i] > m.a_capacity[i] or m.deg_b[j] > m.b_capacity[j]:
            raise InternalSolverError("augmentation exceeded a capacity")
    return m


def _prune_unneeded_pairs(state: SolverState) -> int:
    """Drop pairs that no demand on either side needs.

    At an optimum any such pair costs 0 (otherwise dropping it would beat
    the optimum), so this never changes the total cost; a non-zero cost
    here means the solve was wrong and is raised loudly.  Afterwards every
    remaining pair leans on a demand slot on at least one side.  One pass
    in index order suffices: dropping a pair only lowers degrees, so a
    pair kept once can never become droppable later.
    """
    m = state.matching
    removed = 0
    for i, j in zip(*np.nonzero(m.matched), strict=True):
        i, j = int(i), int(j)
        if m.deg_a[i] > state.alpha[i] and m.deg_b[j] > state.beta[j]:
            if state.c[i, j] != 0:
                raise InternalSolverError(
                    f"optimal matching carries a droppable pair ({i}, {j}) "
                    f"of non-zero cost {int(state.c[i, j])}"
                )
            m.matched[i, j] = False
            m.lifted[i, j] -= LIFT
            m.deg_a[i] -= 1
            m.deg_b[j] -= 1
            m.parked[j] -= 1
            removed += 1
    return removed


def _check_output(state: SolverState) -> None:
    """The last fault check on a solve's pruned matching.

    The degree counters must equal the row and column sums of
    ``matched``, every degree must lie within its vertex's bounds, and no
    matched pair may be above demand on both of its sides.
    """
    m = state.matching
    if np.any(m.matched.sum(axis=1) != m.deg_a) or np.any(m.matched.sum(axis=0) != m.deg_b):
        raise InternalSolverError("degree counters disagree with the matched pairs")
    if (
        np.any(m.deg_a < state.alpha) or np.any(m.deg_a > state.alpha_cap)
        or np.any(m.deg_b < state.beta) or np.any(m.deg_b > state.beta_cap)
    ):
        raise InternalSolverError("a vertex degree is outside its bounds")
    both = m.matched & (m.deg_a > state.alpha)[:, None] & (m.deg_b > state.beta)[None, :]
    if both.any():
        i, j = np.argwhere(both)[0]
        raise InternalSolverError(f"pair ({i}, {j}) is above demand on both sides")


def _solve(
    state: SolverState, algorithm: str, observer: Callable[[SolverState], None] | None, t0: float
) -> tuple[Assignment, SolveReport]:
    m = state.matching
    ph1 = ph2 = 0

    for i in range(state.s):
        while m.routed[i] < state.alpha[i]:
            path = grow_forest(state, ("a", i))
            if path.finished_at_pool:
                state.park_budget -= 1
            augment(m, path)
            state.apply_potentials(path._search)
            ph1 += 1
            if observer is not None:
                observer(state)
    for j in range(state.t):
        while m.covered(j) < state.beta[j]:
            path = grow_forest(state, ("b", j))
            augment(m, path)
            state.apply_potentials(path._search)
            ph2 += 1
            if observer is not None:
                observer(state)

    if np.any(m.routed != state.alpha) or np.any(m.deg_b - m.parked != state.beta):
        raise InternalSolverError("phases ended with unmet demand")

    cost = m.total_cost()
    dual = state.dual_objective()
    if dual != cost:
        raise InternalSolverError(
            f"dual objective {dual} does not certify the matched cost {cost}"
        )
    pruned = _prune_unneeded_pairs(state)
    _check_output(state)
    assignment = make_assignment(state.inst, m.pairs)
    if assignment.total_cost != cost:
        raise InternalSolverError("pruning changed the total cost")

    report = SolveReport(
        algorithm=algorithm,
        phase1_augmentations=ph1,
        phase2_augmentations=ph2,
        dual_updates=state.dual_updates,
        dual_objective=dual,
        pruned_pairs=pruned,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
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

    ``observer``, if given, is called after every augmentation with the
    live ``SolverState``: the same object on every call, which the solve
    keeps mutating and which after return holds the pruned matching.
    Callers that want per-augmentation values must copy them inside the
    call.
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
    if any(d != 1 for d in state.inst.a_demand) or any(d != 1 for d in state.inst.b_demand):
        raise ValueError("this algorithm requires every demand to be exactly 1")
    return _solve(state, "lca", observer, t0)
