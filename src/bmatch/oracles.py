"""Independent ground-truth checkers for the assignment solvers.

Nothing here shares algorithmic machinery with the solver package: the
checker re-reads the problem definition literally, the exhaustive oracle
enumerates, and the flow oracle reduces to a generic min-cost circulation
with lower bounds.  ``differential_test`` cross-runs everything on random
feasible instances and reports cost disagreements with reproducible
fixtures.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import (
    Assignment,
    Instance,
    _pair_cost,
    _pair_indices,
    instance_digest,
    instance_to_json,
    make_assignment,
)
from .solver import InfeasibleInstanceError, InternalSolverError, solve_ga, solve_lca

__all__ = [
    "VerifyReport",
    "FlowNetwork",
    "GenParams",
    "DiffRecord",
    "DiffReport",
    "check_assignment",
    "brute_force_optimum",
    "build_flow_network",
    "feasibility_check",
    "solve_flow_reference",
    "random_instance",
    "differential_test",
]

_BRUTE_CELL_BUDGET = 20


@dataclass(frozen=True)
class VerifyReport:
    """Literal re-check of an assignment against the problem definition."""

    feasible: bool
    degree_violations: tuple[tuple[str, int, tuple[int, int]], ...]
    duplicate_pairs: tuple[tuple[int, int], ...]
    recomputed_cost: int


def check_assignment(inst: Instance, asg: Assignment) -> VerifyReport:
    """Verify degree bounds and pair uniqueness, recomputing the cost.

    Always returns a report; only a pair that is not two in-range integer
    indices raises (ValueError), since no degree can be attributed to a
    vertex that does not exist.
    """
    s, t = inst.s, inst.t
    for p in asg.pairs:
        i, j = _pair_indices(p)
        if not (0 <= i < s and 0 <= j < t):
            raise ValueError(f"pair ({i}, {j}) out of range for a {s}x{t} instance")
    i, j = np.array(asg.pairs, dtype=np.int64).reshape(-1, 2).T
    deg = {"a": np.bincount(i, minlength=s).tolist(), "b": np.bincount(j, minlength=t).tolist()}
    violations = tuple(
        (f"{x}{k}", d, (lo, hi))
        for x in "ab"
        for k, (d, lo, hi) in enumerate(zip(deg[x], getattr(inst, f"{x}_demand"), getattr(inst, f"{x}_capacity")))
        if not lo <= d <= hi
    )
    keys, counts = np.unique(i * t + j, return_counts=True)
    duplicates = tuple(divmod(k, t) for k in keys[counts > 1].tolist())
    return VerifyReport(
        feasible=not violations and not duplicates,
        degree_violations=violations,
        duplicate_pairs=duplicates,
        recomputed_cost=_pair_cost(inst, asg.pairs),
    )


def brute_force_optimum(inst: Instance) -> Assignment:
    """Exhaustive minimum over every subset of pairs (s*t <= 20).

    Ties are broken by lexicographic order of the sorted pair tuple, so
    the result is deterministic.  Subsets are priced exactly, in int64
    limbs of 31 bits, low first: below the top limb a cost c adds
    ``(c >> 31*l) & (2**31 - 1)`` to limb l, at it the signed
    ``c >> 31*l``.  With at most 58 bits left for the top limb and fewer
    than 2**5 cells, no limb's sum can wrap; costs below 2**58 take one
    limb.  Carries then put every limb but the top in [0, 2**31), so
    totals order as their limbs do from the top down.  Raises
    ValueError beyond the budget and InfeasibleInstanceError when no
    subset satisfies the bounds.
    """
    s, t = inst.s, inst.t
    cells = s * t
    if cells > _BRUTE_CELL_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {cells} pair cells > {_BRUTE_CELL_BUDGET}"
        )
    n_masks = 1 << cells
    masks = np.arange(n_masks, dtype=np.int64)
    # bits[k] marks the subsets holding cell k = (k//t, k%t), one byte each.
    bits = np.empty((cells, n_masks), dtype=np.uint8)
    for k in range(cells):
        bits[k] = (masks >> k) & 1
    flat = [c for row in inst.cost for c in row]
    width = max((abs(c).bit_length() for c in flat), default=0)
    n_limbs = 1 + max(0, -(-(width - 58) // 31))
    limbs = np.zeros((n_limbs, n_masks), dtype=np.int64)
    for k, c in enumerate(flat):
        for l in range(n_limbs):
            part = c >> 31 * l if l == n_limbs - 1 else (c >> 31 * l) & (2**31 - 1)
            if part:
                limbs[l] += bits[k] * np.int64(part)
    for l in range(n_limbs - 1):
        limbs[l + 1] += limbs[l] >> 31
        limbs[l] &= 2**31 - 1
    ok = np.ones(n_masks, dtype=bool)
    for i in range(s):
        deg = bits[i * t : (i + 1) * t].sum(axis=0)
        ok &= (deg >= inst.a_demand[i]) & (deg <= inst.a_capacity[i])
    for j in range(t):
        deg = bits[j::t].sum(axis=0)
        ok &= (deg >= inst.b_demand[j]) & (deg <= inst.b_capacity[j])
    if not ok.any():
        raise InfeasibleInstanceError("no subset of pairs satisfies the degree bounds")
    for limb in limbs[::-1]:
        ok &= limb == limb[ok].min()
    # Narrow the tied subsets to the least sorted pair tuple, cell by cell.
    # At cell k all hold the same cells below k: one holding none from k on
    # is a prefix of every other and wins; else those holding k come first.
    tied = np.flatnonzero(ok)
    for k in range(cells):
        rest = tied >> k
        if not rest.all():
            tied = tied[rest == 0]
            break
        if (held := tied[rest & 1 == 1]).size:
            tied = held
    (winner,) = tied.tolist()
    best = sum(int(limb[winner]) << 31 * l for l, limb in enumerate(limbs))
    asg = make_assignment(inst, [divmod(k, t) for k in range(cells) if winner >> k & 1])
    report = check_assignment(inst, asg)
    if not report.feasible or report.recomputed_cost != best:
        raise InternalSolverError("enumeration produced an assignment failing its own check")
    return asg


# --- flow-based oracles -----------------------------------------------------

# FlowNetwork arc = (tail, head, lower, capacity, cost); node ids are
# rows 0..s-1, columns s..s+t-1, then source and sink.


@dataclass(frozen=True)
class FlowNetwork:
    """Circulation encoding of an instance.

    One arc per pair (capacity 1, carrying the pair cost), one bound arc
    per vertex carrying its [demand, capacity] interval, and a closing
    sink->source arc making feasible assignments exactly the feasible
    circulations.
    """

    instance: Instance
    nodes: tuple[str, ...]
    arcs: tuple[tuple[int, int, int, int, int], ...]
    source: int
    sink: int
    pair_arc_offset: int  # arcs[pair_arc_offset + i*t + j] is the (i, j) arc

    def pair_arc(self, i: int, j: int) -> tuple[int, int, int, int, int]:
        return self.arcs[self.pair_arc_offset + i * self.instance.t + j]


def build_flow_network(inst: Instance) -> FlowNetwork:
    s, t = inst.s, inst.t
    source, sink = s + t, s + t + 1
    nodes = tuple([f"a{i}" for i in range(s)] + [f"b{j}" for j in range(t)] + ["source", "sink"])
    arcs: list[tuple[int, int, int, int, int]] = []
    for i in range(s):
        arcs.append((source, i, inst.a_demand[i], inst.a_capacity[i], 0))
    pair_arc_offset = len(arcs)
    for i in range(s):
        for j in range(t):
            arcs.append((i, s + j, 0, 1, inst.cost[i][j]))
    for j in range(t):
        arcs.append((s + j, sink, inst.b_demand[j], inst.b_capacity[j], 0))
    arcs.append((sink, source, 0, sum(inst.a_capacity) + 1, 0))
    return FlowNetwork(
        instance=inst,
        nodes=nodes,
        arcs=tuple(arcs),
        source=source,
        sink=sink,
        pair_arc_offset=pair_arc_offset,
    )


class _Residual:
    """Adjacency-list residual graph; arcs stored as [head, cap, cost, rev]."""

    def __init__(self, n: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int, cost: int) -> tuple[int, int]:
        self.adj[u].append([v, cap, cost, len(self.adj[v])])
        self.adj[v].append([u, 0, -cost, len(self.adj[u]) - 1])
        return (u, len(self.adj[u]) - 1)


def _bound_over_capacity(net: FlowNetwork) -> tuple[str, int, int] | None:
    """The first vertex whose demand exceeds its capacity, with both, or
    None.  Its bound arc's lower bound is above its capacity, so no
    circulation exists, and ``_lower_bound_reduction`` would give that arc
    a negative residual capacity: both referees check this first."""
    for u, v, lower, cap, _ in net.arcs:
        if lower > cap:
            return net.nodes[v if u == net.source else u], lower, cap
    return None


def _lower_bound_reduction(net: FlowNetwork) -> tuple[_Residual, int, int, int, list[tuple[int, int]]]:
    """Standard transform: arc lower bounds become node excesses served by
    a super source/sink pair; original arcs keep capacity - lower."""
    n = len(net.nodes) + 2
    super_source, super_sink = n - 2, n - 1
    res = _Residual(n)
    excess = [0] * len(net.nodes)
    handles: list[tuple[int, int]] = []
    for u, v, lower, cap, cost in net.arcs:
        handles.append(res.add(u, v, cap - lower, cost))
        if lower:
            excess[v] += lower
            excess[u] -= lower
    needed = 0
    for v, e in enumerate(excess):
        if e > 0:
            res.add(super_source, v, e, 0)
            needed += e
        elif e < 0:
            res.add(v, super_sink, -e, 0)
    return res, super_source, super_sink, needed, handles


def _bfs_max_flow(res: _Residual, src: int, dst: int) -> tuple[int, set[int]]:
    """Edmonds-Karp: the max flow, and the nodes its last search reached.
    That search ends only when dst is out of reach, so it has visited
    every node that a positive-residual path from src reaches."""
    total = 0
    while True:
        prev: dict[int, tuple[int, int] | None] = {src: None}
        queue = deque([src])
        while queue and dst not in prev:
            u = queue.popleft()
            for idx, arc in enumerate(res.adj[u]):
                if arc[1] > 0 and arc[0] not in prev:
                    prev[arc[0]] = (u, idx)
                    queue.append(arc[0])
        if dst not in prev:
            return total, set(prev)
        hops: list[tuple[int, int]] = []
        v = dst
        while prev[v] is not None:
            u, idx = prev[v]  # type: ignore[misc]
            hops.append((u, idx))
            v = u
        push = min(res.adj[u][idx][1] for u, idx in hops)
        for u, idx in hops:
            arc = res.adj[u][idx]
            arc[1] -= push
            res.adj[arc[0]][arc[3]][1] += push
        total += push


def _used_pairs(
    inst: Instance, net: FlowNetwork, res: _Residual, handles: list[tuple[int, int]]
) -> list[list[int]]:
    """The pairs whose unit arc is full, as [i, j] in row-major order."""
    pairs = []
    for i in range(inst.s):
        for j in range(inst.t):
            u, idx = handles[net.pair_arc_offset + i * inst.t + j]
            if res.adj[u][idx][1] == 0:
                pairs.append([i, j])
    return pairs


def feasibility_check(inst: Instance) -> tuple[bool, dict]:
    """Exact feasibility via a max-flow test on the circulation encoding.

    Feasible: certificate is a witness assignment.  Infeasible: certificate
    is the vertex whose demand exceeds its capacity, or else the saturated
    cut (residual-reachable node set) and the amount of demand it strands.
    """
    net = build_flow_network(inst)
    if over := _bound_over_capacity(net):
        node, demand, capacity = over
        return False, {"kind": "bound", "node": node, "demand": demand, "capacity": capacity}
    res, super_source, super_sink, needed, handles = _lower_bound_reduction(net)
    flowed, reach = _bfs_max_flow(res, super_source, super_sink)
    if flowed == needed:
        return True, {"kind": "assignment", "pairs": _used_pairs(inst, net, res, handles)}
    names = sorted(net.nodes[v] if v < len(net.nodes) else "super-source" for v in reach)
    return False, {"kind": "cut", "nodes": names, "unmet_demand": needed - flowed}


def _dijkstra_min_cost_flow(
    res: _Residual, src: int, dst: int, needed: int
) -> tuple[int, int]:
    """Send ``needed`` units from src to dst along successively cheapest
    residual paths (node potentials keep reduced costs non-negative)."""
    big = float("inf")
    n = len(res.adj)
    potential = [0] * n
    flow = cost = 0
    while flow < needed:
        dist: list[float] = [big] * n
        prev_node = [-1] * n
        prev_arc = [-1] * n
        dist[src] = 0
        heap: list[tuple[int, int]] = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for idx, (v, cap, arc_cost, _rev) in enumerate(res.adj[u]):
                if cap <= 0:
                    continue
                nd = d + arc_cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev_node[v] = u
                    prev_arc[v] = idx
                    heapq.heappush(heap, (nd, v))
        if dist[dst] == big:
            return flow, cost
        cap_to_dst = dist[dst]
        for v in range(n):
            potential[v] += int(min(dist[v], cap_to_dst))
        push = needed - flow
        v = dst
        while v != src:
            push = min(push, res.adj[prev_node[v]][prev_arc[v]][1])
            v = prev_node[v]
        v = dst
        while v != src:
            arc = res.adj[prev_node[v]][prev_arc[v]]
            arc[1] -= push
            res.adj[arc[0]][arc[3]][1] += push
            cost += push * arc[2]
            v = prev_node[v]
        flow += push
    return flow, cost


def solve_flow_reference(inst: Instance) -> Assignment:
    """Independent optimum via generic min-cost circulation with lower bounds.

    Integral because all capacities are integral; raises
    InfeasibleInstanceError when the bounds cannot be met.
    """
    net = build_flow_network(inst)
    if over := _bound_over_capacity(net):
        node, demand, capacity = over
        raise InfeasibleInstanceError(f"flow reference: {node} demand {demand} exceeds its capacity {capacity}")
    res, super_source, super_sink, needed, handles = _lower_bound_reduction(net)
    flowed, flow_cost = _dijkstra_min_cost_flow(res, super_source, super_sink, needed)
    if flowed < needed:
        raise InfeasibleInstanceError(
            f"flow reference could not meet {needed - flowed} demand unit(s)"
        )
    asg = make_assignment(inst, _used_pairs(inst, net, res, handles))
    if asg.total_cost != flow_cost:  # lower-bounded arcs all cost 0
        raise InternalSolverError(
            f"flow accounting mismatch: path costs {flow_cost}, assignment {asg.total_cost}"
        )
    return asg


# --- differential testing ---------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    """Shape of the random instance distribution for differential runs."""

    max_s: int = 3
    max_t: int = 3
    cost_max: int = 9
    cap_max: int = 3
    demands_one: bool = False
    min_s: int = 1
    min_t: int = 1

    def __post_init__(self) -> None:
        if (
            not 1 <= self.min_s <= self.max_s
            or not 1 <= self.min_t <= self.max_t
            or self.cap_max < 1
            or self.cost_max < 0
        ):
            raise ValueError("generator parameters out of range")


def random_instance(params: GenParams, rng) -> Instance:
    """One feasible instance, rejection-sampled via feasibility_check.

    After 50 rejected draws the shape is re-parameterized to a form that
    is feasible by construction (full capacities for unit demands, zero
    demands otherwise), keeping the generator total and deterministic.
    """
    for attempt in range(51):
        s = rng.randint(params.min_s, params.max_s)
        t = rng.randint(params.min_t, params.max_t)
        cost = [[rng.randint(0, params.cost_max) for _ in range(t)] for _ in range(s)]
        a_cap = [rng.randint(1, min(params.cap_max, t)) for _ in range(s)]
        b_cap = [rng.randint(1, min(params.cap_max, s)) for _ in range(t)]
        if params.demands_one:
            a_dem, b_dem = [1] * s, [1] * t
            if attempt == 50:
                a_cap, b_cap = [t] * s, [s] * t
        else:
            a_dem = [rng.randint(0, c) for c in a_cap]
            b_dem = [rng.randint(0, c) for c in b_cap]
            if attempt == 50:
                a_dem, b_dem = [0] * s, [0] * t
        inst = Instance.from_lists(
            cost=cost, a_demand=a_dem, a_capacity=a_cap, b_demand=b_dem, b_capacity=b_cap
        )
        feasible, _ = feasibility_check(inst)
        if feasible:
            return inst
    raise AssertionError("unreachable: the fallback draw is feasible by construction")


@dataclass(frozen=True)
class DiffRecord:
    """One trial: every solver's cost on one instance, plus the fixture
    needed to replay it when they disagree."""

    trial: int
    digest: str
    costs: tuple[tuple[str, int], ...]
    agree: bool
    notes: tuple[str, ...] = ()
    fixture: str | None = None

    def to_json(self) -> str:
        doc = dict(vars(self), costs=dict(self.costs), notes=list(self.notes))
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DiffReport:
    params: GenParams
    trials: int
    seed: int
    records: tuple[DiffRecord, ...]

    @property
    def disagreements(self) -> tuple[DiffRecord, ...]:
        return tuple(r for r in self.records if not r.agree)

    def to_ndjson(self) -> str:
        return "\n".join(r.to_json() for r in self.records)


def differential_test(params: GenParams, trials: int, seed: int) -> DiffReport:
    """Cross-run the solvers on random feasible instances.

    Per trial: the main solver, the unit-demand solver when applicable,
    the flow reference, and exhaustive enumeration when within budget.
    Any cost disagreement or invalid output is recorded (never raised)
    together with the instance serialized for replay.
    """
    import random

    rng = random.Random(seed)
    records: list[DiffRecord] = []
    for trial in range(trials):
        inst = random_instance(params, rng)
        costs: list[tuple[str, int]] = []
        notes: list[str] = []

        def run(name: str, fn) -> None:
            try:
                asg = fn(inst)
                report = check_assignment(inst, asg)
                if not report.feasible:
                    notes.append(f"{name}: output failed verification")
                costs.append((name, asg.total_cost))
            except Exception as exc:  # a crash is a finding, not a stop
                notes.append(f"{name}: {type(exc).__name__}: {exc}")

        run("ga", lambda i: solve_ga(i)[0])
        if all(d == 1 for d in inst.a_demand) and all(d == 1 for d in inst.b_demand):
            run("lca", lambda i: solve_lca(i)[0])
        run("flow", solve_flow_reference)
        if inst.s * inst.t <= _BRUTE_CELL_BUDGET:
            run("brute", brute_force_optimum)

        agree = not notes and len({c for _, c in costs}) == 1
        records.append(
            DiffRecord(
                trial=trial,
                digest=instance_digest(inst),
                costs=tuple(sorted(costs)),
                agree=agree,
                notes=tuple(notes),
                fixture=None if agree else instance_to_json(inst),
            )
        )
    return DiffReport(params=params, trials=trials, seed=seed, records=tuple(records))
