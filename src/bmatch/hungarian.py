"""Max-weight perfect matching on a square weight matrix.

Primal-dual method with vertex labels: maintain l_a[i] + l_b[j] >= W[i][j]
for every pair (a feasible labeling), grow alternating trees inside the
equality subgraph (pairs with l_a[i] + l_b[j] == W[i][j]), and when a tree
gets stuck lower the row labels on the tree's left side by the smallest
slack so at least one new pair becomes tight.  A perfect matching found
inside the equality subgraph has weight equal to the label sum, which
certifies optimality.

The module exposes the dual bookkeeping (``init_labels``,
``compute_alpha_l``, ``apply_dual_update``) as standalone functions so the
update rule can be exercised and checked on its own; the solver keeps the
same quantities in incremental slack arrays for an O(n^3) bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DualState",
    "PerfectMatching",
    "init_labels",
    "compute_alpha_l",
    "apply_dual_update",
    "solve_max_weight_perfect",
]

Matrix = Sequence[Sequence[int]]

# Observer receives (dual, S, T, match_a) after every dual adjustment,
# including zero adjustments; match_a[i] is the matched column or -1.
Observer = Callable[["DualState", frozenset, frozenset, tuple], None]


@dataclass(frozen=True)
class DualState:
    """Vertex labels for both sides of a square instance."""

    labels_a: tuple[int, ...]
    labels_b: tuple[int, ...]

    def slack(self, weights: Matrix, i: int, j: int) -> int:
        return self.labels_a[i] + self.labels_b[j] - weights[i][j]

    def is_feasible(self, weights: Matrix) -> bool:
        n = len(self.labels_a)
        return all(self.slack(weights, i, j) >= 0 for i in range(n) for j in range(n))


@dataclass(frozen=True)
class PerfectMatching:
    """Perfect matching plus the dual labeling that certifies it.

    ``weight`` is the matched weight sum; by construction it equals
    ``certificate_weight`` (the label sum), which is an upper bound on
    every perfect matching's weight under a feasible labeling.
    """

    pairs: tuple[tuple[int, int], ...]
    weight: int
    dual: DualState

    @property
    def certificate_weight(self) -> int:
        return sum(self.dual.labels_a) + sum(self.dual.labels_b)


def init_labels(weights: Matrix) -> DualState:
    """Trivial feasible labeling: row labels at row maxima, column labels 0."""
    return DualState(
        labels_a=tuple(max(row) for row in weights),
        labels_b=tuple(0 for _ in weights[0]),
    )


def compute_alpha_l(
    weights: Matrix,
    dual: DualState,
    tree_a: Iterable[int],
    tree_b: Iterable[int],
) -> int:
    """Smallest slack from a tree row to a column outside the tree.

    This is the largest amount by which the labels of ``tree_a`` rows can
    drop (and ``tree_b`` column labels rise) without breaking feasibility.
    ``tree_a`` must be non-empty and ``tree_b`` must not cover all columns.
    """
    tb = set(tree_b)
    outside = [j for j in range(len(dual.labels_b)) if j not in tb]
    if not outside:
        raise ValueError("tree_b covers every column; no slack to compute")
    alpha = min(dual.slack(weights, i, j) for i in tree_a for j in outside)
    if alpha < 0:
        raise ValueError("labeling is infeasible on the given tree")
    return alpha


def apply_dual_update(
    dual: DualState,
    tree_a: Iterable[int],
    tree_b: Iterable[int],
    alpha: int,
) -> DualState:
    """Lower tree row labels and raise tree column labels by ``alpha``.

    Pairs with both or neither endpoint in the tree keep their slack, so
    matched and tree pairs stay tight; slack from tree rows to outside
    columns shrinks by ``alpha``.
    """
    ta, tb = set(tree_a), set(tree_b)
    return DualState(
        labels_a=tuple(l - alpha if i in ta else l for i, l in enumerate(dual.labels_a)),
        labels_b=tuple(l + alpha if j in tb else l for j, l in enumerate(dual.labels_b)),
    )


def solve_max_weight_perfect(weights: Matrix, observer: Observer | None = None) -> PerfectMatching:
    """Find a maximum-weight perfect matching of a square integer matrix.

    Deterministic: rows are matched in index order and slack ties are
    broken toward the lowest column index.  If ``observer`` is given it is
    called after every dual adjustment of every tree-growing step with
    ``(dual, tree_rows, tree_cols, match_a)``; this exists so tests can
    check invariants mid-solve and costs a snapshot per call.

    Runs in O(n^3) time via incremental slack arrays.

    Labels and slacks are int64.  With R = max W - min W, row labels stay
    in [min W, max W] (a free column keeps label 0), column labels in
    [0, R] and slacks in [0, 2R], so the method needs max W + R < 2**63
    and 2R < 2**62, the mask of tree columns.  A weight outside int64 or
    a matrix outside that range raises ``ValueError``.  ``weight`` is
    summed in Python integers, like ``certificate_weight``.
    """
    try:
        W = np.asarray(weights, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"weights must fit in int64: {exc}") from exc
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] == 0:
        raise ValueError(f"weights must be square and non-empty, got shape {W.shape}")
    n = W.shape[0]
    lo, hi = int(W.min()), int(W.max())
    if 2 * hi - lo >= 2**63 or 2 * (hi - lo) >= 2**62:
        raise ValueError(f"weights from {lo} to {hi} can overflow the int64 labels")

    la = W.max(axis=1).astype(np.int64)
    lb = np.zeros(n, dtype=np.int64)
    match_a = np.full(n, -1, dtype=np.int64)
    match_b = np.full(n, -1, dtype=np.int64)
    INF = np.int64(2**62)

    for root in range(n):
        # slack[j]: smallest label slack from any tree row to column j,
        # slack_arg[j]: a tree row attaining it (parent pointer for augmenting).
        in_s = np.zeros(n, dtype=bool)
        in_t = np.zeros(n, dtype=bool)
        in_s[root] = True
        slack = la[root] + lb - W[root]
        slack_arg = np.full(n, root, dtype=np.int64)

        while True:
            masked = np.where(in_t, INF, slack)
            j = int(masked.argmin())
            alpha = masked[j]
            if alpha > 0:
                la[in_s] -= alpha
                lb[in_t] += alpha
                slack[~in_t] -= alpha
            if observer is not None:
                observer(
                    DualState(tuple(int(x) for x in la), tuple(int(x) for x in lb)),
                    frozenset(np.flatnonzero(in_s).tolist()),
                    frozenset(np.flatnonzero(in_t).tolist()),
                    tuple(int(x) for x in match_a),
                )
            if match_b[j] < 0:
                # Augment: flip the alternating path back to the root.
                jj = j
                while jj >= 0:
                    i = slack_arg[jj]
                    match_b[jj] = i
                    match_a[i], jj = jj, match_a[i]
                break
            in_t[j] = True
            i2 = int(match_b[j])
            in_s[i2] = True
            cand = la[i2] + lb - W[i2]
            better = cand < slack
            slack = np.where(better, cand, slack)
            slack_arg = np.where(better, i2, slack_arg)

    pairs = tuple((i, int(match_a[i])) for i in range(n))
    weight = sum(W[np.arange(n), match_a].tolist())
    dual = DualState(tuple(int(x) for x in la), tuple(int(x) for x in lb))
    return PerfectMatching(pairs=pairs, weight=weight, dual=dual)
