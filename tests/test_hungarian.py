"""Unit and property tests for the square max-weight matching core.

The mid-solve states captured by the observer hook double as the corpus
for the dual-update property suite: every captured (labels, S, T) triple
is re-fed through compute_alpha_l / apply_dual_update and checked for
feasibility preservation, tree-edge tightness, and strict progress.
"""

import itertools
import random

import pytest

from bmatch import (
    DualState,
    apply_dual_update,
    compute_alpha_l,
    init_labels,
    solve_max_weight_perfect,
)


def brute_max_weight(weights):
    n = len(weights)
    return max(
        sum(weights[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )


# --- init_labels -------------------------------------------------------------


def test_init_labels_row_maxima():
    d = init_labels([[1, 2], [3, 1]])
    assert d.labels_a == (2, 3)
    assert d.labels_b == (0, 0)


def test_init_labels_single_cell():
    assert init_labels([[0]]) == DualState((0,), (0,))


def test_init_labels_is_feasible():
    w = [[2, 1], [2, 1]]
    d = init_labels(w)
    assert d.labels_a == (2, 2)
    assert d.is_feasible(w)


# --- compute_alpha_l ---------------------------------------------------------


def test_alpha_after_one_match_hand_example():
    # Matching (a0,b0) then growing from a1 pulls a0 into the tree through
    # the tight column b0; the only way out is the slack-1 column b1.
    w = [[2, 1], [2, 1]]
    d = init_labels(w)
    assert compute_alpha_l(w, d, tree_a=[1, 0], tree_b=[0]) == 1


def test_alpha_single_candidate():
    w = [[0, 0], [0, 0]]
    d = DualState((0, 3), (0, 0))
    # slack of (a0, b0) is 0 but b0 sits in T; b1 offers 3 from a1... use row 1 only
    assert compute_alpha_l(w, d, tree_a=[1], tree_b=[0]) == 3


def test_alpha_uniform_no_tree_columns():
    w = [[0, 0], [0, 0]]
    d = DualState((5, 5), (0, 0))
    assert compute_alpha_l(w, d, tree_a=[0, 1], tree_b=[]) == 5


def test_alpha_rejects_full_tree():
    w = [[1]]
    with pytest.raises(ValueError, match="every column"):
        compute_alpha_l(w, init_labels(w), tree_a=[0], tree_b=[0])


def test_alpha_rejects_infeasible_labels():
    with pytest.raises(ValueError, match="infeasible"):
        compute_alpha_l([[5]], DualState((0,), (0,)), tree_a=[0], tree_b=[])


# --- apply_dual_update -------------------------------------------------------


def test_update_moves_labels_across_the_tree():
    d = apply_dual_update(DualState((2, 2), (0, 0)), tree_a=[0, 1], tree_b=[0], alpha=1)
    assert d == DualState((1, 1), (1, 0))
    # all four edges of the hand example stay feasible
    assert d.is_feasible([[2, 1], [2, 1]])


def test_update_identity():
    d = DualState((4, 7), (1, 0))
    assert apply_dual_update(d, tree_a=[], tree_b=[], alpha=0) == d


def test_update_creates_tight_edge_1x1():
    w = [[0]]
    d = apply_dual_update(DualState((5,), (0,)), tree_a=[0], tree_b=[], alpha=5)
    assert d.labels_a == (0,)
    assert d.slack(w, 0, 0) == 0


# --- solve_max_weight_perfect ------------------------------------------------


def test_solve_prefers_off_diagonal():
    pm = solve_max_weight_perfect([[1, 2], [3, 1]])
    assert pm.weight == 5
    assert pm.pairs == ((0, 1), (1, 0))


def test_solve_single_cell():
    pm = solve_max_weight_perfect([[7]])
    assert pm.weight == 7 == pm.certificate_weight


def test_solve_tied_columns():
    pm = solve_max_weight_perfect([[2, 1], [2, 1]])
    assert pm.weight == 3


def test_solve_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        solve_max_weight_perfect([[1, 2, 3], [4, 5, 6]])


def test_solve_weight_is_exact_beyond_int64():
    pm = solve_max_weight_perfect([[2**62] * 3] * 3)
    assert type(pm.weight) is int
    assert pm.weight == pm.certificate_weight == 3 * 2**62


@pytest.mark.parametrize(
    "weights, match",
    [
        ([[2**63]], "fit in int64"),  # not an int64
        ([[-(2**63) - 1]], "fit in int64"),
        ([[2**62, 0], [0, 0]], "overflow the int64 labels"),  # slack 2**62 would tie the tree mask
        ([[2**63 - 1, 2**63 - 1 - 2**60]] * 2, "overflow the int64 labels"),  # max W + spread reaches 2**63
    ],
)
def test_solve_rejects_weights_its_int64_labels_cannot_hold(weights, match):
    with pytest.raises(ValueError, match=match):
        solve_max_weight_perfect(weights)


@pytest.mark.parametrize(
    "weights",
    [
        [[2**61 - 1, 0], [0, 0]],  # the widest spread accepted
        [[0, 2**61 - 1, 5], [2**61 - 1, 0, 2**60], [3, 2**60, 2**61 - 1]],
        [[2**62 + 2**61 - 1, 2**62], [2**62 + 1, 2**62 + 2**61 - 1]],  # max W + spread = 2**63 - 2
        [[-(2**63), -(2**63) + 5], [-(2**63) + 2, -(2**63)]],
    ],
)
def test_solve_is_exact_at_the_edge_of_its_domain(weights):
    pm = solve_max_weight_perfect(weights)
    assert pm.weight == pm.certificate_weight == brute_max_weight(weights)
    assert pm.dual.is_feasible(weights)


def test_solve_is_deterministic():
    w = [[3, 3, 1], [3, 3, 3], [1, 3, 3]]
    assert solve_max_weight_perfect(w).pairs == solve_max_weight_perfect(w).pairs


def test_solve_matches_permutation_enumeration():
    rng = random.Random(1234)
    for _ in range(120):
        n = rng.randint(1, 6)
        w = [[rng.randint(0, 30) for _ in range(n)] for _ in range(n)]
        pm = solve_max_weight_perfect(w)
        assert pm.weight == brute_max_weight(w)
        assert pm.weight == sum(w[i][j] for i, j in pm.pairs)
        assert pm.certificate_weight == pm.weight
        assert pm.dual.is_feasible(w)
        assert all(pm.dual.slack(w, i, j) == 0 for i, j in pm.pairs)


def test_matching_is_a_bijection():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 7)
        w = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        pm = solve_max_weight_perfect(w)
        assert sorted(i for i, _ in pm.pairs) == list(range(n))
        assert sorted(j for _, j in pm.pairs) == list(range(n))


# --- mid-solve dual-state property suite ------------------------------------


def collect_states(rng, target=1000, n_max=6, w_max=12):
    """Observer-captured (weights, dual, S, T, match) mid-solve snapshots."""
    out = []
    while len(out) < target:
        n = rng.randint(2, n_max)
        w = [[rng.randint(0, w_max) for _ in range(n)] for _ in range(n)]
        snaps = []
        solve_max_weight_perfect(w, observer=lambda d, s, t, m: snaps.append((d, s, t, m)))
        out.extend((w, d, s, t, m) for d, s, t, m in snaps)
    return out


def tight_neighborhood(w, d, tree_a):
    n = len(w)
    return frozenset(j for j in range(n) for i in tree_a if d.slack(w, i, j) == 0)


def test_observer_states_keep_every_invariant():
    states = collect_states(random.Random(2024), target=1000)
    assert len(states) >= 1000, "observer corpus too small to be meaningful"
    for w, d, S, T, match in states:
        n = len(w)
        assert d.is_feasible(w)
        # matched edges stay tight throughout the solve
        for i, j in enumerate(match):
            if j >= 0:
                assert d.slack(w, i, j) == 0
        if T == frozenset(range(n)):
            continue
        alpha = compute_alpha_l(w, d, S, T)
        if tight_neighborhood(w, d, S) == T:
            # stuck tree: the update must make strict progress
            assert alpha > 0
        updated = apply_dual_update(d, S, T, alpha)
        assert updated.is_feasible(w)
        for i in S:
            for j in T:
                if d.slack(w, i, j) == 0:
                    assert updated.slack(w, i, j) == 0, "tree edge lost tightness"
        # some column outside T is now reachable
        assert any(updated.slack(w, i, j) == 0 for i in S for j in range(n) if j not in T)
