"""Yardstick solver: optimum costs and solve times from scipy.

A helper process of ``run.py``, single-threaded.  It reads one instance
index per stdin line, solves that instance and answers with one JSON line
(optimum cost, array hash, timing samples in ms); the benchmark process
waits for the answer, so the yardstick never runs alongside a bmatch
solve.  By hand:

    echo 0 | python3 perfbench/yardstick.py --workload o2o-dense --seed 1

One-to-one instances go to ``scipy.optimize.linear_sum_assignment``;
general bounds to HiGHS through ``scipy.optimize.linprog`` over
x_ij in [0, 1] with 2(s+t) degree rows.  That constraint matrix is totally
unimodular, so the simplex optimum is integral; it is rounded, checked
against the degree bounds and re-costed exactly in integers.  HiGHS runs
without presolve, which halves its time on these LPs (0.95 to 0.46 s on a
sparse-cli instance, 0.24 to 0.10 s on heavy-rect, on a 2-vCPU Xeon VM).
Each timing sample covers model building and the solve.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from workloads import WORKLOADS, Problem, array_hash, check_pairs, generate


def solve_lsa(prob: Problem) -> np.ndarray:
    rows, cols = linear_sum_assignment(prob.cost)
    return np.stack([rows, cols], axis=1)


def solve_highs(prob: Problem) -> np.ndarray:
    s, t = prob.cost.shape
    n = s * t
    var = np.arange(n)
    degree = sparse.csr_matrix(
        (np.ones(2 * n), (np.concatenate([var // t, s + var % t]), np.concatenate([var, var]))),
        shape=(s + t, n),
    )
    res = linprog(
        prob.cost.ravel(),
        A_ub=sparse.vstack([degree, -degree], format="csr"),
        b_ub=np.concatenate([prob.a_capacity, prob.b_capacity, -prob.a_demand, -prob.b_demand]),
        bounds=(0, 1),
        method="highs",
        options={"presolve": False},  # halves the time on these LPs
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    x = np.rint(res.x)
    if np.abs(res.x - x).max() > 1e-6:
        raise RuntimeError("HiGHS returned a fractional vertex")
    chosen = np.flatnonzero(x)
    return np.stack([chosen // t, chosen % t], axis=1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    solve = solve_lsa if w.yardstick == "lsa" else solve_highs
    for line in sys.stdin:
        prob = generate(w, args.seed, int(line), args.tiny)
        ms = []
        for _ in range(w.yardstick_repeats):
            t0 = time.perf_counter()
            pairs = solve(prob)
            ms.append((time.perf_counter() - t0) * 1000.0)
        check_pairs(prob, pairs)
        cost = int(prob.cost[pairs[:, 0], pairs[:, 1]].sum())
        print(json.dumps({"cost": cost, "hash": array_hash(prob), "ms": ms}), flush=True)


if __name__ == "__main__":
    main()
