"""bmatch benchmark: seeded solves checked against a scipy yardstick.

    python3 perfbench/run.py --workload o2o-dense --seed 1 --seconds 35 --trace 0

Run from a bmatch checkout (the package is imported from ``src/``).  One
run measures one workload (see ``perfbench/README.md``):

1. A closed loop with one caller takes steps for ``--seconds``.  Step k
   builds instance k from the seed, asks the yardstick process for its
   optimum (the yardstick runs while this process waits), then solves it
   through the workload's entry point.  Every solve is checked against
   ``oracles.check_assignment``, its dual certificate and the yardstick
   optimum.
2. ``setup_s`` is the median time for a fresh interpreter to
   ``import bmatch.cli``, sampled every two seconds during the loop.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
solves alternate between plain and traced, and the per-layer metrics are
printed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the
per-instance digests are written under ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# One thread everywhere: set before numpy is imported, inherited by children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Problem, Workload, array_hash, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# (metric, span name, field, unit): per-solve means over traced solves.
SPAN_METRICS = [
    ("model.validate_instance.calls", "model.validate_instance", "calls", "count"),
    ("model.validate_instance.ms", "model.validate_instance", "ms", "ms"),
    ("model.normalize_instance.self_ms", "model.normalize_instance", "self_ms", "ms"),
    ("model.instance_from_json.ms", "model.instance_from_json", "ms", "ms"),
    ("model.instance_digest.ms", "model.instance_digest", "ms", "ms"),
    ("expansion.build_expanded_graph.self_ms", "expansion.build_expanded_graph", "self_ms", "ms"),
    ("expansion.project_matching.ms", "expansion.project_matching", "ms", "ms"),
    ("solver.solve.ms", "solver.solve", "ms", "ms"),
    ("solver.grow_forest.calls", "solver.grow_forest", "calls", "count"),
    ("solver.grow_forest.ms", "solver.grow_forest", "ms", "ms"),
    ("solver.augment.ms", "solver.augment", "ms", "ms"),
    ("solver.apply_potentials.ms", "solver.apply_potentials", "ms", "ms"),
    ("solver.state_init.self_ms", "solver.state_init", "self_ms", "ms"),
    ("solver.dual_objective.ms", "solver.dual_objective", "ms", "ms"),
    ("solver.copy_pairs.ms", "solver.copy_pairs", "ms", "ms"),
    ("solver.other_ms", "solver.solve", "self_ms", "ms"),
    ("oracles.check_assignment.ms", "oracles.check_assignment", "ms", "ms"),
    ("cli.main.ms", "cli.main", "ms", "ms"),
    ("cli.parse_instance.self_ms", "cli.parse_instance", "self_ms", "ms"),
    ("cli.other_ms", "cli.main", "self_ms", "ms"),
]
REPORT_COUNTS = ("augmentations", "dual_updates", "pruned_pairs")
SETUP_EVERY_S = 2.0  # set-up samples are spread over the run, like the solves


def load_bmatch() -> Any:
    if not (SRC / "bmatch" / "__init__.py").is_file():
        sys.exit(f"error: no bmatch package under {SRC}; run from a bmatch checkout")
    sys.path.insert(0, str(SRC))
    import bmatch
    import bmatch.cli

    return bmatch


class SetupTimer:
    """Times a fresh interpreter running ``import bmatch.cli``."""

    def __init__(self) -> None:
        self.cmd = [sys.executable, "-c", "import bmatch.cli"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(self.cmd, env=self.env, check=True, timeout=60)  # writes the bytecode cache
        self.samples: list[float] = []

    def sample(self) -> None:
        # No timeout here: waiting with one polls in steps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.samples.append(time.perf_counter() - t0)


class Yardstick:
    """The yardstick process.  Each request solves one instance while this
    process waits, so the two never run at the same time."""

    def __init__(self, w: Workload, seed: int, tiny: bool):
        cmd = [sys.executable, str(HERE / "yardstick.py"), "--workload", w.name, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd + ["--tiny"] * tiny, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.costs: list[int] = []
        self.ms: list[float] = []

    def solve(self, k: int, expect_hash: str, timed: bool = True) -> int:
        """Optimum cost of instance ``k``; keeps the timing samples."""
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit("error: the yardstick process ended early")
        ans = json.loads(line)
        if ans["hash"] != expect_hash:
            sys.exit(f"error: the yardstick built a different instance {k}")
        self.costs.append(ans["cost"])
        if timed:
            self.ms += ans["ms"]
        return ans["cost"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def to_instance(bmatch: Any, prob: Problem) -> Any:
    s, t = prob.cost.shape
    return bmatch.Instance(
        s=s,
        t=t,
        cost=tuple(map(tuple, prob.cost.tolist())),
        a_demand=tuple(prob.a_demand.tolist()),
        a_capacity=tuple(prob.a_capacity.tolist()),
        b_demand=tuple(prob.b_demand.tolist()),
        b_capacity=tuple(prob.b_capacity.tolist()),
    )


def call_entry(bmatch: Any, w: Workload, inst: Any, path: str, tracer: Tracer | None) -> tuple[float, dict]:
    """One timed call into the workload's entry point.

    Returns wall milliseconds and the answer: pairs, total cost, dual
    objective and the SolveReport counts.
    """
    if w.entry == "cli":
        fn, args, span = bmatch.cli.main, (["solve", path],), "cli.main"
    else:
        fn = bmatch.solve_lca if w.entry == "lca" else bmatch.solve_ga
        args, span = (inst,), "solver.solve"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        result = fn(*args) if tracer is None else tracer.call(span, fn, *args)
        ms = (time.perf_counter() - t0) * 1000.0
    if w.entry == "cli":
        if result != 0:
            raise RuntimeError(f"bmatch solve exited with {result}")
        doc = json.loads(out.getvalue())
        diag = doc["diagnostics"]
        return ms, {
            "pairs": [tuple(p) for p in doc["pairs"]],
            "cost": doc["total_cost"],
            "dual": diag["dual_objective"],
            "augmentations": diag["phase1_augmentations"] + diag["phase2_augmentations"],
            "dual_updates": diag["dual_updates"],
            "pruned_pairs": diag["pruned_pairs"],
        }
    asg, rep = result
    return ms, {
        "pairs": list(asg.pairs),
        "cost": asg.total_cost,
        "dual": rep.dual_objective,
        "augmentations": rep.phase1_augmentations + rep.phase2_augmentations,
        "dual_updates": rep.dual_updates,
        "pruned_pairs": rep.pruned_pairs,
    }


def gate(bmatch: Any, inst: Any, ans: dict, optimum: int) -> str | None:
    """Why the answer is wrong, or None when it is right."""
    verdict = bmatch.oracles.check_assignment(inst, bmatch.Assignment(tuple(ans["pairs"]), ans["cost"]))
    if not verdict.feasible or verdict.recomputed_cost != ans["cost"]:
        return "check_assignment rejected the answer"
    if ans["dual"] != ans["cost"]:
        return f"dual objective {ans['dual']} != cost {ans['cost']}"
    if ans["cost"] != optimum:
        return f"cost {ans['cost']} != yardstick optimum {optimum}"
    return None


def tail(samples: list[float]) -> tuple[float, int]:
    """p90, or with fewer than 100 samples the highest percentile with at
    least ten samples beyond it (never below p50); returns (value, pct)."""
    for pct in range(90, 50, -1):
        value = float(np.percentile(samples, pct))
        if sum(x > value for x in samples) >= 10:
            return value, pct
    return float(np.percentile(samples, 50)), 50


class Run:
    """One benchmark run: the solve loop and what it measured."""

    def __init__(self, bmatch: Any, w: Workload, seed: int, tiny: bool, yard: Yardstick):
        self.bmatch, self.w, self.seed, self.tiny, self.yard = bmatch, w, seed, tiny, yard
        self.attempted = self.failed = 0
        self.digests: list[str] = []
        self.samples: dict[str, list[float]] = {"plain": [], "traced": []}
        self.breakdowns: list[dict] = []

    def instance(self, k: int) -> tuple[Any, str, str]:
        """Instance ``k``, its file (CLI workload only) and its array hash."""
        prob = generate(self.w, self.seed, k, self.tiny)
        inst = to_instance(self.bmatch, prob)
        self.digests.append(self.bmatch.model.instance_digest(inst))
        path = ""
        if self.w.entry == "cli":
            path = str(WORK / f"{self.w.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.bmatch.model.instance_to_json(inst) + "\n")
        return inst, path, array_hash(prob)

    def solve(self, inst: Any, path: str, optimum: int, tracer: Tracer | None) -> float | None:
        """Timed, checked solve; returns its milliseconds, None on failure."""
        self.attempted += 1
        root = len(tracer.spans) if tracer else 0
        gc.collect()
        if tracer:
            tracer.install(self.bmatch)
        try:
            ms, ans = call_entry(self.bmatch, self.w, inst, path, tracer)
            reason = gate(self.bmatch, inst, ans, optimum)
        except Exception as exc:  # a crashing solve is a counted failure
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.uninstall()
        if reason is not None:
            self.failed += 1
            print(f"FAIL {self.w.name} digest {self.digests[-1]}: {reason}", file=sys.stderr)
            return None
        if tracer:
            bd = tracer.solve_breakdown(root)
            bd["report"] = {key: ans[key] for key in REPORT_COUNTS}
            self.breakdowns.append(bd)
        return ms

    def loop(self, seconds: float, tracer: Tracer | None, setup: SetupTimer | None) -> None:
        """Warm up on instance 0, then take steps for ``seconds``.

        Step k asks the yardstick for the optimum of instance k, then solves
        the same instance with bmatch; a traced run solves it plain and
        traced, in alternating order.  Every ``SETUP_EVERY_S`` a step also
        takes one set-up sample.
        """
        inst, path, ahash = self.instance(0)
        self.solve(inst, path, self.yard.solve(0, ahash, timed=False), None)  # warm-up, not timed
        next_setup = time.perf_counter()
        deadline = next_setup + seconds
        k = 1
        while time.perf_counter() < deadline:
            if setup and time.perf_counter() >= next_setup:
                setup.sample()
                next_setup += SETUP_EVERY_S
            inst, path, ahash = self.instance(k)
            optimum = self.yard.solve(k, ahash)
            for mode in [None] if tracer is None else [None, tracer] if k % 2 else [tracer, None]:
                ms = self.solve(inst, path, optimum, mode)
                if ms is not None:
                    self.samples["traced" if mode else "plain"].append(ms)
            k += 1

    def inputs_digest(self) -> str:
        return hashlib.sha256(",".join(self.digests).encode()).hexdigest()[:12]


def end_to_end(run: Run, setup: SetupTimer) -> tuple[dict, list[str]]:
    plain = run.samples["plain"]
    p50 = statistics.median(plain)
    p_tail, pct = tail(plain)
    yard_ms = statistics.median(run.yard.ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_ms.p50": (p50, "ms"),
        "solve_ms.p90": (p_tail, "ms"),
        "yardstick_ratio": (p50 / yard_ms, "ratio"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"solve_ms.p90 is p{pct} of {len(plain)} timed solves",
        f"fail_frac {run.failed / run.attempted} ratio ({run.failed} of {run.attempted} solves)",
        f"yardstick median {yard_ms} ms over {len(run.yard.ms)} samples",
        f"setup_s is the median of {len(setup.samples)} samples",
    ]
    return metrics, notes


def per_layer(run: Run) -> dict:
    bds = run.breakdowns
    n = len(bds)

    def total(span: str, field: str) -> float:
        return sum(b[span][field] for b in bds if span in b)

    metrics = {name: (total(span, field) / n, unit) for name, span, field, unit in SPAN_METRICS}
    calls, settled = total("solver.grow_forest", "calls"), total("solver.grow_forest", "settled")
    metrics["solver.grow_forest.settled"] = (settled / calls if calls else 0.0, "count")
    metrics["solver.grow_forest.us_per_settle"] = (
        total("solver.grow_forest", "ms") * 1000.0 / settled if settled else 0.0,
        "us",
    )
    metrics["solver.grow_forest.pool_transits"] = (
        total("solver.grow_forest", "pool_transits") / calls if calls else 0.0,
        "count",
    )
    for key in REPORT_COUNTS:
        metrics[f"solver.{key}"] = (sum(b["report"][key] for b in bds) / n, "count")
    metrics["yardstick.ms.p50"] = (statistics.median(run.yard.ms), "ms")
    overhead = statistics.median(run.samples["traced"]) / statistics.median(run.samples["plain"]) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser(description="bmatch benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for the self-check")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    bmatch = load_bmatch()
    WORK.mkdir(exist_ok=True)
    setup = None if args.trace else SetupTimer()
    yard = Yardstick(w, args.seed, args.tiny)
    run = Run(bmatch, w, args.seed, args.tiny, yard)
    tracer = Tracer() if args.trace else None
    try:
        run.loop(args.seconds, tracer, setup)
    finally:
        yard.close()
    if not run.samples["plain"] or (tracer and not run.samples["traced"]):
        sys.exit("error: no solve succeeded")

    if tracer:
        metrics, notes = per_layer(run), []
        tracer.write(
            str(WORK / f"spans-{w.name}.ndjson"),
            {"workload": w.name, "seed": args.seed, "digests": run.digests},
        )
    else:
        metrics, notes = end_to_end(run, setup)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "digests": run.digests,
        "samples_ms": run.samples,
        "yardstick": {"costs": yard.costs, "ms": yard.ms},
        "notes": notes,
    }
    with open(WORK / f"run-{w.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(
        f"{w.name} seed {args.seed}: {len(run.samples['plain'])} plain and "
        f"{len(run.samples['traced'])} traced solves of {len(run.digests)} instances, "
        f"inputs digest {run.inputs_digest()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
