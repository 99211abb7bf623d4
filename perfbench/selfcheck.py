"""Self-check of the benchmark at tiny sizes; takes seconds.

    python3 perfbench/selfcheck.py

Runs every workload plain and traced on tiny instances and checks that:
the last stdout line is the result object; every metric named in
BENCHMARK.json is printed with its unit (end-to-end ones plain, per-layer
ones traced); no solve failed (fail_frac == 0); the per-layer self times
add up to the entry span; and that without ``src/`` the benchmark exits
non-zero without printing a result.  Exits non-zero on the first miss.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Self times that tile the entry span: the solver path, then the CLI path
# around it (zero on workloads that call the solver directly).
SOLVER_TERMS = [
    "model.validate_instance.ms",
    "model.normalize_instance.self_ms",
    "solver.state_init.self_ms",
    "expansion.build_expanded_graph.self_ms",
    "solver.grow_forest.ms",
    "solver.augment.ms",
    "solver.apply_potentials.ms",
    "solver.dual_objective.ms",
    "solver.copy_pairs.ms",
    "expansion.project_matching.ms",
    "solver.other_ms",
]
CLI_TERMS = [
    "model.instance_from_json.ms",
    "model.instance_digest.ms",
    "oracles.check_assignment.ms",
    "cli.parse_instance.self_ms",
    "cli.other_ms",
]


def fail(msg: str) -> None:
    sys.exit(f"selfcheck FAILED: {msg}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def check_run(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} solves failed")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics/units {got} != BENCHMARK.json {want}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == want[name] for line in lines[:-1]):
            fail(f"{workload}: {name} not printed with its unit")
    if trace:
        entry = values["cli.main.ms"] or values["solver.solve.ms"]
        parts = sum(values[k] for k in SOLVER_TERMS + CLI_TERMS)
        if not math.isclose(entry, parts, rel_tol=1e-6):
            fail(f"{workload}: self times sum to {parts} ms, entry span is {entry} ms")
    elif not any(line.split()[:3] == ["fail_frac", "0.0", "ratio"] for line in lines):
        fail(f"{workload}: fail_frac 0.0 ratio not printed")
    print(f"ok {workload} trace {trace}: {result['attempted']} solves")


def check_bare() -> None:
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare directory fails cleanly")


def main() -> None:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace)
    check_bare()


if __name__ == "__main__":
    main()
