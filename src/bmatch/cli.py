"""Command-line front end.

Subcommands: ``solve`` (run a solver on an instance file), ``verify``
(check an assignment file against an instance), ``gen`` (emit a random
feasible instance), ``diff`` (differential campaign across all solvers),
``bench`` (wall-time sweep with a fitted log-log slope, informational
only).  Results go to standard output as JSON — line-delimited records
for ``diff``/``bench`` — and diagnostics to standard error, controlled
by ``GAP_LOG={quiet|info|trace}``.

Exit statuses: 0 success; 1 usage or parse error; 2 infeasible instance
or failed verification; 3 broken solver invariant (the offending
instance is dumped to a fixture file for replay).

Each command screens its instance once: ``solve`` with ``ga``/``lca`` in
the solver (``model.normalize_instance``); ``verify`` and ``solve`` with
``flow``/``brute``, which have no solver screen, reject malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from .model import (
    Assignment,
    Instance,
    _is_int,
    _sha12,
    instance_digest,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from .oracles import (
    GenParams,
    brute_force_optimum,
    check_assignment,
    differential_test,
    random_instance,
    solve_flow_reference,
)
from .solver import InfeasibleInstanceError, InternalSolverError, solve_ga, solve_lca

log = logging.getLogger("bmatch.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _configure_logging() -> None:
    level_name = os.environ.get("GAP_LOG", "quiet").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown GAP_LOG value {level_name!r}, using quiet", file=sys.stderr)
        level_name = "quiet"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name], format="%(message)s")


def parse_instance(path: str) -> Instance:
    """Read and parse an instance file; errors name the path.  Shapes,
    types and bounds are left to the one screen that follows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return instance_from_json(fh.read())
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise _ParseError(f"{path}: {exc}") from exc


def _reject_malformed(inst: Instance, path: str) -> None:
    """The screen for commands that run no solver screen of their own."""
    report = validate_instance(inst)
    if report.malformed:
        raise _ParseError(f"{path}: " + "; ".join(report.violations))


def _parse_assignment(path: str, inst: Instance) -> Assignment:
    """Read an assignment file's pairs.  ``total_cost`` is left 0:
    ``check_assignment`` prices the pairs, once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or "pairs" not in data:
        raise _ParseError(f"{path}: expected an object with a \"pairs\" key")
    pairs = data["pairs"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
        for p in pairs
    ):
        raise _ParseError(f"{path}: \"pairs\" must be a list of [i, j] integer pairs")
    for i, j in pairs:
        if not (0 <= i < inst.s and 0 <= j < inst.t):
            raise _ParseError(f"{path}: pair [{i}, {j}] out of range for a {inst.s}x{inst.t} instance")
    return Assignment(pairs=tuple((i, j) for i, j in pairs), total_cost=0)


def _dump_fixture(text: str, prefix: str) -> str:
    """Write an instance's canonical text to a file named by its digest."""
    name = f"{prefix}-{_sha12(text.encode())}.json"
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return name


def _gen_params(command: str, **kw) -> GenParams:
    try:
        return GenParams(**kw)
    except ValueError as exc:
        raise _UsageError(f"bmatch {command}: {exc}") from exc


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# --- subcommands -------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(args.instance)
    if args.algorithm in ("flow", "brute"):
        _reject_malformed(inst, args.instance)
    t0 = time.perf_counter()
    diagnostics: dict = {}
    try:
        if args.algorithm in ("ga", "lca"):
            solver = solve_ga if args.algorithm == "ga" else solve_lca
            assignment, report = solver(inst)
            diagnostics = dataclasses.asdict(report)
            del diagnostics["algorithm"], diagnostics["wall_time_ms"]
        elif args.algorithm == "flow":
            assignment = solve_flow_reference(inst)
        else:
            assignment = brute_force_optimum(inst)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise _ParseError(f"{args.instance}: {exc}") from exc
    except Exception as exc:
        name = _dump_fixture(instance_to_json(inst), "bmatch-internal")
        print(f"internal error: {type(exc).__name__}: {exc} (fixture: {name})", file=sys.stderr)
        return EXIT_INTERNAL
    wall_ms = (time.perf_counter() - t0) * 1000.0

    verdict = check_assignment(inst, assignment)
    if not verdict.feasible or verdict.recomputed_cost != assignment.total_cost:
        name = _dump_fixture(instance_to_json(inst), "bmatch-internal")
        print(
            f"internal error: solver output failed verification (fixture: {name})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    _emit(
        {
            "digest": instance_digest(inst),
            "algorithm": args.algorithm,
            "pairs": [list(p) for p in assignment.pairs],
            "total_cost": assignment.total_cost,
            "feasible": True,
            "diagnostics": diagnostics,
            "wall_ms": round(wall_ms, 3),
        }
    )
    log.info("solved %s with %s: cost %d in %.1f ms", args.instance, args.algorithm, assignment.total_cost, wall_ms)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(args.instance)
    _reject_malformed(inst, args.instance)
    assignment = _parse_assignment(args.assignment, inst)
    report = check_assignment(inst, assignment)
    _emit(
        {
            "feasible": report.feasible,
            "degree_violations": [
                {"vertex": v, "observed": d, "bounds": list(b)}
                for v, d, b in report.degree_violations
            ],
            "duplicate_pairs": [list(p) for p in report.duplicate_pairs],
            "recomputed_cost": report.recomputed_cost,
        }
    )
    if not report.feasible:
        for v, d, b in report.degree_violations:
            print(f"violation: {v} has degree {d}, bounds [{b[0]}, {b[1]}]", file=sys.stderr)
        for p in report.duplicate_pairs:
            print(f"violation: duplicate pair {list(p)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    log.info("assignment verified: cost %d", report.recomputed_cost)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    params = _gen_params(
        "gen",
        min_s=args.s,
        max_s=args.s,
        min_t=args.t,
        max_t=args.t,
        cost_max=args.cost_max,
        cap_max=args.cap_max,
        demands_one=args.demands_one,
    )
    inst = random_instance(params, random.Random(args.seed))
    text = instance_to_json(inst)
    print(text)
    log.info("generated %dx%d instance, digest %s", inst.s, inst.t, _sha12(text.encode()))
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise _UsageError(f"bmatch diff: --trials {args.trials} out of range: run at least 1 trial")
    params = _gen_params(
        "diff",
        max_s=args.max_s,
        max_t=args.max_t,
        cost_max=args.cost_max,
        cap_max=args.cap_max,
        demands_one=args.demands_one,
    )
    report = differential_test(params, args.trials, args.seed)
    for record in report.records:
        print(record.to_json())
        log.debug("trial %d digest %s agree=%s", record.trial, record.digest, record.agree)
    bad = report.disagreements
    for record in bad:
        name = _dump_fixture(record.fixture, "bmatch-diff-fixture")
        print(f"disagreement on trial {record.trial}: fixture {name}", file=sys.stderr)
    log.info("%d trials, %d disagreements", len(report.records), len(bad))
    return EXIT_INFEASIBLE if bad else EXIT_OK


def _bench_instance(algorithm: str, n: int, rng) -> Instance:
    if algorithm == "lca":
        cost = [[rng.randint(0, 1000) for _ in range(n)] for _ in range(n)]
        ones = [1] * n
        return Instance.from_lists(
            cost=cost, a_demand=ones, a_capacity=ones, b_demand=ones, b_capacity=ones
        )
    params = GenParams(
        min_s=n, max_s=n, min_t=n, max_t=n, cost_max=1000, cap_max=min(4, n)
    )
    return random_instance(params, rng)


def _cmd_bench(args: argparse.Namespace) -> int:
    import random

    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"--sizes expects a comma-separated integer list: {exc}") from exc
    if not sizes or any(n < 1 for n in sizes):
        raise _UsageError("--sizes expects positive sizes")
    solvers = {
        "ga": lambda i: solve_ga(i)[0],
        "lca": lambda i: solve_lca(i)[0],
        "flow": solve_flow_reference,
    }
    solver = solvers[args.algorithm]
    rng = random.Random(args.seed)
    points: list[tuple[int, float]] = []
    for n in sizes:
        inst = _bench_instance(args.algorithm, n, rng)
        t0 = time.perf_counter()
        assignment = solver(inst)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        points.append((n, wall_ms))
        _emit(
            {
                "kind": "measurement",
                "n": n,
                "algorithm": args.algorithm,
                "digest": instance_digest(inst),
                "total_cost": assignment.total_cost,
                "pairs": len(assignment.pairs),
                "wall_ms": round(wall_ms, 3),
            }
        )
        log.info("n=%d: %.1f ms", n, wall_ms)
    slope = None
    if len(points) >= 2 and len({n for n, _ in points}) >= 2:
        xs = np.log([n for n, _ in points])
        ys = np.log([max(ms, 1e-3) for _, ms in points])
        slope = round(float(np.polyfit(xs, ys, 1)[0]), 3)
    _emit(
        {
            "kind": "slope",
            "algorithm": args.algorithm,
            "log_log_slope": slope,
            "note": "informational only; cubic growth ~ 3, quartic ~ 4",
        }
    )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="bmatch", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--algorithm", choices=("ga", "lca", "flow", "brute"), default="ga")
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check an assignment file against an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--assignment", required=True, help="JSON file with a \"pairs\" list")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a random feasible instance")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost-max", type=int, default=9)
    p.add_argument("--cap-max", type=int, default=3)
    p.add_argument("--demands-one", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("diff", help="differential test across all solvers")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-s", type=int, default=3)
    p.add_argument("--max-t", type=int, default=3)
    p.add_argument("--cost-max", type=int, default=9)
    p.add_argument("--cap-max", type=int, default=3)
    p.add_argument("--demands-one", action="store_true")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("bench", help="wall-time sweep over a size list")
    p.add_argument("--algorithm", choices=("ga", "lca", "flow"), default="ga")
    p.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 50,100,200")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InternalSolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
