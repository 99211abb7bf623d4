"""Command-line harness: exit codes, output contracts, composability."""

import dataclasses
import json
import logging
import os
import subprocess
import sys

import pytest

from bmatch import Instance, InternalSolverError, oracles, instance_digest, instance_to_json, solve_ga
from bmatch.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main


def inst(c, ad, ac, bd, bc):
    return Instance.from_lists(cost=c, a_demand=ad, a_capacity=ac, b_demand=bd, b_capacity=bc)


SOLVABLE = inst([[3], [4]], [1, 1], [1, 1], [1], [2])
UNIT = inst([[1, 10], [10, 1]], [1, 1], [2, 2], [1, 1], [1, 1])
INFEASIBLE = inst([[1]], [1], [1], [0], [0])


@pytest.fixture
def instance_file(tmp_path):
    def write(instance, name="instance.json"):
        path = tmp_path / name
        path.write_text(instance_to_json(instance) + "\n")
        return str(path)

    return write


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "bmatch", *argv],
        capture_output=True,
        text=True,
    )
    return proc


class TestSolve:
    @pytest.mark.parametrize("algorithm", ["ga", "lca", "flow", "brute"])
    def test_every_algorithm_solves_unit_instance(self, algorithm, instance_file, capsys):
        path = instance_file(UNIT)
        assert main(["solve", "--algorithm", algorithm, path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["algorithm"] == algorithm
        assert out["total_cost"] == 2
        assert out["feasible"] is True
        assert out["digest"] == instance_digest(UNIT)
        assert sorted(map(tuple, out["pairs"])) == [(0, 0), (1, 1)]
        assert out["wall_ms"] >= 0

    @pytest.mark.parametrize("algorithm", ["ga", "flow"])
    def test_pretty_printed_copy_solves_alike(self, algorithm, instance_file, tmp_path, capsys):
        # The canonical file's digest is read from its bytes; the pretty copy's is encoded.
        fixture = inst([[4, 1, 3], [2, 0, 5]], [1, 0], [2, 2], [0, 1, 0], [1, 2, 1])
        canonical = instance_file(fixture)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(instance_to_json(fixture)), indent=4) + "\n")
        outs = []
        for path in (canonical, str(pretty)):
            assert main(["solve", "--algorithm", algorithm, path]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            del out["wall_ms"]
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0]["digest"] == instance_digest(fixture)

    def test_diagnostics_carry_the_certificate(self, instance_file, capsys):
        path = instance_file(SOLVABLE)
        assert main(["solve", path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        d = out["diagnostics"]
        assert d["dual_objective"] == out["total_cost"] == 7
        # The column start gives column 0 its cheapest row, 0, and phase 1
        # places row 1's unit.
        assert (d["warm_start_pairs"], d["phase1_augmentations"], d["phase2_augmentations"]) == (1, 1, 1)
        assert d["dual_updates"] >= 0 and d["pruned_pairs"] >= 0

    def test_diagnostics_count_warm_start_pairs(self, instance_file, capsys):
        # Every bound 1: the warm start places both pairs, and they still
        # count as phase-1 augmentations.  SOLVABLE has a capacity-2 column,
        # so the column start places its one pair, a phase-2 unit, and a
        # phase-1 search places the other.
        one_to_one = inst([[1, 10], [10, 1]], [1, 1], [1, 1], [1, 1], [1, 1])
        for fixture, counts in ((one_to_one, (2, 2, 0)), (SOLVABLE, (1, 1, 1))):
            assert main(["solve", instance_file(fixture)]) == EXIT_OK
            d = json.loads(capsys.readouterr().out)["diagnostics"]
            assert (d["warm_start_pairs"], d["phase1_augmentations"], d["phase2_augmentations"]) == counts

    def test_flow_has_no_phase_diagnostics(self, instance_file, capsys):
        path = instance_file(SOLVABLE)
        assert main(["solve", "--algorithm", "flow", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["diagnostics"] == {}

    def test_infeasible_instance_exits_2(self, instance_file, capsys):
        path = instance_file(INFEASIBLE)
        assert main(["solve", path]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "infeasible" in err

    @pytest.mark.parametrize("algorithm", ["ga", "lca", "flow", "brute"])
    def test_demand_above_capacity_exits_2(self, algorithm, instance_file, tmp_path, monkeypatch, capsys):
        # Row 0 demands 3 of a capacity of 2: every algorithm calls it
        # infeasible on one line, and none dumps a fixture.
        monkeypatch.chdir(tmp_path)
        path = instance_file(inst([[3, 0, 5], [2, 7, 1]], [3, 0], [2, 1], [0, 1, 0], [1, 2, 1]))
        assert main(["solve", "--algorithm", algorithm, path]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("bmatch-internal-*.json"))

    def test_lca_on_nonunit_demands_is_a_usage_error(self, instance_file):
        path = instance_file(inst([[5, 7]], [2], [2], [0, 0], [1, 1]))
        assert main(["solve", "--algorithm", "lca", path]) == EXIT_USAGE

    def test_cost_outside_int64_domain_is_a_usage_error(self, instance_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = instance_file(inst([[2**63]], [1], [1], [1], [1]))
        assert main(["solve", path]) == EXIT_USAGE
        assert "overflow" in capsys.readouterr().err
        assert not list(tmp_path.glob("bmatch-internal-*.json"))

    def test_internal_failure_dumps_fixture_and_exits_3(
        self, instance_file, capsys, monkeypatch, tmp_path
    ):
        path = instance_file(SOLVABLE)
        monkeypatch.chdir(tmp_path)

        def boom(instance):
            raise RuntimeError("forced failure")

        monkeypatch.setattr("bmatch.cli.solve_ga", boom)
        assert main(["solve", path]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error" in err and "fixture" in err
        dumps = list(tmp_path.glob("bmatch-internal-*.json"))
        assert len(dumps) == 1
        assert json.loads(dumps[0].read_text())["cost"] == [[3], [4]]
        assert dumps[0].name == f"bmatch-internal-{instance_digest(SOLVABLE)}.json"

    def test_unpruned_output_is_an_internal_error(self, instance_file, capsys, monkeypatch, tmp_path):
        # The column start gives column 0 row 0, and row 1's unit then
        # parks at column 0.  Without the cleanup, pair (0, 0) stays above
        # demand on both of its sides; the solver's output check must call
        # that a fault.
        fixture = inst([[0], [2]], [0, 1], [1, 1], [1], [2])
        path = instance_file(fixture)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("bmatch.solver._prune_unneeded_pairs", lambda state: 0)
        with pytest.raises(InternalSolverError, match=r"pair \(0, 0\) is above demand on both sides"):
            solve_ga(fixture)
        assert main(["solve", path]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err
        assert len(list(tmp_path.glob("bmatch-internal-*.json"))) == 1

    def test_lying_solver_is_caught_by_verification(
        self, instance_file, capsys, monkeypatch, tmp_path
    ):
        path = instance_file(SOLVABLE)
        monkeypatch.chdir(tmp_path)
        from bmatch import Assignment, SolveReport

        # warm_start_pairs is left at its default of 0.
        fake_report = SolveReport(
            algorithm="ga", phase1_augmentations=0, phase2_augmentations=0, dual_updates=0,
            dual_objective=0, pruned_pairs=0, wall_time_ms=0.0,
        )

        def liar(instance):
            return Assignment(pairs=((0, 0),), total_cost=3), fake_report

        monkeypatch.setattr("bmatch.cli.solve_ga", liar)
        assert main(["solve", path]) == EXIT_INTERNAL
        assert "failed verification" in capsys.readouterr().err
        assert list(tmp_path.glob("bmatch-internal-*.json"))


class TestVerify:
    def test_good_assignment(self, instance_file, tmp_path, capsys):
        path = instance_file(SOLVABLE)
        asg = tmp_path / "asg.json"
        asg.write_text(json.dumps({"pairs": [[0, 0], [1, 0]]}))
        assert main(["verify", path, "--assignment", str(asg)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True
        assert out["recomputed_cost"] == 7

    def test_violations_exit_2_with_details(self, instance_file, tmp_path, capsys):
        path = instance_file(SOLVABLE)
        asg = tmp_path / "asg.json"
        asg.write_text(json.dumps({"pairs": [[0, 0]]}))
        assert main(["verify", path, "--assignment", str(asg)]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["feasible"] is False
        assert {"vertex": "a1", "observed": 0, "bounds": [1, 1]} in out["degree_violations"]
        assert "violation: a1" in captured.err

    def test_duplicated_pair_exits_2_and_is_named(self, instance_file, tmp_path, capsys):
        path = instance_file(inst([[1, 2]], [0], [2], [0, 0], [2, 2]))
        asg = tmp_path / "asg.json"
        asg.write_text(json.dumps({"pairs": [[0, 1], [0, 1]]}))
        assert main(["verify", path, "--assignment", str(asg)]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["feasible"] is False
        assert out["duplicate_pairs"] == [[0, 1]]
        assert out["recomputed_cost"] == 4
        assert captured.err.splitlines() == ["violation: duplicate pair [0, 1]"]

    def test_solve_output_feeds_verify(self, instance_file, tmp_path, capsys):
        path = instance_file(UNIT)
        assert main(["solve", path]) == EXIT_OK
        solved = json.loads(capsys.readouterr().out)
        asg = tmp_path / "solved.json"
        asg.write_text(json.dumps(solved))  # full RunResult object also has "pairs"
        assert main(["verify", path, "--assignment", str(asg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["recomputed_cost"] == solved["total_cost"]

    def test_bad_assignment_payloads_are_usage_errors(self, instance_file, tmp_path):
        path = instance_file(SOLVABLE)
        payloads = ('["not", "an", "object"]', '{"pairs": [[0]]}', '{"pairs": [[0, 9]]}', '{"pairs": [[true, 0]]}')
        for payload in payloads:
            asg = tmp_path / "bad.json"
            asg.write_text(payload)
            assert main(["verify", path, "--assignment", str(asg)]) == EXIT_USAGE


# Every command that reads an instance file; verify reads its assignment
# from the working directory.
COMMANDS = {
    "ga": ["solve", "--algorithm", "ga"],
    "lca": ["solve", "--algorithm", "lca"],
    "flow": ["solve", "--algorithm", "flow"],
    "brute": ["solve", "--algorithm", "brute"],
    "verify": ["verify", "--assignment", "diagonal.json"],
}


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
def test_each_command_validates_the_instance_once(command, instance_file, tmp_path, monkeypatch, capsys):
    (tmp_path / "diagonal.json").write_text('{"pairs": [[0, 0], [1, 1]]}')
    monkeypatch.chdir(tmp_path)
    calls = []
    original = sys.modules["bmatch.model"].validate_instance

    def counted(instance):
        calls.append(instance)
        return original(instance)

    for name, module in list(sys.modules.items()):
        if (name == "bmatch" or name.startswith("bmatch.")) and "validate_instance" in vars(module):
            monkeypatch.setattr(module, "validate_instance", counted)
    assert main([*command, instance_file(UNIT)]) == EXIT_OK
    assert len(calls) == 1


def test_verify_prices_the_pairs_once(instance_file, tmp_path, monkeypatch, capsys):
    (tmp_path / "diagonal.json").write_text('{"pairs": [[0, 0], [1, 1]]}')
    monkeypatch.chdir(tmp_path)
    calls = []
    original = sys.modules["bmatch.model"]._pair_cost

    def counted(instance, pairs):
        calls.append(pairs)
        return original(instance, pairs)

    for name, module in list(sys.modules.items()):
        if (name == "bmatch" or name.startswith("bmatch.")) and "_pair_cost" in vars(module):
            monkeypatch.setattr(module, "_pair_cost", counted)
    assert main(["verify", instance_file(UNIT), "--assignment", "diagonal.json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["recomputed_cost"] == 2
    assert len(calls) == 1


class TestGen:
    def test_byte_reproducible(self, capsys):
        assert main(["gen", "--s", "3", "--t", "2", "--seed", "9"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["gen", "--s", "3", "--t", "2", "--seed", "9"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_output_is_a_feasible_instance_of_the_requested_shape(self, capsys):
        from bmatch import instance_from_json
        from bmatch.oracles import feasibility_check

        assert main(["gen", "--s", "4", "--t", "2", "--seed", "1"]) == EXIT_OK
        generated = instance_from_json(capsys.readouterr().out)
        assert (generated.s, generated.t) == (4, 2)
        ok, _ = feasibility_check(generated)
        assert ok

    def test_demands_one(self, capsys):
        from bmatch import instance_from_json

        assert main(["gen", "--s", "3", "--t", "3", "--seed", "2", "--demands-one"]) == EXIT_OK
        generated = instance_from_json(capsys.readouterr().out)
        assert set(generated.a_demand) == {1} and set(generated.b_demand) == {1}

    def test_info_log_names_the_digest_of_the_printed_text(self, capsys, caplog):
        from bmatch import instance_from_json

        with caplog.at_level(logging.INFO, logger="bmatch.cli"):
            assert main(["gen", "--s", "3", "--t", "4", "--seed", "8"]) == EXIT_OK
        digest = instance_digest(instance_from_json(capsys.readouterr().out))
        assert f"generated 3x4 instance, digest {digest}" in caplog.messages

    def test_gen_feeds_solve(self, tmp_path, capsys):
        assert main(["gen", "--s", "3", "--t", "3", "--seed", "5"]) == EXIT_OK
        path = tmp_path / "gen.json"
        path.write_text(capsys.readouterr().out)
        assert main(["solve", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["feasible"] is True


class TestDiff:
    def test_disagreement_exits_2_and_dumps_the_fixture(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        reference = oracles.solve_flow_reference

        def off_by_one(instance):
            answer = reference(instance)
            return dataclasses.replace(answer, total_cost=answer.total_cost + 1)

        monkeypatch.setattr(oracles, "solve_flow_reference", off_by_one)
        assert main(["diff", "--trials", "1", "--seed", "7"]) == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert record["agree"] is False
        name = f"bmatch-diff-fixture-{record['digest']}.json"
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text() == record["fixture"] + "\n"
        assert err == f"disagreement on trial 0: fixture {name}\n"

    def test_agreeing_run_exits_0(self, capsys):
        assert main(["diff", "--trials", "20", "--seed", "7"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            record = json.loads(line)
            assert record["agree"] is True and record["fixture"] is None

    def test_deterministic(self, capsys):
        assert main(["diff", "--trials", "10", "--seed", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["diff", "--trials", "10", "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_demands_one_runs_the_unit_solver(self, capsys):
        assert main(["diff", "--trials", "8", "--seed", "1", "--demands-one"]) == EXIT_OK
        for line in capsys.readouterr().out.strip().splitlines():
            assert "lca" in json.loads(line)["costs"]


class TestBench:
    def test_measurements_and_slope(self, capsys):
        assert main(["bench", "--sizes", "6,10", "--seed", "4"]) == EXIT_OK
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        kinds = [x["kind"] for x in lines]
        assert kinds == ["measurement", "measurement", "slope"]
        assert lines[0]["n"] == 6 and lines[1]["n"] == 10
        assert "informational" in lines[2]["note"]
        assert isinstance(lines[2]["log_log_slope"], float)

    def test_single_size_reports_null_slope(self, capsys):
        assert main(["bench", "--algorithm", "lca", "--sizes", "12"]) == EXIT_OK
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        assert lines[-1]["log_log_slope"] is None

    def test_bad_size_list_is_a_usage_error(self):
        assert main(["bench", "--sizes", "ten"]) == EXIT_USAGE
        assert main(["bench", "--sizes", "0"]) == EXIT_USAGE


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_file_exits_1_without_a_traceback(self, command, instance_file, tmp_path):
        # A second input nests too deep for the JSON decoder.
        for content, message in [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ]:
            bad = tmp_path / "bad.json"
            bad.write_bytes(content)
            argv = ["solve", str(bad)] if command == "solve" else ["verify", instance_file(SOLVABLE), "--assignment", str(bad)]
            proc = run_cli(*argv)
            assert proc.returncode == EXIT_USAGE
            assert "Traceback" not in proc.stderr
            assert proc.stderr.splitlines() == [f"error: {bad}: {message}"]

    def test_missing_file(self, capsys):
        assert main(["solve", "/no/such/file.json"]) == EXIT_USAGE
        assert "file.json" in capsys.readouterr().err

    def test_missing_key_is_named(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"cost": [[1]], "a_demand": [0], "a_capacity": [1], "b_demand": [0]}')
        assert main(["solve", str(path)]) == EXIT_USAGE
        assert "b_capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS)
    def test_ragged_cost_matrix(self, command, tmp_path, monkeypatch, capsys):
        (tmp_path / "diagonal.json").write_text('{"pairs": [[0, 0], [1, 1]]}')
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({
            "s": 2, "t": 2, "cost": [[1, 2], [3]],
            "a_demand": [0, 0], "a_capacity": [1, 1],
            "b_demand": [0, 0], "b_capacity": [1, 1],
        }))
        assert main([*command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "shape" in err
        assert not list(tmp_path.glob("bmatch-internal-*.json"))

    @pytest.mark.parametrize("argv", [
        ["gen", "--s", "0", "--t", "2"],
        ["gen", "--s", "3", "--t", "2", "--cap-max", "0"],
        ["gen", "--s", "3", "--t", "2", "--cost-max", "-1"],
        ["diff", "--trials", "3", "--max-s", "0"],
        ["diff", "--trials", "3", "--cap-max", "0"],
        ["diff", "--trials", "3", "--cost-max", "-1"],
        # No trial run is no check at all, not a pass.
        ["diff", "--trials", "0"],
        ["diff", "--trials", "-3"],
    ])
    def test_out_of_range_generator_flags(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "out of range" in err

    def test_unknown_flag(self):
        assert main(["solve", "--frobnicate", "x.json"]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE


class TestProcessEntryPoints:
    """True subprocess runs: module entry point, env handling, streams."""

    def test_module_invocation(self, instance_file):
        proc = run_cli("solve", instance_file(SOLVABLE))
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["total_cost"] == 7
        assert proc.stderr == ""

    def test_gap_log_info_goes_to_stderr(self, instance_file):
        proc = subprocess.run(
            [sys.executable, "-m", "bmatch", "solve", instance_file(SOLVABLE)],
            capture_output=True, text=True, env={**os.environ, "GAP_LOG": "info"},
        )
        assert proc.returncode == EXIT_OK
        assert "cost 7" in proc.stderr
        json.loads(proc.stdout)  # stdout still pure JSON

    def test_unknown_gap_log_warns_and_proceeds(self, instance_file):
        proc = subprocess.run(
            [sys.executable, "-m", "bmatch", "solve", instance_file(SOLVABLE)],
            capture_output=True, text=True, env={**os.environ, "GAP_LOG": "blaring"},
        )
        assert proc.returncode == EXIT_OK
        assert "unknown GAP_LOG" in proc.stderr

    def test_usage_error_exits_1(self):
        proc = run_cli("solve")
        assert proc.returncode == EXIT_USAGE
        assert "usage" in proc.stderr.lower()
