"""CLI tests: file round-trips, command dispatch, exit codes, determinism,
and the bench harness."""

from __future__ import annotations

import json

import pytest

from helpers import harmonic
from quantile_alloc import SolveReport, Allocation, chores, goods
from quantile_alloc.cli import (
    BoundViolationError,
    _check_bound,
    dispatch_solve,
    generate_instance,
    instance_to_doc,
    main,
    parse_allocation,
    parse_instance,
    report_to_doc,
    to_json,
)
from quantile_alloc.core import Quantile


GREEDY_DOC = {
    "kind": "goods",
    "agents": 2,
    "items": 4,
    "quantiles": ["1/2", "1/2"],
    "values": [[5, 4, 1, 0], [5, 1, 3, 2]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestFileRoundTrips:
    def test_instance_round_trip(self):
        inst = parse_instance(GREEDY_DOC)
        assert parse_instance(json.loads(to_json(instance_to_doc(inst)))) == inst

    def test_allocation_round_trip(self):
        report = SolveReport(Allocation((0, 0, 1, 1)), 6, "greedy_balanced_usw", True)
        doc = json.loads(to_json(report_to_doc(report)))
        alloc, meta = parse_allocation(doc)
        assert alloc == report.allocation
        assert meta == {"welfare": 6, "algorithm": "greedy_balanced_usw", "feasible": True}

    def test_missing_keys_rejected(self):
        with pytest.raises(Exception):
            parse_instance({"kind": "goods"})


class TestSolveCommand:
    def test_greedy_example(self, tmp_path, capsys):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        assert main(["solve", "-i", inst_file, "--objective", "usw", "--balanced"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["welfare"] == 6
        assert out["algorithm"] == "greedy_balanced_usw"
        assert out["owner"] == [0, 0, 1, 1]

    def test_intractable_quantile_exit_one(self, tmp_path, capsys):
        doc = dict(GREEDY_DOC, quantiles=["1/4", "1/4"])
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["solve", "-i", inst_file, "--objective", "esw"]) == 1
        assert "intractable quantile" in capsys.readouterr().err

    def test_unbalanced_divisibility_exit_two(self, tmp_path):
        doc = {
            "kind": "goods",
            "agents": 2,
            "items": 3,
            "quantiles": ["1/2", "1/2"],
            "values": [[1, 2, 3], [1, 2, 3]],
        }
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["solve", "-i", inst_file, "--objective", "usw", "--balanced"]) == 2

    def test_malformed_json_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "-i", str(bad), "--objective", "usw"]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["solve", "-i", str(tmp_path / "nope.json"), "--objective", "usw"]) == 2

    @pytest.mark.parametrize(
        "key, count", [("agents", True), ("agents", 2.0), ("items", False), ("items", 4.0)]
    )
    def test_non_integer_count_exit_two(self, tmp_path, capsys, key, count):
        inst_file = write_json(tmp_path / "inst.json", dict(GREEDY_DOC, **{key: count}))
        assert main(["solve", "-i", inst_file, "--objective", "usw"]) == 2
        assert f"'{key}' must be an integer" in capsys.readouterr().err

    def test_unknown_flag_exit_two(self, tmp_path, capsys):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        assert main(["solve", "-i", inst_file, "--objective", "nash"]) == 2
        capsys.readouterr()

    def test_auto_routes_to_optimistic(self, tmp_path, capsys):
        doc = dict(GREEDY_DOC, quantiles=["0/1", "1/1"])
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["solve", "-i", inst_file, "--objective", "usw"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["algorithm"] == "optimistic_exact_usw"

    def test_balanced_usc_unsupported(self, tmp_path):
        doc = {
            "kind": "chores",
            "agents": 2,
            "items": 2,
            "quantiles": ["0/1", "0/1"],
            "values": [[1, 2], [2, 1]],
        }
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["bench"]) == 2  # missing required flags
        assert main(["solve", "-i", inst_file, "--objective", "usc", "--balanced"]) == 1
        assert main(["solve", "-i", inst_file, "--objective", "usc"]) == 0

    def test_algorithm_objective_mismatch(self, tmp_path):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        assert main(["solve", "-i", inst_file, "--objective", "usw", "--algorithm", "setcover"]) == 1

    def test_explicit_family_must_match(self, tmp_path):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)  # tau = 1/2
        assert main(["solve", "-i", inst_file, "--objective", "esw", "--algorithm", "third"]) == 1
        assert main(["solve", "-i", inst_file, "--objective", "esw", "--algorithm", "frac"]) == 0

    def test_long_augmenting_paths(self, tmp_path, capsys):
        # Agent u values items u-1 and u: each agent's first choice is held by
        # its predecessor, so a matcher that walks the whole chain from every
        # agent takes quadratic time.  The augmenting paths stay short; the
        # long ones are in test_matching.py::TestDeadVertices.
        n = 1200
        values = [[1 if g in (u - 1, u) else 0 for g in range(n)] for u in range(n)]
        doc = {"kind": "goods", "agents": n, "items": n, "quantiles": ["1/1"] * n, "values": values}
        inst_file = write_json(tmp_path / "chain.json", doc)
        capsys.readouterr()
        assert main(["solve", "-i", inst_file, "--objective", "esw", "--algorithm", "tau1"]) == 0
        assert json.loads(capsys.readouterr().out)["welfare"] == 1


class TestSolveCheckRoundTrip:
    @pytest.mark.parametrize(
        "doc, objective, balanced",
        [
            (GREEDY_DOC, "usw", True),
            (GREEDY_DOC, "esw", True),
            (GREEDY_DOC, "esw", False),
            (dict(GREEDY_DOC, quantiles=["0/1", "1/1"]), "usw", False),
            (
                {
                    "kind": "chores",
                    "agents": 2,
                    "items": 4,
                    "quantiles": ["1/2", "1/2"],
                    "values": [[0, 0, 1, 1], [1, 1, 0, 0]],
                },
                "esc",
                True,
            ),
            (
                {
                    "kind": "chores",
                    "agents": 2,
                    "items": 3,
                    "quantiles": ["0/1", "0/1"],
                    "values": [[1, 1, 9], [9, 9, 2]],
                },
                "usc",
                False,
            ),
        ],
    )
    def test_solve_then_check(self, tmp_path, capsys, doc, objective, balanced):
        inst_file = write_json(tmp_path / "inst.json", doc)
        out_file = str(tmp_path / "alloc.json")
        flags = ["--objective", objective] + (["--balanced"] if balanced else [])
        assert main(["solve", "-i", inst_file, "-o", out_file] + flags) == 0
        assert main(["check", "-i", inst_file, "-a", out_file] + flags) == 0
        welfare = json.loads(open(out_file).read())["welfare"]
        assert int(capsys.readouterr().out.strip()) == welfare

    def test_check_rejects_bad_owner(self, tmp_path):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        alloc_file = write_json(tmp_path / "alloc.json", {"owner": [0, 0, 1, 2]})
        assert main(["check", "-i", inst_file, "-a", alloc_file, "--objective", "usw"]) == 2

    def test_check_rejects_short_allocation(self, tmp_path, capsys):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        alloc_file = write_json(tmp_path / "alloc.json", {"owner": [0, 0, 1]})
        assert main(["check", "-i", inst_file, "-a", alloc_file, "--objective", "usw"]) == 2
        assert "allocation covers 3 items, instance has 4" in capsys.readouterr().err

    def test_check_rejects_unbalanced(self, tmp_path):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        alloc_file = write_json(tmp_path / "alloc.json", {"owner": [0, 0, 0, 1]})
        assert (
            main(["check", "-i", inst_file, "-a", alloc_file, "--objective", "usw", "--balanced"])
            == 2
        )

    def test_check_rejects_welfare_mismatch(self, tmp_path):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        alloc_file = write_json(tmp_path / "alloc.json", {"owner": [0, 0, 1, 1], "welfare": 99})
        assert main(["check", "-i", inst_file, "-a", alloc_file, "--objective", "usw"]) == 2


class TestOracleCommand:
    def test_matches_solver_on_exact_instance(self, tmp_path, capsys):
        inst_file = write_json(tmp_path / "inst.json", GREEDY_DOC)
        assert main(["oracle", "-i", inst_file, "--objective", "esw", "--balanced"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["welfare"] == 2
        assert out["algorithm"] == "oracle"

    def test_budget_exceeded_exit_one(self, tmp_path, capsys):
        doc = {
            "kind": "goods",
            "agents": 4,
            "items": 12,
            "quantiles": ["1/2"] * 4,
            "values": [[1] * 12] * 4,
        }
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["oracle", "-i", inst_file, "--objective", "usw"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_two_by_forty_exit_one(self, tmp_path, capsys):
        doc = {
            "kind": "goods",
            "agents": 2,
            "items": 40,
            "quantiles": ["1/2"] * 2,
            "values": [[1] * 40] * 2,
        }
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["oracle", "-i", inst_file, "--objective", "usw"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_one_by_sixty_exit_zero(self, tmp_path, capsys):
        doc = {"kind": "goods", "agents": 1, "items": 60, "quantiles": ["1/2"], "values": [[1] * 60]}
        inst_file = write_json(tmp_path / "inst.json", doc)
        assert main(["oracle", "-i", inst_file, "--objective", "usw"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["welfare"] == 1
        assert out["owner"] == [0] * 60


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = ["gen", "--agents", "3", "--items", "5", "--tau", "1/2", "--seed", "7"]
        f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["-o", f1]) == 0
        assert main(args + ["-o", f2]) == 0
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_generated_instance_parses(self, tmp_path, capsys):
        assert main(["gen", "--agents", "2", "--items", "4", "--tau", "2/3", "--seed", "1"]) == 0
        inst = parse_instance(json.loads(capsys.readouterr().out))
        assert inst.n == 2 and inst.m == 4
        assert all(q == Quantile(2, 3) for q in inst.quantiles)

    def test_binary_identical(self, capsys):
        assert (
            main(
                [
                    "gen", "--agents", "3", "--items", "6", "--tau", "1/3",
                    "--seed", "5", "--binary", "--identical",
                ]
            )
            == 0
        )
        inst = parse_instance(json.loads(capsys.readouterr().out))
        assert inst.has_identical_rows()
        assert inst.is_binary

    def test_unreduced_tau_rejected(self, capsys):
        assert main(["gen", "--agents", "2", "--items", "2", "--tau", "3/3", "--seed", "0"]) == 2
        assert "lowest terms" in capsys.readouterr().err

    def test_hetero_taus(self, capsys):
        assert (
            main(
                [
                    "gen", "--agents", "2", "--items", "3",
                    "--hetero-taus", "0/1,1/1", "--seed", "2",
                ]
            )
            == 0
        )
        inst = parse_instance(json.loads(capsys.readouterr().out))
        assert [str(q) for q in inst.quantiles] == ["0/1", "1/1"]

    def test_hetero_taus_length_mismatch(self, capsys):
        assert (
            main(["gen", "--agents", "3", "--items", "3", "--hetero-taus", "0/1,1/1", "--seed", "2"])
            == 2
        )
        capsys.readouterr()

    def test_bad_max_value(self, capsys):
        assert main(["gen", "--agents", "1", "--items", "1", "--max-value", "0", "--seed", "0"]) == 2
        capsys.readouterr()


class TestBenchCommand:
    def run_bench(self, capsys, *extra):
        code = main(["bench", *extra])
        captured = capsys.readouterr()
        return code, captured.out

    def test_greedy_rows_and_summary(self, capsys):
        code, out = self.run_bench(
            capsys,
            "--trials", "25", "--seed", "100", "--agents", "2", "--items", "4",
            "--tau", "1/2", "--objective", "usw", "--balanced", "--algorithm", "greedy",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "seed,algorithm,objective,balanced,alg_value,opt_value,ratio,min_ratio,mean_ratio"
        )
        assert len(lines) == 27  # header + 25 trials + summary
        summary = lines[-1].split(",")
        assert summary[0] == "summary"
        # greedy guarantee at n=2, m=4: ratio >= 1 / min(k+1, n) = 1/2
        assert float(summary[7]) >= 0.5

    def test_exact_solver_ratio_exactly_one(self, capsys):
        code, out = self.run_bench(
            capsys,
            "--trials", "10", "--seed", "42", "--agents", "2", "--items", "4",
            "--tau", "1/2", "--objective", "esw", "--balanced",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:-1]:
            assert line.split(",")[6] == "1.000000"

    def test_deterministic_output(self, capsys):
        args = (
            "--trials", "8", "--seed", "3", "--agents", "3", "--items", "5",
            "--tau", "0/1", "--objective", "usw",
        )
        code1, out1 = self.run_bench(capsys, *args)
        code2, out2 = self.run_bench(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_scapegoat_bound_holds(self, capsys):
        code, out = self.run_bench(
            capsys,
            "--trials", "30", "--seed", "900", "--agents", "3", "--items", "5",
            "--tau", "0/1", "--objective", "usw", "--algorithm", "scapegoat",
        )
        assert code == 0
        summary = out.strip().splitlines()[-1].split(",")
        assert float(summary[7]) >= 2 / 3 - 1e-9


    @pytest.mark.parametrize("trials", ["0", "-3", "two"])
    def test_nonpositive_trials_exit_two(self, capsys, trials):
        code = main([
            "bench", "--trials", trials, "--agents", "2", "--items", "4", "--objective", "usw",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err

    @pytest.mark.parametrize("command", ["bench", "oracle"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_budget_exit_two(self, tmp_path, capsys, command, budget):
        if command == "bench":
            args = ["bench", "--trials", "1", "--agents", "2", "--items", "4"]
        else:
            args = ["oracle", "-i", write_json(tmp_path / "inst.json", GREEDY_DOC)]
        assert main([*args, "--objective", "usw", "--max-allocations", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-allocations" in captured.err


class TestCheckBound:
    # H_3 = 11/6, so an optimum of 6 allows a set-cover cost of exactly 11.
    INSTANCE = chores(["0/1"] * 2, [[1, 2, 3], [3, 2, 1]])

    def report(self, cost):
        return SolveReport(Allocation((0, 0, 0)), cost, "usc_tau0_setcover")

    def test_setcover_at_harmonic_bound_passes(self):
        assert harmonic(3) * 6 == 11
        _check_bound(self.INSTANCE, self.report(11), 6, seed=0)

    def test_setcover_one_above_harmonic_bound_raises(self):
        # ln 3 + 1 = 2.0986..., so the old float bound let a cost of 12 through.
        with pytest.raises(BoundViolationError, match="H_m"):
            _check_bound(self.INSTANCE, self.report(12), 6, seed=7)


class TestDispatchTable:
    def test_identical_algorithm_for_esw(self):
        inst = goods(["1/2"] * 2, [[1, 1, 0, 0]] * 2)
        report = dispatch_solve(inst, "esw", False, "identical")
        assert report.algorithm == "identical_unbalanced_esw"

    def test_generate_instance_identical_flag(self):
        inst = generate_instance(
            3, 4, [Quantile(1, 2)] * 3, "goods", 9, seed=11, identical=True
        )
        assert inst.has_identical_rows()

    def test_generate_instance_seed_sensitivity(self):
        a = generate_instance(2, 5, [Quantile(1, 2)] * 2, "goods", 9, seed=1)
        b = generate_instance(2, 5, [Quantile(1, 2)] * 2, "goods", 9, seed=2)
        assert a != b
