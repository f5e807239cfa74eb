"""Acceptance suite.

Each test certifies one release criterion at its stated tolerance (exact
integer equality unless noted) against the exhaustive oracle, and prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete.
"""

from __future__ import annotations

import json
import random
import time
import zlib

from helpers import (
    ALL_TAUS,
    harmonic,
    random_allocation,
    random_bipartite,
    random_graph,
    random_instance,
)
from quantile_alloc import (
    balanced_esc,
    balanced_esw,
    brute_matching,
    esc_tau0,
    esc_tau1,
    esw,
    greedy_balanced_usw,
    identical_binary_usw_unbalanced,
    identical_unbalanced_esw,
    max_cardinality_bipartite,
    max_weight_bipartite,
    max_weight_general,
    opt_welfare,
    optimistic_exact_usw,
    scapegoat_usw,
    threshold_binary,
    unbalanced_esw_binary_frac,
    unbalanced_esw_binary_tau0,
    unbalanced_esw_binary_tau1,
    unbalanced_esw_binary_third,
    usc_tau0_setcover,
)
from quantile_alloc.cli import main

SEED_BASE = 20260808


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def esw_one_exists(instance) -> bool:
    return opt_welfare(instance, "esw")[0] >= 1


def frac_invariant_holds(instance, allocation, t) -> bool:
    for i, bundle in enumerate(allocation.bundles(instance.n)):
        ones = sum(1 for g in bundle if instance.values[i][g] == 1)
        if len(bundle) - ones > t * ones - 1:
            return False
    return True


def third_invariant_holds(instance, allocation) -> bool:
    for i, bundle in enumerate(allocation.bundles(instance.n)):
        ones = sum(1 for g in bundle if instance.values[i][g] == 1)
        if ones < 2 * (len(bundle) - ones) + 1:
            return False
    return True


def test_c1_exact_solver_equivalence():
    """Seven exact solvers agree with the oracle on 500 seeded instances each."""
    start = time.monotonic()
    per_solver = 500
    violations: list[str] = []

    def run(tag, make_instance_fn, solver, objective, balanced):
        rng = random.Random(SEED_BASE + zlib.crc32(tag.encode()))
        for trial in range(per_solver):
            inst = make_instance_fn(rng)
            report = solver(inst)
            opt = opt_welfare(inst, objective, balanced=balanced)[0]
            if report.welfare != opt:
                violations.append(f"{tag} trial {trial}: {report.welfare} != {opt}")
            if balanced and not report.allocation.is_balanced(inst.n):
                violations.append(f"{tag} trial {trial}: unbalanced output")

    def balanced_inst(kind):
        def make(rng):
            n = rng.choice([2, 3])
            k = rng.randint(1, 4 if n == 2 else 2)
            return random_instance(rng, n, n * k, kind=kind)

        return make

    def optimist_inst(rng):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        taus = [rng.choice(ALL_TAUS) for _ in range(n)]
        taus[rng.randrange(n)] = "1/1"
        return random_instance(rng, n, m, taus=taus)

    def identical_goods(rng):
        return random_instance(
            rng, rng.randint(1, 3), rng.randint(1, 8), identical=True, homogeneous=True
        )

    def identical_binary(rng):
        return random_instance(
            rng, rng.randint(1, 3), rng.randint(1, 8),
            binary=True, identical=True, homogeneous=True,
        )

    def chores_tau(tau):
        def make(rng):
            n = rng.randint(1, 3)
            m = rng.randint(1, 8)
            return random_instance(rng, n, m, kind="chores", taus=[tau] * n)

        return make

    run("balanced_esw", balanced_inst("goods"), balanced_esw, "esw", True)
    run("balanced_esc", balanced_inst("chores"), balanced_esc, "esc", True)
    run("optimistic_exact_usw", optimist_inst, optimistic_exact_usw, "usw", False)
    run("identical_unbalanced_esw", identical_goods, identical_unbalanced_esw, "esw", False)
    run(
        "identical_binary_usw_unbalanced",
        identical_binary,
        identical_binary_usw_unbalanced,
        "usw",
        False,
    )
    run("esc_tau0", chores_tau("0/1"), esc_tau0, "esc", False)
    run("esc_tau1", chores_tau("1/1"), esc_tau1, "esc", False)

    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300
    report_line(
        "1 exact-solver equivalence",
        ok,
        f"7 solvers x {per_solver} instances, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 300, f"criterion 1 exceeded its 5 minute budget: {elapsed:.1f}s"


def test_c2_quantile_family_decisions():
    """Binary unbalanced deciders match the oracle's ESW {0,1} for every
    tractable quantile."""
    start = time.monotonic()
    per_tau = 500
    solvers = {
        "0/1": unbalanced_esw_binary_tau0,
        "1/3": unbalanced_esw_binary_third,
        "1/2": lambda inst: unbalanced_esw_binary_frac(inst, 1),
        "2/3": lambda inst: unbalanced_esw_binary_frac(inst, 2),
        "3/4": lambda inst: unbalanced_esw_binary_frac(inst, 3),
        "1/1": unbalanced_esw_binary_tau1,
    }
    violations: list[str] = []
    for tau, solver in solvers.items():
        rng = random.Random(SEED_BASE + zlib.crc32(tau.encode()))
        for trial in range(per_tau):
            n = rng.randint(1, 3)
            m = rng.randint(1, 8)
            inst = random_instance(rng, n, m, binary=True, taus=[tau] * n)
            report = solver(inst)
            expected = esw_one_exists(inst)
            if report.feasible != expected or report.welfare != (1 if expected else 0):
                violations.append(f"tau {tau} trial {trial}")
    elapsed = time.monotonic() - start
    report_line(
        "2 quantile-family ESW decisions",
        not violations,
        f"6 quantiles x {per_tau} binary instances, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]


def test_c3_greedy_bound():
    """Greedy balanced welfare times min(m/n + 1, n) covers the balanced
    optimum, with zero violations."""
    start = time.monotonic()
    trials = 500
    rng = random.Random(SEED_BASE + 3)
    violations = 0
    for _ in range(trials):
        n = rng.choice([2, 3])
        m = rng.choice([m for m in (4, 6, 8, 9) if m % n == 0])
        inst = random_instance(rng, n, m)
        report = greedy_balanced_usw(inst)
        opt = opt_welfare(inst, "usw", balanced=True)[0]
        if report.welfare * min(m // n + 1, n) < opt or not report.allocation.is_balanced(n):
            violations += 1
    elapsed = time.monotonic() - start
    report_line(
        "3 greedy bound", violations == 0, f"{trials} instances, {violations} violations, {elapsed:.1f}s"
    )
    assert violations == 0


def test_c4_scapegoat_bound_and_witness():
    """n * scapegoat welfare covers (n-1) * optimum on every trial, and some
    seed exhibits strict suboptimality."""
    start = time.monotonic()
    trials = 500
    rng = random.Random(SEED_BASE + 4)
    violations = 0
    witness: tuple[int, int, int] | None = None
    for trial in range(trials):
        n = rng.choice([2, 3, 4])
        m = rng.randint(1, 7)
        inst = random_instance(rng, n, m)
        report = scapegoat_usw(inst)
        opt = opt_welfare(inst, "usw")[0]
        if n * report.welfare < (n - 1) * opt:
            violations += 1
        if witness is None and report.welfare < opt:
            witness = (trial, report.welfare, opt)
    elapsed = time.monotonic() - start
    ok = violations == 0 and witness is not None
    detail = f"{trials} instances, {violations} violations"
    if witness:
        detail += f", strict-suboptimality witness at trial {witness[0]} ({witness[1]} < {witness[2]})"
    report_line("4 scapegoat bound", ok, detail + f", {elapsed:.1f}s")
    assert violations == 0
    assert witness is not None, "no trial showed scapegoat strictly below the optimum"


def test_c5_setcover_bound():
    """Greedy cover cost stays within H_m = 1 + 1/2 + ... + 1/m of the optimal
    cost (Chvatal 1979), checked in exact rationals."""
    start = time.monotonic()
    trials = 300
    rng = random.Random(SEED_BASE + 5)
    violations = 0
    for _ in range(trials):
        n = rng.randint(1, 3)
        m = rng.randint(1, 7)
        inst = random_instance(rng, n, m, kind="chores", taus=["0/1"] * n)
        report = usc_tau0_setcover(inst)
        opt = opt_welfare(inst, "usc")[0]
        if report.welfare > harmonic(m) * opt:
            violations += 1
    elapsed = time.monotonic() - start
    report_line(
        "5 set-cover USC bound",
        violations == 0,
        f"{trials} instances, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_c6_matching_engine():
    """Weighted and cardinality matchings agree exactly with brute force on
    1000 general plus 1000 bipartite random graphs."""
    start = time.monotonic()
    violations = 0
    rng = random.Random(SEED_BASE + 6)
    for _ in range(1000):
        graph = random_graph(rng, max_vertices=10, max_edges=15, max_weight=20)
        if max_weight_general(graph).weight != brute_matching(graph, weighted=True).weight:
            violations += 1
    rng = random.Random(SEED_BASE + 66)
    for _ in range(1000):
        graph = random_bipartite(rng, max_side=5, max_edges=15, max_weight=20)
        if max_weight_bipartite(graph).weight != brute_matching(graph, weighted=True).weight:
            violations += 1
        if max_cardinality_bipartite(graph).size != brute_matching(graph, weighted=False).size:
            violations += 1
    elapsed = time.monotonic() - start
    report_line(
        "6 matching engine",
        violations == 0,
        f"2000 graphs, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_c7_threshold_equivalence():
    """esw >= nu under the original values iff esw == 1 after thresholding,
    on 1000 (instance, allocation, nu) triples with non-empty bundles."""
    start = time.monotonic()
    rng = random.Random(SEED_BASE + 7)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        m = rng.randint(n, 6)
        inst = random_instance(rng, n, m)
        alloc = random_allocation(rng, n, m, nonempty=True)
        nu = rng.randint(1, 10)
        if (esw(inst, alloc) >= nu) != (esw(threshold_binary(inst, nu), alloc) == 1):
            violations += 1
    elapsed = time.monotonic() - start
    report_line(
        "7 threshold equivalence", violations == 0, f"1000 triples, {violations} violations, {elapsed:.1f}s"
    )
    assert violations == 0


def test_c8_structural_invariants():
    """Success-path outputs satisfy their counting invariants: at most
    t*ones - 1 zeros per agent for the t/(t+1) decider, at least
    2*zeros + 1 ones for the 1/3 decider, and balanced solvers emit balanced
    allocations."""
    start = time.monotonic()
    violations = 0
    for t in (1, 2, 3):
        rng = random.Random(SEED_BASE + 80 + t)
        tau = f"{t}/{t + 1}"
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 8)
            inst = random_instance(rng, n, m, binary=True, taus=[tau] * n)
            report = unbalanced_esw_binary_frac(inst, t)
            if report.feasible and not frac_invariant_holds(inst, report.allocation, t):
                violations += 1
    rng = random.Random(SEED_BASE + 88)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 8)
        inst = random_instance(rng, n, m, binary=True, taus=["1/3"] * n)
        report = unbalanced_esw_binary_third(inst)
        if report.feasible and not third_invariant_holds(inst, report.allocation):
            violations += 1
    rng = random.Random(SEED_BASE + 89)
    for _ in range(200):
        n = rng.choice([2, 3])
        k = rng.randint(1, 2)
        goods_inst = random_instance(rng, n, n * k)
        chores_inst = random_instance(rng, n, n * k, kind="chores")
        if not balanced_esw(goods_inst).allocation.is_balanced(n):
            violations += 1
        if not balanced_esc(chores_inst).allocation.is_balanced(n):
            violations += 1
        if not greedy_balanced_usw(goods_inst).allocation.is_balanced(n):
            violations += 1
    elapsed = time.monotonic() - start
    report_line(
        "8 structural invariants",
        violations == 0,
        f"1400 solver runs, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_c9_cli_round_trips(tmp_path, capsys):
    """solve/check welfare agreement per objective, byte-exact gen
    determinism, and bench summary bounds on pinned seeds."""
    start = time.monotonic()

    def run(args):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out

    failures: list[str] = []

    # solve -> check for every objective on generated instances.
    cases = [
        (["gen", "--agents", "2", "--items", "4", "--tau", "1/2", "--seed", "11"], "usw", True),
        (["gen", "--agents", "2", "--items", "4", "--tau", "1/2", "--seed", "12"], "esw", True),
        (["gen", "--agents", "2", "--items", "5", "--tau", "2/3", "--seed", "13"], "esw", False),
        (
            ["gen", "--agents", "2", "--items", "5", "--tau", "0/1", "--kind", "chores", "--seed", "14"],
            "usc",
            False,
        ),
        (
            ["gen", "--agents", "2", "--items", "4", "--tau", "1/2", "--kind", "chores", "--seed", "15"],
            "esc",
            True,
        ),
        (
            ["gen", "--agents", "2", "--items", "4", "--tau", "1/1", "--kind", "chores", "--seed", "16"],
            "esc",
            False,
        ),
    ]
    for idx, (gen_args, objective, balanced) in enumerate(cases):
        inst_file = str(tmp_path / f"inst{idx}.json")
        alloc_file = str(tmp_path / f"alloc{idx}.json")
        code, _ = run(gen_args + ["-o", inst_file])
        if code != 0:
            failures.append(f"gen failed for case {idx}")
            continue
        flags = ["--objective", objective] + (["--balanced"] if balanced else [])
        code, _ = run(["solve", "-i", inst_file, "-o", alloc_file] + flags)
        if code != 0:
            failures.append(f"solve failed for case {idx}")
            continue
        code, out = run(["check", "-i", inst_file, "-a", alloc_file] + flags)
        stored = json.load(open(alloc_file))["welfare"]
        if code != 0 or int(out.strip()) != stored:
            failures.append(f"check disagreed for case {idx}")

    # gen determinism, byte for byte.
    f1, f2 = str(tmp_path / "g1.json"), str(tmp_path / "g2.json")
    gen_args = ["gen", "--agents", "3", "--items", "6", "--tau", "2/3", "--seed", "77"]
    run(gen_args + ["-o", f1])
    run(gen_args + ["-o", f2])
    if open(f1, "rb").read() != open(f2, "rb").read():
        failures.append("gen output not byte-identical across runs")

    # bench bounds on pinned seeds (the command itself aborts on violations).
    code, out = run(
        [
            "bench", "--trials", "100", "--seed", "500", "--agents", "2", "--items", "4",
            "--tau", "1/2", "--objective", "usw", "--balanced", "--algorithm", "greedy",
        ]
    )
    min_ratio = float(out.strip().splitlines()[-1].split(",")[7])
    if code != 0 or min_ratio < 0.5:
        failures.append(f"greedy bench min ratio {min_ratio} below 1/2")

    code, out = run(
        [
            "bench", "--trials", "100", "--seed", "600", "--agents", "3", "--items", "5",
            "--tau", "1/2", "--objective", "usw", "--algorithm", "scapegoat",
        ]
    )
    min_ratio = float(out.strip().splitlines()[-1].split(",")[7])
    if code != 0 or min_ratio < 2 / 3 - 1e-9:
        failures.append(f"scapegoat bench min ratio {min_ratio} below 2/3")

    code, out = run(
        [
            "bench", "--trials", "50", "--seed", "700", "--agents", "2", "--items", "4",
            "--tau", "3/4", "--objective", "esw", "--balanced",
        ]
    )
    rows = out.strip().splitlines()
    if code != 0 or any(line.split(",")[6] != "1.000000" for line in rows[1:-1]):
        failures.append("exact solver bench ratios not all 1.000000")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    report_line("9 CLI round-trips", ok, f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120, f"criterion 9 exceeded its 2 minute budget: {elapsed:.1f}s"
