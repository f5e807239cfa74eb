"""Self-test of the benchmark's output checker: shows that its checks can fail.

For one operation of each workload it runs the solver, confirms that the
honest output passes, and then feeds the workload's check three corrupted
outputs that must each be reported:

* a corrupted owner vector (an item given to an agent that does not exist);
* an off-by-one welfare (the reported value plus one);
* a bound-violating value: a valid allocation strictly worse than the
  solver's exact optimum, reported with its true value, so that only the
  optimality or guarantee check can catch it.

It also compares the checker's assignment and matching routines with brute
force on small random inputs.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It prints one line per case and exits with 1 if any case is missed.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import checker
import run
import workloads

#: Operation slot per workload whose solver is exact, so any strictly worse
#: allocation violates its check.
EXACT_SLOT = {
    "utilitarian": ("optimistic_exact_usw", 0),
    "egalitarian": ("balanced_esw", 0),
    "certify": ("optimistic_exact_usw", 8),
}


def worse_owner(doc: dict, owner: list[int], objective: str, best: int) -> tuple[list[int], int]:
    """Rotate every owner by the same shift (which keeps bundle sizes) until
    the allocation's value is strictly worse than ``best``."""
    n = doc["agents"]
    maximize = objective in ("usw", "esw")
    for shift in range(1, n):
        rotated = [(a + shift) % n for a in owner]
        value = checker.objective_value(doc, rotated, objective)
        if (value < best) if maximize else (value > best):
            return rotated, value
    raise SystemExit("self-test: no rotation of the output is strictly worse")


def corruptions(doc: dict, output: str, objective: str) -> dict[str, str]:
    out = json.loads(output)
    bad_owner = dict(out, owner=[doc["agents"]] + out["owner"][1:])
    off_by_one = dict(out, welfare=out["welfare"] + 1)
    owner, value = worse_owner(doc, out["owner"], objective, out["welfare"])
    worse = dict(out, owner=owner, welfare=value)
    return {
        "corrupted owner vector": json.dumps(bad_owner),
        "off-by-one welfare": json.dumps(off_by_one),
        "bound-violating value": json.dumps(worse),
    }


def check_workloads(execute) -> int:
    misses = 0
    for workload, (family, index) in EXACT_SLOT.items():
        op = workloads.build_op(workload, 0, 0, index)
        if op.slot.family != family:
            raise SystemExit(f"self-test: {workload} slot {index} is not {family}")
        output, opt = execute(op)
        honest = run.check_op(op, (output, opt))
        print(f"{'PASS' if not honest else 'MISS'} {workload} honest output accepted {honest}")
        misses += bool(honest)
        for case, corrupted in corruptions(op.doc, output, op.slot.objective).items():
            problems = run.check_op(op, (corrupted, opt))
            print(f"{'PASS' if problems else 'MISS'} {workload} {case} reported: {problems[:1]}")
            misses += not problems
    return misses


def brute_assignment(values: list[list[int]]) -> int:
    n, m = len(values), len(values[0])
    return max(
        sum(values[i][cols[i]] for i in range(n)) for cols in itertools.permutations(range(m), n)
    )


def brute_matching(adj: list[list[int]]) -> int:
    for size in range(len(adj), 0, -1):
        for rows in itertools.combinations(range(len(adj)), size):
            if any(len(set(pick)) == size for pick in itertools.product(*(adj[r] for r in rows))):
                return size
    return 0


def check_routines() -> int:
    rng = random.Random(7)
    misses = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        values = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        if checker.max_assignment(values) != brute_assignment(values):
            print(f"MISS max_assignment trial {trial}: {values}")
            misses += 1
        adj = [[g for g in range(m) if rng.random() < 0.4] for _ in range(rng.randint(1, 5))]
        if checker.max_matching(adj, m) != brute_matching(adj):
            print(f"MISS max_matching trial {trial}: {adj}")
            misses += 1
    print(f"{'PASS' if not misses else 'MISS'} assignment and matching routines agree with brute force")
    return misses


def main() -> int:
    cli, oracle = run.import_package()
    misses = check_workloads(run.make_executor(cli, oracle)) + check_routines()
    print("self-test passed" if not misses else f"self-test: {misses} case(s) missed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
