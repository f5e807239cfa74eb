"""Golden routing grid for ``qalloc solve``.

``routing_grid.json`` pins what ``dispatch_solve`` does with every request
over eight small instances, four objectives, both solution spaces and every
``--algorithm`` name: the report's algorithm, owner vector and welfare, or
the exception class and message.  A change to the routing code must keep
every line, so the grid is the gate for refactoring it.  The module also
checks that the README's solver table names the solvers the routing table
runs, and the exit codes of two request shapes the routing once got wrong.

Regenerate the file after an intended routing change with
``PYTHONPATH=src python tests/test_routing.py`` and review its diff.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from quantile_alloc import chores, goods
from quantile_alloc.cli import ALGORITHMS, OBJECTIVES, _routes, dispatch_solve, instance_to_doc, main

GRID_FILE = Path(__file__).with_name("routing_grid.json")
README = Path(__file__).resolve().parents[1] / "README.md"

INSTANCES = {
    "goods-1/2-identical-binary": goods(["1/2"] * 2, [[1, 0, 1, 1], [1, 0, 1, 1]]),
    "goods-1/4": goods(["1/4"] * 2, [[5, 4, 1, 0], [5, 1, 3, 2]]),
    "goods-mixed-0-1": goods(["0/1", "1/1"], [[3, 0, 2, 4], [1, 5, 0, 2]]),
    "goods-heterogeneous": goods(
        ["1/3", "2/3", "1/2"], [[2, 0, 1, 3, 1, 2], [1, 3, 0, 2, 2, 0], [0, 2, 3, 1, 0, 1]]
    ),
    "goods-one-agent": goods(["1/2"], [[2, 0, 3]]),
    "chores-0": chores(["0/1"] * 2, [[1, 2, 0, 3], [2, 0, 1, 1]]),
    "chores-1/2": chores(["1/2"] * 2, [[3, 1, 2, 0], [0, 2, 2, 1]]),
    "chores-1": chores(["1/1"] * 2, [[0, 2, 1, 3], [2, 1, 0, 1]]),
}


def outcome(instance_name: str, objective: str, balanced: bool, algorithm: str) -> dict:
    try:
        report = dispatch_solve(INSTANCES[instance_name], objective, balanced, algorithm)
    except Exception as exc:  # the grid pins refusals as well as answers
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "algorithm": report.algorithm,
        "owner": list(report.allocation.owner),
        "welfare": report.welfare,
    }


def requests() -> list[tuple[str, str, bool, str]]:
    return [
        (name, objective, balanced, algorithm)
        for name in INSTANCES
        for objective in OBJECTIVES
        for balanced in (False, True)
        for algorithm in ALGORITHMS
    ]


def request_id(request: tuple[str, str, bool, str]) -> str:
    name, objective, balanced, algorithm = request
    return f"{name}/{objective}/{'balanced' if balanced else 'unbalanced'}/{algorithm}"


GRID = json.loads(GRID_FILE.read_text(encoding="utf-8")) if GRID_FILE.exists() else {}


def test_grid_covers_every_request():
    assert sorted(GRID) == sorted(request_id(r) for r in requests())


@pytest.mark.parametrize("case", requests(), ids=request_id)
def test_routing_grid(case):
    assert outcome(*case) == GRID[request_id(case)]


def test_readme_table_names_the_routed_solvers():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Solvers and guarantees", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    readme_solvers = {name for cell in first_cells for name in re.findall(r"`(\w+)`", cell)}
    routed = {solver.__name__ for _, solvers in _routes().values() for solver in solvers.values()}
    assert readme_solvers == routed


def solve_exit(tmp_path, instance, *flags: str) -> int:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_doc(instance)), encoding="utf-8")
    return main(["solve", "-i", str(path), *flags])


@pytest.mark.parametrize(
    "instance,flags",
    [
        # A quantile that matches the algorithm's family must not turn a
        # kind mismatch into an unsupported request (exit 1).
        (chores(["0/1"] * 2, [[1, 2], [2, 1]]), ["--objective", "esw", "--algorithm", "tau1"]),
        (goods(["1/2"] * 2, [[1, 2], [2, 1]]), ["--objective", "esc"]),
    ],
    ids=["esw-tau1-on-chores", "esc-auto-on-goods"],
)
def test_objective_of_the_other_kind_exits_two(tmp_path, capsys, instance, flags):
    assert solve_exit(tmp_path, instance, *flags) == 2
    assert "does not apply to a" in capsys.readouterr().err


def test_one_agent_unbalanced_usw(tmp_path, capsys):
    # The lone agent is the scapegoat and takes every item: the only allocation.
    assert solve_exit(tmp_path, goods(["1/2"], [[2, 0, 3, 1]]), "--objective", "usw") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["owner"] == [0, 0, 0, 0]
    assert out["algorithm"] == "scapegoat_usw"


if __name__ == "__main__":
    lines = [
        f"  {json.dumps(request_id(r))}: {json.dumps(outcome(*r), sort_keys=True)}"
        for r in requests()
    ]
    GRID_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} outcomes to {GRID_FILE}")
