"""Golden owner vectors for the exact egalitarian solvers.

The oracle tests check welfare only; these pin the exact allocation each
solver returns on seeded non-binary instances, so a refactor of the
threshold search or the matching deciders must keep every allocation
edge for edge, not just its welfare.
"""

from __future__ import annotations

import pytest

import quantile_alloc
from quantile_alloc import Quantile, chores, goods
from quantile_alloc.cli import generate_instance

# (solver, kind, quantiles, n, m, generate_instance seed, welfare, owner)
SEEDED = [
    ("balanced_esw", "goods", ["0/1", "1/2", "1/1"], 3, 9, 1, 7,
     (1, 0, 2, 2, 2, 0, 1, 0, 1)),
    ("balanced_esw", "goods", ["1/3", "2/3", "3/4", "1/5"], 4, 16, 2, 8,
     (0, 3, 1, 1, 2, 1, 2, 2, 3, 0, 2, 0, 1, 3, 3, 0)),
    ("balanced_esw", "goods", ["2/5"] * 5, 5, 20, 3, 8,
     (0, 0, 0, 1, 3, 0, 2, 3, 3, 1, 4, 4, 2, 3, 4, 1, 2, 2, 4, 1)),
    ("balanced_esc", "chores", ["0/1", "1/2", "1/1"], 3, 9, 4, 3,
     (2, 1, 0, 1, 1, 0, 0, 2, 2)),
    ("balanced_esc", "chores", ["1/3", "2/3", "3/4", "1/5"], 4, 16, 5, 2,
     (2, 2, 3, 3, 0, 3, 1, 0, 1, 0, 3, 0, 1, 2, 1, 2)),
    ("balanced_esc", "chores", ["2/5"] * 5, 5, 20, 6, 3,
     (0, 2, 3, 1, 4, 0, 4, 4, 3, 2, 3, 0, 1, 2, 0, 1, 1, 2, 3, 4)),
    ("unbalanced_esw", "goods", ["0/1"] * 3, 3, 10, 7, 1,
     (2, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
    ("unbalanced_esw", "goods", ["1/1"] * 4, 4, 12, 8, 8,
     (0, 0, 2, 0, 0, 0, 1, 3, 0, 0, 0, 0)),
    ("unbalanced_esw", "goods", ["1/3"] * 3, 3, 8, 9, 5,
     (0, 1, 0, 2, 1, 1, 1, 0)),
    ("unbalanced_esw", "goods", ["1/2"] * 3, 3, 10, 10, 7,
     (0, 2, 1, 0, 0, 0, 0, 0, 0, 0)),
    ("unbalanced_esw", "goods", ["2/3"] * 4, 4, 12, 11, 9,
     (2, 3, 2, 2, 0, 0, 0, 1, 2, 0, 0, 1)),
    ("identical_unbalanced_esw", "goods", ["1/2"] * 3, 3, 10, 12, 4,
     (0, 0, 0, 1, 0, 2, 0, 0, 0, 0)),
    ("identical_unbalanced_esw", "goods", ["2/3"] * 4, 4, 12, 13, 3,
     (0, 0, 0, 1, 0, 2, 0, 1, 2, 3, 0, 0)),
    ("identical_unbalanced_esw", "goods", ["0/1"] * 3, 3, 9, 14, 1,
     (0, 1, 2, 0, 0, 0, 0, 0, 0)),
    ("esc_tau0", "chores", ["0/1"] * 3, 3, 10, 15, 5,
     (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
    ("esc_tau0", "chores", ["0/1"] * 4, 4, 14, 16, 4,
     (1, 3, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0)),
    ("esc_tau1", "chores", ["1/1"] * 3, 3, 10, 17, 0,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
]

# Hand-built instances for the paths seeded draws rarely reach: no feasible
# positive level (the fallbacks) and optimists without a costless chore.
_ROWS = [[3, 5, 2, 7], [4, 1, 6, 2], [5, 5, 3, 1]]
HAND = [
    ("balanced_esw", goods(["0/1", "0/1"], [[0, 3, 0, 0], [0, 0, 0, 2]]), 0, (0, 0, 1, 1)),
    ("unbalanced_esw", goods(["0/1", "0/1"], [[0, 3, 5, 0], [0, 4, 1, 2]]), 0, (0, 0, 0, 0)),
    ("identical_unbalanced_esw", goods(["1/2"] * 3, [[0, 3, 0, 0]] * 3), 0, (0, 0, 0, 0)),
    ("esc_tau0", chores(["0/1"] * 3, _ROWS), 3, (0, 1, 0, 1)),
    ("esc_tau1", chores(["1/1"] * 3, _ROWS), 1, (1, 1, 1, 1)),
]


@pytest.mark.parametrize(
    "solver,kind,taus,n,m,seed,welfare,owner",
    SEEDED,
    ids=[f"{case[0]}-seed{case[5]}" for case in SEEDED],
)
def test_seeded_owner(solver, kind, taus, n, m, seed, welfare, owner):
    instance = generate_instance(
        n, m, [Quantile.parse(t) for t in taus], kind, max_value=9, seed=seed,
        identical=solver == "identical_unbalanced_esw",
    )
    report = getattr(quantile_alloc, solver)(instance)
    assert report.allocation.owner == owner
    assert report.welfare == welfare
    assert report.algorithm == solver


@pytest.mark.parametrize(
    "solver,instance,welfare,owner",
    HAND,
    ids=[f"{case[0]}-hand{pos}" for pos, case in enumerate(HAND)],
)
def test_hand_owner(solver, instance, welfare, owner):
    report = getattr(quantile_alloc, solver)(instance)
    assert report.allocation.owner == owner
    assert report.welfare == welfare
    assert report.algorithm == solver
