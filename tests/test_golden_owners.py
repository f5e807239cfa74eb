"""Golden owner vectors for the exact egalitarian and utilitarian solvers.

The oracle tests check welfare only; these pin the exact allocation each
solver returns on seeded instances, so a refactor of the threshold search,
the matching deciders or the weighted matcher must keep every allocation
edge for edge, not just its welfare.  The utilitarian cases lean on ties
(values 0-2, binary values, all-zero rows), where only the matcher's
tie-break decides the allocation.
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
# positive level (the fallbacks), optimists without a costless chore, and
# utilitarian instances where most matchings tie.
_ROWS = [[3, 5, 2, 7], [4, 1, 6, 2], [5, 5, 3, 1]]
HAND = [
    ("balanced_esw", goods(["0/1", "0/1"], [[0, 3, 0, 0], [0, 0, 0, 2]]), 0, (0, 0, 1, 1)),
    ("unbalanced_esw", goods(["0/1", "0/1"], [[0, 3, 5, 0], [0, 4, 1, 2]]), 0, (0, 0, 0, 0)),
    ("identical_unbalanced_esw", goods(["1/2"] * 3, [[0, 3, 0, 0]] * 3), 0, (0, 0, 0, 0)),
    ("esc_tau0", chores(["0/1"] * 3, _ROWS), 3, (0, 1, 0, 1)),
    ("esc_tau1", chores(["1/1"] * 3, _ROWS), 1, (1, 1, 1, 1)),
    # Utilitarian ties: binary values, values 0-2 and all-zero rows.
    ("optimistic_exact_usw",
     goods(["1/1", "0/1", "1/2"], [[1, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]]), 2, (0, 1, 2, 0)),
    ("optimistic_exact_usw", goods(["1/2", "1/1"], [[0, 0, 0], [0, 0, 0]]), 0, (0, 1, 1)),
    ("optimistic_exact_usw",
     goods(["1/1"] * 3, [[2, 1, 2, 0, 1], [2, 2, 1, 1, 0], [1, 2, 2, 0, 2]]), 6, (0, 1, 2, 0, 0)),
    ("scapegoat_usw",
     goods(["1/2"] * 3, [[2, 2, 1, 0, 2], [2, 2, 2, 2, 0], [0, 0, 0, 0, 0]]), 4, (0, 2, 1, 1, 1)),
    ("scapegoat_usw",
     goods(["0/1", "1/1", "1/3"], [[1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1]]), 3, (1, 2, 0, 0)),
    ("scapegoat_usw", goods(["1/1", "0/1"], [[0, 0, 0, 0], [0, 0, 0, 0]]), 0, (1, 0, 0, 0)),
    # More agents than items, every value equal: the weighted matcher runs
    # with the items as rows and only its tie-break decides.
    ("optimistic_exact_usw", goods(["1/1"] * 4, [[3, 3]] * 4), 6, (0, 1)),
    ("scapegoat_usw", goods(["1/2"] * 4, [[3, 3]] * 4), 6, (1, 2)),
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


# (solver, quantiles, n, m, generate_instance seed, max value, welfare, owner)
USW_SEEDED = [
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1"], 3, 9, 21, 9, 25,
     (1, 0, 0, 0, 0, 0, 2, 0, 0)),
    ("optimistic_exact_usw", ["1/3", "1/1", "2/3", "1/1"], 4, 12, 22, 9, 35,
     (1, 1, 3, 0, 1, 2, 1, 1, 1, 1, 1, 1)),
    ("optimistic_exact_usw", ["1/1"] * 5, 5, 20, 23, 2, 10,
     (3, 1, 0, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    ("optimistic_exact_usw", ["0/1", "1/1", "3/4"], 3, 14, 24, 1, 3,
     (0, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("optimistic_exact_usw", ["1/1", "1/5", "2/5", "1/2"], 4, 3, 25, 2, 4,
     (0, 1, 3)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1"], 3, 9, 26, 9, 27,
     (1, 2, 2, 0, 2, 2, 2, 2, 2)),
    ("scapegoat_usw", ["1/3", "2/3", "3/4", "1/5"], 4, 16, 27, 9, 31,
     (1, 2, 1, 1, 3, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("scapegoat_usw", ["2/5"] * 5, 5, 20, 28, 2, 9,
     (1, 0, 1, 1, 1, 2, 1, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("scapegoat_usw", ["1/2"] * 3, 3, 12, 29, 1, 3,
     (2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("scapegoat_usw", ["0/1", "1/1", "1/3", "1/2"], 4, 3, 30, 2, 6,
     (0, 1, 3)),
    # More matched agents than items: the weighted matcher's rows are the
    # items (the smaller side), the transposed orientation.
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3"], 4, 2, 61, 2, 4,
     (1, 3)),
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3"], 4, 2, 62, 9, 13,
     (0, 2)),
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3", "2/3"], 5, 3, 63, 2, 4,
     (0, 1, 2)),
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3", "2/3"], 5, 3, 64, 9, 24,
     (4, 1, 0)),
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3", "2/3", "1/1", "3/4"], 7, 4, 65, 2, 7,
     (0, 2, 5, 1)),
    ("optimistic_exact_usw", ["1/1", "1/2", "0/1", "1/3", "2/3", "1/1", "3/4"], 7, 4, 66, 9, 31,
     (3, 5, 4, 1)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3"], 4, 2, 67, 2, 3,
     (3, 1)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3"], 4, 2, 68, 9, 18,
     (2, 1)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3", "2/3"], 5, 3, 69, 2, 5,
     (4, 2, 1)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3", "2/3"], 5, 3, 70, 9, 22,
     (1, 3, 2)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3", "2/3", "1/5", "3/4"], 7, 4, 71, 2, 7,
     (3, 4, 2, 1)),
    ("scapegoat_usw", ["0/1", "1/2", "1/1", "1/3", "2/3", "1/5", "3/4"], 7, 4, 72, 9, 31,
     (2, 1, 5, 0)),
]


@pytest.mark.parametrize(
    "solver,taus,n,m,seed,top,welfare,owner",
    USW_SEEDED,
    ids=[f"{case[0]}-seed{case[4]}" for case in USW_SEEDED],
)
def test_usw_seeded_owner(solver, taus, n, m, seed, top, welfare, owner):
    instance = generate_instance(
        n, m, [Quantile.parse(t) for t in taus], "goods", max_value=top, seed=seed
    )
    report = getattr(quantile_alloc, solver)(instance)
    assert report.allocation.owner == owner
    assert report.welfare == welfare
    assert report.algorithm == solver



# (n, m, generate_instance seed, max value, cost, owner) for usc_tau0_setcover
# at quantile 0.  The greedy pick order decides every owner, so these pin the
# scan order and the strict ratio comparison, not just the cost.
SETCOVER_SEEDED = [
    (1, 12, 41, 9, 9,
     (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (2, 10, 42, 1, 1,
     (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
    (2, 25, 43, 1000, 1233,
     (0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0)),
    (3, 15, 44, 2, 3,
     (1, 0, 2, 2, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0)),
    (3, 40, 45, 9, 13,
     (0, 2, 1, 0, 2, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,
      0, 0, 2, 0, 2, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)),
    (4, 20, 46, 1, 1,
     (0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0)),
    (4, 36, 47, 1000, 1942,
     (1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 3, 1, 0, 1, 1, 1, 0, 1,
      1, 0, 3, 3, 2, 3, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1)),
    (5, 30, 48, 2, 1,
     (4, 2, 0, 1, 1, 3, 4, 4, 0, 2, 2, 0, 0, 3, 0,
      3, 1, 0, 0, 2, 1, 4, 0, 0, 0, 0, 0, 4, 0, 0)),
    (5, 40, 49, 9, 15,
     (3, 2, 2, 0, 4, 4, 2, 0, 0, 4, 4, 4, 0, 3, 4, 2, 2, 3, 1, 2,
      1, 0, 3, 4, 0, 4, 1, 2, 1, 3, 4, 4, 3, 0, 0, 3, 4, 4, 0, 3)),
    (6, 24, 50, 1000, 1186,
     (4, 4, 3, 2, 1, 4, 4, 5, 4, 5, 3, 4, 4, 1, 4, 5, 4, 1, 5, 4, 0, 5, 4, 0)),
    (7, 40, 51, 2, 1,
     (0, 3, 1, 0, 0, 0, 1, 5, 6, 1, 1, 6, 5, 1, 4, 2, 5, 1, 1, 1,
      2, 5, 1, 6, 0, 0, 0, 1, 6, 0, 2, 1, 0, 5, 1, 1, 6, 2, 4, 0)),
    (7, 33, 52, 1, 0,
     (1, 0, 2, 1, 2, 0, 0, 0, 4, 0, 1, 1, 0, 0, 2, 3, 0,
      0, 0, 0, 0, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 2, 1)),
]


@pytest.mark.parametrize(
    "n,m,seed,top,cost,owner",
    SETCOVER_SEEDED,
    ids=[f"usc_tau0_setcover-seed{case[2]}" for case in SETCOVER_SEEDED],
)
def test_setcover_seeded_owner(n, m, seed, top, cost, owner):
    instance = generate_instance(
        n, m, [Quantile.parse("0/1")] * n, "chores", max_value=top, seed=seed
    )
    report = quantile_alloc.usc_tau0_setcover(instance)
    assert report.allocation.owner == owner
    assert report.welfare == cost
    assert report.algorithm == "usc_tau0_setcover"


# Ties the seeded draws leave to chance: identical rows (every agent offers
# the same prefixes, so the lowest agent index wins each round) and a zero
# row (one agent covers everything at weight 0 in the first round).
SETCOVER_HAND = [
    (chores(["0/1"] * 3, [[2, 0, 1, 2, 0, 1]] * 3), 2, (0, 0, 0, 0, 0, 0)),
    (chores(["0/1"] * 3, [[3, 1, 4, 1, 5], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]]), 0, (1, 1, 1, 1, 1)),
]


@pytest.mark.parametrize(
    "instance,cost,owner", SETCOVER_HAND, ids=["equal-rows", "zero-row"]
)
def test_setcover_hand_owner(instance, cost, owner):
    report = quantile_alloc.usc_tau0_setcover(instance)
    assert report.allocation.owner == owner
    assert report.welfare == cost
