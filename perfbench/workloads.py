"""Seeded workloads of the quantile-alloc benchmark.

A workload is a fixed list of slots.  One round builds one instance per slot
and a run attempts whole rounds, so every run attempts the same mix of
solvers and sizes, and a failing slot is the same share of the operations in
every run.  Sizes are fixed per slot (spread over the ranges each family is
measured at); the seed decides only the values and the quantile mixes, which
keeps the cost of a round nearly the same from seed to seed.

Every instance seed is derived from (workload, run seed, round, slot) with
BLAKE2b, never with ``hash()``, whose value for a string changes from process
to process.  The instances are drawn here, not with the package's own
generator, so that a change to the program cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: Quantiles drawn for "mixed" agents; all reduced, as the program requires.
QUANTILE_POOL = ("0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1")

WORKLOAD_NAMES = ("utilitarian", "egalitarian", "certify")


@dataclass(frozen=True)
class Slot:
    """One operation of a round.

    ``family`` is the solver name the output must carry.  ``objective``,
    ``balanced`` and ``algorithm`` are the arguments of ``qalloc solve``.
    ``taus`` is "mixed", "mixed_one" (at least one 1/1), "mixed_no_one",
    "homogeneous" (one quantile drawn for every agent) or a fixed "p/q".
    ``max_value`` 1 draws binary values.  A ``chain`` slot ignores the seed:
    agent u values items u-1 and u, with n = m = ``n`` plus the round index.
    """

    family: str
    objective: str
    balanced: bool
    algorithm: str
    kind: str
    n: int
    m: int
    taus: str
    max_value: int
    identical: bool = False
    chain: bool = False


def _slots(family, objective, balanced, algorithm, kind, sizes, taus, max_value, identical=False):
    return [
        Slot(family, objective, balanced, algorithm, kind, n, m, taus, max_value, identical)
        for n, m in sizes
    ]


# Far beyond the oracle's reach: the weighted matcher (optimistic, scapegoat)
# and the set-cover loop carry the time; no threshold probe runs.  Sizes are
# chosen so that six slots of 40-70 ms surround the median operation and the
# three 20x200 optimistic slots, the costliest, hold the 90th percentile,
# instead of either falling on the gap between two unlike slots.
UTILITARIAN = (
    _slots("optimistic_exact_usw", "usw", False, "optimistic", "goods",
           [(10, 100), (11, 110), (12, 120), (15, 150)] + [(20, 200)] * 3, "mixed_one", 1000)
    + _slots("scapegoat_usw", "usw", False, "scapegoat", "goods",
             [(5, 50), (6, 75), (6, 90), (8, 100)], "mixed_no_one", 1000)
    + _slots("usc_tau0_setcover", "usc", False, "setcover", "chores",
             [(5, 100), (6, 130), (7, 150), (10, 200)], "0/1", 1000)
    + _slots("identical_binary_usw_unbalanced", "usw", False, "identical", "goods",
             [(10, 100), (20, 200)], "homogeneous", 1, identical=True)
)

# Threshold searches over about a thousand distinct levels: threshold
# rewrites, Instance and Graph validation and the cardinality matcher carry
# the time.  The 1/3 slots are the only general-graph matchings.  The chain
# drives the cardinality matcher through augmenting paths as long as the
# instance instead of short ones.
_BALANCED_SIZES = [(n, 20 * n) for n in (10, 10, 12, 14, 16, 20)]
EGALITARIAN = (
    _slots("balanced_esw", "esw", True, "matching", "goods", _BALANCED_SIZES, "mixed", 1000)
    + _slots("balanced_esc", "esc", True, "matching", "chores", _BALANCED_SIZES, "mixed", 1000)
    + _slots("unbalanced_esw", "esw", False, "tau0", "goods", [(50, 1000)], "0/1", 1000)
    + _slots("unbalanced_esw", "esw", False, "tau1", "goods", [(50, 1000)], "1/1", 1000)
    + _slots("unbalanced_esw", "esw", False, "frac", "goods", [(50, 1000)], "1/2", 1000)
    + _slots("unbalanced_esw", "esw", False, "frac", "goods", [(50, 1000)], "2/3", 1000)
    + _slots("esc_tau0", "esc", False, "tau0", "chores", [(50, 1000)], "0/1", 1000)
    + _slots("esc_tau1", "esc", False, "tau1", "chores", [(50, 1000)], "1/1", 1000)
    + _slots("identical_unbalanced_esw", "esw", False, "identical", "goods",
             [(20, 400)], "1/2", 1000, identical=True)
    + _slots("identical_unbalanced_esw", "esw", False, "identical", "goods",
             [(20, 400)], "1/3", 1000, identical=True)
    + _slots("unbalanced_esw", "esw", False, "third", "goods",
             [(5, 30), (5, 35), (5, 40)], "1/3", 1000)
    + [Slot("unbalanced_esw", "esw", False, "tau1", "goods", 1200, 1200, "1/1", 1, chain=True)]
)

# Desk scale, as in the acceptance suite: every solver of the README table on
# n in {2, 3}, each operation followed by the exhaustive oracle.  The sizes
# make a ladder of enumeration counts from 729 to 19683 allocations, one to
# three slots per rung, so that op_p50_ms and op_p90_ms sit between close
# neighbours and move smoothly with the machine's speed instead of jumping
# between a tight cluster and the next.
CERTIFY = (
    _slots("greedy_balanced_usw", "usw", True, "greedy", "goods", [(3, 9), (2, 14)], "mixed", 9)
    + _slots("balanced_esw", "esw", True, "matching", "goods", [(2, 12), (2, 14)], "mixed", 9)
    + _slots("balanced_esc", "esc", True, "matching", "chores", [(3, 9), (2, 14)], "mixed", 9)
    + _slots("scapegoat_usw", "usw", False, "scapegoat", "goods", [(2, 11), (3, 8)], "mixed_no_one", 9)
    + _slots("optimistic_exact_usw", "usw", False, "optimistic", "goods", [(2, 13), (3, 9)], "mixed_one", 9)
    + _slots("identical_binary_usw_unbalanced", "usw", False, "identical", "goods",
             [(3, 7)], "homogeneous", 1, identical=True)
    + _slots("unbalanced_esw", "esw", False, "tau0", "goods", [(2, 12)], "0/1", 9)
    + _slots("unbalanced_esw", "esw", False, "tau1", "goods", [(3, 8)], "1/1", 9)
    + _slots("unbalanced_esw", "esw", False, "third", "goods", [(3, 7)], "1/3", 9)
    + _slots("unbalanced_esw", "esw", False, "frac", "goods", [(2, 14)], "1/2", 9)
    + _slots("unbalanced_esw", "esw", False, "frac", "goods", [(3, 9)], "2/3", 9)
    + _slots("identical_unbalanced_esw", "esw", False, "identical", "goods",
             [(3, 6), (2, 10)], "homogeneous", 9, identical=True)
    + _slots("esc_tau0", "esc", False, "tau0", "chores", [(2, 13), (3, 9)], "0/1", 9)
    + _slots("esc_tau1", "esc", False, "tau1", "chores", [(2, 10)], "1/1", 9)
    + _slots("usc_tau0_setcover", "usc", False, "setcover", "chores", [(2, 12), (3, 8), (2, 14)], "0/1", 9)
)

WORKLOADS = {"utilitarian": UTILITARIAN, "egalitarian": EGALITARIAN, "certify": CERTIFY}


@dataclass(frozen=True)
class Op:
    """One solve request: an instance document and the solve arguments.

    ``instance_seed`` is None for the chain, whose input has no seed.
    """

    workload: str
    seed: int
    round: int
    index: int
    slot: Slot
    doc: dict
    instance_seed: int | None

    @property
    def with_oracle(self) -> bool:
        """Certify operations also compute the exhaustive optimum."""
        return self.workload == "certify"

    @property
    def label(self) -> str:
        return f"{self.workload} round {self.round} slot {self.index} ({self.slot.family} {self.slot.n}x{self.slot.m})"

    def replay_command(self) -> str:
        return (
            f"python3 perfbench/run.py --workload {self.workload} --seed {self.seed} "
            f"--replay {self.round}.{self.index}"
        )


def instance_seed(workload: str, seed: int, round_: int, index: int) -> int:
    """Stable 64-bit seed of one operation's instance."""
    key = f"{workload}:{seed}:{round_}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _quantiles(rng: random.Random, spec: str, n: int) -> list[str]:
    if spec == "mixed":
        return [rng.choice(QUANTILE_POOL) for _ in range(n)]
    if spec == "mixed_no_one":
        return [rng.choice(QUANTILE_POOL[:-1]) for _ in range(n)]
    if spec == "mixed_one":
        taus = [rng.choice(QUANTILE_POOL) for _ in range(n)]
        taus[rng.randrange(n)] = "1/1"
        return taus
    if spec == "homogeneous":
        return [rng.choice(QUANTILE_POOL)] * n
    return [spec] * n


def _doc(kind: str, taus: list[str], rows: list[list[int]]) -> dict:
    return {"kind": kind, "agents": len(rows), "items": len(rows[0]), "quantiles": taus, "values": rows}


def chain_doc(size: int) -> dict:
    """Binary optimists where agent u values exactly items u-1 and u."""
    rows = [[0] * size for _ in range(size)]
    for u in range(size):
        rows[u][u] = 1
        if u > 0:
            rows[u][u - 1] = 1
    return _doc("goods", ["1/1"] * size, rows)


def build_op(workload: str, seed: int, round_: int, index: int) -> Op:
    slot = WORKLOADS[workload][index]
    if slot.chain:
        return Op(workload, seed, round_, index, slot, chain_doc(slot.n + round_), None)
    iseed = instance_seed(workload, seed, round_, index)
    rng = random.Random(iseed)
    taus = _quantiles(rng, slot.taus, slot.n)
    values = range(slot.max_value + 1)
    if slot.identical:
        row = rng.choices(values, k=slot.m)
        rows = [list(row) for _ in range(slot.n)]
    else:
        rows = [rng.choices(values, k=slot.m) for _ in range(slot.n)]
    return Op(workload, seed, round_, index, slot, _doc(slot.kind, taus, rows), iseed)


def build_round(workload: str, seed: int, round_: int) -> list[Op]:
    return [build_op(workload, seed, round_, i) for i in range(len(WORKLOADS[workload]))]
