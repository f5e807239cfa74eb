"""The threshold search: every probe agrees with its level decider, which
decides the original values at a level as the rewritten instance at level 1,
a one-level search builds no probe, and the identical-valuation DP splits
the worthless items as a plain reference does."""

from __future__ import annotations

import random
import zlib

import pytest

from helpers import ALL_TAUS, random_instance
from quantile_alloc._threshold import (
    candidate_levels,
    copies_decider,
    copies_probe,
    fallback,
    threshold_search,
)
from quantile_alloc.chores_solvers import (
    _esc_tau0_binary,
    _esc_tau0_probe,
    _esc_tau1_binary,
    _esc_tau1_probe,
    balanced_esc_binary,
)
from quantile_alloc.core import Quantile, goods, threshold_binary
from quantile_alloc.esw_solvers import (
    _esw_search_for,
    _identical_binary_esw,
    _identical_probe,
    _tau1_decider,
    _zero_split,
    balanced_esw,
    balanced_esw_binary,
    unbalanced_esw,
    unbalanced_esw_binary_frac,
    unbalanced_esw_binary_tau0,
    unbalanced_esw_binary_tau1,
    unbalanced_esw_binary_third,
)

UNBALANCED_TAUS = ["0/1", "1/1", "1/2", "2/3", "3/4", "1/3"]
IDENTICAL_TAUS = ["0/1", "1/1", "1/2", "2/3", "3/4", "1/3", "2/5"]

# The public binary decider of each unbalanced goods quantile.
PUBLIC_BINARY = {
    "0/1": unbalanced_esw_binary_tau0,
    "1/1": unbalanced_esw_binary_tau1,
    "1/3": unbalanced_esw_binary_third,
    "1/2": lambda inst: unbalanced_esw_binary_frac(inst, 1),
    "2/3": lambda inst: unbalanced_esw_binary_frac(inst, 2),
    "3/4": lambda inst: unbalanced_esw_binary_frac(inst, 3),
}

# name -> (kind, balanced, identical, quantile pool, level decider, probe
# factory maker, public binary decider or None).  A balanced family draws
# mixed quantiles from the pool, the others one quantile for every agent.
# The maker is called once per instance.
FAMILIES = {
    "balanced_esw": (
        "goods", True, False, ALL_TAUS, copies_decider, lambda: copies_probe, balanced_esw_binary
    ),
    "balanced_esc": (
        "chores", True, False, ALL_TAUS, copies_decider, lambda: copies_probe, balanced_esc_binary
    ),
    **{
        f"unbalanced_esw {tau}": (
            "goods",
            False,
            False,
            [tau],
            _esw_search_for(Quantile.parse(tau))[0],
            lambda tau=tau: _esw_search_for(Quantile.parse(tau))[1],
            PUBLIC_BINARY[tau],
        )
        for tau in UNBALANCED_TAUS
    },
    "esc_tau0": ("chores", False, False, ["0/1"], _esc_tau0_binary, lambda: _esc_tau0_probe, None),
    "esc_tau1": ("chores", False, False, ["1/1"], _esc_tau1_binary, lambda: _esc_tau1_probe, None),
    "identical": (
        "goods",
        False,
        True,
        IDENTICAL_TAUS,
        _identical_binary_esw,
        lambda: _identical_probe,
        None,
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_probe_agrees_with_decider(family):
    kind, balanced, identical, pool, decider, make_probe_for, public = FAMILIES[family]
    seed = zlib.crc32(family.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    max_items = 8 if family.endswith("1/3") else 14
    for _ in range(100):
        n = rng.randint(1, 6)
        m = n * rng.randint(1, 3) if balanced else rng.randint(1, max_items)
        if balanced:
            taus = [rng.choice(pool) for _ in range(n)]
        else:
            taus = [rng.choice(pool)] * n
        top = rng.choice([1, 3, 100])
        inst = random_instance(rng, n, m, kind=kind, max_value=top, identical=identical, taus=taus)
        probe = make_probe_for()(inst)
        for nu in candidate_levels(inst):
            # The level decider reads the original values at nu exactly as it
            # reads the rewritten instance at level 1, edge for edge.
            allocation = decider(inst, nu)
            binary = threshold_binary(inst, nu)
            assert allocation == decider(binary, 1), (nu, inst)
            assert probe(nu) == (allocation is not None), (nu, inst)
            if public is not None:
                report = public(binary)
                assert report.feasible == (allocation is not None), (nu, inst)
                expected = allocation if report.feasible else fallback(inst, balanced)
                assert report.allocation == expected, (nu, inst)


def refuse_probe(instance):
    raise AssertionError("a one-level search built a probe")


def chain(size: int):
    """Agent u values items u - 1 and u."""
    return goods(
        ["1/1"] * size,
        [[1 if g in (u - 1, u) else 0 for g in range(size)] for u in range(size)],
    )


def test_one_level_search_makes_no_probe():
    rng = random.Random(zlib.crc32(b"one level"))
    draws = [chain(40)]
    draws += [random_instance(rng, 4, 4 * rng.randint(1, 3), binary=True) for _ in range(30)]
    for inst in draws:
        balanced_report = threshold_search(
            inst, copies_decider, refuse_probe, "balanced_esw", balanced=True
        )
        assert balanced_report == balanced_esw(inst)
        tau1 = goods(["1/1"] * inst.n, inst.values)
        report = threshold_search(
            tau1, _tau1_decider, refuse_probe, "unbalanced_esw", balanced=False
        )
        assert report == unbalanced_esw(tau1)


def reference_split(n: int, zeros: int, tau: Quantile) -> tuple[int, list[int]]:
    """Fewest 1-items that give n agents value 1 with ``zeros`` worthless
    items among them, and the zeros each agent takes: a triple loop keeping
    the first strictly smaller cost."""

    def ones_needed(z):
        return (z * tau.denominator) // tau.numerator + 1 - z

    best = [0] + [None] * zeros
    takes = []
    for _ in range(n):
        nxt = [None] * (zeros + 1)
        take_for = [0] * (zeros + 1)
        for total in range(zeros + 1):
            for take in range(total + 1):
                if best[total - take] is None:
                    continue
                cost = best[total - take] + ones_needed(take)
                if nxt[total] is None or cost < nxt[total]:
                    nxt[total] = cost
                    take_for[total] = take
        best = nxt
        takes.append(take_for)
    split = [0] * n
    remaining = zeros
    for i in range(n - 1, -1, -1):
        split[i] = takes[i][remaining]
        remaining -= split[i]
    return best[zeros], split


@pytest.mark.parametrize("tau", ["1/2", "2/3", "3/4", "2/5", "4/5", "3/7", "4/7"])
def test_identical_split_matches_reference(tau):
    seed = zlib.crc32(tau.encode())
    print(f"seed {seed}")
    rng = random.Random(seed)
    quantile = Quantile.parse(tau)
    for _ in range(40):
        n = rng.randint(1, 8)
        zeros = rng.randint(0, 60)
        cost, split = reference_split(n, zeros, quantile)
        assert _zero_split(n, zeros, quantile) == (cost, split)
        ones = max(1, cost + rng.randint(-2, 4))
        row = [0] * zeros + [1] * ones
        rng.shuffle(row)
        allocation = _identical_binary_esw(goods([tau] * n, [row] * n), 1)
        assert (allocation is not None) == (cost <= ones)
        if allocation is not None:
            bundles = allocation.bundles(n)
            assert [sum(1 for g in b if row[g] == 0) for b in bundles] == split
