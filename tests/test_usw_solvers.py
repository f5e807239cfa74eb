"""Utilitarian solver tests: frozen worked examples plus oracle-certified
guarantee checks on seeded random instances."""

from __future__ import annotations

import random

import pytest

from helpers import TRACTABLE_TAUS, random_instance
from quantile_alloc import (
    Allocation,
    IntractableQuantileError,
    InvalidInstanceError,
    bundle_value,
    chores,
    demand_quota,
    goods,
    greedy_balanced_usw,
    identical_binary_usw_unbalanced,
    opt_welfare,
    optimistic_exact_usw,
    scapegoat_usw,
    usw,
)


class TestDemandQuota:
    def test_values(self):
        inst = goods(["0/1", "1/2", "1/1"], [[1] * 6] * 3)
        k = inst.items_per_agent()
        assert k == 2
        assert tuple(demand_quota(q, k) for q in inst.quantiles) == (2, 2, 1)

    def test_range_invariant(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            inst = random_instance(rng, n, n * k)
            assert all(1 <= demand_quota(q, k) <= k for q in inst.quantiles)


class TestGreedyBalanced:
    def test_worked_example(self):
        inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
        report = greedy_balanced_usw(inst)
        assert report.allocation == Allocation((0, 0, 1, 1))
        assert report.welfare == 6
        assert report.welfare == opt_welfare(inst, "usw", balanced=True)[0]

    def test_single_agent_takes_everything(self):
        inst = goods(["2/3"], [[4, 0, 9, 1]])
        report = greedy_balanced_usw(inst)
        assert report.allocation == Allocation((0, 0, 0, 0))
        assert report.welfare == bundle_value(inst, 0, range(4))

    def test_requires_divisibility(self):
        with pytest.raises(InvalidInstanceError):
            greedy_balanced_usw(goods(["1/2", "1/2"], [[1, 2, 3], [1, 2, 3]]))

    def test_requires_goods(self):
        with pytest.raises(InvalidInstanceError):
            greedy_balanced_usw(chores(["1/2"], [[1]]))

    def test_always_balanced_and_deterministic(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.choice([2, 3])
            k = rng.randint(1, 3)
            inst = random_instance(rng, n, n * k)
            report = greedy_balanced_usw(inst)
            assert report.allocation.is_balanced(n)
            assert greedy_balanced_usw(inst) == report

    def test_ratio_bound_against_oracle(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.choice([2, 3])
            m = rng.choice([m for m in (4, 6, 8, 9) if m % n == 0])
            inst = random_instance(rng, n, m)
            report = greedy_balanced_usw(inst)
            opt = opt_welfare(inst, "usw", balanced=True)[0]
            assert report.welfare * min(m // n + 1, n) >= opt

    def test_exact_for_identical_valuations(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.choice([2, 3])
            k = rng.randint(1, 3)
            inst = random_instance(rng, n, n * k, identical=True, homogeneous=True)
            report = greedy_balanced_usw(inst)
            assert report.welfare == opt_welfare(inst, "usw", balanced=True)[0]


class TestScapegoat:
    def test_worked_example(self):
        inst = goods(["0/1"] * 3, [[10, 0, 0, 0], [0, 8, 0, 0], [0, 0, 6, 5]])
        report = scapegoat_usw(inst)
        assert report.welfare == 23
        assert report.welfare == opt_welfare(inst, "usw")[0]

    def test_two_agents_structure(self):
        inst = goods(["1/2", "1/2"], [[9, 1, 1], [2, 2, 2]])
        report = scapegoat_usw(inst)
        bundles = report.allocation.bundles(2)
        assert sorted(len(b) for b in bundles) == [1, 2]

    def test_all_zero_values(self):
        inst = goods(["1/2", "1/2"], [[0, 0], [0, 0]])
        assert scapegoat_usw(inst).welfare == 0

    def test_one_agent_takes_every_item(self):
        # A lone scapegoat absorbs everything: the only allocation, so optimal.
        for tau, row in (("1/2", [2, 0, 3]), ("0/1", [5, 1, 4, 2]), ("1/3", [0, 0])):
            inst = goods([tau], [row])
            report = scapegoat_usw(inst)
            assert report.allocation.owner == (0,) * len(row)
            assert report.welfare == opt_welfare(inst, "usw")[0]

    def test_guarantee_against_oracle(self):
        rng = random.Random(44)
        for _ in range(60):
            n = rng.choice([2, 3])
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m)
            report = scapegoat_usw(inst)
            opt = opt_welfare(inst, "usw")[0]
            assert n * report.welfare >= (n - 1) * opt


class TestOptimisticExact:
    def test_worked_example(self):
        inst = goods(["0/1", "1/1"], [[9, 0], [1, 8]])
        report = optimistic_exact_usw(inst)
        assert report.welfare == 17
        assert report.welfare == opt_welfare(inst, "usw")[0]

    def test_distinct_favorites(self):
        inst = goods(["1/1", "1/1"], [[7, 0], [0, 6]])
        assert optimistic_exact_usw(inst).welfare == 13

    def test_single_optimist_gets_max(self):
        inst = goods(["1/1"], [[3, 9, 4]])
        assert optimistic_exact_usw(inst).welfare == 9

    def test_requires_an_optimist(self):
        with pytest.raises(IntractableQuantileError):
            optimistic_exact_usw(goods(["1/2"], [[1]]))

    def test_exactness_against_oracle(self):
        rng = random.Random(55)
        for _ in range(50):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            inst = random_instance(rng, n, m)
            taus = list(inst.quantiles)
            taus[rng.randrange(n)] = taus[0].__class__(1, 1)
            inst = goods([str(t) for t in taus], [list(r) for r in inst.values])
            report = optimistic_exact_usw(inst)
            assert report.welfare == opt_welfare(inst, "usw")[0]


class TestIdenticalBinary:
    def test_worked_example(self):
        inst = goods(["1/2"] * 3, [[1, 1, 0]] * 3)
        report = identical_binary_usw_unbalanced(inst)
        assert report.welfare == 2
        assert report.welfare == opt_welfare(inst, "usw")[0]

    def test_all_ones(self):
        inst = goods(["1/2"] * 3, [[1, 1, 1]] * 3)
        assert identical_binary_usw_unbalanced(inst).welfare == 3

    def test_all_zeros(self):
        inst = goods(["1/2"] * 2, [[0, 0]] * 2)
        assert identical_binary_usw_unbalanced(inst).welfare == 0

    def test_rejects_non_identical_rows(self):
        with pytest.raises(InvalidInstanceError):
            identical_binary_usw_unbalanced(goods(["1/2"] * 2, [[1, 0], [0, 1]]))

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInstanceError):
            identical_binary_usw_unbalanced(goods(["1/2"] * 2, [[2, 0]] * 2))

    def test_exactness_against_oracle(self):
        rng = random.Random(66)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(
                rng, n, m, binary=True, identical=True, homogeneous=True,
                tau_pool=TRACTABLE_TAUS + ["1/4", "2/5"],
            )
            report = identical_binary_usw_unbalanced(inst)
            assert report.welfare == opt_welfare(inst, "usw")[0]
            assert usw(inst, report.allocation) == report.welfare


class TestDeterminism:
    def test_fixed_instance_fixed_report(self):
        rng = random.Random(77)
        for _ in range(10):
            inst = random_instance(rng, 3, 6)
            assert scapegoat_usw(inst) == scapegoat_usw(inst)
            assert greedy_balanced_usw(inst) == greedy_balanced_usw(inst)
            taus = ["1/1"] + [str(q) for q in inst.quantiles[1:]]
            star = goods(taus, [list(r) for r in inst.values])
            assert optimistic_exact_usw(star) == optimistic_exact_usw(star)
