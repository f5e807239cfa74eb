"""Chores solver tests: balanced egalitarian cost, greedy set-cover
utilitarian cost, and the extreme-quantile exact routines."""

from __future__ import annotations

import random

import pytest

from helpers import harmonic, random_instance
from quantile_alloc import (
    Allocation,
    IntractableQuantileError,
    InvalidInstanceError,
    balanced_esc,
    balanced_esc_binary,
    bundle_value,
    chores,
    esc,
    esc_tau0,
    esc_tau1,
    goods,
    opt_welfare,
    usc,
    usc_tau0_setcover,
)
from quantile_alloc.core import quantile_index


class TestSignConvention:
    def test_bundle_disutility_reads_negated_values(self):
        rng = random.Random(31)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 6), kind="chores")
            agent = rng.randrange(inst.n)
            bundle = [g for g in range(inst.m) if rng.random() < 0.6]
            if not bundle:
                continue
            row = [inst.values[agent][g] for g in bundle]
            idx = quantile_index(inst.quantiles[agent], len(row))
            expected = -sorted(-d for d in row)[idx - 1]
            assert bundle_value(inst, agent, bundle) == expected


class TestBalancedEsc:
    def test_binary_worked_example(self):
        inst = chores(["1/2", "1/2"], [[0, 0, 1, 1], [1, 1, 0, 0]])
        report = balanced_esc_binary(inst)
        assert report.feasible and report.welfare == 0
        assert report.allocation.bundles(2) == [[0, 1], [2, 3]]

    def test_all_zero_disutilities(self):
        inst = chores(["1/2", "0/1"], [[0, 0], [0, 0]])
        assert balanced_esc(inst).welfare == 0

    def test_single_pessimist_universal_bad(self):
        inst = chores(["0/1"], [[1]])
        assert balanced_esc(inst).welfare == 1

    def test_requires_divisibility(self):
        with pytest.raises(InvalidInstanceError):
            balanced_esc(chores(["1/2", "1/2"], [[1, 1, 1], [1, 1, 1]]))

    def test_requires_chores(self):
        with pytest.raises(InvalidInstanceError):
            balanced_esc(goods(["1/2"], [[1]]))

    def test_matches_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.choice([2, 3])
            k = rng.randint(1, 2)
            inst = random_instance(rng, n, n * k, kind="chores")
            report = balanced_esc(inst)
            opt = opt_welfare(inst, "esc", balanced=True)[0]
            assert report.welfare == opt
            assert esc(inst, report.allocation) == report.welfare
            assert report.allocation.is_balanced(n)


class TestSetCover:
    def test_prefix_weight_is_lth_lowest(self):
        # Agent 0 ranks chores 1, 0, 2 (prefix weights 2, 4, 7); agent 1
        # ranks 2, 0, 1 (weights 3, 5, 9).  Round 1: agent 0's length-1
        # prefix {1} at 2/1 beats every other ratio, and its length-2 tie at
        # 4/2 loses to the earlier candidate.  Round 2, chores 0 and 2 left:
        # agent 1's length-2 prefix {0, 2} at 5/2 beats agent 1's {2} at
        # 3/1 and agent 0's {0, 1, 2} at 7/2.  Weighing a prefix by its sum
        # or by the (L+1)-th disutility would pick differently.
        inst = chores(["0/1", "0/1"], [[4, 2, 7], [5, 9, 3]])
        report = usc_tau0_setcover(inst)
        assert report.allocation == Allocation((1, 0, 1))
        assert report.welfare == 2 + 5

    def test_worked_example(self):
        inst = chores(["0/1", "0/1"], [[1, 1, 9], [9, 9, 2]])
        report = usc_tau0_setcover(inst)
        assert report.allocation == Allocation((0, 0, 1))
        assert report.welfare == 3
        assert report.welfare == opt_welfare(inst, "usc")[0]

    def test_single_agent(self):
        inst = chores(["0/1"], [[3, 8, 1]])
        report = usc_tau0_setcover(inst)
        assert report.welfare == 8

    def test_zero_matrix(self):
        inst = chores(["0/1", "0/1"], [[0, 0], [0, 0]])
        assert usc_tau0_setcover(inst).welfare == 0

    def test_quantile_mismatch(self):
        with pytest.raises(IntractableQuantileError):
            usc_tau0_setcover(chores(["1/2"], [[1]]))

    def test_log_bound_against_oracle(self):
        rng = random.Random(51)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m, kind="chores", taus=["0/1"] * n)
            report = usc_tau0_setcover(inst)
            opt = opt_welfare(inst, "usc")[0]
            assert report.welfare <= harmonic(m) * opt
            assert usc(inst, report.allocation) == report.welfare


class TestExtremeEsc:
    def test_tau0_universal_bad_forces_cost(self):
        inst = chores(["0/1", "0/1"], [[1, 0], [1, 0]])
        report = esc_tau0(inst)
        assert report.welfare == 1

    def test_tau0_every_chore_has_a_home(self):
        inst = chores(["0/1", "0/1"], [[0, 1], [1, 0]])
        report = esc_tau0(inst)
        assert report.welfare == 0
        assert report.allocation == Allocation((0, 1))

    def test_tau1_zero_chore_agent_takes_all(self):
        inst = chores(["1/1", "1/1"], [[1, 1, 1], [1, 0, 1]])
        report = esc_tau1(inst)
        assert report.welfare == 0
        assert report.allocation == Allocation((1, 1, 1))

    def test_tau1_no_zero_anywhere(self):
        inst = chores(["1/1", "1/1"], [[2, 3], [4, 5]])
        report = esc_tau1(inst)
        assert report.welfare == 2  # all chores to the agent whose best is cheapest

    def test_quantile_mismatch(self):
        with pytest.raises(IntractableQuantileError):
            esc_tau0(chores(["1/2"], [[1]]))
        with pytest.raises(IntractableQuantileError):
            esc_tau1(chores(["1/2"], [[1]]))

    @pytest.mark.parametrize("tau", ["0/1", "1/1"])
    def test_matches_oracle_general_values(self, tau):
        rng = random.Random(61 if tau == "0/1" else 71)
        solver = esc_tau0 if tau == "0/1" else esc_tau1
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            inst = random_instance(rng, n, m, kind="chores", taus=[tau] * n, max_value=5)
            report = solver(inst)
            assert report.welfare == opt_welfare(inst, "esc")[0]
            assert esc(inst, report.allocation) == report.welfare
