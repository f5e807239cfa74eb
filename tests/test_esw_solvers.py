"""Egalitarian solver tests: worked examples, oracle-certified decisions per
quantile family, and the structural success-path invariants."""

from __future__ import annotations

import random
import zlib

import pytest

from helpers import random_instance
from quantile_alloc import (
    Allocation,
    Instance,
    IntractableQuantileError,
    InvalidInstanceError,
    Quantile,
    balanced_esw,
    balanced_esw_binary,
    bundle_value,
    esw,
    goods,
    identical_unbalanced_esw,
    opt_welfare,
    threshold_binary,
    unbalanced_esw,
    unbalanced_esw_binary_frac,
    unbalanced_esw_binary_tau0,
    unbalanced_esw_binary_tau1,
    unbalanced_esw_binary_third,
)
from quantile_alloc.esw_solvers import _esw_search_for, _frac_decider, _tau0_decider, _tau1_decider


def oracle_esw_one_exists(instance: Instance) -> bool:
    from quantile_alloc import enumerate_allocations

    return any(
        esw(instance, alloc) >= 1
        for alloc in enumerate_allocations(instance.n, instance.m)
    )


def assert_frac_invariant(instance: Instance, allocation: Allocation, t: int) -> None:
    for i, bundle in enumerate(allocation.bundles(instance.n)):
        ones = sum(1 for g in bundle if instance.values[i][g] == 1)
        zeros = len(bundle) - ones
        assert zeros <= t * ones - 1, f"agent {i}: {zeros} zeros vs {ones} ones"


def assert_third_invariant(instance: Instance, allocation: Allocation) -> None:
    for i, bundle in enumerate(allocation.bundles(instance.n)):
        ones = sum(1 for g in bundle if instance.values[i][g] == 1)
        zeros = len(bundle) - ones
        assert ones >= 2 * zeros + 1, f"agent {i}: {ones} ones vs {zeros} zeros"


class TestBalancedBinary:
    def test_worked_example(self):
        inst = goods(["1/2", "1/2"], [[1, 1, 0, 0], [1, 0, 1, 1]])
        report = balanced_esw_binary(inst)
        assert report.feasible and report.welfare == 1
        assert report.allocation.is_balanced(2)

    def test_agent_with_no_ones_is_infeasible(self):
        inst = goods(["1/2", "1/2"], [[1, 1, 1, 1], [0, 0, 0, 0]])
        report = balanced_esw_binary(inst)
        assert not report.feasible and report.welfare == 0
        assert report.allocation.is_balanced(2)

    def test_all_ones(self):
        inst = goods(["0/1", "1/1"], [[1, 1], [1, 1]])
        assert balanced_esw_binary(inst).welfare == 1

    def test_decisions_match_oracle(self):
        rng = random.Random(101)
        for _ in range(80):
            n = rng.choice([2, 3])
            k = rng.randint(1, 2)
            inst = random_instance(rng, n, n * k, binary=True)
            report = balanced_esw_binary(inst)
            opt = opt_welfare(inst, "esw", balanced=True)[0]
            assert report.welfare == opt
            assert report.feasible == (opt == 1)
            assert report.allocation.is_balanced(n)


class TestBalancedGeneral:
    def test_worked_example(self):
        inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
        report = balanced_esw(inst)
        assert report.welfare == 2
        assert esw(inst, report.allocation) == 2

    def test_flat_matrix(self):
        inst = goods(["1/3", "3/4"], [[4, 4], [4, 4]])
        assert balanced_esw(inst).welfare == 4

    def test_zero_row(self):
        inst = goods(["1/2", "1/2"], [[9, 9], [0, 0]])
        assert balanced_esw(inst).welfare == 0

    def test_requires_divisibility(self):
        with pytest.raises(InvalidInstanceError):
            balanced_esw(goods(["1/2", "1/2"], [[1, 2, 3], [1, 2, 3]]))

    def test_matches_oracle_heterogeneous(self):
        rng = random.Random(202)
        for _ in range(60):
            n = rng.choice([2, 3])
            k = rng.randint(1, 2)
            inst = random_instance(rng, n, n * k)
            report = balanced_esw(inst)
            opt = opt_welfare(inst, "esw", balanced=True)[0]
            assert report.welfare == opt
            assert esw(inst, report.allocation) == report.welfare
            assert report.allocation.is_balanced(n)

    def test_threshold_feasibility_is_monotone(self):
        rng = random.Random(303)
        for _ in range(30):
            n = rng.choice([2, 3])
            inst = random_instance(rng, n, 2 * n)
            levels = sorted({e for row in inst.values for e in row if e > 0})
            flags = [
                balanced_esw_binary(threshold_binary(inst, nu)).feasible for nu in levels
            ]
            # once infeasible, infeasible at every higher level
            assert flags == sorted(flags, reverse=True)


class TestFracFamily:
    def test_worked_example(self):
        inst = goods(["1/2", "1/2"], [[1, 0, 0, 1], [0, 1, 0, 1]])
        report = unbalanced_esw_binary_frac(inst, 1)
        assert report.feasible and report.welfare == 1
        bundles = report.allocation.bundles(2)
        assert bundles[0] == [0, 2, 3] and bundles[1] == [1]

    def test_no_universal_zeros_and_matching(self):
        inst = goods(["2/3", "2/3"], [[1, 0], [0, 1]])
        assert unbalanced_esw_binary_frac(inst, 2).feasible

    def test_offset_budget_violated(self):
        # |M_0| = 2 = t * |M_1| - 0 > t * |M_1| - n, with t = 1.
        inst = goods(["1/2", "1/2"], [[1, 1, 0, 0], [1, 1, 0, 0]])
        report = unbalanced_esw_binary_frac(inst, 1)
        assert not report.feasible and report.welfare == 0

    def test_quantile_mismatch(self):
        with pytest.raises(IntractableQuantileError):
            unbalanced_esw_binary_frac(goods(["1/3"], [[1]]), 1)

    @pytest.mark.parametrize("t", [0, True, 1.0])
    def test_rejects_non_positive_int_t(self, t):
        # True must not run as t = 1.
        with pytest.raises(InvalidInstanceError, match="t must be a positive integer"):
            unbalanced_esw_binary_frac(goods(["1/2"], [[1]]), t)

    @pytest.mark.parametrize("t, tau", [(1, "1/2"), (2, "2/3"), (3, "3/4")])
    def test_decisions_match_oracle(self, t, tau):
        rng = random.Random(1000 + t)
        for _ in range(80):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m, binary=True, taus=[tau] * n)
            report = unbalanced_esw_binary_frac(inst, t)
            expected = oracle_esw_one_exists(inst)
            assert report.feasible == expected
            assert report.welfare == (1 if expected else 0)
            if report.feasible:
                assert_frac_invariant(inst, report.allocation, t)


class TestThirdFamily:
    def test_worked_example(self):
        inst = goods(["1/3", "1/3"], [[1, 1, 1, 0, 0], [0, 0, 0, 1, 0]])
        report = unbalanced_esw_binary_third(inst)
        assert report.feasible and report.welfare == 1
        bundles = report.allocation.bundles(2)
        assert bundles[0] == [0, 1, 2, 4] and bundles[1] == [3]

    def test_no_zeros_saturating(self):
        inst = goods(["1/3", "1/3"], [[1, 0], [0, 1]])
        assert unbalanced_esw_binary_third(inst).feasible

    def test_too_many_universal_zeros(self):
        # Five 1-items for one agent pair up at most twice beyond the matched
        # one; three universal zeros cannot all be offset.
        inst = goods(["1/3"], [[1, 1, 1, 1, 1, 0, 0, 0]])
        report = unbalanced_esw_binary_third(inst)
        assert not report.feasible

    def test_quantile_mismatch(self):
        with pytest.raises(IntractableQuantileError):
            unbalanced_esw_binary_third(goods(["1/2"], [[1]]))

    def test_decisions_match_oracle(self):
        rng = random.Random(4004)
        for _ in range(120):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m, binary=True, taus=["1/3"] * n)
            report = unbalanced_esw_binary_third(inst)
            expected = oracle_esw_one_exists(inst)
            assert report.feasible == expected
            if report.feasible:
                assert_third_invariant(inst, report.allocation)


class TestExtremeTaus:
    def test_tau0_universal_zero_poisons(self):
        inst = goods(["0/1", "0/1"], [[1, 0], [1, 0]])
        assert not unbalanced_esw_binary_tau0(inst).feasible

    def test_tau1_private_items(self):
        inst = goods(["1/1", "1/1"], [[1, 0], [0, 1]])
        assert unbalanced_esw_binary_tau1(inst).feasible

    def test_tau1_single_contested_item(self):
        inst = goods(["1/1", "1/1"], [[1, 0], [1, 0]])
        assert not unbalanced_esw_binary_tau1(inst).feasible

    @pytest.mark.parametrize("tau", ["0/1", "1/1"])
    def test_decisions_match_oracle(self, tau):
        rng = random.Random(5005 if tau == "0/1" else 6006)
        solver = unbalanced_esw_binary_tau0 if tau == "0/1" else unbalanced_esw_binary_tau1
        for _ in range(80):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m, binary=True, taus=[tau] * n)
            report = solver(inst)
            assert report.feasible == oracle_esw_one_exists(inst)


class TestUnbalancedDispatcher:
    def test_half_dispatches_to_frac(self):
        inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
        report = unbalanced_esw(inst)
        assert report.welfare == opt_welfare(inst, "esw")[0]

    def test_intractable_quantile(self):
        inst = goods(["1/4", "1/4"], [[1, 1], [1, 1]])
        with pytest.raises(IntractableQuantileError, match="intractable quantile"):
            unbalanced_esw(inst)

    def test_heterogeneous_rejected(self):
        inst = goods(["1/2", "1/3"], [[1, 1], [1, 1]])
        with pytest.raises(IntractableQuantileError):
            unbalanced_esw(inst)

    def test_flat_matrix_two_thirds(self):
        inst = goods(["2/3", "2/3"], [[7, 7, 7], [7, 7, 7]])
        assert unbalanced_esw(inst).welfare == 7

    def test_decider_families(self):
        assert _esw_search_for(Quantile(0, 1))[0] is _tau0_decider
        assert _esw_search_for(Quantile(1, 1))[0] is _tau1_decider
        assert _esw_search_for(Quantile(1, 3))[0] is not None
        assert _esw_search_for(Quantile(9, 10))[0] is _frac_decider
        with pytest.raises(IntractableQuantileError):
            _esw_search_for(Quantile(2, 5))

    @pytest.mark.parametrize("tau", ["0/1", "1/3", "1/2", "2/3", "3/4", "1/1"])
    def test_matches_oracle_general_values(self, tau):
        rng = random.Random(zlib.crc32(tau.encode()))
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(1, 6)
            inst = random_instance(rng, n, m, taus=[tau] * n, max_value=5)
            report = unbalanced_esw(inst)
            assert report.welfare == opt_welfare(inst, "esw")[0]
            assert esw(inst, report.allocation) == report.welfare


class TestIdentical:
    def test_three_ones_two_zeros_infeasible_at_half(self):
        inst = goods(["1/2"] * 2, [[1, 1, 1, 0, 0]] * 2)
        assert identical_unbalanced_esw(inst).welfare == 0

    def test_binary_report_is_feasible(self):
        # An exact top-level solver reports feasible, whatever its welfare;
        # the binary instance gives the same report as its scaled-up twin.
        for top in (1, 3):
            inst = goods(["1/2"] * 2, [[top, top, top, 0, 0]] * 2)
            report = identical_unbalanced_esw(inst)
            assert report.feasible
            assert report.allocation == Allocation((0,) * 5)
            assert report.welfare == 0

    def test_four_ones_two_zeros_feasible_at_half(self):
        inst = goods(["1/2"] * 2, [[1, 1, 1, 1, 0, 0]] * 2)
        assert identical_unbalanced_esw(inst).welfare == 1

    def test_no_zeros(self):
        inst = goods(["3/4"] * 2, [[1, 1, 1]] * 2)
        assert identical_unbalanced_esw(inst).welfare == 1

    def test_uneven_split_beats_even_split(self):
        # At tau = 2/3, four worthless items split 1 + 3 need only 1 + 2 ones;
        # the even 2 + 2 split would need 4 ones and wrongly report failure.
        inst = goods(["2/3"] * 2, [[0, 1, 1, 0, 1, 0, 0]] * 2)
        report = identical_unbalanced_esw(inst)
        assert report.welfare == 1
        assert report.welfare == opt_welfare(inst, "esw")[0]

    def test_rejects_non_identical(self):
        with pytest.raises(InvalidInstanceError):
            identical_unbalanced_esw(goods(["1/2"] * 2, [[1, 0], [0, 1]]))
        with pytest.raises(InvalidInstanceError):
            identical_unbalanced_esw(goods(["1/2", "1/3"], [[1, 0], [1, 0]]))

    def test_matches_oracle_general_values(self):
        rng = random.Random(7007)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = random_instance(rng, n, m, identical=True, homogeneous=True, max_value=5)
            report = identical_unbalanced_esw(inst)
            assert report.welfare == opt_welfare(inst, "esw")[0]


class TestExhaustiveSmall:
    def test_every_binary_matrix_tiny_sizes(self):
        # Complete sweep, not a sample: every binary matrix with n = 1, m <= 4
        # and n = 2, m <= 3, for every family decider.
        import itertools

        from quantile_alloc import enumerate_allocations, make_instance

        families = [
            ("1/2", lambda i: unbalanced_esw_binary_frac(i, 1)),
            ("2/3", lambda i: unbalanced_esw_binary_frac(i, 2)),
            ("1/3", unbalanced_esw_binary_third),
            ("0/1", unbalanced_esw_binary_tau0),
            ("1/1", unbalanced_esw_binary_tau1),
        ]
        for n, mmax in [(1, 4), (2, 3)]:
            for m in range(1, mmax + 1):
                for bits in itertools.product([0, 1], repeat=n * m):
                    rows = [list(bits[i * m : (i + 1) * m]) for i in range(n)]
                    for tau, solver in families:
                        inst = make_instance("goods", [tau] * n, rows)
                        expected = any(
                            esw(inst, a) >= 1 for a in enumerate_allocations(n, m)
                        )
                        assert solver(inst).feasible == expected, (tau, rows)


class TestReportInvariant:
    def test_welfare_always_recomputable(self):
        rng = random.Random(8008)
        for _ in range(30):
            n = rng.choice([2, 3])
            inst = random_instance(rng, n, 2 * n)
            report = balanced_esw(inst)
            assert esw(inst, report.allocation) == report.welfare

    def test_single_agent_bundle_value(self):
        inst = goods(["1/2"], [[3, 1, 4]])
        report = unbalanced_esw(inst)
        assert report.welfare == bundle_value(inst, 0, range(3)) == opt_welfare(inst, "esw")[0]
