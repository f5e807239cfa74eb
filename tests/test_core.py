"""Core model tests: quantile arithmetic, bundle evaluation, welfare
aggregation, and the binary threshold reduction."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantile_alloc
from helpers import random_allocation, random_instance
from quantile_alloc import (
    Allocation,
    Instance,
    InvalidInstanceError,
    Quantile,
    bundle_value,
    chores,
    demand_quota,
    esc,
    esw,
    goods,
    quantile_index,
    threshold_binary,
    usc,
    usw,
)

TAUS = [
    Quantile(0, 1),
    Quantile(1, 5),
    Quantile(1, 4),
    Quantile(1, 3),
    Quantile(2, 5),
    Quantile(1, 2),
    Quantile(3, 5),
    Quantile(2, 3),
    Quantile(3, 4),
    Quantile(1, 1),
]

tau_st = st.sampled_from(TAUS)
size_st = st.integers(min_value=1, max_value=12)


class TestQuantile:
    def test_parse_and_str_round_trip(self):
        assert str(Quantile.parse("2/3")) == "2/3"
        assert Quantile.parse("0/1").is_zero
        assert Quantile.parse("1/1").is_one

    @pytest.mark.parametrize(
        "text",
        [
            "3/3", "2/4", "5/4", "-1/2", "1/0", "0/2", "0.5", "half",
            "1_0/2_1", " 1/ 2", "1 /2", "+1/2", "-0/1", "\uff11/\uff12",
        ],
    )
    def test_rejects_bad_rationals(self, text):
        with pytest.raises(InvalidInstanceError):
            Quantile.parse(text)

    @pytest.mark.parametrize("parts", [(True, 2), (0, True), (False, 1), (1, 2.0)])
    def test_rejects_non_int_parts(self, parts):
        # A truth value would print as "True/2", which parse rejects.
        with pytest.raises(InvalidInstanceError, match="quantile parts must be integers"):
            Quantile(*parts)


class TestQuantileIndex:
    @pytest.mark.parametrize(
        "tau, s, expected",
        [
            (Quantile(0, 1), 5, 1),
            (Quantile(1, 1), 4, 4),
            (Quantile(1, 2), 3, 2),
        ],
    )
    def test_examples(self, tau, s, expected):
        assert quantile_index(tau, s) == expected

    @given(tau=tau_st, s=size_st)
    def test_in_range(self, tau, s):
        idx = quantile_index(tau, s)
        assert 1 <= idx <= s
        if tau.is_zero:
            assert idx == 1
        if tau.is_one:
            assert idx == s

    @given(s=size_st)
    def test_monotone_in_tau(self, s):
        ordered = sorted(TAUS, key=lambda q: Fraction(q.numerator, q.denominator))
        indices = [quantile_index(tau, s) for tau in ordered]
        assert indices == sorted(indices)

    @given(tau=tau_st, s=size_st)
    def test_matches_fraction_ceiling(self, tau, s):
        if tau.is_zero:
            return
        exact = Fraction(tau.numerator * s, tau.denominator)
        assert quantile_index(tau, s) == -(-exact.numerator // exact.denominator)

    @given(tau=tau_st, k=size_st)
    def test_demand_quota_in_range(self, tau, k):
        assert 1 <= demand_quota(tau, k) <= k

    @pytest.mark.parametrize("size", [2.5, 2.0, True, 0])
    def test_rejects_non_int_sizes(self, size):
        # A float or truth value must not enter an order-statistic index.
        for function in (quantile_index, demand_quota):
            with pytest.raises(ValueError, match="bundle size must be at least 1"):
                function(Quantile(1, 2), size)


class TestBundleValue:
    def test_goods_median_example(self):
        inst = goods(["1/2"], [[3, 7, 2]])
        assert bundle_value(inst, 0, [0, 1, 2]) == 3

    def test_chores_pessimist_takes_worst(self):
        inst = chores(["0/1"], [[3, 7, 2]])
        assert bundle_value(inst, 0, [0, 1, 2]) == 7

    def test_chores_optimist_takes_best(self):
        inst = chores(["1/1"], [[3, 7, 2]])
        assert bundle_value(inst, 0, [0, 1, 2]) == 2

    def test_empty_bundle_is_zero(self):
        assert bundle_value(goods(["1/2"], [[4, 4]]), 0, []) == 0
        assert bundle_value(chores(["1/2"], [[4, 4]]), 0, []) == 0

    def test_agent_out_of_range(self):
        with pytest.raises(IndexError):
            bundle_value(goods(["1/2"], [[1]]), 1, [0])

    @given(data=st.data())
    @settings(max_examples=150)
    def test_membership_and_reorder_invariance(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        kind = data.draw(st.sampled_from(["goods", "chores"]))
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 6), kind=kind)
        agent = rng.randrange(inst.n)
        bundle = [g for g in range(inst.m) if rng.random() < 0.6]
        if not bundle:
            return
        value = bundle_value(inst, agent, bundle)
        assert value in {inst.values[agent][g] for g in bundle}
        shuffled = bundle[:]
        rng.shuffle(shuffled)
        assert bundle_value(inst, agent, shuffled) == value

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_monotone_in_tau_for_fixed_bundle(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 6)
        row = [rng.randint(0, 9) for _ in range(m)]
        bundle = list(range(m))
        ordered = sorted(TAUS, key=lambda q: Fraction(q.numerator, q.denominator))
        goods_vals = [
            bundle_value(goods([str(t)], [row]), 0, bundle) for t in ordered
        ]
        chores_vals = [
            bundle_value(chores([str(t)], [row]), 0, bundle) for t in ordered
        ]
        assert goods_vals == sorted(goods_vals)
        assert chores_vals == sorted(chores_vals, reverse=True)

    @given(seed=st.integers(0, 10**6), scale=st.integers(1, 7))
    @settings(max_examples=100)
    def test_scaling(self, seed, scale):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 6))
        scaled = Instance(
            kind=inst.kind,
            quantiles=inst.quantiles,
            values=tuple(tuple(v * scale for v in row) for row in inst.values),
        )
        agent = rng.randrange(inst.n)
        bundle = [g for g in range(inst.m) if rng.random() < 0.6]
        if bundle:
            assert bundle_value(scaled, agent, bundle) == scale * bundle_value(
                inst, agent, bundle
            )


class TestWelfare:
    def test_single_agent_usw_equals_esw(self):
        inst = goods(["2/3"], [[4, 0, 9]])
        alloc = Allocation((0, 0, 0))
        assert usw(inst, alloc) == esw(inst, alloc) == bundle_value(inst, 0, [0, 1, 2])

    def test_greedy_example_values(self):
        # Balanced optimum of this instance is usw 6 / esw 2 (exhaustive over
        # the 6 balanced 2+2 partitions).
        inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
        alloc = Allocation((0, 0, 1, 1))
        assert usw(inst, alloc) == 6
        assert esw(inst, alloc) == 2

    def test_zero_matrix(self):
        inst = goods(["1/2", "1/2"], [[0, 0], [0, 0]])
        alloc = Allocation((0, 1))
        assert usw(inst, alloc) == 0
        assert esw(inst, alloc) == 0

    def test_kind_mismatch(self):
        good = goods(["1/2"], [[1]])
        bad = chores(["1/2"], [[1]])
        alloc = Allocation((0,))
        with pytest.raises(InvalidInstanceError):
            usw(bad, alloc)
        with pytest.raises(InvalidInstanceError):
            esc(good, alloc)

    def test_chores_optimist_hides_everything(self):
        inst = chores(["1/2", "1/1"], [[3, 5, 1], [3, 5, 0]])
        alloc = Allocation((1, 1, 1))
        assert esc(inst, alloc) == 0
        assert usc(inst, alloc) == 0

    def test_setcover_example_cost(self):
        # Exhaustive over the 8 allocations: optimal usc is 3.
        inst = chores(["0/1", "0/1"], [[1, 1, 9], [9, 9, 2]])
        alloc = Allocation((0, 0, 1))
        assert usc(inst, alloc) == 3

    def test_zero_disutilities(self):
        inst = chores(["0/1"], [[0, 0]])
        alloc = Allocation((0, 0))
        assert usc(inst, alloc) == 0
        assert esc(inst, alloc) == 0


class TestThresholdBinary:
    def test_examples(self):
        inst = goods(["1/2"], [[5, 4, 1, 0]])
        assert threshold_binary(inst, 2).values == ((1, 1, 0, 0),)
        assert threshold_binary(inst, 1).values == ((1, 1, 1, 0),)
        assert threshold_binary(inst, 6).values == ((0, 0, 0, 0),)

    def test_all_entries_at_least_one(self):
        inst = goods(["1/2"], [[2, 7, 1]])
        assert threshold_binary(inst, 1).values == ((1, 1, 1),)

    def test_preserves_kind_and_quantiles(self):
        inst = chores(["1/3", "1/2"], [[2, 0], [5, 1]])
        reduced = threshold_binary(inst, 2)
        assert reduced.kind == "chores"
        assert reduced.quantiles == inst.quantiles
        assert reduced.values == ((1, 0), (1, 0))

    def test_rejects_nonpositive_level(self):
        with pytest.raises(InvalidInstanceError):
            threshold_binary(goods(["1/2"], [[1]]), 0)
        # Levels are integers: a float or a truth value is not one.
        for level in (1.5, 1.0, True):
            with pytest.raises(InvalidInstanceError, match="positive integer"):
                threshold_binary(goods(["1/2"], [[1]]), level)

    @given(seed=st.integers(0, 10**6), nu=st.integers(1, 10))
    @settings(max_examples=300)
    def test_threshold_equivalence(self, seed, nu):
        # esw >= nu under the original values iff esw == 1 after thresholding,
        # for allocations with non-empty bundles.
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        m = rng.randint(n, 6)
        inst = random_instance(rng, n, m, kind="goods")
        alloc = random_allocation(rng, n, m, nonempty=True)
        lhs = esw(inst, alloc) >= nu
        rhs = esw(threshold_binary(inst, nu), alloc) == 1
        assert lhs == rhs


class TestValidation:
    def test_ragged_matrix(self):
        with pytest.raises(InvalidInstanceError):
            goods(["1/2", "1/2"], [[1, 2], [3]])

    def test_non_integer_entries(self):
        with pytest.raises(InvalidInstanceError):
            goods(["1/2"], [[1.5, 2]])

    def test_negative_entries(self):
        with pytest.raises(InvalidInstanceError):
            goods(["1/2"], [[-1, 2]])

    @pytest.mark.parametrize("quantile", ["1/2", 0.5, (1, 2), None])
    def test_non_quantile_quantiles(self, quantile):
        # make_instance parses "p/q" strings; the dataclass itself takes only
        # Quantile objects, instead of failing later inside a solver.
        with pytest.raises(InvalidInstanceError, match="quantiles must be Quantile objects"):
            Instance("goods", (quantile,), ((1, 2),))

    @pytest.mark.parametrize(
        "rows, bad",
        [
            ([[0, 1], [1, True]], "True"),
            ([[0, 1.0], [-1, 0]], "1.0"),
            ([[0, 1], [-1, 2.5]], "-1"),
            ([[0, "1"], [0, 0]], "'1'"),
        ],
    )
    def test_message_names_first_bad_entry(self, rows, bad):
        # bool is an int subclass, but a truth value is not a valuation.
        message = f"matrix entries must be non-negative integers, got {bad}"
        with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
            goods(["1/2", "1/2"], rows)

    def test_int_subclass_entries_accepted(self):
        class Level(int):
            pass

        inst = goods(["1/2"], [[Level(1), 0, Level(0)]])
        assert inst.is_binary
        assert not goods(["1/2"], [[Level(2), 0]]).is_binary

    def test_quantile_count_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            goods(["1/2"], [[1, 2], [3, 4]])

    def test_owner_out_of_range(self):
        inst = goods(["1/2"], [[1, 2]])
        with pytest.raises(InvalidInstanceError):
            usw(inst, Allocation((0, 1)))

    def test_allocation_length_mismatch(self):
        inst = goods(["1/2"], [[1, 2]])
        with pytest.raises(InvalidInstanceError):
            usw(inst, Allocation((0,)))


# Every public solver, with the objective it optimizes.
SOLVER_OBJECTIVES = [
    ("balanced_esw", "esw"),
    ("balanced_esw_binary", "esw"),
    ("unbalanced_esw", "esw"),
    ("unbalanced_esw_binary_frac", "esw"),
    ("unbalanced_esw_binary_third", "esw"),
    ("unbalanced_esw_binary_tau0", "esw"),
    ("unbalanced_esw_binary_tau1", "esw"),
    ("identical_unbalanced_esw", "esw"),
    ("greedy_balanced_usw", "usw"),
    ("scapegoat_usw", "usw"),
    ("optimistic_exact_usw", "usw"),
    ("identical_binary_usw_unbalanced", "usw"),
    ("balanced_esc", "esc"),
    ("balanced_esc_binary", "esc"),
    ("esc_tau0", "esc"),
    ("esc_tau1", "esc"),
    ("usc_tau0_setcover", "usc"),
]


@pytest.mark.parametrize("solver,objective", SOLVER_OBJECTIVES)
def test_solver_refuses_the_other_kind(solver, objective):
    # Library callers get the same message as the CLI's kind check.
    wrong = "chores" if objective in ("usw", "esw") else "goods"
    inst = quantile_alloc.make_instance(wrong, ["0/1", "0/1"], [[1, 0], [1, 0]])
    extra = (1,) if solver == "unbalanced_esw_binary_frac" else ()
    message = f"objective {objective} does not apply to a {wrong} instance"
    with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
        getattr(quantile_alloc, solver)(inst, *extra)
