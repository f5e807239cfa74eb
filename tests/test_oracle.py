"""Oracle self-checks: enumeration counts, exact optima, budget behavior,
and the bundle tables ``opt_welfare`` walks against the per-allocation scan
it replaced."""

from __future__ import annotations

import random
import time
import zlib

import pytest

from helpers import random_instance
from quantile_alloc import (
    Allocation,
    BudgetExceededError,
    EnumerationBudget,
    Graph,
    Instance,
    InvalidInstanceError,
    allocation_count,
    brute_matching,
    bundle_value,
    chores,
    enumerate_allocations,
    goods,
    make_instance,
    opt_welfare,
    oracle,
)
from quantile_alloc.oracle import bundle_value_table, evaluate

OBJECTIVES = {"goods": ("usw", "esw"), "chores": ("usc", "esc")}
TABLE_TAUS = ["0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1"]


def reference_opt(instance, objective, balanced=False):
    """The per-allocation scan: ``evaluate`` over ``enumerate_allocations``,
    keeping the first strictly best allocation."""
    maximize = objective in ("usw", "esw")
    best_value = best_alloc = None
    for alloc in enumerate_allocations(instance.n, instance.m, balanced):
        value = evaluate(instance, objective, alloc)
        if best_value is None or (value > best_value if maximize else value < best_value):
            best_value, best_alloc = value, alloc
    return best_value, best_alloc


def items_of(mask: int) -> list[int]:
    return [g for g in range(mask.bit_length()) if mask >> g & 1]


def refuse_table(*args, **kwargs):
    raise AssertionError("a bundle table was built")


class TestEnumeration:
    @pytest.mark.parametrize(
        "n, m, balanced, expected",
        [
            (2, 2, False, 4),
            (2, 4, True, 6),
            (1, 5, False, 1),
            (1, 5, True, 1),
            (3, 3, True, 6),
            (3, 4, False, 81),
        ],
    )
    def test_counts_match_closed_form(self, n, m, balanced, expected):
        assert allocation_count(n, m, balanced) == expected
        allocations = list(enumerate_allocations(n, m, balanced))
        assert len(allocations) == expected
        assert len(set(allocations)) == expected

    def test_balanced_yields_balanced(self):
        for alloc in enumerate_allocations(2, 6, balanced=True):
            assert alloc.is_balanced(2)

    def test_balanced_requires_divisibility(self):
        with pytest.raises(InvalidInstanceError):
            allocation_count(2, 5, balanced=True)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_allocations(4, 12))  # 16,777,216 > default cap

    def test_small_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_allocations(2, 4, budget=EnumerationBudget(max_allocations=10)))

    def test_deterministic_order(self):
        first = list(enumerate_allocations(2, 4, balanced=True))
        second = list(enumerate_allocations(2, 4, balanced=True))
        assert first == second


class TestOptWelfare:
    def test_scapegoat_instance(self):
        inst = goods(["0/1"] * 3, [[10, 0, 0, 0], [0, 8, 0, 0], [0, 0, 6, 5]])
        value, witness = opt_welfare(inst, "usw")
        assert value == 23
        assert witness.m == 4

    def test_single_agent(self):
        inst = goods(["1/3"], [[2, 9, 4]])
        value, witness = opt_welfare(inst, "usw")
        assert value == bundle_value(inst, 0, [0, 1, 2])
        assert witness == Allocation((0, 0, 0))

    def test_greedy_instance_balanced(self):
        inst = goods(["1/2", "1/2"], [[5, 4, 1, 0], [5, 1, 3, 2]])
        assert opt_welfare(inst, "usw", balanced=True)[0] == 6
        assert opt_welfare(inst, "esw", balanced=True)[0] == 2

    def test_cost_objectives_minimize(self):
        inst = goods(["0/1"], [[1]])
        with pytest.raises(InvalidInstanceError):
            opt_welfare(inst, "usc")

    def test_witness_attains_reported_value(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = rng.randint(1, 5)
            kind = rng.choice(["goods", "chores"])
            inst = random_instance(rng, n, m, kind=kind)
            objective = rng.choice(["usw", "esw"] if kind == "goods" else ["usc", "esc"])
            value, witness = opt_welfare(inst, objective)
            assert evaluate(inst, objective, witness) == value

    def test_adding_zero_agent_never_hurts_usw(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 2)
            m = rng.randint(1, 5)
            inst = random_instance(rng, n, m, kind="goods")
            extended = Instance(
                kind=inst.kind,
                quantiles=inst.quantiles + (inst.quantiles[0],),
                values=inst.values + ((0,) * m,),
            )
            assert opt_welfare(extended, "usw")[0] >= opt_welfare(inst, "usw")[0]


class TestEvaluate:
    @pytest.mark.parametrize("owner", [(0,), (0, 0, 1, 1)])
    def test_wrong_length_allocation_rejected(self, owner):
        inst = goods(["1/1", "1/1"], [[5, 1, 1], [1, 1, 1]])
        with pytest.raises(
            InvalidInstanceError, match=f"allocation covers {len(owner)} items, instance has 3"
        ):
            evaluate(inst, "usw", Allocation(owner))


class TestTableParity:
    """``opt_welfare`` against ``reference_opt``: same value, same witness."""

    @staticmethod
    def assert_same(rng, n, m, kind, balanced, top):
        inst = random_instance(rng, n, m, kind=kind, max_value=top)
        for objective in OBJECTIVES[kind]:
            assert opt_welfare(inst, objective, balanced) == reference_opt(
                inst, objective, balanced
            ), (objective, balanced, inst)

    @pytest.mark.parametrize("top", [1, 9])
    @pytest.mark.parametrize("balanced", [False, True])
    @pytest.mark.parametrize("kind", ["goods", "chores"])
    def test_small_draws(self, kind, balanced, top):
        seed = zlib.crc32(f"table parity {kind} {balanced} {top}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randint(1, 4)
            if balanced:
                m = n * rng.randint(1, 8 // n)
            else:
                m = rng.randint(1, 8 if n < 4 else 6)
            self.assert_same(rng, n, m, kind, balanced, top)

    @pytest.mark.parametrize(
        "n, m, balanced", [(3, 9, False), (2, 14, False), (2, 14, True)]
    )
    @pytest.mark.parametrize("kind", ["goods", "chores"])
    def test_certify_sizes(self, kind, n, m, balanced):
        seed = zlib.crc32(f"table parity {kind} {n}x{m} {balanced}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        self.assert_same(rng, n, m, kind, balanced, rng.choice([1, 9]))


class TestBundleValueTable:
    @pytest.mark.parametrize("tau", TABLE_TAUS)
    @pytest.mark.parametrize("kind", ["goods", "chores"])
    def test_every_mask_matches_bundle_value(self, kind, tau):
        seed = zlib.crc32(f"bundle table {kind} {tau}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        for m in range(1, 9):
            rows = [[rng.randint(0, rng.choice([1, 9])) for _ in range(m)] for _ in range(2)]
            inst = make_instance(kind, [tau, rng.choice(TABLE_TAUS)], rows)
            for agent in range(2):
                expected = [bundle_value(inst, agent, items_of(mask)) for mask in range(1 << m)]
                assert expected[0] == 0
                assert bundle_value_table(inst, agent) == expected, (agent, inst)
                for size in range(1, m + 1):
                    sized = [
                        value if mask.bit_count() == size else 0
                        for mask, value in enumerate(expected)
                    ]
                    assert bundle_value_table(inst, agent, (size,)) == sized, (agent, size, inst)


class TestSizeGuards:
    @pytest.mark.parametrize("balanced", [False, True])
    def test_single_agent_builds_no_table(self, balanced, monkeypatch):
        monkeypatch.setattr(oracle, "bundle_value_table", refuse_table)
        start = time.perf_counter()
        value, witness = opt_welfare(goods(["1/2"], [[1] * 60]), "usw", balanced)
        assert time.perf_counter() - start < 1.0
        assert (value, witness) == (1, Allocation((0,) * 60))

    @pytest.mark.parametrize("balanced", [False, True])
    def test_budget_refused_before_any_table(self, balanced, monkeypatch):
        monkeypatch.setattr(oracle, "bundle_value_table", refuse_table)
        inst = chores(["1/2", "1/2"], [[1] * 40, [2] * 40])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            opt_welfare(inst, "usc", balanced)
        assert time.perf_counter() - start < 1.0

    def test_kind_checked_before_budget(self, monkeypatch):
        monkeypatch.setattr(oracle, "bundle_value_table", refuse_table)
        with pytest.raises(InvalidInstanceError, match="does not apply"):
            opt_welfare(goods(["1/2", "1/2"], [[1] * 40, [2] * 40]), "usc")


class TestBruteMatching:
    def test_triangle_unit_weights(self):
        graph = Graph(num_vertices=3, edges=((0, 1, 1), (0, 2, 1), (1, 2, 1)))
        assert brute_matching(graph, weighted=False).size == 1

    def test_no_edges(self):
        graph = Graph(num_vertices=2, edges=())
        assert brute_matching(graph).size == 0

    def test_edge_cap(self):
        edges = tuple((0, i, 1) for i in range(1, 22))
        graph = Graph(num_vertices=22, edges=edges)
        with pytest.raises(BudgetExceededError):
            brute_matching(graph)
