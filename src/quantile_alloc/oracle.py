"""Exhaustive ground truth for desk-scale certification.

Enumerates every allocation (or every balanced allocation) of an instance to
find exact optimal welfare, and every matching of a small graph to find exact
optimal matchings.  No sampling, no heuristics: if an input is too large for
the budget, enumeration refuses loudly instead of degrading quietly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Literal

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    bundle_value,
    require_objective_kind,
)
from .matching import Graph, Matching

Objective = Literal["usw", "esw", "usc", "esc"]

_MAXIMIZING = {"usw": True, "esw": True, "usc": False, "esc": False}


class BudgetExceededError(Exception):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard cap on how many allocations an exhaustive scan may visit."""

    max_allocations: int = 10_000_000


DEFAULT_BUDGET = EnumerationBudget()


def allocation_count(n: int, m: int, balanced: bool = False) -> int:
    """Closed-form count of (balanced) allocations: n**m, or m! / (k!)**n."""
    if n < 1 or m < 1:
        raise InvalidInstanceError("need at least one agent and one item")
    if not balanced:
        return n**m
    if m % n != 0:
        raise InvalidInstanceError(f"agent count {n} does not divide item count {m}")
    k = m // n
    return math.factorial(m) // (math.factorial(k) ** n)


def enumerate_allocations(
    n: int,
    m: int,
    balanced: bool = False,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Iterator[Allocation]:
    """Yield every allocation exactly once, in a fixed deterministic order.

    Unbalanced: owner tuples in lexicographic order (agent indices as digits).
    Balanced: agent 0's bundle iterates over ascending index combinations,
    then recursively agent 1's, and so on.
    """
    total = allocation_count(n, m, balanced)
    if total > budget.max_allocations:
        raise BudgetExceededError(
            f"{total} allocations exceed the budget of {budget.max_allocations}"
        )
    if not balanced:
        for owner in product(range(n), repeat=m):
            yield Allocation(owner)
        return

    k = m // n
    owner = [0] * m

    def fill(agent: int, remaining: tuple[int, ...]) -> Iterator[Allocation]:
        if agent == n - 1:
            for g in remaining:
                owner[g] = agent
            yield Allocation(tuple(owner))
            return
        for bundle in combinations(remaining, k):
            for g in bundle:
                owner[g] = agent
            rest = tuple(g for g in remaining if g not in bundle)
            yield from fill(agent + 1, rest)

    yield from fill(0, tuple(range(m)))


def evaluate(instance: Instance, objective: Objective, allocation: Allocation) -> int:
    """Objective value of one allocation (sum or min/max of bundle values)."""
    require_objective_kind(instance, objective)
    bundles = allocation.bundles(instance.n)
    per_agent = [bundle_value(instance, i, b) for i, b in enumerate(bundles)]
    if objective == "usw" or objective == "usc":
        return sum(per_agent)
    if objective == "esw":
        return min(per_agent)
    return max(per_agent)


def opt_welfare(
    instance: Instance,
    objective: Objective,
    balanced: bool = False,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> tuple[int, Allocation]:
    """Exact optimum and one witness allocation (first in enumeration order).

    Welfare objectives (usw, esw) are maximized; cost objectives (usc, esc)
    are minimized.
    """
    require_objective_kind(instance, objective)
    maximize = _MAXIMIZING[objective]
    best_value: int | None = None
    best_alloc: Allocation | None = None
    for alloc in enumerate_allocations(instance.n, instance.m, balanced, budget):
        value = evaluate(instance, objective, alloc)
        if (
            best_value is None
            or (maximize and value > best_value)
            or (not maximize and value < best_value)
        ):
            best_value = value
            best_alloc = alloc
    assert best_value is not None and best_alloc is not None
    return best_value, best_alloc


MAX_BRUTE_EDGES = 20


def brute_matching(graph: Graph, weighted: bool = True) -> Matching:
    """Exhaustive optimal matching over all vertex-disjoint edge subsets.

    Maximizes total weight when ``weighted`` else cardinality.  Ties go to
    the lexicographically smallest sorted edge-index sequence with missing
    entries comparing as +infinity (padded with ``len(edges)``, above every
    index) -- the same contract the matching engine promises, implemented
    here by direct comparison so the routes stay independent.
    """
    edges = graph.edges
    if len(edges) > MAX_BRUTE_EDGES:
        raise BudgetExceededError(
            f"{len(edges)} edges exceed the brute-force cap of {MAX_BRUTE_EDGES}"
        )

    best_key: tuple[int, tuple[int, ...]] | None = None
    best_subset: tuple[int, ...] = ()
    pad = len(edges)

    def consider(subset: list[int]) -> None:
        nonlocal best_key, best_subset
        value = sum(edges[i][2] for i in subset) if weighted else len(subset)
        seq = tuple(subset) + (pad,) * (pad - len(subset))
        if best_key is None or value > best_key[0] or (value == best_key[0] and seq < best_key[1]):
            best_key = (value, seq)
            best_subset = tuple(subset)

    used: set[int] = set()
    chosen: list[int] = []

    def explore(i: int) -> None:
        if i == len(edges):
            consider(chosen)
            return
        u, v, _ = edges[i]
        if u not in used and v not in used:
            used.update((u, v))
            chosen.append(i)
            explore(i + 1)
            chosen.pop()
            used.difference_update((u, v))
        explore(i + 1)

    explore(0)
    return Matching(tuple(edges[i] for i in best_subset))
