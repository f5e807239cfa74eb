"""Exhaustive ground truth for desk-scale certification.

Enumerates every allocation (or every balanced allocation) of an instance to
find exact optimal welfare, and every matching of a small graph to find exact
optimal matchings.  No sampling, no heuristics: if an input is too large for
the budget, enumeration refuses loudly instead of degrading quietly.

``opt_welfare`` does not score allocations one at a time.  It first tabulates
each agent's quantile value of the bundles it can receive, in a list indexed
by item mask (bit g set when item g is in the bundle), and then walks the
owner tuples of ``enumerate_allocations`` in the same order, scoring them a
block at a time from table lookups.  Valuing never outgrows the walk:
unbalanced tables value all 2**m masks against n**m allocations (n >= 2),
balanced ones only the masks of size m / n (their other entries stay 0), and
a single agent gets no table.  Memory is O(n * 2**m + n**ceil(m / 2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Literal

from .core import (
    GOODS,
    Allocation,
    Instance,
    InvalidInstanceError,
    bundle_value,
    esc,
    esw,
    quantile_index,
    require_objective_kind,
    usc,
    usw,
)
from .matching import Graph, Matching

Objective = Literal["usw", "esw", "usc", "esc"]

_MAXIMIZING = {"usw": True, "esw": True, "usc": False, "esc": False}
_FOLD = {"usw": add, "esw": min, "usc": add, "esc": max}

#: At most this many balanced allocations are scored as one block, so that a
#: walk never holds a mask per allocation.
_BLOCK = 4096


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


def _require_budget(n: int, m: int, balanced: bool, budget: EnumerationBudget) -> None:
    total = allocation_count(n, m, balanced)
    if total > budget.max_allocations:
        raise BudgetExceededError(
            f"{total} allocations exceed the budget of {budget.max_allocations}"
        )


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
    _require_budget(n, m, balanced, budget)
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
    """Objective value of one allocation: ``core.usw``, ``esw``, ``usc`` or
    ``esc``, which check the kind, the length and the owners."""
    # Looked up per call, so a rebound module name (a tracing wrapper) is used.
    welfare = {"usw": usw, "esw": esw, "usc": usc, "esc": esc}[objective]
    return welfare(instance, allocation)


def bundle_value_table(
    instance: Instance, agent: int, sizes: Iterable[int] | None = None
) -> list[int]:
    """``agent``'s value of every bundle, in a list indexed by item mask (bit
    g set when item g is in the bundle).

    Only the bundles whose size is in ``sizes`` (every size from 1 to m by
    default) are valued; every other entry, the empty mask's among them, is
    0.  With the items ranked once by value, every combination of them comes
    out sorted, so a bundle's quantile value sits at one fixed position.
    """
    m = instance.m
    row = instance.values[agent]
    ranked = sorted(range(m), key=row.__getitem__)
    ranked_bits = [1 << g for g in ranked]
    ranked_values = [row[g] for g in ranked]
    table = [0] * (1 << m)
    for size in range(1, m + 1) if sizes is None else sizes:
        idx = quantile_index(instance.quantiles[agent], size)
        position = idx - 1 if instance.kind == GOODS else size - idx
        masks = map(sum, combinations(ranked_bits, size))
        values = map(itemgetter(position), combinations(ranked_values, size))
        for mask, value in zip(masks, values):
            table[mask] = value
    return table


def _combine(objective: Objective, columns: list[Iterable[int]]) -> list[int]:
    """Objective values of a block of allocations from per-agent value columns."""
    fold = _FOLD[objective]
    total = columns[0]
    for column in columns[1:]:
        total = map(fold, total, column)
    return list(total)


def _better(objective: Objective, value: int, best: int | None) -> bool:
    if best is None:
        return True
    return value > best if _MAXIMIZING[objective] else value < best


def _best_owner_unbalanced(instance: Instance, objective: Objective) -> tuple[int, tuple[int, ...]]:
    """First best owner tuple in ``product`` order, for n >= 2.

    Items 0..h-1 form the outer tuple and items h..m-1 the inner one, so an
    agent's mask is its outer mask plus its inner mask shifted by h.  For a
    fixed outer mask a, ``table[a::2**h]`` is indexed by the inner mask, and
    the block of ``n**(m-h)`` allocations sharing an outer tuple is one
    gather per agent.
    """
    n, m = instance.n, instance.m
    h = m // 2
    tables = [bundle_value_table(instance, i) for i in range(n)]
    inner = list(product(range(n), repeat=m - h))
    gathers = [
        itemgetter(*[sum(1 << j for j, o in enumerate(t) if o == i) for t in inner])
        for i in range(n)
    ]
    pick = max if _MAXIMIZING[objective] else min
    best_value: int | None = None
    best_owner: tuple[int, ...] = ()
    for outer in product(range(n), repeat=h):
        outer_masks = [0] * n
        for g, o in enumerate(outer):
            outer_masks[o] |= 1 << g
        values = _combine(
            objective, [gathers[i](tables[i][outer_masks[i] :: 1 << h]) for i in range(n)]
        )
        value = pick(values)
        if _better(objective, value, best_value):
            best_value = value
            best_owner = outer + inner[values.index(value)]
    assert best_value is not None
    return best_value, best_owner


def _best_owner_balanced(instance: Instance, objective: Objective) -> tuple[int, tuple[int, ...]]:
    """First best owner tuple in the ``combinations`` recursion, for n >= 2.

    Agents 0..n-3 choose their bundles one by one; agent n-2's choices, each
    with agent n-1 taking the rest, are scored in blocks of ``_BLOCK``.
    """
    n, m = instance.n, instance.m
    k = m // n
    tables = [bundle_value_table(instance, i, (k,)) for i in range(n)]
    pick = max if _MAXIMIZING[objective] else min
    best_value: int | None = None
    best_masks: list[int] = []
    chosen: list[int] = []

    def fill(agent: int, remaining: list[int], acc: int | None) -> None:
        nonlocal best_value, best_masks
        if agent < n - 2:
            for bundle in combinations(remaining, k):
                mask = sum(bundle)
                value = tables[agent][mask]
                chosen.append(mask)
                fill(
                    agent + 1,
                    [b for b in remaining if not b & mask],
                    value if acc is None else _FOLD[objective](acc, value),
                )
                chosen.pop()
            return
        rest = sum(remaining)
        choices = map(sum, combinations(remaining, k))
        while masks := list(islice(choices, _BLOCK)):
            columns: list[Iterable[int]] = [
                map(tables[agent].__getitem__, masks),
                map(tables[n - 1].__getitem__, map(rest.__xor__, masks)),
            ]
            if acc is not None:
                columns.append(repeat(acc))
            values = _combine(objective, columns)
            value = pick(values)
            if _better(objective, value, best_value):
                best_value = value
                mask = masks[values.index(value)]
                best_masks = chosen + [mask, rest ^ mask]

    fill(0, [1 << g for g in range(m)], None)
    assert best_value is not None
    owner = [0] * m
    for agent, mask in enumerate(best_masks):
        for g in range(m):
            if mask >> g & 1:
                owner[g] = agent
    return best_value, tuple(owner)


def opt_welfare(
    instance: Instance,
    objective: Objective,
    balanced: bool = False,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> tuple[int, Allocation]:
    """Exact optimum and one witness allocation (first in enumeration order).

    Welfare objectives (usw, esw) are maximized; cost objectives (usc, esc)
    are minimized.  The result is the value and the first strictly best
    allocation of ``enumerate_allocations`` scored by ``evaluate``, but the
    walk scores the same owner tuples, in the same order, from per-agent
    bundle tables (see the module docstring).  The kind and budget checks
    run before any table is built; a single agent is valued directly.
    """
    require_objective_kind(instance, objective)
    n, m = instance.n, instance.m
    _require_budget(n, m, balanced, budget)
    if n == 1:
        return bundle_value(instance, 0, range(m)), Allocation((0,) * m)
    if balanced:
        value, owner = _best_owner_balanced(instance, objective)
    else:
        value, owner = _best_owner_unbalanced(instance, objective)
    return value, Allocation(owner)


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
