"""The egalitarian reduction shared by goods and chores.

Egalitarian welfare >= nu (goods) or cost <= nu - 1 (chores) under integer
values holds iff the instance rewritten by ``threshold_binary`` at nu admits
welfare 1 or cost 0.  So every exact egalitarian solver is one binary search
over candidate levels followed by one decision.  Nothing is rewritten: a
*level decider* ``decide(instance, nu)`` reads the good entries of the
rewritten instance straight off the original values (value >= nu for goods,
disutility < nu for chores) and returns an allocation reaching the level,
or None.  The search asks a *probe*, a pure yes/no test of a level read
off structures built once from the original values (for matching
deciders, each agent's items sorted by value, so a level is one bisect per
agent); no probe builds an allocation.  The decider then runs once, at the
boundary level nu*, and its allocation is the report.  That is the
allocation a search over decider calls would keep, because the last
feasible probe of a monotone binary search is the boundary.  The public
binary deciders run a level decider at level 1 and are the only place a
``feasible`` flag is reported.  The balanced solvers of both kinds share
one copies-to-items matching decider and its probe.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from typing import Callable

from ._construct import all_to_first, balanced_blocks, owner_from_bundles, round_robin_pad
from .core import (
    GOODS,
    Allocation,
    Instance,
    InvalidInstanceError,
    SolveReport,
    demand_quota,
    esc,
    esw,
    require_objective_kind,
)
from .matching import saturating_match

#: An allocation in which every agent reaches the level (goods: value >= nu;
#: chores: cost <= nu - 1), or None when there is none.
LevelDecider = Callable[[Instance, int], "Allocation | None"]
#: Whether a level is feasible: the level decider's verdict, without deciding.
Probe = Callable[[int], bool]
ProbeFactory = Callable[[Instance], Probe]


def good_entries(instance: Instance, nu: int) -> list[list[int]]:
    """Per agent, in ascending index order, the items at the good entry of
    ``threshold_binary`` at level nu: value >= nu for goods, disutility < nu
    for chores."""
    good = nu.__le__ if instance.kind == GOODS else nu.__gt__
    items = range(instance.m)
    return [list(compress(items, map(good, row))) for row in instance.values]


def level_adjacency(instance: Instance) -> Callable[[int], list[list[int]]]:
    """Per agent, the items at the good entry of ``threshold_binary`` at a
    level: value >= nu for goods, disutility < nu for chores.

    Each row is sorted once, best items first and ties by item index; a
    level is then one bisect per agent, and its items are that prefix.
    """
    # Keys ascend along each order (-value for goods, disutility for chores),
    # so the good items at level nu are those whose key is <= limit.
    sign = -1 if instance.kind == GOODS else 1
    orders = [sorted(range(instance.m), key=lambda g: sign * row[g]) for row in instance.values]
    keys = [[sign * row[g] for g in order] for row, order in zip(instance.values, orders)]

    def prefixes(nu: int) -> list[list[int]]:
        limit = -nu if sign < 0 else nu - 1
        return [order[: bisect_right(key, limit)] for order, key in zip(orders, keys)]

    return prefixes


def _copies(items: list[list[int]], quotas: list[int]) -> list[list[int]]:
    """The left side of the copies-to-items matching: each agent's items,
    once per copy."""
    return [row for row, quota in zip(items, quotas) for _ in range(quota)]


def copies_decider(instance: Instance, nu: int) -> Allocation | None:
    """A balanced allocation giving every agent value >= nu (goods) or cost
    <= nu - 1 (chores), or None.

    Each agent i gets min(k, k - ceil(tau_i k) + 1) copy-vertices; copies are
    matched to distinct items at the agent's good entry.  Saturating every
    copy is necessary and sufficient, and matched bundles keep their quantile
    at the good entry under any padding to k items.
    """
    k = instance.items_per_agent()
    n, m = instance.n, instance.m
    quotas = [demand_quota(q, k) for q in instance.quantiles]
    copy_of_item = saturating_match(_copies(good_entries(instance, nu), quotas), m)
    if copy_of_item is None:
        return None
    copy_agent = [i for i, quota in enumerate(quotas) for _ in range(quota)]
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, c in enumerate(copy_of_item):
        if c != -1:
            bundles[copy_agent[c]].append(g)
    round_robin_pad(bundles, [g for g, c in enumerate(copy_of_item) if c == -1], k)
    return owner_from_bundles(bundles, m)


def copies_probe(instance: Instance) -> Probe:
    """Probe of ``copies_decider``: the same matching on each agent's items
    at the level, taken from ``level_adjacency``."""
    k = instance.items_per_agent()
    quotas = [demand_quota(q, k) for q in instance.quantiles]
    adjacency = level_adjacency(instance)
    return lambda nu: saturating_match(_copies(adjacency(nu), quotas), instance.m) is not None


def candidate_levels(instance: Instance) -> list[int]:
    """The levels the threshold search chooses among, ascending: the distinct
    positive values for goods; for chores 1 and d + 1 for every distinct
    positive disutility d (cost <= 0 or <= d)."""
    values = sorted(set().union(*instance.values) - {0})
    if instance.kind == GOODS:
        return values
    return [1] + [d + 1 for d in values]


def fallback(instance: Instance, balanced: bool) -> Allocation:
    """The allocation reported when no level is reached: consecutive blocks
    of m/n items, or every item to agent 0."""
    return balanced_blocks(instance.n, instance.m) if balanced else all_to_first(instance.m)


def _report(
    instance: Instance, allocation: Allocation, algorithm: str, feasible: bool = True
) -> SolveReport:
    objective = esw if instance.kind == GOODS else esc
    return SolveReport(allocation, objective(instance, allocation), algorithm, feasible)


def require_binary(instance: Instance, objective: str) -> None:
    """The first two checks of every public binary decider: the objective's
    kind, then 0/1 entries."""
    require_objective_kind(instance, objective)
    if not instance.is_binary:
        raise InvalidInstanceError("entries must be binary")


def binary_report(
    instance: Instance, decider: LevelDecider, algorithm: str, balanced: bool
) -> SolveReport:
    """A public binary decider's report: the level decider at level 1 on a
    binary instance, or the fallback allocation with ``feasible=False``."""
    allocation = decider(instance, 1)
    if allocation is None:
        return _report(instance, fallback(instance, balanced), algorithm, feasible=False)
    return _report(instance, allocation, algorithm)


def threshold_search(
    instance: Instance,
    decider: LevelDecider,
    probe_for: ProbeFactory,
    algorithm: str,
    balanced: bool,
) -> SolveReport:
    """Exact egalitarian optimum: binary-search the levels with
    ``probe_for(instance)`` for the boundary level nu*, run the decider once
    at nu*, and report its allocation with the objective computed on the
    original values under ``algorithm``.

    The feasible goods levels are a prefix of ``candidate_levels``, so the
    search moves up after a feasible probe; the feasible chores levels are a
    suffix, and it moves down.  With a single level the decider's verdict
    is the whole search and no probe is built.  When no goods level is
    feasible the allocation is the balanced or unbalanced fallback; the top
    chores level is always feasible.
    """
    thresholds = candidate_levels(instance)
    upward = instance.kind == GOODS
    allocation: Allocation | None = None
    if len(thresholds) == 1:
        allocation = decider(instance, thresholds[0])
    elif thresholds:
        probe = probe_for(instance)
        boundary: int | None = None
        lo, hi = 0, len(thresholds) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            feasible = probe(thresholds[mid])
            if feasible:
                boundary = thresholds[mid]
            if feasible == upward:
                lo = mid + 1
            else:
                hi = mid - 1
        if boundary is not None:
            allocation = decider(instance, boundary)
            assert allocation is not None, f"probe and decider disagree at level {boundary}"

    assert allocation is not None or upward, "maximum disutility level must be feasible"
    if allocation is None:
        allocation = fallback(instance, balanced)
    return _report(instance, allocation, algorithm)
