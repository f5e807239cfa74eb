"""The egalitarian reduction shared by goods and chores.

Egalitarian welfare >= nu (goods) or cost <= nu - 1 (chores) under integer
values holds iff the instance rewritten by ``threshold_binary`` at nu admits
welfare 1 or cost 0.  So every exact egalitarian solver is one binary search
over candidate levels followed by one binary decision.  The search asks a
*probe*, a yes/no test of a level read off structures built once from the
original values (for matching deciders, each agent's items sorted by value,
so a level is one bisect per agent), which builds no rewritten instance;
only the 1/3 and identical-valuation deciders still probe by deciding.
The decider then runs once, on ``threshold_binary`` at the boundary level
nu*, and its allocation is the report.  That is the allocation a search
over decider calls would keep, because the last feasible probe of a
monotone binary search is the boundary.  The balanced solvers of both kinds
share one copies-to-items matching decider and its probe.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from ._construct import all_to_first, balanced_blocks, owner_from_bundles, round_robin_pad
from .core import (
    GOODS,
    Instance,
    InvalidInstanceError,
    SolveReport,
    demand_quota,
    esc,
    esw,
    threshold_binary,
)
from .matching import saturating_match

BinaryDecider = Callable[[Instance], SolveReport]
#: Whether a level is feasible: the decider's verdict on ``threshold_binary``
#: at that level, computed where possible without the rewritten instance.
Probe = Callable[[int], bool]
ProbeFactory = Callable[[Instance], Probe]


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


def decider_probe(decider: BinaryDecider) -> tuple[BinaryDecider, ProbeFactory]:
    """The probe of a decider with no cheaper test: its verdict at each level.

    Returns the decider, wrapped to hand back the report of the last
    feasible probe when asked to decide that same rewritten instance, so the
    boundary level is not decided twice, and the probe factory.  Make one
    pair per search.
    """
    kept: list[tuple[Instance, SolveReport]] = []

    def probe_for(instance: Instance) -> Probe:
        def probe(nu: int) -> bool:
            binary = threshold_binary(instance, nu)
            report = decider(binary)
            if report.feasible:
                kept[:] = [(binary, report)]
            return report.feasible

        return probe

    def decide(binary: Instance) -> SolveReport:
        if kept and kept[0][0] == binary:
            return kept[0][1]
        return decider(binary)

    return decide, probe_for


def _copies(items: list[list[int]], quotas: list[int]) -> list[list[int]]:
    """The left side of the copies-to-items matching: each agent's items,
    once per copy."""
    return [row for row, quota in zip(items, quotas) for _ in range(quota)]


def copies_decider(instance: Instance) -> SolveReport:
    """Decide whether a balanced allocation can give every agent value 1
    (goods) or cost 0 (chores) on a binary instance.

    Each agent i gets min(k, k - ceil(tau_i k) + 1) copy-vertices; copies are
    matched to distinct items the agent holds at the good entry (1 for goods,
    0 for chores).  Saturating every copy is necessary and sufficient, and
    matched bundles keep their quantile at the good entry under any padding
    to k items.
    """
    if instance.kind == GOODS:
        good, objective, algorithm = 1, esw, "balanced_esw_binary"
    else:
        good, objective, algorithm = 0, esc, "balanced_esc_binary"
    if not instance.is_binary:
        raise InvalidInstanceError("entries must be binary")
    k = instance.items_per_agent()
    n, m = instance.n, instance.m
    quotas = [demand_quota(q, k) for q in instance.quantiles]
    items = [[g for g, entry in enumerate(row) if entry == good] for row in instance.values]
    copy_of_item = saturating_match(_copies(items, quotas), m)

    if copy_of_item is not None:
        copy_agent = [i for i, quota in enumerate(quotas) for _ in range(quota)]
        bundles: list[list[int]] = [[] for _ in range(n)]
        for g, c in enumerate(copy_of_item):
            if c != -1:
                bundles[copy_agent[c]].append(g)
        round_robin_pad(bundles, [g for g, c in enumerate(copy_of_item) if c == -1], k)
        allocation = owner_from_bundles(bundles, m)
        feasible = True
    else:
        allocation = balanced_blocks(n, m)
        feasible = False
    return SolveReport(
        allocation=allocation,
        welfare=objective(instance, allocation),
        algorithm=algorithm,
        feasible=feasible,
    )


def copies_probe(instance: Instance) -> Probe:
    """Probe of ``copies_decider``: the same matching on each agent's items
    at the level."""
    k = instance.items_per_agent()
    quotas = [demand_quota(q, k) for q in instance.quantiles]
    adjacency = level_adjacency(instance)
    return lambda nu: saturating_match(_copies(adjacency(nu), quotas), instance.m) is not None


def candidate_levels(instance: Instance) -> list[int]:
    """The levels the threshold search chooses among, ascending: the distinct
    positive values for goods; for chores 1 and d + 1 for every distinct
    positive disutility d (cost <= 0 or <= d)."""
    values = sorted({entry for row in instance.values for entry in row if entry > 0})
    if instance.kind == GOODS:
        return values
    return [1] + [d + 1 for d in values]


def threshold_search(
    instance: Instance,
    decider: BinaryDecider,
    probe_for: ProbeFactory,
    algorithm: str,
    balanced: bool,
) -> SolveReport:
    """Exact egalitarian optimum: binary-search the levels with
    ``probe_for(instance)`` for the boundary level nu*, run the decider once
    at nu*, and report its allocation with the objective recomputed on the
    original values under ``algorithm``.

    The feasible goods levels are a prefix of ``candidate_levels``, so the
    search moves up after a feasible probe; the feasible chores levels are a
    suffix, and it moves down.  With a single level the decider's verdict
    is the whole search and no probe is built.  When no goods level is
    feasible the allocation is the balanced or unbalanced fallback; the top
    chores level is always feasible.
    """
    thresholds = candidate_levels(instance)
    objective, upward = (esw, True) if instance.kind == GOODS else (esc, False)
    best: SolveReport | None = None
    if len(thresholds) == 1:
        report = decider(threshold_binary(instance, thresholds[0]))
        if report.feasible:
            best = report
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
            best = decider(threshold_binary(instance, boundary))
            assert best.feasible, f"probe and decider disagree at level {boundary}"

    assert best is not None or upward, "maximum disutility level must be feasible"
    if best is not None:
        allocation = best.allocation
    elif balanced:
        allocation = balanced_blocks(instance.n, instance.m)
    else:
        allocation = all_to_first(instance.m)
    return SolveReport(
        allocation=allocation,
        welfare=objective(instance, allocation),
        algorithm=algorithm,
    )
