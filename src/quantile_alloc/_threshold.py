"""The egalitarian reduction shared by goods and chores.

Egalitarian welfare >= nu (goods) or cost <= nu - 1 (chores) under integer
values holds iff the instance rewritten by ``threshold_binary`` at nu admits
welfare 1 or cost 0.  So every exact egalitarian solver is a binary decider
run inside one binary search over candidate thresholds, and the balanced
solvers of both kinds share one copies-to-items matching decider.
"""

from __future__ import annotations

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
from .matching import bipartite_graph, max_cardinality_bipartite

BinaryDecider = Callable[[Instance], SolveReport]


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

    copy_agent: list[int] = []
    for i in range(n):
        copy_agent.extend([i] * quotas[i])
    edges = [
        (c, g, 1)
        for c, i in enumerate(copy_agent)
        for g in range(m)
        if instance.values[i][g] == good
    ]
    matching = max_cardinality_bipartite(bipartite_graph(len(copy_agent), m, edges))

    if matching.size == len(copy_agent):
        bundles: list[list[int]] = [[] for _ in range(n)]
        mate = matching.mate()
        matched_items: set[int] = set()
        for c, i in enumerate(copy_agent):
            partner = mate.get(c)
            if partner is not None:
                g = partner - len(copy_agent)
                bundles[i].append(g)
                matched_items.add(g)
        round_robin_pad(bundles, [g for g in range(m) if g not in matched_items], k)
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


def threshold_search(
    instance: Instance, decider: BinaryDecider, algorithm: str, balanced: bool
) -> SolveReport:
    """Exact egalitarian optimum: binary-search the thresholds for the
    boundary level the decider accepts, and report its allocation with the
    objective recomputed on the original values under ``algorithm``.

    Goods probe the distinct positive values and the feasible thresholds are
    a prefix, so the search moves up after a feasible probe; chores probe
    1 and d + 1 for every distinct positive disutility d (cost <= 0 or
    <= d), the feasible thresholds are a suffix, and it moves down.  When no
    goods level is feasible the allocation is the balanced or unbalanced
    fallback; the top chores threshold is always feasible.
    """
    values = sorted({entry for row in instance.values for entry in row if entry > 0})
    if instance.kind == GOODS:
        thresholds, objective, upward = values, esw, True
    else:
        thresholds, objective, upward = [1] + [d + 1 for d in values], esc, False
    best: SolveReport | None = None
    lo, hi = 0, len(thresholds) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        report = decider(threshold_binary(instance, thresholds[mid]))
        if report.feasible:
            best = report
        if report.feasible == upward:
            lo = mid + 1
        else:
            hi = mid - 1

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
