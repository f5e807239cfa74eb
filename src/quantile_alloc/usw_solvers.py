"""Utilitarian-welfare solvers for goods.

Four routes, by regime:

* ``greedy_balanced_usw`` -- balanced allocations, any quantiles.  Each round,
  every unassigned agent demands the quota of top remaining items that pins
  down their eventual bundle value; the agent whose guaranteed value is
  highest wins the round.  Approximation factor min(m/n + 1, n), and exactly
  optimal when all agents share one valuation row.
* ``scapegoat_usw`` -- unbalanced, any quantiles.  Tries each agent as the
  "scapegoat" who absorbs everything unmatched by a one-item-per-agent
  maximum-weight matching among the others; keeps the best candidate.
  Approximation factor 1 + 1/(n-1); a lone agent takes every item, the only
  allocation there is.
* ``optimistic_exact_usw`` -- unbalanced, exact, requires one agent with
  quantile 1: that agent can absorb all leftovers without losing value.
* ``identical_binary_usw_unbalanced`` -- unbalanced, exact for identical
  binary valuations, by case analysis on whether everyone can be made happy.
"""

from __future__ import annotations

from ._construct import owner_from_bundles, round_robin_pad
from .core import (
    Instance,
    IntractableQuantileError,
    InvalidInstanceError,
    SolveReport,
    demand_quota,
    require_objective_kind,
    usw,
)
from .esw_solvers import identical_unbalanced_esw, require_identical
from .matching import max_weight_pairs


def greedy_balanced_usw(instance: Instance) -> SolveReport:
    """Greedy balanced allocation with utilitarian guarantee min(m/n + 1, n).

    Deterministic tie-breaking: demand sets prefer lower item indices among
    equal values, the round winner is the lowest-index agent among the
    highest scores, and leftover items are padded round-robin by ascending
    agent index.
    """
    require_objective_kind(instance, "usw")
    k = instance.items_per_agent()
    n = instance.n
    # Top items each agent must secure to pin down its k-item bundle value.
    quotas = [demand_quota(q, k) for q in instance.quantiles]

    pool: list[int] = list(range(instance.m))
    bundles: list[list[int]] = [[] for _ in range(n)]
    unassigned = list(range(n))

    for _ in range(n):
        best_agent = -1
        best_score = -1
        best_set: list[int] = []
        for i in unassigned:
            row = instance.values[i]
            ranked = sorted(pool, key=lambda g: (-row[g], g))[: quotas[i]]
            score = row[ranked[-1]]
            if score > best_score:
                best_agent, best_score, best_set = i, score, ranked
        bundles[best_agent] = sorted(best_set)
        taken = set(best_set)
        pool = [g for g in pool if g not in taken]
        unassigned.remove(best_agent)

    round_robin_pad(bundles, pool, k)
    allocation = owner_from_bundles(bundles, instance.m)
    return SolveReport(
        allocation=allocation,
        welfare=usw(instance, allocation),
        algorithm="greedy_balanced_usw",
    )


def _matching_candidate(instance: Instance, agents: list[int], absorber: int) -> list[list[int]]:
    """Bundles where ``agents`` each get their maximum-weight matched item and
    ``absorber`` takes everything left over."""
    n, m = instance.n, instance.m
    ends = [(pos, g) for pos in range(len(agents)) for g in range(m)]
    weights = [w for j in agents for w in instance.values[j]]
    bundles: list[list[int]] = [[] for _ in range(n)]
    taken: set[int] = set()
    for index in max_weight_pairs(len(agents), m, ends, weights):
        pos, g = ends[index]
        bundles[agents[pos]] = [g]
        taken.add(g)
    bundles[absorber].extend(g for g in range(m) if g not in taken)
    return bundles


def scapegoat_usw(instance: Instance) -> SolveReport:
    """Best-of-n scapegoat allocations; guarantees n * USW >= (n-1) * OPT.

    Candidate welfare is evaluated with the scapegoat's true quantile value
    for their large bundle, not a pessimistic bound; ties between candidates
    go to the lowest scapegoat index.
    """
    require_objective_kind(instance, "usw")
    best: SolveReport | None = None
    for scapegoat in range(instance.n):
        others = [j for j in range(instance.n) if j != scapegoat]
        bundles = _matching_candidate(instance, others, scapegoat)
        allocation = owner_from_bundles(bundles, instance.m)
        value = usw(instance, allocation)
        if best is None or value > best.welfare:
            best = SolveReport(allocation, value, "scapegoat_usw")
    assert best is not None
    return best


def optimistic_exact_usw(instance: Instance) -> SolveReport:
    """Exact maximum utilitarian welfare when some agent has quantile 1.

    One maximum-weight matching over all agents and items; everyone keeps
    their matched item, and the lowest-index quantile-1 agent additionally
    absorbs all unmatched items (their bundle value is a max, so absorbing
    can only help).
    """
    require_objective_kind(instance, "usw")
    stars = [i for i, q in enumerate(instance.quantiles) if q.is_one]
    if not stars:
        raise IntractableQuantileError(
            "exact utilitarian welfare requires an agent with quantile 1"
        )
    bundles = _matching_candidate(instance, list(range(instance.n)), stars[0])
    allocation = owner_from_bundles(bundles, instance.m)
    return SolveReport(allocation, usw(instance, allocation), "optimistic_exact_usw")


def identical_binary_usw_unbalanced(instance: Instance) -> SolveReport:
    """Exact maximum utilitarian welfare for identical binary valuations.

    If everyone can simultaneously get value 1 (checked by the identical
    egalitarian solver), that allocation is optimal with welfare n.
    Otherwise welfare n is out of reach and the best achievable is one happy
    singleton per available 1-item, with care that nobody mixes 1-items and
    0-items in a bundle that would kill the singleton values.
    """
    require_identical(instance, "usw")
    if not instance.is_binary:
        raise InvalidInstanceError("entries must be binary")

    n, m = instance.n, instance.m
    esw_report = identical_unbalanced_esw(instance)
    if esw_report.welfare == 1:
        allocation = esw_report.allocation
    else:
        row = instance.values[0]
        ones = [g for g in range(m) if row[g] == 1]
        zeros = [g for g in range(m) if row[g] == 0]
        bundles: list[list[int]] = [[] for _ in range(n)]
        if len(ones) > n - 1:
            for i in range(n - 1):
                bundles[i] = [ones[i]]
            bundles[n - 1] = ones[n - 1 :] + zeros
        else:
            for i, g in enumerate(ones):
                bundles[i] = [g]
            rest = list(range(len(ones), n))
            for pos, g in enumerate(zeros):
                bundles[rest[pos % len(rest)]].append(g)
        allocation = owner_from_bundles(bundles, m)
    return SolveReport(
        allocation=allocation,
        welfare=usw(instance, allocation),
        algorithm="identical_binary_usw_unbalanced",
    )
