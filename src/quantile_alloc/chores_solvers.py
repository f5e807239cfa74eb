"""Chores-side solvers: balanced egalitarian cost, greedy set-cover
utilitarian cost for pessimists, and exact egalitarian cost at the extreme
quantiles.

Sign convention, worth stating twice: a chore bundle's disutility is the
quantile of the *negated* values, so quantile 0 scores an agent on their
worst chore and quantile 1 on their best one.  Reading the quantile on the
raw disutilities instead would flip every statement below.

Egalitarian cost rides the goods machinery with the threshold reversed:
cost <= nu - 1 under the original disutilities iff cost 0 after rewriting
every disutility to 1-if->=nu-else-0, so the one threshold search of
``_threshold.py`` minimizes over candidate cost levels here instead of
maximizing.  Its level deciders read the chores costing less than nu
straight off the disutilities, and at the extreme quantiles the probe of a
level is a closed form in them, so no rewritten instance is built.

Note (observation, not an operation): a minimum egalitarian-cost balanced
allocation keeps every agent's bundle cost at most the largest single
disutility, so its utilitarian cost is within a factor of
max_{agent, chore} d(chore) of optimal.  We record this as documentation
only; no solver relies on it.
"""

from __future__ import annotations

from ._construct import owner_from_bundles
from ._threshold import (
    Probe,
    binary_report,
    copies_decider,
    copies_probe,
    require_binary,
    threshold_search,
)
from .core import (
    Allocation,
    Instance,
    IntractableQuantileError,
    SolveReport,
    require_objective_kind,
    usc,
)


def balanced_esc_binary(instance: Instance) -> SolveReport:
    """Decide whether a balanced allocation can give every agent cost 0, by
    the copies-to-items matching of the balanced goods decision with copies
    connected to the chores the agent finds costless."""
    require_binary(instance, "esc")
    return binary_report(instance, copies_decider, "balanced_esc_binary", balanced=True)


def balanced_esc(instance: Instance) -> SolveReport:
    """Exact minimum egalitarian cost over balanced allocations, any
    quantiles, via threshold search over the matching decision."""
    require_objective_kind(instance, "esc")
    instance.items_per_agent()
    return threshold_search(instance, copies_decider, copies_probe, "balanced_esc", balanced=True)


def usc_tau0_setcover(instance: Instance) -> SolveReport:
    """Greedy weighted-set-cover allocation for pessimists (all quantiles 0);
    utilitarian cost at most H_m = 1 + 1/2 + ... + 1/m (<= ln m + 1) times
    the optimum (Chvatal 1979).

    Candidates are per-agent cheapest-prefix sets: agent i's prefix of length
    L holds their L lowest-disutility chores (ties by item index) and weighs
    the L-th lowest disutility.  The greedy loop picks the candidate
    minimizing weight / newly-covered (exact rational comparison, ties by
    agent then prefix length), and every newly covered chore is owned by that
    pick's agent, so an agent's final bundle sits inside their largest chosen
    prefix and costs at most its weight.  One agent's prefixes are nested, so
    one pass down their ranking prices all of them.
    """
    require_objective_kind(instance, "usc")
    if any(not q.is_zero for q in instance.quantiles):
        raise IntractableQuantileError(
            "quantile mismatch: the set-cover route requires all quantiles 0"
        )
    n, m = instance.n, instance.m
    rankings = [sorted(range(m), key=lambda g: (row[g], g)) for row in instance.values]

    owner = [-1] * m
    uncovered = m
    while uncovered:
        # Scan every agent's prefixes in (agent, length) order, counting the
        # uncovered chores along the ranking; the prefix ending at chore g
        # weighs row[g].
        best_agent, best_length, best_weight, best_new = -1, 0, 0, 0
        for i, ranked in enumerate(rankings):
            row = instance.values[i]
            new = 0
            for length, g in enumerate(ranked, 1):
                if owner[g] == -1:
                    new += 1
                if new == 0:
                    continue
                # row[g]/new < best_weight/best_new, compared in integers.
                if best_new == 0 or row[g] * best_new < best_weight * new:
                    best_agent, best_length, best_weight, best_new = i, length, row[g], new
        for g in rankings[best_agent][:best_length]:
            if owner[g] == -1:
                owner[g] = best_agent
        uncovered -= best_new

    allocation = owner_from_bundles(
        [[g for g in range(m) if owner[g] == i] for i in range(n)], m
    )
    return SolveReport(
        allocation=allocation,
        welfare=usc(instance, allocation),
        algorithm="usc_tau0_setcover",
    )


def _esc_tau0_binary(instance: Instance, nu: int) -> Allocation | None:
    """Pessimists: cost <= nu - 1 iff every chore costs someone less than
    nu; then every chore goes to the first such agent."""
    columns = zip(*instance.values)
    owner = [next((i for i, d in enumerate(column) if d < nu), -1) for column in columns]
    return None if -1 in owner else Allocation(tuple(owner))


def _esc_tau1_binary(instance: Instance, nu: int) -> Allocation | None:
    """Optimists: cost <= nu - 1 iff some agent has a chore costing less than
    nu; that agent swallows all of them and everyone else takes nothing."""
    n, m = instance.n, instance.m
    for i, row in enumerate(instance.values):
        if min(row) < nu:
            bundles: list[list[int]] = [[] for _ in range(n)]
            bundles[i] = list(range(m))
            return owner_from_bundles(bundles, m)
    return None


def _esc_tau0_probe(instance: Instance) -> Probe:
    """Probe of ``_esc_tau0_binary``: every chore costs less than the level
    to someone."""
    bound = max(min(column) for column in zip(*instance.values))
    return lambda nu: nu > bound


def _esc_tau1_probe(instance: Instance) -> Probe:
    """Probe of ``_esc_tau1_binary``: some chore costs someone less than
    the level."""
    least = min(min(row) for row in instance.values)
    return lambda nu: nu > least


def esc_tau0(instance: Instance) -> SolveReport:
    """Exact minimum egalitarian cost when all quantiles are 0 (worst-chore
    scoring), for general integer disutilities via threshold search."""
    require_objective_kind(instance, "esc")
    if any(not q.is_zero for q in instance.quantiles):
        raise IntractableQuantileError("quantile mismatch: solver requires quantile 0")
    return threshold_search(
        instance, _esc_tau0_binary, _esc_tau0_probe, "esc_tau0", balanced=False
    )


def esc_tau1(instance: Instance) -> SolveReport:
    """Exact minimum egalitarian cost when all quantiles are 1 (best-chore
    scoring), for general integer disutilities via threshold search."""
    require_objective_kind(instance, "esc")
    if any(not q.is_one for q in instance.quantiles):
        raise IntractableQuantileError("quantile mismatch: solver requires quantile 1")
    return threshold_search(
        instance, _esc_tau1_binary, _esc_tau1_probe, "esc_tau1", balanced=False
    )
