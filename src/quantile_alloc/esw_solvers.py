"""Egalitarian-welfare solvers for goods.

Everything here rides on one reduction: an allocation has egalitarian
welfare >= nu under integer values if and only if it has egalitarian welfare
1 after rewriting every value to 1-if->=nu-else-0.  So each solver is the
one threshold search of ``_threshold.py``, shared with the chores solvers,
over a pair: a probe, a cheap yes/no test of "can everyone get value >= nu?"
at a level, and a level decider, which reads the items worth >= nu straight
off the original values and builds the allocation.  Neither rewrites the
instance.  The probes find the boundary level, and the decider runs once
there.  Each public ``*_binary*`` decider is its input checks plus its
level decider at level 1.

Balanced bundles are decided by the copies-to-items bipartite matching of
``_threshold.py``, for any mix of quantiles.  Unbalanced bundles are only
tractable for homogeneous quantiles in {0, 1/3, 1} or of the form t/(t+1);
each family gets its own matching construction.  Requesting any other
quantile raises IntractableQuantileError rather than approximating, because
no multiplicative approximation is possible once the decision is NP-hard.
"""

from __future__ import annotations

from bisect import bisect_left

from ._construct import owner_from_bundles
from ._threshold import (
    LevelDecider,
    Probe,
    ProbeFactory,
    binary_report,
    copies_decider,
    copies_probe,
    decider_probe,
    good_entries,
    level_adjacency,
    require_binary,
    threshold_search,
)
from .core import (
    Allocation,
    Instance,
    IntractableQuantileError,
    InvalidInstanceError,
    Quantile,
    SolveReport,
    require_objective_kind,
)
from .matching import Graph, max_weight_general, saturating_match


def _zero_one_split(instance: Instance, nu: int) -> tuple[list[int], list[int]]:
    """Universal zeros (items worth less than nu to every agent) and the
    complement (items worth at least nu to some agent)."""
    tops = list(map(max, zip(*instance.values)))
    zeros = [g for g, top in enumerate(tops) if top < nu]
    return zeros, [g for g, top in enumerate(tops) if top >= nu]


def _first_valuing_agent(instance: Instance, nu: int, *items: int) -> int:
    for i, row in enumerate(instance.values):
        if all(row[g] >= nu for g in items):
            return i
    raise AssertionError(f"no agent values items {items}")


def balanced_esw_binary(instance: Instance) -> SolveReport:
    """Decide whether a balanced allocation can give every agent value 1, by
    the copies-to-items matching: each agent's copies are matched to distinct
    items the agent values 1."""
    require_binary(instance, "esw")
    return binary_report(instance, copies_decider, "balanced_esw_binary", balanced=True)


def balanced_esw(instance: Instance) -> SolveReport:
    """Exact maximum egalitarian welfare over balanced allocations, for any
    quantiles, via threshold search over the matching decision."""
    require_objective_kind(instance, "esw")
    instance.items_per_agent()
    return threshold_search(instance, copies_decider, copies_probe, "balanced_esw", balanced=True)


def _frac_decider(instance: Instance, nu: int) -> Allocation | None:
    """Egalitarian welfare >= nu at the homogeneous quantile t/(t+1), with t
    read off the instance's shared quantile.

    A bundle with L items worth >= nu (1-items) tolerates at most t*L - 1
    worth less (0-items), so beyond one matched 1-item per agent, each
    further 1-item can escort up to t universally-worthless items, and each
    agent can carry t - 1 stragglers.  Feasible iff |M_0| <= t*|M_1| - n and
    an agent-saturating matching exists.
    """
    n = instance.n
    t = instance.quantiles[0].numerator
    zeros, ones = _zero_one_split(instance, nu)
    if len(zeros) > t * len(ones) - n:
        return None
    agent_of_item = saturating_match(good_entries(instance, nu), instance.m)
    if agent_of_item is None:
        return None

    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, i in enumerate(agent_of_item):
        if i != -1:
            bundles[i].append(g)
    rem_ones = [g for g in ones if agent_of_item[g] == -1]
    rem_zeros = list(zeros)

    pos1 = 0
    pos0 = 0
    while pos1 < len(rem_ones) and pos0 < len(rem_zeros):
        g = rem_ones[pos1]
        pos1 += 1
        carried = rem_zeros[pos0 : pos0 + t]
        pos0 += len(carried)
        i = _first_valuing_agent(instance, nu, g)
        bundles[i].append(g)
        bundles[i].extend(carried)

    stragglers = rem_zeros[pos0:]
    cursor = 0
    for i in range(n):
        if cursor >= len(stragglers):
            break
        chunk = stragglers[cursor : cursor + (t - 1)]
        bundles[i].extend(chunk)
        cursor += len(chunk)
    assert cursor >= len(stragglers), "straggler zeros exceed capacity"

    for g in rem_ones[pos1:]:
        bundles[_first_valuing_agent(instance, nu, g)].append(g)

    return owner_from_bundles(bundles, instance.m)


def unbalanced_esw_binary_frac(instance: Instance, t: int) -> SolveReport:
    """Decide egalitarian welfare 1 for binary goods at quantile t/(t+1)
    (see ``_frac_decider``)."""
    require_binary(instance, "esw")
    if t < 1:
        raise InvalidInstanceError("t must be a positive integer")
    if any(q != Quantile(t, t + 1) for q in instance.quantiles):
        raise IntractableQuantileError(
            f"quantile mismatch: solver requires homogeneous quantile {t}/{t + 1}"
        )
    return binary_report(instance, _frac_decider, "unbalanced_esw_binary_frac", balanced=False)


def _third_decider(instance: Instance, nu: int) -> Allocation | None:
    """Egalitarian welfare >= nu at the homogeneous quantile 1/3.

    A bundle with z items worth less than nu (0-items) needs at least 2z + 1
    worth >= nu (1-items), so two 1-items offset one worthless item.  One
    maximum-weight matching on a general graph finds both at once:
    agent-item edges (weight |vertices|+1) match everyone to a first 1-item,
    item-item edges (weight 1, allowed when some agent values both endpoints
    >= nu) form the offset pairs.  Feasible iff the matching weight reaches
    |M_0| + n * (|vertices| + 1).
    """
    n, m = instance.n, instance.m
    values = instance.values
    zeros, ones = _zero_one_split(instance, nu)
    w_big = n + len(ones) + 1

    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        for pos, g in enumerate(ones):
            if values[i][g] >= nu:
                edges.append((i, n + pos, w_big))
    for pa in range(len(ones)):
        for pb in range(pa + 1, len(ones)):
            ga, gb = ones[pa], ones[pb]
            if any(row[ga] >= nu and row[gb] >= nu for row in values):
                edges.append((n + pa, n + pb, 1))

    matching = max_weight_general(Graph(num_vertices=n + len(ones), edges=tuple(edges)))
    if matching.weight < len(zeros) + n * w_big:
        return None

    bundles: list[list[int]] = [[] for _ in range(n)]
    placed: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for u, v, _ in matching.edges:
        if u < n or v < n:
            i, g = (u, ones[v - n]) if u < n else (v, ones[u - n])
            bundles[i].append(g)
            placed.add(g)
        else:
            pairs.append((ones[u - n], ones[v - n]))
    assert len(placed) == n and len(pairs) >= len(zeros)

    for z, (ga, gb) in zip(zeros, pairs):
        i = _first_valuing_agent(instance, nu, ga, gb)
        bundles[i].extend((z, ga, gb))
        placed.update((ga, gb))

    for g in ones:
        if g not in placed:
            bundles[_first_valuing_agent(instance, nu, g)].append(g)

    return owner_from_bundles(bundles, m)


def unbalanced_esw_binary_third(instance: Instance) -> SolveReport:
    """Decide egalitarian welfare 1 for binary goods at quantile 1/3 (see
    ``_third_decider``)."""
    require_binary(instance, "esw")
    if any(q != Quantile(1, 3) for q in instance.quantiles):
        raise IntractableQuantileError(
            "quantile mismatch: solver requires homogeneous quantile 1/3"
        )
    return binary_report(instance, _third_decider, "unbalanced_esw_binary_third", balanced=False)


def _tau0_decider(instance: Instance, nu: int) -> Allocation | None:
    """Quantile 0 (pessimists): every bundle must be non-empty and worth >= nu
    item by item, so feasibility needs no universally-worthless item plus an
    agent-saturating matching."""
    zeros, _ = _zero_one_split(instance, nu)
    if zeros:
        return None
    agent_of_item = saturating_match(good_entries(instance, nu), instance.m)
    if agent_of_item is None:
        return None
    bundles: list[list[int]] = [[] for _ in range(instance.n)]
    for g, i in enumerate(agent_of_item):
        bundles[_first_valuing_agent(instance, nu, g) if i == -1 else i].append(g)
    return owner_from_bundles(bundles, instance.m)


def unbalanced_esw_binary_tau0(instance: Instance) -> SolveReport:
    """Decide egalitarian welfare 1 for binary goods at quantile 0 (see
    ``_tau0_decider``)."""
    require_binary(instance, "esw")
    if any(not q.is_zero for q in instance.quantiles):
        raise IntractableQuantileError("quantile mismatch: solver requires quantile 0")
    return binary_report(instance, _tau0_decider, "unbalanced_esw_binary_tau0", balanced=False)


def _tau1_decider(instance: Instance, nu: int) -> Allocation | None:
    """Quantile 1 (optimists): each agent just needs one item worth >= nu
    somewhere in their bundle; leftovers can go anywhere (a max never
    drops)."""
    agent_of_item = saturating_match(good_entries(instance, nu), instance.m)
    if agent_of_item is None:
        return None
    bundles: list[list[int]] = [[] for _ in range(instance.n)]
    for g, i in enumerate(agent_of_item):
        bundles[0 if i == -1 else i].append(g)
    return owner_from_bundles(bundles, instance.m)


def unbalanced_esw_binary_tau1(instance: Instance) -> SolveReport:
    """Decide egalitarian welfare 1 for binary goods at quantile 1 (see
    ``_tau1_decider``)."""
    require_binary(instance, "esw")
    if any(not q.is_one for q in instance.quantiles):
        raise IntractableQuantileError("quantile mismatch: solver requires quantile 1")
    return binary_report(instance, _tau1_decider, "unbalanced_esw_binary_tau1", balanced=False)


def esw_family(tau: Quantile) -> str:
    """The tractable unbalanced-ESW family of a homogeneous quantile: "tau0",
    "tau1", "third" (1/3), "frac" (t/(t+1)), or "hard" for every other
    quantile."""
    if tau.is_zero:
        return "tau0"
    if tau.is_one:
        return "tau1"
    if tau == Quantile(1, 3):
        return "third"
    if tau.denominator == tau.numerator + 1:
        return "frac"
    return "hard"


def _saturation_probe(instance: Instance) -> Probe:
    """Probe of ``_tau1_decider``: every agent matched to a
    distinct item worth at least the level."""
    adjacency = level_adjacency(instance)
    return lambda nu: saturating_match(adjacency(nu), instance.m) is not None


def _tau0_probe(instance: Instance) -> Probe:
    """Probe of ``_tau0_decider``: no item is worth less than
    the level to everyone, and the agents saturate."""
    least_max = min(max(column) for column in zip(*instance.values))
    saturates = _saturation_probe(instance)
    return lambda nu: nu <= least_max and saturates(nu)


def _frac_probe(instance: Instance, t: int) -> Probe:
    """Probe of ``_frac_decider``: the count |M_0| <= t*|M_1| - n
    at the level, where |M_0| counts the items below it for everyone, and
    the agents saturate."""
    n, m = instance.n, instance.m
    column_max = sorted(max(column) for column in zip(*instance.values))
    saturates = _saturation_probe(instance)

    def probe(nu: int) -> bool:
        zeros = bisect_left(column_max, nu)
        return zeros <= t * (m - zeros) - n and saturates(nu)

    return probe


def _esw_search_for(tau: Quantile) -> tuple[LevelDecider, ProbeFactory]:
    """The level decider and probe factory of the threshold search for a
    homogeneous quantile, or raise IntractableQuantileError outside the
    tractable family {0, 1/3, 1} union {t/(t+1)}."""
    family = esw_family(tau)
    if family == "hard":
        raise IntractableQuantileError(
            f"intractable quantile {tau}: maximizing egalitarian welfare is NP-hard here "
            "and admits no multiplicative approximation"
        )
    if family == "third":
        return decider_probe(_third_decider)
    if family == "frac":
        t = tau.numerator
        return _frac_decider, lambda inst: _frac_probe(inst, t)
    pairs = {"tau0": (_tau0_decider, _tau0_probe), "tau1": (_tau1_decider, _saturation_probe)}
    return pairs[family]


def unbalanced_esw(instance: Instance) -> SolveReport:
    """Exact maximum egalitarian welfare over all allocations, for homogeneous
    quantiles in the tractable family; threshold search over the family's
    level decider."""
    require_objective_kind(instance, "esw")
    tau = instance.homogeneous_quantile()
    if tau is None:
        raise IntractableQuantileError(
            "heterogeneous quantiles are not supported for unbalanced egalitarian welfare"
        )
    decider, probe_for = _esw_search_for(tau)
    return threshold_search(instance, decider, probe_for, "unbalanced_esw", balanced=False)


def _identical_binary_esw(instance: Instance, nu: int) -> Allocation | None:
    """Egalitarian welfare >= nu for identical valuations.

    A bundle holding z items worth less than nu (worthless items) is worth
    >= nu iff its size strictly exceeds z / tau, i.e. it needs
    ``floor(z/tau) + 1 - z`` items worth >= nu (1-items).  That requirement
    is a floor of a linear function, so an even split of the worthless items
    is NOT always cheapest (for tau = 2/3, splitting four zeros as 1 + 3
    needs 1 + 2 = 3 ones while 2 + 2 needs 2 + 2 = 4); a small DP minimizes
    the total 1-items required over all splits exactly, in O(n * zeros^2).
    """
    n, m = instance.n, instance.m
    tau = instance.quantiles[0]
    row = instance.values[0]
    zeros = [g for g in range(m) if row[g] < nu]
    ones = [g for g in range(m) if row[g] >= nu]

    if tau.is_zero:
        if zeros or m < n:
            return None
        bundles = [[i] for i in range(n)]
        bundles[0].extend(range(n, m))
        return owner_from_bundles(bundles, m)

    z_total = len(zeros)
    # ones_needed[z]: the smallest bundle size strictly above z / tau, minus
    # the z zeros.  It is non-decreasing, so every split costs less than
    # infinity.
    ones_needed = [
        (z * tau.denominator) // tau.numerator + 1 - z for z in range(z_total + 1)
    ]
    infinity = n * ones_needed[z_total] + 1
    # best[zz] = fewest 1-items needed when the agents so far hold zz zeros.
    best = [0] + [infinity] * z_total
    takes: list[list[int]] = []
    for _ in range(n):
        nxt: list[int] = []
        take_for: list[int] = []
        for total in range(z_total + 1):
            # costs[take] = best[total - take] + ones_needed[take]; the first
            # minimum is the smallest take among the cheapest.
            costs = [b + c for b, c in zip(best[total::-1], ones_needed)]
            cheapest = min(costs)
            nxt.append(cheapest)
            take_for.append(costs.index(cheapest))
        best = nxt
        takes.append(take_for)

    if best[z_total] > len(ones):
        return None

    split = [0] * n
    remaining = z_total
    for i in range(n - 1, -1, -1):
        split[i] = takes[i][remaining]
        remaining -= split[i]

    bundles = [[] for _ in range(n)]
    z_cursor = 0
    o_cursor = 0
    for i in range(n):
        bundles[i].extend(zeros[z_cursor : z_cursor + split[i]])
        z_cursor += split[i]
        need = ones_needed[split[i]]
        bundles[i].extend(ones[o_cursor : o_cursor + need])
        o_cursor += need
    bundles[0].extend(ones[o_cursor:])
    return owner_from_bundles(bundles, m)


def identical_unbalanced_esw(instance: Instance) -> SolveReport:
    """Exact maximum egalitarian welfare for identical valuations (shared row
    and quantile), any quantile in [0, 1], via the threshold search over the
    level decider, which also serves as its own probe."""
    require_objective_kind(instance, "esw")
    if not instance.has_identical_rows():
        raise InvalidInstanceError("value rows are not identical")
    if instance.homogeneous_quantile() is None:
        raise InvalidInstanceError("quantiles are not identical")
    decider, probe_for = decider_probe(_identical_binary_esw)
    return threshold_search(
        instance, decider, probe_for, "identical_unbalanced_esw", balanced=False
    )
