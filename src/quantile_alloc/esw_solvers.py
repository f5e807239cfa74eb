"""Egalitarian-welfare solvers for goods.

Everything here rides on one reduction: an allocation has egalitarian
welfare >= nu under integer values if and only if it has egalitarian welfare
1 after rewriting every value to 1-if->=nu-else-0.  So each solver is the
one threshold search of ``_threshold.py``, shared with the chores solvers,
over a pair: a probe, a cheap yes/no test of "can everyone get value >= nu?"
at a level, and a level decider, which reads the items worth >= nu straight
off the original values and builds the allocation.  Neither rewrites the
instance.  The probes are pure: a matching size, a count or a bisect, never
a decision.  They find the boundary level, and the decider runs once
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
from itertools import combinations, islice

from ._construct import owner_from_bundles
from ._threshold import (
    LevelDecider,
    Probe,
    ProbeFactory,
    binary_report,
    copies_decider,
    copies_probe,
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
from .matching import Graph, max_cardinality_general, max_weight_general, saturating_match


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
    escorts = min(len(rem_ones), (len(zeros) + t - 1) // t)
    for k, g in enumerate(rem_ones[:escorts]):
        bundles[_first_valuing_agent(instance, nu, g)] += [g, *zeros[k * t : (k + 1) * t]]
    stragglers = zeros[escorts * t :]
    assert len(stragglers) <= n * (t - 1), "straggler zeros exceed capacity"
    for i in range(n):
        bundles[i].extend(stragglers[i * (t - 1) : (i + 1) * (t - 1)])
    for g in rem_ones[escorts:]:
        bundles[_first_valuing_agent(instance, nu, g)].append(g)

    return owner_from_bundles(bundles, instance.m)


def unbalanced_esw_binary_frac(instance: Instance, t: int) -> SolveReport:
    """Decide egalitarian welfare 1 for binary goods at quantile t/(t+1)
    (see ``_frac_decider``)."""
    require_binary(instance, "esw")
    if type(t) is not int or t < 1:
        raise InvalidInstanceError("t must be a positive integer")
    if any(q != Quantile(t, t + 1) for q in instance.quantiles):
        raise IntractableQuantileError(
            f"quantile mismatch: solver requires homogeneous quantile {t}/{t + 1}"
        )
    return binary_report(instance, _frac_decider, "unbalanced_esw_binary_frac", balanced=False)


def _third_graph(
    instance: Instance, nu: int
) -> tuple[list[int], list[int], list[list[int]], list[tuple[int, int]]]:
    """The 1/3 graph at level nu: the universal zeros, the other items (the
    1-items, ``ones[pos]`` being vertex n + pos), per agent the positions of
    its 1-items, and the edges: agent-item in agent then position order,
    then the ascending item pairs some agent values both >= nu."""
    n, values = instance.n, instance.values
    zeros, ones = _zero_one_split(instance, nu)
    valuers = [sum(1 << i for i, row in enumerate(values) if row[g] >= nu) for g in ones]
    agent_items = [[pos for pos, g in enumerate(ones) if row[g] >= nu] for row in values]
    edges = [(i, n + pos) for i, row in enumerate(agent_items) for pos in row]
    pairs = combinations(range(len(ones)), 2)
    edges += [(n + pa, n + pb) for pa, pb in pairs if valuers[pa] & valuers[pb]]
    return zeros, ones, agent_items, edges


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
    zeros, ones, _, pairs = _third_graph(instance, nu)
    w_big = n + len(ones) + 1
    edges = tuple((u, v, w_big if u < n else 1) for u, v in pairs)
    matching = max_weight_general(Graph(num_vertices=n + len(ones), edges=edges))
    if matching.weight < len(zeros) + n * w_big:
        return None

    bundles: list[list[int]] = [[] for _ in range(n)]
    item_pairs: list[tuple[int, int]] = []
    for u, v, _ in matching.edges:
        if u < n:
            bundles[u].append(ones[v - n])
        else:
            item_pairs.append((ones[u - n], ones[v - n]))
    assert all(bundles) and len(item_pairs) >= len(zeros)

    for z, (ga, gb) in zip(zeros, item_pairs):
        bundles[_first_valuing_agent(instance, nu, ga, gb)].extend((z, ga, gb))

    placed = {g for bundle in bundles for g in bundle}
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


def _frac_probe(instance: Instance) -> Probe:
    """Probe of ``_frac_decider``: the count |M_0| <= t*|M_1| - n
    at the level, where |M_0| counts the items below it for everyone, and
    the agents saturate."""
    n, m = instance.n, instance.m
    t = instance.quantiles[0].numerator
    column_max = sorted(max(column) for column in zip(*instance.values))
    saturates = _saturation_probe(instance)

    def probe(nu: int) -> bool:
        zeros = bisect_left(column_max, nu)
        return zeros <= t * (m - zeros) - n and saturates(nu)

    return probe


def _third_probe(instance: Instance) -> Probe:
    """Probe of ``_third_decider``: the agents saturate into their 1-items,
    and the 1/3 graph has a maximum-cardinality matching of at least
    n + |M_0| edges.  Augmenting paths never unmatch a vertex, so a maximum
    matching grown from the saturating one covers every agent and holds at
    least |M_0| item pairs: the decider's weight test."""
    n = instance.n

    def probe(nu: int) -> bool:
        zeros, ones, agent_items, edges = _third_graph(instance, nu)
        if saturating_match(agent_items, len(ones)) is None:
            return False
        return max_cardinality_general(n + len(ones), edges) >= n + len(zeros)

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
    pairs = {
        "tau0": (_tau0_decider, _tau0_probe),
        "tau1": (_tau1_decider, _saturation_probe),
        "third": (_third_decider, _third_probe),
        "frac": (_frac_decider, _frac_probe),
    }
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


def _zero_split(n: int, z_total: int, tau: Quantile) -> tuple[int, list[int]]:
    """Fewest items worth >= nu (1-items) that give n agents at quantile
    tau > 0 value >= nu with ``z_total`` worthless items among them, and the
    worthless items each agent takes.

    A bundle holding z worthless items needs ``floor(z/tau) + 1 - z``
    1-items, a floor of a linear function, so an even split is NOT always
    cheapest (at tau = 2/3, zeros split 1 + 3 need 1 + 2 ones, 2 + 2 need
    2 + 2).  With tau = p/q, p more zeros cost q - p more 1-items, so agent
    0 absorbs p zeros from any later agent at no cost: the DP starts from
    agent 0 taking every zero, and each later agent's smallest cheapest take
    is below p, in O(n * z_total * p).
    """
    p, q = tau.numerator, tau.denominator
    ones_needed = [(z * q) // p + 1 - z for z in range(z_total + 1)]
    window = ones_needed[:p]
    # best[zz] = fewest 1-items needed when the agents so far hold zz zeros.
    best = ones_needed
    takes: list[list[int]] = []
    for _ in range(n - 1):
        # costs[total][take] = best[total - take] + ones_needed[take]; the
        # first minimum is the smallest take among the cheapest.
        costs = [
            [best[total - take] + c for take, c in enumerate(window[: total + 1])]
            for total in range(z_total + 1)
        ]
        best = [min(row) for row in costs]
        takes.append([row.index(low) for row, low in zip(costs, best)])
    # Agent 0 keeps the zeros the later agents leave.
    split = [z_total] + [0] * (n - 1)
    for i in range(n - 1, 0, -1):
        split[i] = takes[i - 1][split[0]]
        split[0] -= split[i]
    return best[z_total], split


def _identical_binary_esw(instance: Instance, nu: int) -> Allocation | None:
    """Egalitarian welfare >= nu for identical valuations: the cheapest split
    of the worthless items (see ``_zero_split``), each agent topped up with
    the 1-items its share needs and agent 0 taking the rest."""
    n, m = instance.n, instance.m
    tau = instance.quantiles[0]
    row = instance.values[0]
    zeros = [g for g in range(m) if row[g] < nu]
    ones = [g for g in range(m) if row[g] >= nu]

    if tau.is_zero:
        # One item per agent, agent 0 taking the rest.
        return None if zeros or m < n else Allocation(tuple(g if g < n else 0 for g in range(m)))

    cost, split = _zero_split(n, len(zeros), tau)
    if cost > len(ones):
        return None

    # Each agent takes its zeros and the 1-items they need, in item order.
    zero_items, one_items = iter(zeros), iter(ones)
    bundles = [
        list(islice(zero_items, take))
        + list(islice(one_items, (take * tau.denominator) // tau.numerator + 1 - take))
        for take in split
    ]
    bundles[0].extend(one_items)
    return owner_from_bundles(bundles, m)


def _identical_probe(instance: Instance) -> Probe:
    """Probe of ``_identical_binary_esw``: Z, the worthless items at the
    level, is one bisect on the sorted shared row; the cheapest split of Z
    must need at most m - Z 1-items (quantile 0: Z = 0 and m >= n)."""
    n, m = instance.n, instance.m
    tau = instance.quantiles[0]
    row = sorted(instance.values[0])

    def probe(nu: int) -> bool:
        z_total = bisect_left(row, nu)
        if tau.is_zero:
            return z_total == 0 and m >= n
        return _zero_split(n, z_total, tau)[0] <= m - z_total

    return probe


def require_identical(instance: Instance, objective: str) -> None:
    """The identical-valuation solvers' checks: kind, shared row, shared quantile."""
    require_objective_kind(instance, objective)
    if not instance.has_identical_rows():
        raise InvalidInstanceError("value rows are not identical")
    if instance.homogeneous_quantile() is None:
        raise InvalidInstanceError("quantiles are not identical")


def identical_unbalanced_esw(instance: Instance) -> SolveReport:
    """Exact maximum egalitarian welfare for identical valuations (shared row
    and quantile), any quantile in [0, 1], via the threshold search over the
    level decider and its bisect probe."""
    require_identical(instance, "esw")
    algorithm = "identical_unbalanced_esw"
    return threshold_search(
        instance, _identical_binary_esw, _identical_probe, algorithm, balanced=False
    )
