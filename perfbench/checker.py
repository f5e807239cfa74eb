"""Output checks of the quantile-alloc benchmark, made apart from the program.

Nothing here imports the package.  The checker reads the solver's JSON
output and recomputes everything from the instance document with its own
quantile evaluator, its own assignment solver (an integer Hungarian method)
and its own matching routine (Hopcroft-Karp), all in exact integer or
``Fraction`` arithmetic.

``check`` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction


# ---------------------------------------------------------------- evaluator


def parse_tau(text: str) -> tuple[int, int]:
    p, q = text.split("/")
    return int(p), int(q)


def order_index(tau: tuple[int, int], size: int) -> int:
    """1-based index ceil(tau * size) of the order statistic, at least 1."""
    p, q = tau
    return max(1, (p * size + q - 1) // q)


def bundle_value(kind: str, row: list[int], tau: tuple[int, int], items: list[int]) -> int:
    """Quantile value of a bundle; chores are read on the negated values."""
    if not items:
        return 0
    idx = order_index(tau, len(items))
    if kind == "goods":
        return sorted(row[g] for g in items)[idx - 1]
    return -sorted(-row[g] for g in items)[idx - 1]


def objective_value(doc: dict, owner: list[int], objective: str) -> int:
    n = doc["agents"]
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, agent in enumerate(owner):
        bundles[agent].append(g)
    per_agent = [
        bundle_value(doc["kind"], doc["values"][i], parse_tau(doc["quantiles"][i]), bundles[i])
        for i in range(n)
    ]
    if objective in ("usw", "usc"):
        return sum(per_agent)
    if objective == "esw":
        return min(per_agent)
    return max(per_agent)


def owner_problems(doc: dict, owner: object, balanced: bool) -> list[str]:
    """Every item has exactly one valid owner; bundles are equal if asked."""
    n, m = doc["agents"], doc["items"]
    if not isinstance(owner, list) or len(owner) != m:
        return [f"owner vector must list {m} owners"]
    bad = [g for g, a in enumerate(owner) if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < n]
    if bad:
        return [f"item {bad[0]} has no valid owner ({owner[bad[0]]!r})"]
    if balanced:
        sizes = [0] * n
        for a in owner:
            sizes[a] += 1
        if any(s != m // n for s in sizes):
            return [f"bundles are not balanced: sizes {sizes}"]
    return []


# ---------------------------------------------------------------- assignment


def max_assignment(values: list[list[int]]) -> int:
    """Largest total value of a matching of rows to distinct columns.

    Hungarian method with potentials on the negated values, O(n^2 m) for
    n rows <= m columns; with non-negative values some optimum matches every
    row, so a full row assignment gives the maximum-weight matching.
    """
    n, m = len(values), len(values[0])
    if n > m:
        values = [list(col) for col in zip(*values)]
        n, m = m, n
    inf = 1 << 62
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = values[i0 - 1]
            ui0 = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = -row[j - 1] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return sum(values[p[j] - 1][j - 1] for j in range(1, m + 1) if p[j])


# ---------------------------------------------------------------- matching


def max_matching(adj: list[list[int]], num_right: int) -> int:
    """Size of a maximum matching of left vertices into ``range(num_right)``.

    Hopcroft-Karp with iterative depth-first search, so path length is not
    bounded by the interpreter's recursion limit.
    """
    num_left = len(adj)
    match_l = [-1] * num_left
    match_r = [-1] * num_right
    for u in range(num_left):
        for v in adj[u]:
            if match_r[v] < 0:
                match_l[u], match_r[v] = v, u
                break
    while True:
        dist = [-1] * num_left
        queue = [u for u in range(num_left) if match_l[u] < 0]
        for u in queue:
            dist[u] = 0
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    found = True
                elif dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break
        cursor = [0] * num_left
        for start in range(num_left):
            if match_l[start] >= 0:
                continue
            stack, via = [start], []
            while stack:
                u = stack[-1]
                if cursor[u] < len(adj[u]):
                    v = adj[u][cursor[u]]
                    cursor[u] += 1
                    w = match_r[v]
                    if w < 0:
                        via.append(v)
                        for uu, vv in zip(stack, via):
                            match_l[uu], match_r[vv] = vv, uu
                        break
                    if dist[w] == dist[u] + 1:
                        via.append(v)
                        stack.append(w)
                else:
                    dist[u] = -2
                    stack.pop()
                    if via:
                        via.pop()
    return sum(1 for v in match_l if v >= 0)


def _demand_met(adj_per_agent: list[list[int]], demand: list[int], m: int) -> bool:
    """Can every agent i get ``demand[i]`` distinct items of its list?"""
    copies = [adj_per_agent[i] for i in range(len(demand)) for _ in range(demand[i])]
    return max_matching(copies, m) == len(copies)


# ---------------------------------------------------------------- decisions


def balanced_feasible(doc: dict, level: int) -> bool:
    """Goods: can a balanced allocation give everyone value >= level?
    Chores: can it keep everyone's cost <= level?

    A k-item bundle reaches the level iff at least k - idx + 1 of its items
    do (idx the quantile's order index), and padding cannot undo that.
    """
    n, m = doc["agents"], doc["items"]
    k = m // n
    goods = doc["kind"] == "goods"
    demand, adj = [], []
    for i in range(n):
        demand.append(k - order_index(parse_tau(doc["quantiles"][i]), k) + 1)
        row = doc["values"][i]
        adj.append([g for g in range(m) if (row[g] >= level if goods else row[g] <= level)])
    return _demand_met(adj, demand, m)


def unbalanced_esw_feasible(doc: dict, level: int) -> bool:
    """Egalitarian welfare >= level for a homogeneous quantile 0, 1 or t/(t+1).

    Every agent needs an item worth the level (an agent-saturating matching).
    Quantile 0 also needs every item to be worth the level to someone;
    t/(t+1) lets a bundle with L such items hold at most t*L - 1 others, so
    the items worth it to nobody must number at most t*|worth it| - n.
    """
    n, m = doc["agents"], doc["items"]
    p, q = parse_tau(doc["quantiles"][0])
    values = doc["values"]
    adj = [[g for g in range(m) if values[i][g] >= level] for i in range(n)]
    if max_matching(adj, m) < n:
        return False
    worthless = sum(1 for g in range(m) if all(values[i][g] < level for i in range(n)))
    if p == 0:
        return worthless == 0
    if p == q:
        return True
    if q != p + 1:
        raise ValueError(f"no independent decision for quantile {p}/{q}")
    return worthless <= p * (m - worthless) - n


def harmonic(m: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))


def setcover_reference(doc: dict) -> int:
    """Cost of the cheapest of n + 1 simple allocations for pessimists: all
    chores to one agent, or every chore to an agent it costs least."""
    n, m, values = doc["agents"], doc["items"], doc["values"]
    cheapest = [min(range(n), key=lambda i: (values[i][g], i)) for g in range(m)]
    candidates = [[i] * m for i in range(n)] + [cheapest]
    return min(objective_value(doc, owner, "usc") for owner in candidates)


# ---------------------------------------------------------------- checks


def _next_level_above(doc: dict, level: int) -> int | None:
    above = [e for row in doc["values"] for e in row if e > level]
    return min(above) if above else None


def _next_cost_below(doc: dict, cost: int) -> int | None:
    below = [e for row in doc["values"] for e in row if e < cost]
    return max(below + [0]) if cost > 0 else None


def family_problems(family: str, doc: dict, welfare: int) -> list[str]:
    """Optimality or guarantee of one output, decided without the oracle."""
    n, m, values = doc["agents"], doc["items"], doc["values"]
    if family == "greedy_balanced_usw":
        return []  # no bound without the optimum; certify holds it to the oracle
    if family == "optimistic_exact_usw":
        best = max_assignment(values)
        return [] if welfare == best else [f"welfare {welfare} != maximum assignment {best}"]
    if family == "scapegoat_usw":
        best = max_assignment(values)
        ok = n * welfare >= (n - 1) * best
        return [] if ok else [f"n*welfare {n * welfare} < (n-1)*assignment {(n - 1) * best}"]
    if family == "usc_tau0_setcover":
        bound = harmonic(m) * setcover_reference(doc)
        return [] if welfare <= bound else [f"cost {welfare} > H_m * reference = {float(bound):.3f}"]
    if family == "identical_binary_usw_unbalanced":
        ones = sum(values[0])
        low, high = min(ones, n - 1), min(ones, n)
        ok = low <= welfare <= high
        return [] if ok else [f"welfare {welfare} outside [{low}, {high}]"]
    if family in ("balanced_esw", "balanced_esc"):
        if family == "balanced_esw":
            nxt = _next_level_above(doc, welfare)
        else:
            nxt = _next_cost_below(doc, welfare)
        if nxt is not None and balanced_feasible(doc, nxt):
            return [f"level {nxt} beyond the reported {welfare} is feasible"]
        return []
    if family == "unbalanced_esw":
        tau = parse_tau(doc["quantiles"][0])
        if tau == (1, 3):
            cap = min(max(row) for row in values)
            return [] if welfare <= cap else [f"welfare {welfare} > min row maximum {cap}"]
        nxt = _next_level_above(doc, welfare)
        if nxt is not None and unbalanced_esw_feasible(doc, nxt):
            return [f"level {nxt} above the reported {welfare} is feasible"]
        return []
    if family == "identical_unbalanced_esw":
        cap = max(values[0])
        return [] if welfare <= cap else [f"welfare {welfare} > largest value {cap}"]
    if family == "esc_tau0":
        best = max(min(values[i][g] for i in range(n)) for g in range(m))
        return [] if welfare == best else [f"cost {welfare} != max over chores of least cost {best}"]
    if family == "esc_tau1":
        best = min(min(row) for row in values)
        return [] if welfare == best else [f"cost {welfare} != least entry {best}"]
    return [f"no check for family {family}"]


def guarantee_problems(family: str, doc: dict, welfare: int, opt: int) -> list[str]:
    """README guarantee of a solver against the exhaustive optimum."""
    n, m = doc["agents"], doc["items"]
    if family == "greedy_balanced_usw":
        factor = min(m // n + 1, n)
        ok = welfare * factor >= opt
        return [] if ok else [f"welfare {welfare} * {factor} < balanced optimum {opt}"]
    if family == "scapegoat_usw":
        ok = n * welfare >= (n - 1) * opt
        return [] if ok else [f"n*welfare {n * welfare} < (n-1)*optimum {(n - 1) * opt}"]
    if family == "usc_tau0_setcover":
        bound = harmonic(m) * opt
        return [] if welfare <= bound else [f"cost {welfare} > H_m * optimum = {float(bound):.3f}"]
    return [] if welfare == opt else [f"welfare {welfare} != optimum {opt}"]


def check(
    family: str,
    doc: dict,
    objective: str,
    balanced: bool,
    output: str,
    oracle: tuple[int, list[int]] | None = None,
) -> list[str]:
    """All problems with one solver output (JSON text) for ``doc``.

    The family's own independent check always applies.  With ``oracle``
    (optimum and witness owners) the output is also held to its README
    guarantee against the optimum, and the witness is recomputed.
    """
    out = json.loads(output)
    problems = owner_problems(doc, out.get("owner"), balanced)
    if problems:
        return problems
    if out.get("algorithm") != family:
        problems.append(f"algorithm {out.get('algorithm')!r} != {family!r}")
    welfare = objective_value(doc, out["owner"], objective)
    if out.get("welfare") != welfare:
        return problems + [f"reported welfare {out.get('welfare')!r} != recomputed {welfare}"]
    problems += family_problems(family, doc, welfare)
    if oracle is None:
        return problems
    opt, witness = oracle
    witness_problems = owner_problems(doc, witness, balanced)
    if witness_problems:
        return problems + [f"oracle witness: {p}" for p in witness_problems]
    if objective_value(doc, witness, objective) != opt:
        return problems + [f"oracle optimum {opt} != its witness's recomputed value"]
    return problems + guarantee_problems(family, doc, welfare, opt)
