"""Seeded generators shared across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from quantile_alloc import Allocation, Graph, Instance, bipartite_graph, make_instance

TRACTABLE_TAUS = ["0/1", "1/3", "1/2", "2/3", "3/4", "1/1"]
ALL_TAUS = TRACTABLE_TAUS + ["1/4", "2/5", "1/5", "3/5", "4/5", "5/6"]


def random_instance(
    rng: random.Random,
    n: int,
    m: int,
    kind: str = "goods",
    max_value: int = 9,
    binary: bool = False,
    identical: bool = False,
    taus: list[str] | None = None,
    tau_pool: list[str] = ALL_TAUS,
    homogeneous: bool | None = None,
) -> Instance:
    if taus is None:
        hom = rng.random() < 0.5 if homogeneous is None else homogeneous
        if hom:
            taus = [rng.choice(tau_pool)] * n
        else:
            taus = [rng.choice(tau_pool) for _ in range(n)]
    top = 1 if binary else max_value
    if identical:
        row = [rng.randint(0, top) for _ in range(m)]
        rows = [list(row) for _ in range(n)]
    else:
        rows = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
    return make_instance(kind, taus, rows)


def harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m, exactly: Chvatal's bound on greedy set cover."""
    return sum(Fraction(1, j) for j in range(1, m + 1))


def random_allocation(rng: random.Random, n: int, m: int, nonempty: bool = False) -> Allocation:
    owner = [rng.randrange(n) for _ in range(m)]
    if nonempty:
        if m < n:
            raise ValueError("cannot give every agent an item with m < n")
        items = list(range(m))
        rng.shuffle(items)
        for agent in range(n):
            owner[items[agent]] = agent
    return Allocation(tuple(owner))


def random_graph(
    rng: random.Random,
    max_vertices: int = 10,
    max_edges: int = 15,
    max_weight: int = 20,
) -> Graph:
    nv = rng.randint(1, max_vertices)
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    rng.shuffle(pairs)
    ne = rng.randint(0, min(max_edges, len(pairs)))
    chosen = sorted(pairs[:ne])
    edges = tuple((u, v, rng.randint(0, max_weight)) for u, v in chosen)
    return Graph(num_vertices=nv, edges=edges)


def random_bipartite(
    rng: random.Random,
    max_side: int = 5,
    max_edges: int = 15,
    max_weight: int = 20,
) -> Graph:
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    pairs = [(u, v) for u in range(nl) for v in range(nr)]
    rng.shuffle(pairs)
    ne = rng.randint(0, min(max_edges, len(pairs)))
    edges = [(u, v, rng.randint(0, max_weight)) for u, v in sorted(pairs[:ne])]
    return bipartite_graph(nl, nr, edges)
