"""Matching engine tests, certified against the exhaustive matching oracle."""

from __future__ import annotations

import random
import sys
import zlib

import pytest

from helpers import random_bipartite, random_graph
from quantile_alloc import (
    Graph,
    bipartite_graph,
    brute_matching,
    max_cardinality_bipartite,
    max_weight_bipartite,
    max_weight_general,
)
from quantile_alloc.matching import max_cardinality_general, max_weight_pairs, saturating_match


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(num_vertices=2, edges=((0, 0, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(num_vertices=2, edges=((0, 1, 1), (1, 0, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Graph(num_vertices=2, edges=((0, 1, -1),))

    def test_edge_must_cross_bipartition(self):
        with pytest.raises(ValueError):
            Graph(num_vertices=3, edges=((0, 1, 1),), num_left=2)

    @pytest.mark.parametrize("num_left", [-1, 4])
    def test_num_left_out_of_range(self, num_left):
        with pytest.raises(ValueError):
            Graph(num_vertices=3, edges=(), num_left=num_left)

    def test_bipartite_required(self):
        graph = Graph(num_vertices=2, edges=((0, 1, 1),))
        with pytest.raises(ValueError):
            max_cardinality_bipartite(graph)
        with pytest.raises(ValueError):
            max_weight_bipartite(graph)


class TestBipartiteCardinality:
    def test_empty_edge_set(self):
        graph = bipartite_graph(2, 2, [])
        assert max_cardinality_bipartite(graph).size == 0

    def test_complete_two_by_two(self):
        graph = bipartite_graph(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
        assert max_cardinality_bipartite(graph).size == 2

    def test_balanced_binary_decision_graph(self):
        # Two agents with two copies each; agent 0 likes items {0, 1}, agent 1
        # likes {0, 2, 3}: all four copies can be saturated.
        edges = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 2, 1), (2, 3, 1), (3, 0, 1), (3, 2, 1), (3, 3, 1)]
        graph = bipartite_graph(4, 4, edges)
        assert max_cardinality_bipartite(graph).size == 4


class TestMaxWeight:
    def test_single_edge(self):
        graph = bipartite_graph(1, 1, [(0, 0, 7)])
        matching = max_weight_bipartite(graph)
        assert matching.weight == 7
        assert matching.size == 1

    def test_contested_right_vertex(self):
        # a and b both prefer x (10 vs 8); b has fallback y at 6.
        graph = bipartite_graph(2, 2, [(0, 0, 10), (1, 0, 8), (1, 1, 6)])
        matching = max_weight_bipartite(graph)
        assert matching.weight == 16
        assert {(u, v) for u, v, _ in matching.edges} == {(0, 2), (1, 3)}

    def test_scapegoat_example_matching(self):
        # Agents 0 and 1 against four items; rows [10,0,0,0] and [0,8,0,0].
        edges = [(i, g, w) for i, row in enumerate([[10, 0, 0, 0], [0, 8, 0, 0]]) for g, w in enumerate(row)]
        graph = bipartite_graph(2, 4, edges)
        assert max_weight_bipartite(graph).weight == 18

    def test_triangle_takes_lowest_index_edge(self):
        graph = Graph(num_vertices=3, edges=((0, 1, 5), (0, 2, 5), (1, 2, 5)))
        matching = max_weight_general(graph)
        assert matching.weight == 5
        assert matching.edges == ((0, 1, 5),)

    def test_path_prefers_heavier_edge(self):
        graph = Graph(num_vertices=3, edges=((0, 1, 1), (1, 2, 2)))
        matching = max_weight_general(graph)
        assert matching.weight == 2
        assert matching.edges == ((1, 2, 2),)

    def test_offset_pair_construction_weight(self):
        # Agent-item edges at weight 7 dominate item-item pair edges at 1;
        # two agents plus one spare pair gives 2*7 + 1 = 15.
        edges = (
            (0, 2, 7),
            (0, 3, 7),
            (0, 4, 7),
            (1, 5, 7),
            (2, 3, 1),
            (2, 4, 1),
            (3, 4, 1),
        )
        graph = Graph(num_vertices=6, edges=edges)
        assert max_weight_general(graph).weight == 15
        assert brute_matching(graph, weighted=True).weight == 15

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_graph(rng)
            first = max_weight_general(graph)
            second = max_weight_general(graph)
            assert first == second


class TestAgainstOracle:
    def test_general_weight_matches_brute_force(self):
        rng = random.Random(123)
        for _ in range(250):
            graph = random_graph(rng)
            fast = max_weight_general(graph)
            brute = brute_matching(graph, weighted=True)
            assert fast.weight == brute.weight
            used = set()
            for u, v, _ in fast.edges:
                assert u not in used and v not in used
                used.update((u, v))
            assert set(fast.edges) <= set(graph.edges)

    def test_general_tie_break_matches_brute_force(self):
        # The oracle implements the lexicographic preference by direct
        # comparison; the engine implements it by weight perturbation.  The
        # two must agree edge-for-edge.
        rng = random.Random(321)
        for _ in range(250):
            graph = random_graph(rng, max_vertices=8, max_edges=10, max_weight=4)
            assert max_weight_general(graph).edges == brute_matching(graph, weighted=True).edges

    def test_general_cardinality_matches_brute_force(self):
        seed = zlib.crc32(b"general cardinality")
        print(f"seed {seed}")
        rng = random.Random(seed)
        for _ in range(250):
            graph = random_graph(rng)
            pairs = [(u, v) for u, v, _ in graph.edges]
            size = max_cardinality_general(graph.num_vertices, pairs)
            assert size == brute_matching(graph, weighted=False).size

    def test_bipartite_weight_matches_brute_force(self):
        rng = random.Random(456)
        for _ in range(250):
            graph = random_bipartite(rng)
            assert max_weight_bipartite(graph).weight == brute_matching(graph, weighted=True).weight

    @pytest.mark.parametrize("max_weight", [0, 1, 4, 20])
    def test_bipartite_tie_break_matches_brute_force(self, max_weight):
        # The engine meets the lexicographic preference through its optimal
        # duals; the oracle compares edge sequences directly.  Edge order is
        # shuffled so that index order and vertex order disagree.
        rng = random.Random(654 + max_weight)
        for _ in range(250):
            base = random_bipartite(rng, max_weight=max_weight)
            edges = list(base.edges)
            rng.shuffle(edges)
            graph = Graph(base.num_vertices, tuple(edges), base.num_left)
            assert max_weight_bipartite(graph).edges == brute_matching(graph, weighted=True).edges

    def test_bipartite_matches_general_on_usw_graphs(self):
        # Complete agent-by-item graphs as the utilitarian solvers build
        # them, beyond the oracle's edge cap: the general route (perturbed
        # blossom) is an independent second implementation of the tie-break.
        rng = random.Random(987)
        for n, m in [(1, 5), (2, 9), (3, 3), (4, 20), (6, 6), (7, 30), (10, 60), (12, 4)]:
            for top in (1, 2, 1000):
                rows = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
                rows[rng.randrange(n)] = [0] * m
                graph = bipartite_graph(n, m, [(i, g, rows[i][g]) for i in range(n) for g in range(m)])
                assert max_weight_bipartite(graph) == max_weight_general(graph)

    def test_bipartite_huge_weights(self):
        # Weights far above any fixed-width sentinel, with ties among them.
        big = 2**70
        edges = [(0, 0, big), (0, 1, big), (0, 2, 1), (1, 0, big), (1, 1, big), (2, 2, 2 * big)]
        graph = bipartite_graph(3, 3, edges)
        matching = max_weight_bipartite(graph)
        assert matching.edges == ((0, 3, big), (1, 4, big), (2, 5, 2 * big))
        assert matching == brute_matching(graph, weighted=True) == max_weight_general(graph)

    def test_cardinality_matches_brute_force(self):
        rng = random.Random(789)
        for _ in range(250):
            graph = random_bipartite(rng)
            assert (
                max_cardinality_bipartite(graph).size
                == brute_matching(graph, weighted=False).size
            )

    def test_cardinality_matches_reference_kuhn(self):
        # The matcher must return the very matching of the plain recursive
        # Kuhn search (fresh visited set per left vertex, ascending order):
        # the golden owner vectors of the egalitarian solvers depend on it.
        def kuhn(graph):
            left = range(graph.num_left)
            adj = {u: [] for u in left}
            for u, v, _ in graph.edges:
                adj[u if u in left else v].append(v if u in left else u)
            match_right = {}

            def augment(u, visited):
                for v in sorted(adj[u]):
                    if v not in visited:
                        visited.add(v)
                        if v not in match_right or augment(match_right[v], visited):
                            match_right[v] = u
                            return True
                return False

            for u in adj:
                augment(u, set())
            return {(match_right[v], v) for v in match_right}

        rng = random.Random(246)
        for _ in range(300):
            graph = random_bipartite(rng, max_side=9, max_edges=30)
            if rng.random() < 0.5:  # edges written right vertex first
                graph = Graph(
                    graph.num_vertices,
                    tuple((v, u, w) for u, v, w in graph.edges),
                    graph.num_left,
                )
            left = range(graph.num_left)
            fast = max_cardinality_bipartite(graph)
            assert {(u, v) if u in left else (v, u) for u, v, _ in fast.edges} == kuhn(graph)

    def test_cardinality_equals_unit_weight_size(self):
        rng = random.Random(555)
        for _ in range(100):
            base = random_bipartite(rng)
            unit = Graph(
                num_vertices=base.num_vertices,
                edges=tuple((u, v, 1) for u, v, _ in base.edges),
                num_left=base.num_left,
            )
            assert max_cardinality_bipartite(unit).size == max_weight_bipartite(unit).size


def shuffled(rng: random.Random, graph: Graph) -> Graph:
    """The same graph with its edges in random order, half of them written
    right vertex first."""
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in graph.edges]
    rng.shuffle(edges)
    return Graph(graph.num_vertices, tuple(edges), graph.num_left)


def left_right_pairs(graph: Graph, edges) -> list[tuple[int, int, int]]:
    """Edges as (left vertex, right index, weight) of a bipartite graph."""
    nl = graph.num_left
    return [(u, v - nl, w) if u < nl else (v, u - nl, w) for u, v, w in edges]


class TestListLevel:
    """The list-level cores the solvers call, against the ``Graph`` routines."""

    @pytest.mark.parametrize("max_side", [3, 5, 9])
    def test_saturating_match_agrees_with_cardinality(self, max_side):
        seed = zlib.crc32(f"saturating match {max_side}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        for _ in range(300):
            graph = shuffled(rng, random_bipartite(rng, max_side=max_side, max_edges=3 * max_side))
            adj: list[list[int]] = [[] for _ in range(graph.num_left)]
            for u, g, _ in left_right_pairs(graph, graph.edges):
                adj[u].append(g)
            for row in adj:
                row.sort()
            num_right = graph.num_vertices - graph.num_left
            match = saturating_match(adj, num_right)
            reference = max_cardinality_bipartite(graph)
            if reference.size < graph.num_left:
                assert match is None
                continue
            assert match is not None
            pairs = {(u, g) for u, g, _ in left_right_pairs(graph, reference.edges)}
            assert {(u, g) for g, u in enumerate(match) if u != -1} == pairs

    @pytest.mark.parametrize("max_weight", [0, 1, 4, 20])
    def test_max_weight_pairs_agrees_with_graph_route(self, max_weight):
        seed = zlib.crc32(f"max weight pairs {max_weight}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        wider_left = 0
        for _ in range(300):
            graph = shuffled(rng, random_bipartite(rng, max_side=7, max_weight=max_weight))
            triples = left_right_pairs(graph, graph.edges)
            chosen = max_weight_pairs(
                graph.num_left,
                graph.num_vertices - graph.num_left,
                [(u, g) for u, g, _ in triples],
                [w for _, _, w in triples],
            )
            assert tuple(graph.edges[k] for k in chosen) == max_weight_bipartite(graph).edges
            wider_left += 2 * graph.num_left > graph.num_vertices
        assert wider_left > 50

    def test_max_weight_pairs_more_left_than_right(self):
        # Five agents, two items: the items become the Hungarian's rows.
        rows = [[3, 1], [2, 2], [3, 0], [0, 3], [1, 1]]
        ends = [(i, g) for i in range(5) for g in range(2)]
        weights = [w for row in rows for w in row]
        assert max_weight_pairs(5, 2, ends, weights) == [0, 7]
        graph = bipartite_graph(5, 2, [(i, g, w) for (i, g), w in zip(ends, weights)])
        assert max_weight_bipartite(graph).edges == ((0, 5, 3), (3, 6, 3))

    def test_empty_inputs(self):
        assert max_weight_pairs(0, 3, [], []) == []
        assert saturating_match([], 2) == [-1, -1]
        assert saturating_match([[]], 2) is None


def reference_try_augment(
    root: int, adj: list[list[int]], match_right: list[int], seen: list[int], epoch: int
) -> bool:
    """The augmenting search before dead vertices, kept verbatim as the
    reference: every search it runs must find the same path."""
    # stack[d] is the left vertex at depth d with its adjacency cursor;
    # through[d] is the right vertex that led from depth d to depth d + 1.
    stack = [(root, iter(adj[root]))]
    through: list[int] = []
    while stack:
        u, cursor = stack[-1]
        for v in cursor:
            if seen[v] == epoch:
                continue
            seen[v] = epoch
            if match_right[v] == -1:
                match_right[v] = u
                for (w, _), x in zip(stack, through):
                    match_right[x] = w
                return True
            through.append(v)
            stack.append((match_right[v], iter(adj[match_right[v]])))
            break
        else:
            stack.pop()
            if through:
                through.pop()
    return False


def reference_match(adj: list[list[int]], num_right: int, saturate: bool) -> list[int] | None:
    """Right vertices' left mates from ``reference_try_augment`` over roots in
    order, as ``saturating_match`` (``saturate``: None at the first failing
    root) or ``max_cardinality_bipartite`` (skip failing roots) run it."""
    match_right = [-1] * num_right
    seen = [-1] * num_right
    epoch = 0
    for root in range(len(adj)):
        if reference_try_augment(root, adj, match_right, seen, epoch):
            epoch += 1
        elif saturate:
            return None
    return match_right


def assert_matches_reference(adj: list[list[int]], num_right: int) -> bool:
    """``saturating_match`` on ``adj`` and ``max_cardinality_bipartite`` on
    its graph give the reference's matching, edge for edge.  Returns whether
    every left vertex was covered."""
    saturated = saturating_match(adj, num_right)
    assert saturated == reference_match(adj, num_right, saturate=True)
    num_left = len(adj)
    graph = bipartite_graph(
        num_left, num_right, sorted({(u, g, 1) for u, row in enumerate(adj) for g in row})
    )
    # The Graph route scans each left vertex's neighbours in ascending order.
    mates = reference_match([sorted(set(row)) for row in adj], num_right, saturate=False)
    expected = tuple(e for e in graph.edges if mates[e[1] - num_left] == e[0])
    assert max_cardinality_bipartite(graph).edges == expected
    return saturated is not None


def chain(n: int) -> list[list[int]]:
    """Left vertex u's first choice is u - 1, held by its predecessor."""
    return [[u - 1, u] if u else [0] for u in range(n)]


class CountingList(list):
    """A list that adds one to ``tally[0]`` for each item iterated out of it."""

    def __init__(self, items, tally: list[int]):
        super().__init__(items)
        self.tally = tally

    def __iter__(self):
        for item in super().__iter__():
            self.tally[0] += 1
            yield item


class TestDeadVertices:
    """The augmenting search skips right vertices that can never lead to a
    free vertex again, and must still find the reference's every path."""

    @pytest.mark.parametrize("case", range(4))
    def test_random_sparse_graphs(self, case):
        seed = zlib.crc32(f"dead vertices sparse {case}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        saturated = 0
        for _ in range(60):
            total = rng.randint(50, 300)
            num_left = rng.randint(total // 4, total // 2)
            num_right = total - num_left
            # A planted item makes some draws saturate; the rest contend.
            planted = rng.sample(range(num_right), num_left)
            adj = []
            for u in range(num_left):
                row = rng.sample(range(num_right), rng.randint(1, 3))
                if rng.random() < 0.9 and planted[u] not in row:
                    row[rng.randrange(len(row))] = planted[u]
                adj.append(row)
            saturated += assert_matches_reference(adj, num_right)
        assert 0 < saturated < 60

    @pytest.mark.parametrize("case", range(3))
    def test_copies_adjacency(self, case):
        # The copies-to-items decider repeats one list object per copy of an
        # agent; here two agents also share one object.
        seed = zlib.crc32(f"dead vertices copies {case}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        saturated = 0
        for _ in range(100):
            n, k = rng.randint(2, 12), rng.randint(1, 4)
            m = n * k
            lists = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
            lists[1] = lists[0]
            adj = [lists[i] for i in range(n) for _ in range(k)]
            saturated += assert_matches_reference(adj, m)
        assert 0 < saturated < 100

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 301])
    def test_chains(self, n):
        assert assert_matches_reference(chain(n), n)
        # Reversed: the first choices are free until the last vertex, whose
        # augmenting path runs back down the whole chain.
        reversed_chain = [[u + 1, u] if u < n - 1 else [u] for u in range(n)]
        assert assert_matches_reference(reversed_chain, n)

    @pytest.mark.parametrize("case", range(3))
    def test_chains_with_extra_edges(self, case):
        seed = zlib.crc32(f"dead vertices chains {case}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(20, 200)
            adj = chain(n) if rng.random() < 0.5 else [row[::-1] for row in chain(n)]
            for _ in range(rng.randint(1, n // 4)):
                row = adj[rng.randrange(n)]
                extra = rng.randrange(n + 2)
                if extra not in row:
                    row.insert(rng.randint(0, len(row)), extra)
            assert_matches_reference(adj, n + 2)

    @pytest.mark.parametrize("case", range(3))
    def test_failing_roots(self, case):
        # More left vertices than right ones, so many roots fail, and
        # max_cardinality_bipartite goes on past them.
        seed = zlib.crc32(f"dead vertices failing roots {case}".encode())
        print(f"seed {seed}")
        rng = random.Random(seed)
        for _ in range(80):
            num_right = rng.randint(5, 60)
            num_left = num_right + rng.randint(1, num_right)
            adj = [
                rng.sample(range(num_right), rng.randint(1, min(3, num_right)))
                for _ in range(num_left)
            ]
            assert not assert_matches_reference(adj, num_right)

    def test_chain_work_is_linear(self):
        # Each root scans its predecessor's item, finds it dead after one
        # short search, and takes its own: about 6 items scanned per root.
        # Without the dead marks every search walks the whole chain (n**2).
        n = 2000
        tally = [0]
        adj = [CountingList(row, tally) for row in chain(n)]
        assert saturating_match(adj, n) == list(range(n))
        assert tally[0] <= 8 * n

    def test_long_augmenting_path(self):
        # Every left vertex takes its first choice until the last one, whose
        # only item starts an augmenting path through all n vertices.
        n = 5000
        assert n > sys.getrecursionlimit()
        adj = [[u, u + 1] for u in range(n - 1)] + [[0]]
        assert saturating_match(adj, n) == [n - 1, *range(n - 1)]
