"""Exact matching engine used by the welfare solvers.

Three routines, all in exact integer arithmetic:

* maximum-cardinality bipartite matching: augmenting paths found by an
  iterative depth-first search that skips dead right vertices, those whose
  every alternating continuation is closed off from free vertices (see
  ``_try_augment``), so it returns the matching of the plain search;
* maximum-weight bipartite matching: the Hungarian method on the dense
  weight matrix, then a tie-break read off its optimal duals;
* general matching: the blossom algorithm of networkx, for graphs with odd
  cycles, at maximum weight or, on unit weights, for the maximum size.

The solvers call the bipartite routines on plain lists they already hold:
``saturating_match`` on per-vertex adjacency and ``max_weight_pairs`` on
edge ends and weights.  ``Graph`` and ``Matching`` validate the public
API's input and output: ``max_cardinality_bipartite`` shares its
augmenting search with ``saturating_match``, and ``max_weight_bipartite``
is an adapter over ``max_weight_pairs``.  The 1/3 decider's graph goes to
``max_weight_general``, its probe's edges to ``max_cardinality_general``.

Determinism contract: every routine is a pure function of the input
graph.  The weighted routines additionally break ties between equally heavy
matchings toward the lexicographically smallest sorted edge-index sequence
(missing entries comparing as +infinity, i.e. low-index edges are greedily
preferred), so the result cannot depend on solver internals.  The two
routes meet this contract differently:

* bipartite: given optimal duals, the maximum-weight matchings are exactly
  the matchings of dual-tight edges that cover every vertex of positive
  dual.  Edges are fixed greedily in index order whenever such a matching
  still exists around them; by the Mendelsohn-Dulmage theorem that is one
  alternating-path test per side of the graph.
* general: edge i receives a perturbation bonus of 2**(E-1-i) on top of
  ``weight * 2**E``, which makes the optimum of the perturbed problem
  unique.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class Graph:
    """An undirected graph with non-negative integer edge weights.

    ``num_left``, when present, splits the vertices into a left side
    0..num_left-1 and a right side num_left..num_vertices-1 that every edge
    must cross; the bipartite routines require it.
    """

    num_vertices: int
    edges: tuple[Edge, ...]
    num_left: int | None = None

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[frozenset[int]] = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError(f"edge weights must be non-negative integers, got {w!r}")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge between {u} and {v}")
            seen.add(key)
        if self.num_left is not None:
            if not 0 <= self.num_left <= self.num_vertices:
                raise ValueError(f"num_left {self.num_left} outside 0..{self.num_vertices}")
            for u, v, _ in self.edges:
                if (u < self.num_left) == (v < self.num_left):
                    raise ValueError(f"edge ({u}, {v}) does not cross the bipartition")


def bipartite_graph(num_left: int, num_right: int, edges: Iterable[tuple[int, int, int]]) -> Graph:
    """Convenience constructor: left vertices 0..num_left-1, right vertex j
    becomes num_left + j, edges given as (left_index, right_index, weight)."""
    shifted = tuple((u, num_left + v, w) for u, v, w in edges)
    return Graph(num_vertices=num_left + num_right, edges=shifted, num_left=num_left)


@dataclass(frozen=True)
class Matching:
    """A vertex-disjoint subset of a graph's edges."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        used: set[int] = set()
        for u, v, _ in self.edges:
            if u in used or v in used:
                raise ValueError("matching edges are not vertex-disjoint")
            used.update((u, v))

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def _require_bipartition(graph: Graph) -> int:
    if graph.num_left is None:
        raise ValueError("graph is not bipartite-annotated")
    return graph.num_left


#: The ``seen`` mark of a dead right vertex: above every epoch, so one
#: comparison skips both the vertices of the current epoch and the dead ones.
_DEAD = sys.maxsize


def _try_augment(
    root: int, adj: list[list[int]], match_right: list[int], seen: list[int], epoch: int
) -> bool:
    """One augmenting-path search from the free left vertex ``root``.

    ``match_right[v]`` is the left mate of right vertex v, or -1, and is
    updated along the path when one is found.  ``seen[v]`` is the last epoch
    whose searches reached v, or ``_DEAD``.  A failed search changes nothing,
    and nothing it reached leads to a free vertex, so its marks stay valid
    for the searches after it until the next augmentation opens a new epoch.

    A right vertex v is marked dead, for the rest of the matching, when its
    search fails and every vertex adjacent to its mate is v itself or dead.
    The dead vertices then form a closed set: each is matched and its mate's
    neighbours are all dead, so no augmenting path enters the set, and an
    augmentation, which changes mates only along its own path, leaves it
    closed.  Skipping a dead vertex therefore skips a sub-search that could
    only fail and reach dead vertices, so every search visits the other
    vertices in the same order and finds the path it found without the
    marks.  On
    a chain, where each left vertex's first choice is held by its
    predecessor, this makes the matching linear instead of quadratic.

    The search is a depth-first search on an explicit stack, so path length
    is not bounded by the interpreter's recursion limit.
    """
    # stack[d] is the left vertex at depth d with its adjacency cursor;
    # through[d] is the right vertex that led from depth d to depth d + 1.
    stack = [(root, iter(adj[root]))]
    through: list[int] = []
    while stack:
        u, cursor = stack[-1]
        for v in cursor:
            if seen[v] >= epoch:
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
                v = through.pop()
                for x in adj[u]:
                    if x != v and seen[x] != _DEAD:
                        break
                else:
                    seen[v] = _DEAD
    return False


def saturating_match(adj: list[list[int]], num_right: int) -> list[int] | None:
    """A matching that covers every left vertex, or None when none exists.

    ``adj[u]`` lists the right vertices 0..num_right-1 adjacent to left
    vertex u, in the order they are tried.  The result gives the left mate
    of each right vertex, -1 for a free one.  Roots are tried in order and
    the answer is None at the first one that fails to augment: by Berge's
    lemma, a root with no augmenting path is left uncovered by every
    matching that covers the roots before it.  On success the matching is
    the one ``max_cardinality_bipartite`` returns for the same adjacency.
    """
    match_right = [-1] * num_right
    seen = [-1] * num_right
    # Every root before this one augmented, so the root's index is the epoch.
    for root in range(len(adj)):
        if not _try_augment(root, adj, match_right, seen, root):
            return None
    return match_right


def max_cardinality_bipartite(graph: Graph) -> Matching:
    """Maximum-cardinality matching in a bipartite graph via augmenting paths.

    Left vertices are scanned in ascending order and adjacency lists are kept
    in ascending order, so the result is deterministic.
    """
    num_left = _require_bipartition(graph)
    adj: list[list[int]] = [[] for _ in range(num_left)]
    for u, v, _ in graph.edges:
        if u < num_left:
            adj[u].append(v)
        else:
            adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()

    match_right = [-1] * graph.num_vertices
    seen = [-1] * graph.num_vertices
    epoch = 0
    for root in range(num_left):
        if _try_augment(root, adj, match_right, seen, epoch):
            epoch += 1

    chosen = tuple(
        e for e in graph.edges if match_right[e[0]] == e[1] or match_right[e[1]] == e[0]
    )
    return Matching(chosen)


def _hungarian(weight: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Maximum-weight assignment of every row of a dense non-negative matrix
    with at least as many columns as rows, with its optimal duals.

    Shortest-augmenting-path Hungarian method (Jonker & Volgenant 1987) in
    exact integers.  Returns ``(y, z, col_row)``: ``col_row[j]`` is the row
    assigned to column j or -1, ``y[i] + z[j] >= weight[i][j]`` everywhere
    with equality on assigned pairs, and ``z[j] == 0`` on every column the
    assignment leaves free.  The caller appends an all-zero column, so some
    column stays free and every ``y[i] >= 0`` as well.
    """
    rows, cols = len(weight), len(weight[0])
    y = [0] * rows
    z = [0] * cols
    col_row = [-1] * cols
    for root in range(rows):
        row = weight[root]
        # slack[j]: least reduced cost y[i] + z[j] - weight[i][j] over tree
        # rows i; via[j]: the tree column whose row attains it (-1: the root).
        slack = [z[j] - row[j] for j in range(cols)]
        via = [-1] * cols
        outside = list(range(cols))
        tree_rows = [root]
        tree_cols: list[int] = []
        while True:
            delta = min(slack[j] for j in outside)
            for i in tree_rows:
                y[i] -= delta
            for j in tree_cols:
                z[j] += delta
            for j in outside:
                slack[j] -= delta
            reached = next(j for j in outside if slack[j] == 0)
            outside.remove(reached)
            tree_cols.append(reached)
            i = col_row[reached]
            if i == -1:
                break
            tree_rows.append(i)
            row, base = weight[i], y[i]
            for j in outside:
                cur = base + z[j] - row[j]
                if cur < slack[j]:
                    slack[j] = cur
                    via[j] = reached
        # Flip the alternating path back to the root.
        while reached != -1:
            back = via[reached]
            col_row[reached] = root if back == -1 else col_row[back]
            reached = back
    return y, z, col_row


def _cover_path(
    start: int,
    adj: list[list[int]],
    other_mate: list[int],
    dual: list[int],
    dead: list[bool],
    other_dead: list[bool],
) -> tuple[dict[int, int], int] | None:
    """Alternating-path search that re-covers ``start`` on its side.

    The path may end at a free vertex of the other side, or at one whose
    mate is dead or has dual 0: that mate is then given up.  Returns the
    search tree (other-side vertex -> the vertex that reached it) and the
    path's last vertex, or None when no such path exists.
    """
    parent: dict[int, int] = {}
    queue = [start]
    for s in queue:
        for t in adj[s]:
            if other_dead[t] or t in parent:
                continue
            parent[t] = s
            x = other_mate[t]
            if x == -1 or dead[x] or dual[x] == 0:
                return parent, t
            queue.append(x)
    return None


def _flip(found: tuple[dict[int, int], int], mate: list[int], other_mate: list[int]) -> None:
    """Augment along a path found by ``_cover_path`` whose start is unmatched."""
    parent, t = found
    if other_mate[t] != -1:
        mate[other_mate[t]] = -1
    while t != -1:
        s = parent[t]
        nxt = mate[s]
        mate[s], other_mate[t] = t, s
        t = nxt


def max_weight_pairs(
    num_left: int,
    num_right: int,
    ends: Sequence[tuple[int, int]],
    weights: Sequence[int],
) -> list[int]:
    """Maximum-weight matching of a bipartite graph held as lists, as the
    ascending indices of its edges.

    Edge k joins left vertex ``ends[k][0]`` (0..num_left-1) to right vertex
    ``ends[k][1]`` (0..num_right-1) at weight ``weights[k]``.  The edges are
    taken as given: distinct pairs in range, non-negative integer weights.
    Ties between equally heavy matchings go to the lexicographically
    smallest edge-index set; see the module docstring.
    """
    if not ends:
        return []
    # The smaller side is the rows (the left side on equal sizes).
    num_rows, num_cols = num_left, num_right
    if num_rows > num_cols:
        num_rows, num_cols = num_cols, num_rows
        ends = [(b, a) for a, b in ends]
    # Missing edges weigh 0; the extra all-zero column keeps the row duals >= 0.
    weight = [[0] * (num_cols + 1) for _ in range(num_rows)]
    for (i, j), w in zip(ends, weights):
        weight[i][j] = w
    y, z, col_row = _hungarian(weight)

    # Complementary slackness: the maximum-weight matchings are exactly the
    # matchings of tight edges that cover every vertex of positive dual.
    row_adj: list[list[int]] = [[] for _ in range(num_rows)]
    col_adj: list[list[int]] = [[] for _ in range(num_cols)]
    for (i, j), w in zip(ends, weights):
        if y[i] + z[j] == w:
            row_adj[i].append(j)
            col_adj[j].append(i)
    # One tight matching covering the positive-dual rows (a_*), one covering
    # the positive-dual columns (b_*); the optimal assignment does both.
    a_row, a_col = [-1] * num_rows, [-1] * num_cols
    for j, i in enumerate(col_row[:num_cols]):
        if i != -1 and weight[i][j] > 0:
            a_row[i], a_col[j] = j, i
    b_row, b_col = list(a_row), list(a_col)
    dead_row, dead_col = [False] * num_rows, [False] * num_cols

    # Fix tight edges greedily in index order.  By Mendelsohn-Dulmage, some
    # maximum-weight matching holds every fixed edge exactly when both cover
    # matchings survive losing the fixed edge's two endpoints.
    chosen: list[int] = []
    for index, ((i, j), w) in enumerate(zip(ends, weights)):
        if dead_row[i] or dead_col[j] or y[i] + z[j] != w:
            continue
        dead_row[i] = dead_col[j] = True
        # Only the row that loses column j in a_*, and the column that loses
        # row i in b_*, need a new mate; () means no repair is needed.
        k, l = a_col[j], b_row[i]
        a_path = b_path = ()
        if k not in (-1, i) and y[k] > 0:
            a_path = _cover_path(k, row_adj, a_col, y, dead_row, dead_col)
        if a_path is not None and l not in (-1, j) and z[l] > 0:
            b_path = _cover_path(l, col_adj, b_row, z, dead_col, dead_row)
        if a_path is None or b_path is None:
            dead_row[i] = dead_col[j] = False
            continue
        for row_mate, col_mate in ((a_row, a_col), (b_row, b_col)):
            if row_mate[i] != -1:
                col_mate[row_mate[i]] = -1
            if col_mate[j] != -1:
                row_mate[col_mate[j]] = -1
            row_mate[i] = col_mate[j] = -1
        if a_path:
            _flip(a_path, a_row, a_col)
        if b_path:
            _flip(b_path, b_col, b_row)
        chosen.append(index)
    return chosen


def max_weight_bipartite(graph: Graph) -> Matching:
    """Maximum-weight matching in a bipartite graph (not necessarily perfect).

    Ties between equally heavy matchings go to the lexicographically smallest
    edge-index set; see the module docstring.
    """
    num_left = _require_bipartition(graph)
    # A left vertex keeps its number, a right vertex drops num_left.
    ends = [(u, v - num_left) if u < num_left else (v, u - num_left) for u, v, _ in graph.edges]
    weights = [w for _, _, w in graph.edges]
    chosen = max_weight_pairs(num_left, graph.num_vertices - num_left, ends, weights)
    return Matching(tuple(graph.edges[k] for k in chosen))


def max_weight_general(graph: Graph) -> Matching:
    """Exact maximum-weight matching on a general (possibly non-bipartite)
    graph, with the same deterministic tie-breaking as the bipartite routine.

    Odd cycles are handled exactly (blossom algorithm underneath); this is
    required because some solver constructions mix item-item edges with
    agent-item edges in one graph.
    """
    # Perturbed weights make the optimum unique: the true weight (scaled by
    # 2**E) always dominates, and among ties the bonus 2**(E-1-i) prefers
    # low edge indices.  Integer arithmetic throughout keeps this exact.
    e_count = len(graph.edges)
    if e_count == 0:
        return Matching(())
    scale = 1 << e_count
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for i, (u, v, w) in enumerate(graph.edges):
        g.add_edge(u, v, weight=w * scale + (1 << (e_count - 1 - i)))
    mate_pairs = {frozenset(p) for p in nx.max_weight_matching(g, maxcardinality=False)}
    chosen = tuple(e for e in graph.edges if frozenset((e[0], e[1])) in mate_pairs)
    return Matching(chosen)


def max_cardinality_general(num_vertices: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Size of a maximum matching of the graph on 0..num_vertices-1 with these
    distinct edges: the blossom on unit weights, with no tie-break needed."""
    g = nx.Graph()
    g.add_nodes_from(range(num_vertices))
    g.add_edges_from(pairs)
    return len(nx.max_weight_matching(g))
