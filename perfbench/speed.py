"""Speed reference: fixed pure-Python work, timed after every operation.

This machine's speed drifts: the same operations take up to twice as long
in one run as in the next, in spells that last from seconds to minutes, with
no time stolen from the process.  So the benchmark times this fixed work
after every operation and expresses each round's operation times at a
reference speed: it scales them by ``NOMINAL_S`` over the median reference
time of the round.  The work is the benchmark's own (the checker's
Hopcroft-Karp matcher and Hungarian method, and a breadth-first search over
a dict-of-dicts graph, the shape networkx keeps) on fixed inputs, so no
change to the program can change it, and a program that gets faster shows
as faster.
"""

from __future__ import annotations

import random
import time

import checker

#: Reference time that scaled operation times are expressed at; about the
#: median of ``reference_s`` on the machine of the README's figures, so
#: scaled times read close to that machine's unhurried wall times.
NOMINAL_S = 0.0022

#: Timings of the work per ``reference_s`` call; the least is kept, as an
#: interruption only ever adds time.
REPEATS = 3

_rng = random.Random(20250224)
_ADJ = [[_rng.randrange(300) for _ in range(6)] for _ in range(300)]
_VALUES = [[_rng.randrange(1000) for _ in range(30)] for _ in range(30)]
_GRAPH: dict[int, dict[int, dict]] = {u: {} for u in range(600)}
for _u in range(600):
    for _v in _rng.sample(range(600), 5):
        if _v != _u:
            _GRAPH[_u][_v] = _GRAPH[_v][_u] = {"weight": _rng.randrange(100)}


def _bfs_weight(graph: dict[int, dict[int, dict]]) -> int:
    seen = {0: 0}
    queue = [0]
    for u in queue:
        for v, data in graph[u].items():
            if v not in seen:
                seen[v] = seen[u] + data["weight"]
                queue.append(v)
    return sum(seen.values())


def reference_s() -> float:
    """Least of ``REPEATS`` timings of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        checker.max_matching(_ADJ, 300)
        checker.max_assignment(_VALUES)
        _bfs_weight(_GRAPH)
        best = min(best, time.perf_counter() - t0)
    return best
