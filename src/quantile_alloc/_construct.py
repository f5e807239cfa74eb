"""Internal helpers for building deterministic allocations inside solvers."""

from __future__ import annotations

from .core import Allocation


def owner_from_bundles(bundles: list[list[int]], m: int) -> Allocation:
    owner = [-1] * m
    for agent, bundle in enumerate(bundles):
        for g in bundle:
            if owner[g] != -1:
                raise AssertionError(f"item {g} assigned twice")
            owner[g] = agent
    if any(o == -1 for o in owner):
        raise AssertionError("some item was never assigned")
    return Allocation(tuple(owner))


def round_robin_pad(bundles: list[list[int]], leftovers: list[int], k: int) -> None:
    """Deal leftover items one at a time, cycling agents by ascending index and
    skipping agents whose bundles already hold k items.  Mutates ``bundles``."""
    queue = sorted(leftovers)
    pos = 0
    agent = 0
    stuck = 0
    n = len(bundles)
    while pos < len(queue):
        if len(bundles[agent]) < k:
            bundles[agent].append(queue[pos])
            pos += 1
            stuck = 0
        else:
            stuck += 1
            if stuck > n:
                raise AssertionError("padding overflow: all bundles full with items left")
        agent = (agent + 1) % n


def balanced_blocks(n: int, m: int) -> Allocation:
    """Deterministic balanced fallback: contiguous index blocks of size m/n."""
    k = m // n
    return Allocation(tuple(g // k for g in range(m)))


def all_to_first(m: int) -> Allocation:
    """Deterministic unbalanced fallback: every item to agent 0."""
    return Allocation((0,) * m)
