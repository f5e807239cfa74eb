"""Domain model for allocating indivisible items under quantile valuations.

An agent with quantile ``tau`` values a bundle of items at the
``ceil(tau * size)``-th lowest of their individual item values (the minimum
when ``tau = 0``, the maximum when ``tau = 1``).  Everything here is exact
integer arithmetic: quantiles are stored as reduced rationals and the
order-statistic index is computed without floating point, because welfare
comparisons and threshold searches downstream must never be off by one.

Items are either all goods (values) or all chores (disutility magnitudes).
A chore bundle is read through the negated values, so a pessimist
(``tau = 0``) is scored on their worst chore and an optimist (``tau = 1``)
on their best one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, TypeAlias

Kind: TypeAlias = Literal["goods", "chores"]

GOODS: Kind = "goods"
CHORES: Kind = "chores"

#: The instance kind each objective is defined on: welfare (usw, esw) for
#: goods, cost (usc, esc) for chores.
OBJECTIVE_KIND: dict[str, Kind] = {"usw": GOODS, "esw": GOODS, "usc": CHORES, "esc": CHORES}

_RATIONAL = re.compile(r"([0-9]+)/([0-9]+)")


class InvalidInstanceError(ValueError):
    """A structural precondition is violated (bad matrix, bad quantile, ...)."""


class IntractableQuantileError(Exception):
    """No supported polynomial-time algorithm exists for the requested quantile."""


@dataclass(frozen=True)
class Quantile:
    """An exact rational quantile p/q in [0, 1], stored in lowest terms.

    Zero must be given as 0/1.  Construction rejects non-reduced fractions
    instead of silently normalising them, so that "1/2" and "2/4" cannot
    denote the same agent in two different spellings.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if type(self.numerator) is not int or type(self.denominator) is not int:
            raise InvalidInstanceError("quantile parts must be integers")
        if self.denominator <= 0:
            raise InvalidInstanceError("quantile denominator must be positive")
        if self.numerator < 0 or self.numerator > self.denominator:
            raise InvalidInstanceError(
                f"quantile {self.numerator}/{self.denominator} outside [0, 1]"
            )
        if math.gcd(self.numerator, self.denominator) != 1:
            raise InvalidInstanceError(
                f"quantile {self.numerator}/{self.denominator} not in lowest terms"
            )

    @classmethod
    def parse(cls, text: str) -> "Quantile":
        """Parse a "p/q" string (e.g. "1/2", "0/1") into a Quantile.

        Only ASCII digits are accepted around the slash: no sign, inner
        space, underscore or other Unicode digit that ``int()`` would take.
        """
        match = _RATIONAL.fullmatch(text.strip())
        if match is None:
            raise InvalidInstanceError(f"quantile {text!r} is not of the form p/q")
        return cls(int(match[1]), int(match[2]))

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    @property
    def is_one(self) -> bool:
        return self.numerator == self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def quantile_index(tau: Quantile, s: int) -> int:
    """1-based order-statistic index selected by ``tau`` in a bundle of size ``s``.

    Equals ``ceil(tau * s)`` for ``tau > 0`` and 1 for ``tau = 0``; always in
    ``[1, s]``.  The ceiling is computed as ``(p*s + q - 1) // q`` in integers.
    """
    if type(s) is not int or s < 1:
        raise ValueError("bundle size must be at least 1")
    if tau.is_zero:
        return 1
    return (tau.numerator * s + tau.denominator - 1) // tau.denominator


def demand_quota(tau: Quantile, k: int) -> int:
    """min(k, k - ceil(tau*k) + 1): the number of top items that pins down the
    quantile value of any k-sized bundle containing them.

    The min() only bites at ``tau = 0``.  Result is always in [1, k].
    """
    if type(k) is not int or k < 1:
        raise ValueError("bundle size must be at least 1")
    ceil_tk = (tau.numerator * k + tau.denominator - 1) // tau.denominator
    return min(k, k - ceil_tk + 1)


@dataclass(frozen=True)
class Instance:
    """An allocation problem: n agents with quantiles, m items, integer values.

    ``values[i][g]`` is agent i's value for item g when ``kind == "goods"``,
    or their disutility magnitude when ``kind == "chores"``.  Entries are
    non-negative integers either way; the sign convention is carried by
    ``kind``.  Immutable and safe to share across threads.
    """

    kind: Kind
    quantiles: tuple[Quantile, ...]
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in (GOODS, CHORES):
            raise InvalidInstanceError(f"unknown kind {self.kind!r}")
        n = len(self.values)
        if n < 1:
            raise InvalidInstanceError("instance needs at least one agent")
        if len(self.quantiles) != n:
            raise InvalidInstanceError("one quantile per agent required")
        for q in self.quantiles:
            if not isinstance(q, Quantile):
                raise InvalidInstanceError(f"quantiles must be Quantile objects, got {q!r}")
        m = len(self.values[0])
        if m < 1:
            raise InvalidInstanceError("instance needs at least one item")
        for row in self.values:
            if len(row) != m:
                raise InvalidInstanceError("value matrix rows have unequal lengths")
            # A row of exact ints (bool and other subclasses fail the type
            # test) is accepted at once; any other row is checked entry by
            # entry, which names its first bad entry.
            if {*map(type, row)} <= {int} and min(row) >= 0:
                continue
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                    raise InvalidInstanceError(
                        f"matrix entries must be non-negative integers, got {entry!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    @property
    def is_binary(self) -> bool:
        return set().union(*self.values) <= {0, 1}

    def homogeneous_quantile(self) -> Quantile | None:
        """The shared quantile if all agents agree, else None."""
        first = self.quantiles[0]
        return first if all(q == first for q in self.quantiles) else None

    def has_identical_rows(self) -> bool:
        return all(row == self.values[0] for row in self.values)

    def items_per_agent(self) -> int:
        """Bundle size k = m/n of a balanced allocation; requires n | m."""
        if self.m % self.n != 0:
            raise InvalidInstanceError(
                f"agent count {self.n} does not divide item count {self.m}"
            )
        return self.m // self.n


def _coerce_quantile(q: "Quantile | str") -> Quantile:
    return q if isinstance(q, Quantile) else Quantile.parse(q)


def make_instance(
    kind: Kind,
    quantiles: Sequence["Quantile | str"],
    values: Sequence[Sequence[int]],
) -> Instance:
    """Build an Instance from plain sequences; quantiles may be "p/q" strings."""
    return Instance(
        kind=kind,
        quantiles=tuple(_coerce_quantile(q) for q in quantiles),
        values=tuple(tuple(row) for row in values),
    )


def goods(quantiles: Sequence["Quantile | str"], values: Sequence[Sequence[int]]) -> Instance:
    return make_instance(GOODS, quantiles, values)


def chores(quantiles: Sequence["Quantile | str"], values: Sequence[Sequence[int]]) -> Instance:
    return make_instance(CHORES, quantiles, values)


@dataclass(frozen=True)
class Allocation:
    """A total assignment of every item to exactly one agent.

    ``owner[g]`` is the 0-based agent index holding item g.
    """

    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.owner) < 1:
            raise InvalidInstanceError("allocation must cover at least one item")
        for o in self.owner:
            if not isinstance(o, int) or isinstance(o, bool) or o < 0:
                raise InvalidInstanceError(f"owner indices must be non-negative ints, got {o!r}")

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundles(self, n: int) -> list[list[int]]:
        """Per-agent lists of owned items (ascending item index)."""
        if any(o >= n for o in self.owner):
            raise InvalidInstanceError("owner index out of range for agent count")
        out: list[list[int]] = [[] for _ in range(n)]
        for item, agent in enumerate(self.owner):
            out[agent].append(item)
        return out

    def is_balanced(self, n: int) -> bool:
        sizes = [len(b) for b in self.bundles(n)]
        return len(set(sizes)) == 1


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> int:
    """Quantile value of ``bundle`` for ``agent``; 0 for the empty bundle.

    Goods: the quantile_index-th lowest value among the bundle's items.
    Chores: the quantile is taken on the negated disutilities, so the result
    is the (size - index + 1)-th lowest disutility -- the worst chore at
    tau = 0 and the best one at tau = 1.
    """
    if not 0 <= agent < instance.n:
        raise IndexError(f"agent index {agent} out of range")
    items = list(bundle)
    if len(set(items)) != len(items):
        raise ValueError("bundle contains duplicate items")
    if not items:
        return 0
    row = instance.values[agent]
    if any(not 0 <= g < instance.m for g in items):
        raise IndexError("item index out of range")
    vals = sorted(row[g] for g in items)
    s = len(vals)
    idx = quantile_index(instance.quantiles[agent], s)
    if instance.kind == GOODS:
        return vals[idx - 1]
    return vals[s - idx]


def require_objective_kind(instance: Instance, objective: str) -> None:
    """Refuse an objective that is not defined on the instance's kind."""
    if instance.kind != OBJECTIVE_KIND[objective]:
        raise InvalidInstanceError(
            f"objective {objective} does not apply to a {instance.kind} instance"
        )


def _check_allocation(instance: Instance, allocation: Allocation) -> list[list[int]]:
    if allocation.m != instance.m:
        raise InvalidInstanceError(
            f"allocation covers {allocation.m} items, instance has {instance.m}"
        )
    return allocation.bundles(instance.n)


def usw(instance: Instance, allocation: Allocation) -> int:
    """Utilitarian social welfare: sum of the agents' bundle values (goods only)."""
    require_objective_kind(instance, "usw")
    bundles = _check_allocation(instance, allocation)
    return sum(bundle_value(instance, i, b) for i, b in enumerate(bundles))


def esw(instance: Instance, allocation: Allocation) -> int:
    """Egalitarian social welfare: minimum of the agents' bundle values (goods only)."""
    require_objective_kind(instance, "esw")
    bundles = _check_allocation(instance, allocation)
    return min(bundle_value(instance, i, b) for i, b in enumerate(bundles))


def usc(instance: Instance, allocation: Allocation) -> int:
    """Utilitarian social cost: sum of bundle disutilities (chores only)."""
    require_objective_kind(instance, "usc")
    bundles = _check_allocation(instance, allocation)
    return sum(bundle_value(instance, i, b) for i, b in enumerate(bundles))


def esc(instance: Instance, allocation: Allocation) -> int:
    """Egalitarian social cost: maximum bundle disutility; empty bundles cost 0."""
    require_objective_kind(instance, "esc")
    bundles = _check_allocation(instance, allocation)
    return max(bundle_value(instance, i, b) for i, b in enumerate(bundles))


def threshold_binary(instance: Instance, nu: int) -> Instance:
    """Reduce to a binary instance at level ``nu > 0``.

    Goods: entry 1 iff the original value is >= nu, so a bundle is worth 1
    under the reduction exactly when it is worth >= nu originally.
    Chores: entry 1 iff the original disutility is >= nu, so cost 0 under the
    reduction is equivalent to cost <= nu - 1 originally.  Kind and
    quantiles are preserved.
    """
    if not isinstance(nu, int) or isinstance(nu, bool) or nu < 1:
        raise InvalidInstanceError("threshold level must be a positive integer")
    return Instance(
        kind=instance.kind,
        quantiles=instance.quantiles,
        values=tuple(
            tuple(1 if entry >= nu else 0 for entry in row) for row in instance.values
        ),
    )


@dataclass(frozen=True)
class SolveReport:
    """Solver output: an allocation, its recomputed objective value, the
    algorithm identifier, and a feasibility flag.

    ``feasible`` is used by the target-level solvers (egalitarian binary
    decisions) to signal whether the requested level was met; exact top-level
    solvers always report True because they attain the optimum by
    construction, even when that optimum is 0.
    """

    allocation: Allocation
    welfare: int
    algorithm: str
    feasible: bool = True
