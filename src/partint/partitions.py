"""Integer partitions: canonical form, enumeration, and exact counting.

A partition of n with k parts is written as a nondecreasing tuple
(a_1, ..., a_k) of positive integers summing to n.  P(n, k) denotes the
set of all such partitions and p(n, k) its size; P(n) is the union over
all lengths 1..n and p(n) its size, with p(0) = 1 by convention.

Enumeration is lexicographic on the parts tuple.  That order is the
canonical vertex numbering for every intersection graph built on top of
it, so it must never change: caches, witnesses and report digests all
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

DEFAULT_MAX_VERTICES = 20_000


class ResourceGuardError(RuntimeError):
    """An enumeration was refused because it would exceed the vertex cap."""


@dataclass(frozen=True, order=True, slots=True)
class Partition:
    """A partition of ``n``: a nondecreasing tuple of positive parts.

    Immutable, hashable, and totally ordered by the parts tuple, so
    sorting any collection of partitions reproduces enumeration order.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        prev = 1
        for part in parts:
            if not isinstance(part, int) or isinstance(part, bool):
                raise ValueError(f"parts must be integers, got {part!r}")
            if part < prev:
                if part < 1:
                    raise ValueError(f"parts must be positive, got {part}")
                raise ValueError(f"parts must be nondecreasing, got {parts}")
            prev = part
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        """The partitioned integer: the sum of the parts."""
        return sum(self.parts)

    @property
    def k(self) -> int:
        """The number of parts."""
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return "+".join(str(part) for part in self.parts)


class CountTable:
    """Memoized table of partition counts p(n, k).

    Uses the recurrence p(n, k) = p(n-1, k-1) + p(n-k, k) with
    p(0, 0) = 1, filled iteratively so deep inputs cannot overflow the
    interpreter stack.  Values are exact Python ints, which grow without
    bound, so no overflow handling is needed.  Safe for concurrent reads
    once populated; population itself is not thread-safe.
    """

    def __init__(self) -> None:
        self._table: dict[tuple[int, int], int] = {}

    def _lookup(self, n: int, k: int) -> int:
        if k == 0:
            return 1 if n == 0 else 0
        if k > n:
            return 0
        return self._table[(n, k)]

    def count(self, n: int, k: int) -> int:
        """p(n, k): the number of partitions of n with exactly k parts."""
        if n < 0 or k < 0:
            raise ValueError(f"counts need nonnegative arguments, got ({n}, {k})")
        if k == 0:
            return 1 if n == 0 else 0
        if k > n:
            return 0
        table = self._table
        if (n, k) not in table:
            for j in range(1, k + 1):
                for i in range(j, n + 1):
                    if (i, j) not in table:
                        table[(i, j)] = self._lookup(i - 1, j - 1) + self._lookup(i - j, j)
        return table[(n, k)]

    def count_all(self, n: int) -> int:
        """p(n): the number of partitions of n of any length; p(0) = 1."""
        if n < 0:
            raise ValueError(f"counts need a nonnegative argument, got {n}")
        if n == 0:
            return 1
        return sum(self.count(n, k) for k in range(1, n + 1))


_SHARED_TABLE = CountTable()


def count_partitions(n: int, k: int) -> int:
    """p(n, k) from a shared memo table."""
    return _SHARED_TABLE.count(n, k)


def count_all(n: int) -> int:
    """p(n) from a shared memo table."""
    return _SHARED_TABLE.count_all(n)


def _parts_tuples(n: int, k: int, min_part: int) -> Iterator[tuple[int, ...]]:
    # Nondecreasing parts: each level chooses the smallest part first,
    # so the stream is lexicographic.
    if k == 1:
        if n >= min_part:
            yield (n,)
        return
    for first in range(min_part, n // k + 1):
        for rest in _parts_tuples(n - first, k - 1, first):
            yield (first,) + rest


def enumerate_partitions(
    n: int, k: int, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[Partition]:
    """P(n, k) in lexicographic order; empty iff k > n.

    Raises ResourceGuardError if p(n, k) exceeds ``max_vertices``; the
    count is checked before any partition is materialized.
    """
    if n < 1 or k < 1:
        raise ValueError(f"enumeration needs positive n and k, got ({n}, {k})")
    size = count_partitions(n, k)
    if size > max_vertices:
        raise ResourceGuardError(
            f"p({n}, {k}) = {size} exceeds the vertex cap {max_vertices}"
        )
    return [Partition(parts) for parts in _parts_tuples(n, k, 1)]


def enumerate_all(n: int, *, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[Partition]:
    """P(n): all partitions of n, grouped by length, lexicographic within length."""
    if n < 1:
        raise ValueError(f"enumeration needs positive n, got {n}")
    size = count_all(n)
    if size > max_vertices:
        raise ResourceGuardError(
            f"p({n}) = {size} exceeds the vertex cap {max_vertices}"
        )
    out: list[Partition] = []
    for k in range(1, n + 1):
        out.extend(Partition(parts) for parts in _parts_tuples(n, k, 1))
    return out
