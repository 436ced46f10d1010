"""Intersection relations between partitions.

Two partitions t-intersect when they share at least t parts counted
with multiplicity: min-multiplicity sums over common values reach t.
They properly t-intersect when they share at least t distinct values.
Proper t-intersection implies t-intersection, both relations are
symmetric and monotone decreasing in t, and every pair 0-intersects.

The counters below walk the sorted parts tuples directly with two
pointers, and the predicates compare their counts with t.  They are
the independent recheck of every seed, witness and colouring the
engine returns: ``cliques`` builds its graphs from token lists of its
own and shares no code with them, and the two sides are tested
against each other.
"""

from __future__ import annotations

from enum import Enum

from .partitions import Partition


class Relation(str, Enum):
    """Which notion of sharing defines an intersecting family."""

    MULTISET = "multiset"  # shared parts counted with multiplicity
    PROPER = "proper"      # shared distinct part values


def multiset_common_count(
    a_parts: tuple[int, ...], b_parts: tuple[int, ...], *, stop_at: int | None = None
) -> int:
    """Number of parts shared with multiplicity between two sorted tuples.

    Stops early once ``stop_at`` common parts are seen, if given.
    """
    i = j = common = 0
    la, lb = len(a_parts), len(b_parts)
    while i < la and j < lb:
        x, y = a_parts[i], b_parts[j]
        if x == y:
            common += 1
            if stop_at is not None and common >= stop_at:
                return common
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return common


def distinct_common_count(
    a_parts: tuple[int, ...], b_parts: tuple[int, ...], *, stop_at: int | None = None
) -> int:
    """Number of distinct values shared between two sorted tuples."""
    i = j = common = 0
    la, lb = len(a_parts), len(b_parts)
    while i < la and j < lb:
        x, y = a_parts[i], b_parts[j]
        if x == y:
            common += 1
            if stop_at is not None and common >= stop_at:
                return common
            while i < la and a_parts[i] == x:
                i += 1
            while j < lb and b_parts[j] == x:
                j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return common


def t_intersects(a: Partition, b: Partition, t: int) -> bool:
    """True iff ``a`` and ``b`` share at least t parts with multiplicity.

    t = 0 holds for every pair, including partitions of different
    integers; negative t is rejected.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return True
    return multiset_common_count(a.parts, b.parts, stop_at=t) >= t


def properly_t_intersects(a: Partition, b: Partition, t: int) -> bool:
    """True iff ``a`` and ``b`` share at least t distinct part values."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return True
    return distinct_common_count(a.parts, b.parts, stop_at=t) >= t
