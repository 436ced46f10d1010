"""Intersection relations between partitions.

Two partitions t-intersect when they share at least t parts counted
with multiplicity: min-multiplicity sums over common values reach t.
They properly t-intersect when they share at least t distinct values.
Proper t-intersection implies t-intersection, both relations are
symmetric and monotone decreasing in t, and every pair 0-intersects.

The multiset relation has a useful set encoding: attach an occurrence
index to each part, so the partition (2, 2, 5) becomes
{(2, 1), (2, 2), (5, 1)}.  Multiset intersection of two partitions is
then plain set intersection of their encodings, as proper intersection
is of the sets of distinct parts.  The encodings build the
intersection graphs: ``cliques.build_graph`` indexes the partitions by
the elements of their encodings.  The predicates below walk the sorted
parts tuples directly with two pointers.  They stay the independent
recheck of every seed and witness family the engine returns, and the
two sides are tested against each other.
"""

from __future__ import annotations

from enum import Enum

from .partitions import Partition


class Relation(str, Enum):
    """Which notion of sharing defines an intersecting family."""

    MULTISET = "multiset"  # shared parts counted with multiplicity
    PROPER = "proper"      # shared distinct part values


IndexedPartSet = frozenset[tuple[int, int]]
DistinctPartSet = frozenset[int]


def indexed_part_set(a: Partition) -> IndexedPartSet:
    """The (part, occurrence-index) encoding of ``a``.

    Contains (v, i) exactly when v occurs at least i times in ``a``, so
    |indexed_part_set(a) & indexed_part_set(b)| is the number of parts
    the two partitions share with multiplicity.
    """
    pairs: list[tuple[int, int]] = []
    prev = 0
    occurrence = 0
    for part in a.parts:
        occurrence = occurrence + 1 if part == prev else 1
        pairs.append((part, occurrence))
        prev = part
    return frozenset(pairs)


def distinct_parts(a: Partition) -> DistinctPartSet:
    """The set of distinct part values of ``a``."""
    return frozenset(a.parts)


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
