"""Star families: the conjectured extremal intersecting families.

The star of P(n, k) at level t is the set of members whose first t
parts all equal 1; it is t-intersecting (any two members share t ones)
and has size p(n-t, k-t).  More generally, the family fixing a set T of
distinct required parts consists of the members containing every value
in T; removing one copy of each required part is a bijection onto
P(n - sum(T), k - |T|).  The all-lengths star collects the partitions
of n, of any length, whose first t parts are 1; it has size p(n-t).

All constructors filter a full enumeration rather than building
members directly, so the size identities above are genuine checks on
the filters, and members inherit the canonical enumeration order.
"""

from __future__ import annotations

from typing import Iterable

from .intersect import Relation
from .partitions import (
    DEFAULT_MAX_VERTICES,
    Partition,
    enumerate_all,
    enumerate_partitions,
)

PartSpec = frozenset[int]


def _as_part_spec(required_parts: Iterable[int]) -> PartSpec:
    spec = frozenset(required_parts)
    for value in spec:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"required parts must be positive integers, got {value!r}")
    return spec


def star_ids(members: list[Partition], relation: Relation | str, t: int) -> list[int]:
    """Positions in ``members`` of the level-t star under ``relation``.

    Multiset: the members whose first t parts are all 1.  Proper: the
    members containing every value 1..t.  t = 0 keeps every member.
    """
    if Relation(relation) is Relation.MULTISET:
        return [
            i for i, p in enumerate(members) if p.k >= t and (t == 0 or p.parts[t - 1] == 1)
        ]
    required = set(range(1, t + 1))
    return [i for i, p in enumerate(members) if required.issubset(p.parts)]


def star_t(
    n: int, k: int, t: int, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[Partition]:
    """Members of P(n, k) whose first t parts are all 1, in canonical order.

    Size p(n-t, k-t).  t = 0 returns all of P(n, k); t > k returns [].
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    members = enumerate_partitions(n, k, max_vertices=max_vertices)
    return [members[i] for i in star_ids(members, Relation.MULTISET, t)]


def fixed_set_family(
    n: int,
    k: int,
    required_parts: Iterable[int],
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> list[Partition]:
    """Members of P(n, k) containing every value in ``required_parts``.

    Size p(n - sum(T), k - |T|) for a set T of distinct positive values.
    With T = {1, ..., t} this is the properly t-intersecting star.
    """
    spec = _as_part_spec(required_parts)
    members = enumerate_partitions(n, k, max_vertices=max_vertices)
    if not spec:
        return members
    return [p for p in members if spec.issubset(p.parts)]


def star_all_lengths(
    n: int, t: int, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[Partition]:
    """Partitions of n, any length, whose first t parts are all 1.

    Size p(n-t).  Members necessarily have at least t parts.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    members = enumerate_all(n, max_vertices=max_vertices)
    return [members[i] for i in star_ids(members, Relation.MULTISET, t)]

