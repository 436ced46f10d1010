"""Independent checks on the outputs of partint.

Nothing here calls partint.  Partitions come from this module's own
generator, stars from its own filters, the two relations from
``Counter`` and ``set`` arithmetic, set-system maxima from the
Ahlswede-Khachatrian complete intersection theorem, and clique numbers
of small graphs from networkx.  Every check raises ``CheckFailed`` with
a message naming the instance.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations
from math import comb


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent check."""


# -- partitions ----------------------------------------------------------


def partitions_of(n: int, k: int) -> list[tuple[int, ...]]:
    """P(n, k) as nondecreasing tuples in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], left: int, slots: int) -> None:
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        low = prefix[-1] if prefix else 1
        # Every remaining part is at least this one, so it is at most left / slots.
        for part in range(low, left // slots + 1):
            prefix.append(part)
            extend(prefix, left - part, slots - 1)
            prefix.pop()

    if 1 <= k <= n:
        extend([], n, k)
    return out


def partitions_all(n: int) -> list[tuple[int, ...]]:
    """P(n): grouped by length, lexicographic within a length."""
    return [p for k in range(1, n + 1) for p in partitions_of(n, k)]


def meet(a: tuple[int, ...], b: tuple[int, ...], relation: str) -> int:
    """Parts shared with multiplicity (multiset) or distinct values shared (proper)."""
    if relation == "multiset":
        return sum((Counter(a) & Counter(b)).values())
    if relation == "proper":
        return len(set(a) & set(b))
    raise ValueError(f"unknown relation {relation!r}")


def in_star(p: tuple[int, ...], t: int, relation: str) -> bool:
    """Multiset star: the first t parts are 1.  Proper star: holds 1, ..., t."""
    if relation == "multiset":
        return len(p) >= t and all(part == 1 for part in p[:t])
    return set(range(1, t + 1)) <= set(p)


def star_of(members: list[tuple[int, ...]], t: int, relation: str) -> list[tuple[int, ...]]:
    return [p for p in members if in_star(p, t, relation)]


def digest(members) -> str:
    """The row digest: sha256 over "|"-joined members, each "+"-joined, first 16 hex."""
    text = "|".join("+".join(map(str, m)) for m in members)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def set_digest(members) -> str:
    """The set-system row digest: members "."-joined, then as ``digest``."""
    text = "|".join(".".join(map(str, m)) for m in members)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_family(
    label: str,
    family: list[tuple[int, ...]],
    n: int,
    k: int | None,
    t: int,
    relation: str,
    size: int,
) -> None:
    """``family`` is ``size`` distinct partitions of n (into k parts), pairwise related."""
    if len(family) != size:
        raise CheckFailed(f"{label}: witness has {len(family)} members, max_size is {size}")
    if len(set(family)) != len(family):
        raise CheckFailed(f"{label}: witness repeats a member")
    for p in family:
        well_formed = p and p[0] >= 1 and list(p) == sorted(p)
        if not well_formed or sum(p) != n or (k is not None and len(p) != k):
            raise CheckFailed(f"{label}: {p} is not a partition of {n} into {k} parts")
    # Counters (or sets) built once: a witness can have hundreds of members.
    keys = [Counter(p) if relation == "multiset" else frozenset(p) for p in family]

    def common(x, y) -> int:
        both = x & y
        return sum(both.values()) if relation == "multiset" else len(both)

    for p, key in zip(family, keys):
        if common(key, key) < t:
            raise CheckFailed(f"{label}: {p} cannot {t}-intersect itself")
    for i, j in combinations(range(len(family)), 2):
        if common(keys[i], keys[j]) < t:
            raise CheckFailed(
                f"{label}: {family[i]} and {family[j]} do not {t}-intersect ({relation})"
            )


def lex_min_maximum_clique(
    members: list[tuple[int, ...]], t: int, relation: str
) -> list[tuple[int, ...]]:
    """The lexicographically smallest maximum family, by networkx on our own graph.

    Vertices are positions in ``members``; every maximum clique is a
    maximal one, so the smallest id sequence among the largest maximal
    cliques is the lex-min maximum family.
    """
    import networkx as nx

    graph = nx.Graph()
    eligible = [v for v, p in enumerate(members) if meet(p, p, relation) >= t]
    graph.add_nodes_from(eligible)
    graph.add_edges_from(
        (u, v) for u, v in combinations(eligible, 2) if meet(members[u], members[v], relation) >= t
    )
    if not eligible:
        return []
    best = min(
        (sorted(c) for c in nx.find_cliques(graph)),
        key=lambda c: (-len(c), c),
    )
    return [members[v] for v in best]


# -- set systems ----------------------------------------------------------


def ak_maximum(n: int, r: int, t: int) -> int:
    """Largest t-intersecting family of r-subsets of [n] (Ahlswede-Khachatrian 1997).

    The maximum over 0 <= i <= (n-t)/2 of |{A : |A & [t+2i]| >= t+i}|.
    """
    best = 0
    for i in range((n - t) // 2 + 1):
        head = t + 2 * i
        size = sum(comb(head, j) * comb(n - head, r - j) for j in range(t + i, min(head, r) + 1))
        best = max(best, size)
    return best


def check_set_family(
    label: str, family: list[tuple[int, ...]], n: int, r: int, t: int, size: int
) -> None:
    """``family`` is ``size`` distinct r-subsets of [n], pairwise meeting in t elements."""
    if len(family) != size:
        raise CheckFailed(f"{label}: witness has {len(family)} members, max_size is {size}")
    sets = [frozenset(a) for a in family]
    if len(set(sets)) != len(sets):
        raise CheckFailed(f"{label}: witness repeats a member")
    for a in sets:
        if len(a) != r or not a <= set(range(1, n + 1)):
            raise CheckFailed(f"{label}: {sorted(a)} is not an {r}-subset of [{n}]")
    for a, b in combinations(sets, 2):
        if len(a & b) < t:
            raise CheckFailed(f"{label}: {sorted(a)} and {sorted(b)} share fewer than {t}")


def check_ak(label: str, n: int, r: int, t: int, max_size: int) -> None:
    expected = ak_maximum(n, r, t)
    if max_size != expected:
        raise CheckFailed(f"{label}: max_size {max_size}, Ahlswede-Khachatrian gives {expected}")


# -- reports ----------------------------------------------------------------


def check_same_bytes(label: str, cold: str, replay: str) -> None:
    """A report replayed from the row cache must equal the cold report byte for byte."""
    a, b = cold.encode(), replay.encode()
    if a == b:
        return
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    raise CheckFailed(f"{label}: replayed report differs from the cold one at byte {at}")
