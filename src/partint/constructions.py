"""Executable counting constructions with proof-mirroring assertions.

Three constructions drive the library's structural guarantees:

* a padding injection P(m, k) -> P(n, k) showing p(m, k) <= p(n, k),
  with an explicit partition outside the image certifying strictness
  when n > m, n >= k+2 and k >= 3;
* a fibre construction producing ck^2 * p(n, k-1) distinct k-tuples
  whose sorted forms lie in P(n, k), at most k-1 per fibre, which
  forces p(n, k) > c * p(n, k-1) for n >= ck^3;
* a small cover set J for any non-trivial t-intersecting set family
  with members of size at most r: |J| <= 3r - 2t - 1 and every member
  meets J in at least t+1 elements.

Each construction re-verifies the assertions its derivation relies on
and surfaces any discrepancy as a hard error; the verified facts are
also returned in report form so sweeps can display them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .intersect import multiset_common_count, t_intersects
from .partitions import (
    Partition,
    ResourceGuardError,
    count_partitions,
    enumerate_partitions,
)


class ConstructionError(RuntimeError):
    """An assertion a construction's derivation relies on failed."""


class NotTIntersectingError(ValueError):
    """The given family is not t-intersecting at the requested level."""


class TriviallyTIntersectingError(ValueError):
    """The family's common intersection already has t or more elements.

    The cover construction needs a third witness set that a trivial
    family cannot supply (or, for very small trivial families, cannot
    meet in t+1 elements)."""


# -- padding injection --------------------------------------------------


def lemma1_injection(m: int, n: int, k: int) -> dict[Partition, Partition]:
    """The map a -> (a_1, ..., a_{k-1}, a_k + n - m) on P(m, k).

    Returns the full graph of the map.  Verifies that it is injective
    into P(n, k), which proves p(m, k) <= p(n, k).
    """
    if not (1 <= k <= m <= n):
        raise ValueError(f"need 1 <= k <= m <= n, got k={k}, m={m}, n={n}")
    shift = n - m
    mapping: dict[Partition, Partition] = {}
    for a in enumerate_partitions(m, k):
        image = Partition(a.parts[:-1] + (a.parts[-1] + shift,))
        if image.n != n:
            raise ConstructionError(f"image {image} of {a} does not partition {n}")
        mapping[a] = image
    if len(set(mapping.values())) != len(mapping):
        raise ConstructionError("padding map is not injective")
    return mapping


def lemma1_strictness_witness(n: int, k: int) -> Partition:
    """A partition of n that no padded partition of any m < n can hit.

    Every image under the injection has last part strictly larger than
    its second-to-last when n > m; the witness has its last two parts
    equal.  Needs k >= 3 and n >= k+2.
    """
    if k < 3 or n < k + 2:
        raise ValueError(f"strictness needs k >= 3 and n >= k+2, got k={k}, n={n}")
    if (n - k) % 2 == 0:
        parts = (1,) * (k - 2) + ((n - k + 2) // 2, (n - k + 2) // 2)
    else:
        # n - k odd and >= 3, so the halves are at least 2.
        parts = (1,) * (k - 3) + (2, (n - k + 1) // 2, (n - k + 1) // 2)
    witness = Partition(parts)
    if witness.n != n or witness.k != k:
        raise ConstructionError(f"witness {witness} is not in P({n}, {k})")
    return witness


def count_monotonicity_is_strict(m: int, n: int, k: int) -> bool:
    """Whether p(m, k) < p(n, k) is certified by the witness construction."""
    return n > m and n >= k + 2 and k >= 3


# -- fibre construction --------------------------------------------------


@dataclass
class Lemma2Report:
    """Verified facts about the fibre family F for one (n, k, c).

    F is the union over i = 1..ck^2 of
    F_i = {(i, a_1, ..., a_{k-2}, a_{k-1} - i) : a in P(n, k-1)}.
    Sorting any member of F gives a partition in P(n, k); grouping F by
    sorted form gives fibres of size at most k-1 each, so
    p(n, k) >= |F| / (k-1) > c * k * p(n, k-1) > c * p(n, k-1).
    """

    n: int
    k: int
    c: int
    family_size: int
    expected_size: int          # ck^2 * p(n, k-1)
    count_k: int                # p(n, k)
    count_k_minus_1: int        # p(n, k-1)
    pieces_disjoint: bool
    size_matches: bool
    members_partition_n: bool
    fibre_bound_holds: bool     # at most k-1 members per (sorted form, first entry)
    inequality_holds: bool      # p(n, k) > c * p(n, k-1)
    family: set[tuple[int, ...]]

    @property
    def all_assertions_hold(self) -> bool:
        return (
            self.pieces_disjoint
            and self.size_matches
            and self.members_partition_n
            and self.fibre_bound_holds
            and self.inequality_holds
        )


def sort_tuple(x) -> Partition:
    """The partition obtained by sorting a tuple of positive integers."""
    return Partition(sorted(x))


def _fibre_bound_holds(members, k: int) -> bool:
    # A member's fibre is its sorted form; within a fibre, members with
    # the same first entry differ only in which copy of the remaining
    # multiset sits last, so each (fibre, first entry) class has at
    # most k-1 members.
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for x in members:
        key = (tuple(sorted(x)), x[0])
        counts[key] = counts.get(key, 0) + 1
    return all(v <= k - 1 for v in counts.values())


def lemma2_family(
    n: int, k: int, c: int, *, materialize_limit: int = 2_000_000
) -> Lemma2Report:
    """Build and verify the fibre family F for n >= ck^3, k >= 3, c >= 1.

    Stores F and verifies every assertion exhaustively.  Raises
    ResourceGuardError when |F| = ck^2 * p(n, k-1) exceeds
    ``materialize_limit``.
    """
    if k < 3 or c < 1:
        raise ValueError(f"need k >= 3 and c >= 1, got k={k}, c={c}")
    if n < c * k**3:
        raise ValueError(f"need n >= ck^3 = {c * k**3}, got n={n}")

    count_k1 = count_partitions(n, k - 1)
    count_k = count_partitions(n, k)
    pieces = c * k * k
    expected = pieces * count_k1
    if expected > materialize_limit:
        raise ResourceGuardError(
            f"the fibre family has {expected} members, above the cap {materialize_limit}"
        )

    def lift(a_parts: tuple[int, ...], i: int) -> tuple[int, ...]:
        member = (i,) + a_parts[:-1] + (a_parts[-1] - i,)
        if member[-1] < 1:
            raise ConstructionError(f"piece {i}: member {member} has a nonpositive entry")
        return member

    base = enumerate_partitions(n, k - 1, max_vertices=materialize_limit)
    family: set[tuple[int, ...]] = set()
    pieces_disjoint = True
    members_ok = True
    for i in range(1, pieces + 1):
        fi = {lift(a.parts, i) for a in base}
        if len(fi) != count_k1:
            raise ConstructionError(f"piece {i} has {len(fi)} members, not {count_k1}")
        if family & fi:
            pieces_disjoint = False
        members_ok = members_ok and all(len(x) == k and sort_tuple(x).n == n for x in fi)
        family |= fi

    return Lemma2Report(
        n=n,
        k=k,
        c=c,
        family_size=len(family),
        expected_size=expected,
        count_k=count_k,
        count_k_minus_1=count_k1,
        pieces_disjoint=pieces_disjoint,
        size_matches=len(family) == expected,
        members_partition_n=members_ok,
        fibre_bound_holds=_fibre_bound_holds(family, k),
        inequality_holds=count_k > c * count_k1,
        family=family,
    )


# -- cover sets ----------------------------------------------------------


@dataclass
class CoverSetReport:
    """A verified cover set J for a t-intersecting set family."""

    cover: frozenset[int]
    case: str                    # "t_plus_1_intersecting" or "three_set_union"
    witnesses: tuple[frozenset[int], frozenset[int], frozenset[int]] | None
    t: int
    r: int
    size_bound: int              # 3r - 2t - 1
    min_overlap: int             # min over members of |A & J|


def lemma3_cover(family, t: int, r: int) -> CoverSetReport:
    """A set J with |J| <= 3r - 2t - 1 meeting every member in >= t+1 points.

    ``family`` is an iterable of member sets, each of size at most r;
    duplicates are collapsed.  The family must be t-intersecting.  If
    some pair meets in exactly t points the construction needs a third
    member not containing that pair's intersection, which exists
    exactly when the family is non-trivial (common intersection smaller
    than t); trivial families then raise TriviallyTIntersectingError.
    """
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")
    members: list[frozenset[int]] = []
    seen = set()
    for raw in family:
        member = frozenset(raw)
        if member not in seen:
            seen.add(member)
            members.append(member)
    if not members:
        raise ValueError("the family is empty")
    if any(len(a) > r for a in members):
        raise ValueError(f"members must have at most r={r} elements")

    for a in members:
        if len(a) < t:
            raise NotTIntersectingError(f"member {sorted(a)} has fewer than {t} elements")
    exact_pair: tuple[frozenset[int], frozenset[int]] | None = None
    for a, b in combinations(members, 2):
        shared = len(a & b)
        if shared < t:
            raise NotTIntersectingError(
                f"members {sorted(a)} and {sorted(b)} share only {shared} elements"
            )
        if shared == t and exact_pair is None:
            exact_pair = (a, b)

    bound = 3 * r - 2 * t - 1

    if exact_pair is None:
        # Every pair shares at least t+1 elements; any member works.
        cover = members[0]
        case = "t_plus_1_intersecting"
        witnesses = None
    else:
        a1, a2 = exact_pair
        core = a1 & a2
        a3 = next((a for a in members if not core <= a), None)
        if a3 is None:
            raise TriviallyTIntersectingError(
                f"every member contains {sorted(core)}; the family is trivially "
                f"{t}-intersecting and has no third witness set"
            )
        cover = a1 | a2 | a3
        case = "three_set_union"
        witnesses = (a1, a2, a3)

    min_overlap = min(len(a & cover) for a in members)
    if case == "t_plus_1_intersecting" and min_overlap < t + 1:
        # Only possible for a trivial family of very small members.
        raise TriviallyTIntersectingError(
            f"the family is trivially {t}-intersecting and too small to admit "
            f"a cover meeting every member in {t + 1} elements"
        )
    if len(cover) > bound or min_overlap < t + 1:
        raise ConstructionError(
            f"cover {sorted(cover)} violates its guarantees: |J|={len(cover)} "
            f"(bound {bound}), min overlap {min_overlap} (needs {t + 1})"
        )
    return CoverSetReport(
        cover=cover,
        case=case,
        witnesses=witnesses,
        t=t,
        r=r,
        size_bound=bound,
        min_overlap=min_overlap,
    )


# -- boundary witnesses ---------------------------------------------------


def proposition_witnesses(n: int, k: int, t: int = 1) -> dict[str, Partition]:
    """Extremal witness partitions at the small-n boundaries.

    At n = 2k (t = 1): the all-twos partition a1 = (2, ..., 2) together
    with the star members a2 = (1, ..., 1, k+1) and, for k >= 4,
    a3 = (1, ..., 1, 3, k-1); a1 intersects neither.  These drive the
    classification of when the star is the unique maximum family.

    At n = 2k - t + 1 (t < k): the pair a = (1^{t-1}, 2^{k-t+1}) and
    b = (1^{k-1}, k-t+2), which share exactly t-1 parts.  This is the
    first n at which P(n, k) stops being t-intersecting as a whole.
    """
    if not (1 <= t <= k <= n):
        raise ValueError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    out: dict[str, Partition] = {}

    if t == 1 and k >= 2 and n == 2 * k:
        a1 = Partition((2,) * k)
        a2 = Partition((1,) * (k - 1) + (k + 1,))
        for name, p in (("a1", a1), ("a2", a2)):
            if p.n != n:
                raise ConstructionError(f"{name} = {p} does not partition {n}")
        if t_intersects(a1, a2, 1):
            raise ConstructionError(f"{a1} and {a2} unexpectedly intersect")
        out["a1"] = a1
        out["a2"] = a2
        if k >= 4:
            a3 = Partition((1,) * (k - 2) + (3, k - 1))
            if a3.n != n or t_intersects(a1, a3, 1):
                raise ConstructionError(f"a3 = {a3} fails its witness conditions")
            out["a3"] = a3

    if t < k and n == 2 * k - t + 1:
        a = Partition((1,) * (t - 1) + (2,) * (k - t + 1))
        b = Partition((1,) * (k - 1) + (k - t + 2,))
        if a.n != n or b.n != n:
            raise ConstructionError(f"{a} or {b} does not partition {n}")
        if multiset_common_count(a.parts, b.parts) != t - 1:
            raise ConstructionError(f"{a} and {b} do not share exactly {t - 1} parts")
        out["a"] = a
        out["b"] = b

    if not out:
        raise ValueError(
            f"no boundary witnesses at (n={n}, k={k}, t={t}); "
            f"expected n = 2k with t = 1, or n = 2k - t + 1 with t < k"
        )
    return out
