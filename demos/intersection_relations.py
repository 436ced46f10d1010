"""Compare the two intersection relations on concrete pairs.

A pair of partitions can share parts in two senses: counted with
multiplicity (the multiset relation) or as distinct values (the proper
relation). The proper relation is the stricter one, and the gap between
the two shows up exactly when a shared part repeats.
"""

from partint import (
    Partition,
    distinct_common_count,
    multiset_common_count,
    properly_t_intersects,
    t_intersects,
)


def inspect_pair(a: tuple, b: tuple) -> None:
    pa, pb = Partition(a), Partition(b)
    multi = multiset_common_count(pa.parts, pb.parts)
    proper = distinct_common_count(pa.parts, pb.parts)
    print(f"{a} vs {b}")
    print(f"  shared parts with multiplicity: {multi}")
    print(f"  shared distinct parts:          {proper}")
    for t in range(1, 4):
        m = t_intersects(pa, pb, t)
        p = properly_t_intersects(pa, pb, t)
        print(f"  t={t}: multiset {str(m).lower():5s}  proper {str(p).lower()}")
    print()


if __name__ == "__main__":
    # Shared value 2 appears twice in each, so the multiset count is
    # ahead of the distinct count by one.
    inspect_pair((1, 2, 2, 3), (2, 2, 3, 4))

    # Only a single shared part, where the two relations agree.
    inspect_pair((1, 2, 7), (2, 3, 5))

    # No shared parts at all.
    inspect_pair((1, 1, 6), (2, 3, 3))
