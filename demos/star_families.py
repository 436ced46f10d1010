"""Stars: the canonical candidates for maximum intersecting families.

The t-star of P(n, k) consists of the partitions whose first t parts
are all 1. Deleting those ones is a bijection onto P(n-t, k-t), which
pins the star size to a pure counting quantity and makes stars the
benchmark every exact search is measured against.
"""

from partint import (
    Partition,
    count_all,
    count_partitions,
    fixed_set_family,
    star_all_lengths,
    star_t,
)


def show_star(n: int, k: int, t: int) -> None:
    family = star_t(n, k, t)
    expected = count_partitions(n - t, k - t)
    print(f"star_t({n}, {k}, t={t}): {len(family)} members, p({n-t}, {k-t}) = {expected}")
    for p in family:
        print(f"  {p.parts}")
    print()


if __name__ == "__main__":
    show_star(10, 3, 1)
    show_star(12, 4, 2)

    # The same principle works for any fixed set of required parts:
    # removing one copy of each required value is a bijection onto
    # P(11 - 5, 4 - 2).
    family = fixed_set_family(11, 4, {2, 3})
    print(f"partitions of 11 into 4 parts containing a 2 and a 3: {len(family)}")
    for p in family:
        print(f"  {p.parts}")
    print(f"p(11 - 5, 4 - 2) = p(6, 2) = {count_partitions(6, 2)}")
    print()

    # Mixed lengths: the t-star of all partitions of n.
    n, t = 9, 2
    family = star_all_lengths(n, t)
    print(f"star over all of P({n}) at t={t}: {len(family)} members, p({n-t}) = {count_all(n - t)}")
    print(f"  first few: {[p.parts for p in family[:4]]}")

    # Membership is a prefix condition, nothing more.
    p = Partition((1, 1, 3, 4))
    print(f"{p.parts} in the t=2 star of P(9, 4): {p in star_t(9, 4, 2)}")
