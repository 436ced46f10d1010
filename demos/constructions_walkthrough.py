"""The four counting constructions, run and checked on small cases.

Each construction is executable: it builds the object it claims exists
and verifies the properties its conclusion needs, raising if any check
fails. This script runs all four and prints what they produce.
"""

from partint import (
    Partition,
    count_partitions,
    lemma1_injection,
    lemma1_strictness_witness,
    lemma2_family,
    lemma3_cover,
    proposition_witnesses,
)


def padding_demo() -> None:
    print("padding injection: P(7, 3) -> P(11, 3), last part absorbs the difference")
    mapping = lemma1_injection(7, 11, 3)
    for src, dst in sorted(mapping.items()):
        print(f"  {src.parts} -> {dst.parts}")
    print(f"  p(7, 3) = {count_partitions(7, 3)} <= p(11, 3) = {count_partitions(11, 3)}")

    witness = lemma1_strictness_witness(11, 3)
    print(f"  {witness.parts} ends in two equal parts, so no padded image hits it;")
    print("  the inequality is strict for every source m < 11.")
    print()


def fibre_demo() -> None:
    print("fibre family: p(n, k) > c * p(n, k-1) once n >= c * k^3")
    report = lemma2_family(27, 3, 1)
    print("  (n, k, c) = (27, 3, 1)")
    print(f"  |F| = {report.family_size} = ck^2 * p(27, 2) = {report.expected_size}")
    print(f"  fibres have at most k-1 = {report.k - 1} members each")
    print(f"  p(27, 3) = {report.count_k} > {report.c} * p(27, 2) = {report.c * report.count_k_minus_1}")
    print(f"  all assertions hold: {report.all_assertions_hold}")
    print()


def cover_demo() -> None:
    print("cover set: |J| <= 3r - 2t - 1 meeting every member in >= t+1 points")
    family = [{1, 2, 4, 5}, {2, 3, 5, 6}, {1, 3, 5, 7}]
    report = lemma3_cover(family, t=1, r=4)
    print(f"  family: {[sorted(a) for a in family]}")
    print(f"  case {report.case}: J = {sorted(report.cover)}")
    print(f"  |J| = {len(report.cover)} <= 3r - 2t - 1 = {report.size_bound}")
    for member in family:
        overlap = len(report.cover & member)
        print(f"  |J meet {sorted(member)}| = {overlap} >= t+1 = 2")
    print()


def boundary_demo() -> None:
    print("boundary witnesses at n = 2k and n = 2k - t + 1")
    for n, k, t in [(8, 4, 1), (9, 5, 2)]:
        witnesses = proposition_witnesses(n, k, t)
        print(f"  (n, k, t) = ({n}, {k}, {t}):")
        for name, p in sorted(witnesses.items()):
            print(f"    {name} = {p.parts}")
    print()
    # The n = 2k witnesses explain why uniqueness fails there for small
    # k: a1 = (2, 2, 2) avoids the whole star of P(6, 3) yet the star
    # is still maximum, so swapping a star member for a1 ties it.
    a1 = proposition_witnesses(6, 3)["a1"]
    print(f"  at (6, 3): a1 = {a1.parts} shares no part with (1, 1, 4) or (1, 2, 3)")


if __name__ == "__main__":
    padding_demo()
    fibre_demo()
    cover_demo()
    boundary_demo()
