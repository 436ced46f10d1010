"""The benchmark's own checkers accept good outputs and reject broken ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

import pytest

import checks
from checks import CheckFailed

# The smallest family that beats the star: pairwise intersecting in P(8, 3).
BEATS_STAR_8_3 = [(1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3)]


def test_own_generator_and_star_count():
    assert checks.partitions_of(8, 3) == [(1, 1, 6), (1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3)]
    counts = [len(checks.partitions_of(10, k)) for k in range(1, 11)]
    assert counts == [1, 5, 8, 9, 7, 5, 3, 2, 1, 1]
    assert len(checks.partitions_all(10)) == 42
    members = checks.partitions_of(8, 3)
    assert checks.star_of(members, 1, "multiset") == members[:3]
    assert checks.star_of(checks.partitions_of(9, 3), 2, "proper") == [(1, 2, 6)]


def test_relations():
    assert checks.meet((1, 1, 2, 5), (1, 1, 3, 4), "multiset") == 2
    assert checks.meet((1, 1, 2, 5), (1, 1, 3, 4), "proper") == 1
    assert checks.meet((2, 2, 4), (2, 3, 3), "multiset") == 1


def test_family_check_accepts_a_valid_witness():
    checks.check_family("ok", BEATS_STAR_8_3, 8, 3, 1, "multiset", 4)


def test_family_check_rejects_a_dropped_member():
    with pytest.raises(CheckFailed, match="3 members"):
        checks.check_family("dropped", BEATS_STAR_8_3[:-1], 8, 3, 1, "multiset", 4)


def test_family_check_rejects_a_non_intersecting_pair():
    family = [(1, 1, 6)] + BEATS_STAR_8_3[1:]
    with pytest.raises(CheckFailed, match="do not 1-intersect"):
        checks.check_family("pair", family, 8, 3, 1, "multiset", 4)


def test_family_check_rejects_a_pair_sharing_too_few_distinct_values():
    # (1,1,2,5) and (1,1,3,4) share two parts but only one distinct value.
    family = [(1, 1, 2, 5), (1, 1, 3, 4)]
    checks.check_family("multiset", family, 9, 4, 2, "multiset", 2)
    with pytest.raises(CheckFailed):
        checks.check_family("proper", family, 9, 4, 2, "proper", 2)


def test_family_check_rejects_repeats_and_non_partitions():
    with pytest.raises(CheckFailed, match="repeats"):
        checks.check_family("repeat", [(1, 2, 5), (1, 2, 5)], 8, 3, 1, "multiset", 2)
    with pytest.raises(CheckFailed, match="not a partition"):
        checks.check_family("sum", [(1, 2, 5), (1, 3, 5)], 8, 3, 1, "multiset", 2)


def test_lex_min_maximum_clique_of_p_8_3():
    family = checks.lex_min_maximum_clique(checks.partitions_of(8, 3), 1, "multiset")
    assert family == BEATS_STAR_8_3
    assert checks.digest(family) != checks.digest(family[:-1])


def test_ak_values():
    assert checks.ak_maximum(9, 4, 1) == 56        # EKR: C(8, 3)
    assert checks.ak_maximum(8, 4, 2) == 17        # below the threshold: beats C(6, 2) = 15
    assert checks.ak_maximum(4, 4, 1) == 1
    checks.check_ak("ok", 8, 4, 2, 17)


def test_ak_check_rejects_a_wrong_value():
    with pytest.raises(CheckFailed, match="gives 17"):
        checks.check_ak("star", 8, 4, 2, 15)
    with pytest.raises(CheckFailed, match="gives 56"):
        checks.check_ak("plus one", 9, 4, 1, 57)


def test_set_family_check():
    star = [(1, 2), (1, 3), (1, 4)]
    checks.check_set_family("ok", star, 4, 2, 1, 3)
    with pytest.raises(CheckFailed, match="2 members"):
        checks.check_set_family("dropped", star[:2], 4, 2, 1, 3)
    with pytest.raises(CheckFailed, match="fewer than 1"):
        checks.check_set_family("pair", [(1, 2), (3, 4)], 4, 2, 1, 2)


def test_replay_bytes():
    checks.check_same_bytes("same", "n,k\n8,3\n", "n,k\n8,3\n")
    with pytest.raises(CheckFailed, match="at byte 6"):
        checks.check_same_bytes("changed", "n,k\n8,3\n", "n,k\n8,4\n")
    with pytest.raises(CheckFailed, match="at byte 7"):
        checks.check_same_bytes("truncated", "n,k\n8,3\n", "n,k\n8,3")
