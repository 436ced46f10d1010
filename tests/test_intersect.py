"""Intersection relations against independent multiset/set oracles."""

import random
from collections import Counter

import pytest

from partint import (
    Partition,
    Relation,
    distinct_common_count,
    enumerate_partitions,
    multiset_common_count,
    properly_t_intersects,
    t_intersects,
)
from partint.cliques import _vertex_tokens


def counter_common(a, b):
    """Oracle: size of the multiset intersection via Counter."""
    shared = Counter(a) & Counter(b)
    return sum(shared.values())


def random_partition(rng, n_max=24):
    n = rng.randint(1, n_max)
    k = rng.randint(1, n)
    members = enumerate_partitions(n, k)
    return rng.choice(members)


class TestEncodings:
    """The engine's encoder: the tokens each partition contributes to the token index."""

    def test_multiset_tokens_count_occurrences(self):
        p = Partition((2, 2, 5, 5, 5, 7))
        [tokens] = _vertex_tokens([p], Relation.MULTISET)
        # packed as part * width + occurrence, width one more than the longest partition
        assert sorted(divmod(token, p.k + 1) for token in tokens) == [
            (2, 1), (2, 2), (5, 1), (5, 2), (5, 3), (7, 1)
        ]

    def test_distinct_parts(self):
        [tokens] = _vertex_tokens([Partition((2, 2, 5, 5, 5, 7))], Relation.PROPER)
        assert sorted(tokens) == [2, 5, 7]

    def test_indexed_set_size_is_length(self):
        # k tokens under the multiset relation, one per distinct value under the proper one
        rng = random.Random(11)
        for _ in range(100):
            p = random_partition(rng)
            [multiset] = _vertex_tokens([p], Relation.MULTISET)
            [proper] = _vertex_tokens([p], Relation.PROPER)
            assert len(multiset) == len(set(multiset)) == p.k
            assert len(proper) == len(set(proper)) == len(set(p.parts))


class TestCommonCounts:
    def test_multiset_count_matches_counter_oracle(self):
        rng = random.Random(23)
        for _ in range(400):
            a, b = random_partition(rng), random_partition(rng)
            assert multiset_common_count(a.parts, b.parts) == counter_common(
                a.parts, b.parts
            )

    def test_distinct_count_matches_set_oracle(self):
        rng = random.Random(29)
        for _ in range(400):
            a, b = random_partition(rng), random_partition(rng)
            expected = len(set(a.parts) & set(b.parts))
            assert distinct_common_count(a.parts, b.parts) == expected

    def test_indexed_encoding_agrees_with_two_pointer(self):
        # two partitions encoded together share as many tokens as the counters count
        rng = random.Random(31)
        for _ in range(200):
            a, b = random_partition(rng), random_partition(rng)
            for relation, common in [
                (Relation.MULTISET, multiset_common_count),
                (Relation.PROPER, distinct_common_count),
            ]:
                ta, tb = _vertex_tokens([a, b], relation)
                assert len(set(ta) & set(tb)) == common(a.parts, b.parts), (a, b, relation)

    def test_stop_at_caps_the_count(self):
        rng = random.Random(37)
        for _ in range(200):
            a, b = random_partition(rng), random_partition(rng)
            full = multiset_common_count(a.parts, b.parts)
            for cap in (1, 2, 5):
                got = multiset_common_count(a.parts, b.parts, stop_at=cap)
                assert got == min(full, cap)
            full_d = distinct_common_count(a.parts, b.parts)
            got_d = distinct_common_count(a.parts, b.parts, stop_at=1)
            assert got_d == min(full_d, 1)

    def test_symmetry(self):
        rng = random.Random(41)
        for _ in range(200):
            a, b = random_partition(rng), random_partition(rng)
            assert multiset_common_count(a.parts, b.parts) == multiset_common_count(
                b.parts, a.parts
            )
            assert distinct_common_count(a.parts, b.parts) == distinct_common_count(
                b.parts, a.parts
            )


class TestRelations:
    def test_one_common_part_example(self):
        a, b = Partition((1, 2, 7)), Partition((2, 3, 5))
        assert t_intersects(a, b, 1)
        assert not t_intersects(a, b, 2)

    def test_repeated_parts_count_per_copy(self):
        a, b = Partition((1, 2, 2, 3)), Partition((2, 2, 3, 4))
        # common multiset {2, 2, 3}; common distinct values {2, 3}
        assert t_intersects(a, b, 3)
        assert not t_intersects(a, b, 4)
        assert properly_t_intersects(a, b, 2)
        assert not properly_t_intersects(a, b, 3)

    def test_level_zero_always_holds(self):
        a, b = Partition((1, 1, 4)), Partition((2, 2, 2))
        assert t_intersects(a, b, 0)
        assert properly_t_intersects(a, b, 0)

    def test_negative_level_rejected(self):
        a = Partition((1, 2))
        with pytest.raises(ValueError):
            t_intersects(a, a, -1)
        with pytest.raises(ValueError):
            properly_t_intersects(a, a, -1)

    def test_proper_implies_multiset(self):
        rng = random.Random(43)
        for _ in range(300):
            a, b = random_partition(rng), random_partition(rng)
            t = rng.randint(0, 4)
            if properly_t_intersects(a, b, t):
                assert t_intersects(a, b, t)

    def test_self_relation_thresholds(self):
        p = Partition((2, 2, 5, 5, 5, 7))
        assert t_intersects(p, p, 6)
        assert not t_intersects(p, p, 7)
        assert properly_t_intersects(p, p, 3)
        assert not properly_t_intersects(p, p, 4)
