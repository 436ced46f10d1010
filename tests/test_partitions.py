"""Enumeration and counting: frozen values, identities, guards."""

import random

import pytest

from partint import (
    CountTable,
    Partition,
    ResourceGuardError,
    count_all,
    count_partitions,
    enumerate_all,
    enumerate_partitions,
)

# Independently derived by hand: the eight partitions of 10 into 3 parts,
# in nondecreasing-tuple lexicographic order.
P_10_3 = [
    (1, 1, 8),
    (1, 2, 7),
    (1, 3, 6),
    (1, 4, 5),
    (2, 2, 6),
    (2, 3, 5),
    (2, 4, 4),
    (3, 3, 4),
]


class TestPartition:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Partition((3, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((0, 1))
        with pytest.raises(ValueError):
            Partition((-1, 2))

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError):
            Partition((True, 2))

    def test_sum_and_length(self):
        p = Partition((1, 1, 8))
        assert p.n == 10
        assert p.k == 3

    def test_str_joins_with_plus(self):
        assert str(Partition((1, 1, 8))) == "1+1+8"

    def test_ordering_follows_tuples(self):
        assert Partition((1, 4)) < Partition((2, 3))
        assert Partition((1, 2, 3)) == Partition([1, 2, 3])

    def test_usable_in_sets(self):
        assert len({Partition((1, 4)), Partition((1, 4))}) == 1

    def test_frozen(self):
        p = Partition((1, 4))
        with pytest.raises(AttributeError):
            p.parts = (2, 3)
        assert p == Partition((1, 4))

    def test_repr_shows_the_parts_tuple(self):
        assert repr(Partition((1, 2))) == "Partition((1, 2))"


class TestFrozenValues:
    def test_p_10_3_is_8(self):
        members = enumerate_partitions(10, 3)
        assert [p.parts for p in members] == P_10_3
        assert count_partitions(10, 3) == 8

    def test_small_fixed_counts(self):
        assert count_partitions(7, 2) == 3
        assert count_partitions(9, 2) == 4
        assert count_partitions(8, 3) == 5
        assert count_all(5) == 7
        assert count_all(14) == 135

    def test_single_part_and_all_ones(self):
        assert count_partitions(9, 1) == 1
        assert count_partitions(9, 9) == 1
        assert [p.parts for p in enumerate_partitions(9, 1)] == [(9,)]
        assert [p.parts for p in enumerate_partitions(9, 9)] == [(1,) * 9]


class TestCountEnumerateAgreement:
    def test_full_grid_to_18(self):
        for n in range(1, 19):
            for k in range(1, n + 1):
                assert count_partitions(n, k) == len(enumerate_partitions(n, k))

    def test_lengths_sum_to_count_all(self):
        for n in range(1, 31):
            assert sum(count_partitions(n, k) for k in range(1, n + 1)) == count_all(n)

    def test_enumerate_all_matches_count_all(self):
        for n in range(1, 15):
            members = enumerate_all(n)
            assert len(members) == count_all(n)
            assert len(set(members)) == len(members)

    def test_recurrence_on_random_cells(self):
        rng = random.Random(7)
        table = CountTable()
        for _ in range(300):
            n = rng.randint(2, 120)
            k = rng.randint(1, n)
            expected = table.count(n - 1, k - 1) + (
                table.count(n - k, k) if n >= k else 0
            )
            assert table.count(n, k) == expected


class TestEnumerationShape:
    def test_lexicographic_and_canonical(self):
        for n, k in [(12, 3), (15, 4), (9, 2)]:
            members = enumerate_partitions(n, k)
            assert members == sorted(members)
            for p in members:
                assert p.n == n and p.k == k
                assert all(a <= b for a, b in zip(p.parts, p.parts[1:]))

    def test_k_larger_than_n_is_empty(self):
        assert enumerate_partitions(3, 5) == []
        assert count_partitions(3, 5) == 0

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0, 1)
        with pytest.raises(ValueError):
            enumerate_partitions(5, 0)
        with pytest.raises(ValueError):
            count_partitions(-1, 1)

    def test_vertex_guard_fires_before_materializing(self):
        with pytest.raises(ResourceGuardError):
            enumerate_partitions(120, 10, max_vertices=100)
        with pytest.raises(ResourceGuardError):
            enumerate_all(40, max_vertices=1000)


class TestCountTable:
    def test_independent_instances_agree(self):
        a, b = CountTable(), CountTable()
        assert a.count(50, 7) == b.count(50, 7)

    def test_large_values_are_exact(self):
        # Big cells must not lose precision; value cross-checked against
        # the recurrence by construction of the table itself.
        table = CountTable()
        assert table.count_all(100) == 190569292

    def test_count_all_matches_sum(self):
        table = CountTable()
        for n in (1, 5, 23, 60):
            assert table.count_all(n) == sum(
                table.count(n, k) for k in range(1, n + 1)
            )
