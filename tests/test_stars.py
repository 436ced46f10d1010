"""Star families: size identities and membership filters."""

import pytest

from partint import (
    count_all,
    count_partitions,
    enumerate_partitions,
    fixed_set_family,
    star_all_lengths,
    star_t,
)


class TestFixedLengthStars:
    def test_star_members_start_with_ones(self):
        for n, k, t in [(12, 4, 2), (10, 3, 1), (9, 5, 3)]:
            for p in star_t(n, k, t):
                assert all(part == 1 for part in p.parts[:t])

    def test_star_size_identity_small_grid(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                for t in range(0, k + 1):
                    got = len(star_t(n, k, t))
                    assert got == count_partitions(n - t, k - t), (n, k, t)

    def test_level_zero_is_whole_family(self):
        assert star_t(9, 3, 0) == enumerate_partitions(9, 3)

    def test_level_above_length_is_empty(self):
        assert star_t(5, 2, 3) == []

    def test_star_is_filter_of_enumeration(self):
        members = enumerate_partitions(11, 4)
        expected = [p for p in members if p.parts[1] == 1]
        assert star_t(11, 4, 2) == expected


class TestFixedSetFamilies:
    def test_size_matches_reduced_count(self):
        # removing one copy of each required part is a bijection onto
        # the smaller enumeration, so the sizes agree
        cases = [(12, 4, {1, 2}), (14, 5, {1, 3}), (10, 3, {2}), (12, 5, {1, 2, 3})]
        for n, k, required in cases:
            family = fixed_set_family(n, k, required)
            reduced = count_partitions(n - sum(required), k - len(required))
            assert len(family) == reduced, (n, k, required)

    def test_members_contain_required_parts(self):
        family = fixed_set_family(12, 4, {2, 3})
        assert family
        for p in family:
            assert {2, 3} <= set(p.parts)

    def test_part_one_matches_level_one_star(self):
        assert fixed_set_family(13, 4, {1}) == star_t(13, 4, 1)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            fixed_set_family(10, 3, {0})
        with pytest.raises(ValueError):
            fixed_set_family(10, 3, {-2, 1})


class TestMixedLengthStars:
    def test_size_identity(self):
        for n in range(1, 16):
            for t in range(0, n + 1):
                assert len(star_all_lengths(n, t)) == count_all(n - t), (n, t)

    def test_members_start_with_ones(self):
        for p in star_all_lengths(9, 2):
            assert p.k >= 2 and p.parts[0] == 1 and p.parts[1] == 1

