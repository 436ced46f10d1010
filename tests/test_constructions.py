"""Padding injections, fibre families, cover sets, boundary witnesses."""

import random
from itertools import combinations

import pytest

from partint import (
    ConstructionError,
    NotTIntersectingError,
    Partition,
    ResourceGuardError,
    TriviallyTIntersectingError,
    count_partitions,
    enumerate_partitions,
    lemma1_injection,
    lemma1_strictness_witness,
    lemma2_family,
    lemma3_cover,
    multiset_common_count,
    proposition_witnesses,
    t_intersects,
)
from partint.constructions import count_monotonicity_is_strict, sort_tuple
from partint.harness import random_cover_instance


class TestPaddingInjection:
    def test_maps_into_target_and_preserves_injectivity(self):
        for k in range(1, 5):
            for m in range(k, 13):
                for n in range(m, 13):
                    mapping = lemma1_injection(m, n, k)
                    assert len(mapping) == count_partitions(m, k)
                    images = set(mapping.values())
                    assert len(images) == len(mapping)
                    target = set(enumerate_partitions(n, k)) if n >= k else set()
                    assert images <= target

    def test_padding_formula(self):
        mapping = lemma1_injection(7, 11, 3)
        assert mapping[Partition((1, 2, 4))] == Partition((1, 2, 8))
        assert mapping[Partition((2, 2, 3))] == Partition((2, 2, 7))

    def test_identity_when_sizes_match(self):
        mapping = lemma1_injection(6, 6, 3)
        assert all(a == image for a, image in mapping.items())

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            lemma1_injection(6, 5, 3)

    def test_monotonicity_of_counts(self):
        for k in range(1, 6):
            for m in range(k, 20):
                assert count_partitions(m, k) <= count_partitions(m + 1, k)


class TestStrictnessWitness:
    def test_even_gap_shape(self):
        w = lemma1_strictness_witness(9, 3)
        assert w == Partition((1, 4, 4))

    def test_odd_gap_shape(self):
        w = lemma1_strictness_witness(10, 3)
        assert w == Partition((2, 4, 4))

    def test_witness_never_in_padded_image(self):
        # padded images end with a strictly largest part; witnesses end
        # with a repeated one, certifying strictness of the inclusion
        for k in range(3, 6):
            for n in range(k + 2, 16):
                w = lemma1_strictness_witness(n, k)
                assert w.n == n and w.k == k
                assert w.parts[-1] == w.parts[-2]
                for m in range(k, n):
                    images = set(lemma1_injection(m, n, k).values())
                    assert w not in images, (m, n, k)

    def test_strictness_predicate_matches_tables(self):
        for k in range(3, 6):
            for m in range(k, 15):
                for n in range(m + 1, 15):
                    if count_monotonicity_is_strict(m, n, k):
                        assert count_partitions(m, k) < count_partitions(n, k)

    def test_small_cases_rejected(self):
        with pytest.raises(ValueError):
            lemma1_strictness_witness(5, 2)
        with pytest.raises(ValueError):
            lemma1_strictness_witness(4, 3)


class TestFibreFamilies:
    def test_full_mode_all_assertions(self):
        report = lemma2_family(27, 3, 1)
        assert report.family_size == len(report.family) == report.expected_size
        assert report.expected_size == 9 * count_partitions(27, 2)
        assert report.all_assertions_hold
        # spot-check membership: every member sorts into P(27, 3)
        sample = next(iter(report.family))
        assert sort_tuple(sample) in set(enumerate_partitions(27, 3))

    def test_inequality_conclusion(self):
        report = lemma2_family(32, 3, 1)
        assert report.count_k > report.c * report.count_k_minus_1
        assert report.inequality_holds

    def test_materialize_limit_guard(self):
        # |F| = 9 * p(27, 2) = 117 members
        with pytest.raises(ResourceGuardError):
            lemma2_family(27, 3, 1, materialize_limit=116)
        assert lemma2_family(27, 3, 1, materialize_limit=117).family_size == 117

    def test_k4_instance(self):
        report = lemma2_family(64, 4, 1)
        assert report.expected_size == 16 * count_partitions(64, 3)
        assert report.all_assertions_hold

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lemma2_family(26, 3, 1)
        with pytest.raises(ValueError):
            lemma2_family(30, 2, 1)
        with pytest.raises(ValueError):
            lemma2_family(30, 3, 0)


class TestCoverSets:
    def test_single_member_family(self):
        report = lemma3_cover([{1, 2, 3}], 1, 3)
        assert report.case == "t_plus_1_intersecting"
        assert report.cover == frozenset({1, 2, 3})
        assert report.min_overlap == 3
        assert report.size_bound == 6

    def test_three_set_union_case(self):
        report = lemma3_cover([{1, 2}, {2, 3}, {1, 3}], 1, 2)
        assert report.case == "three_set_union"
        assert report.cover == frozenset({1, 2, 3})
        assert len(report.cover) <= report.size_bound == 3
        assert report.min_overlap >= 2
        assert report.witnesses is not None

    def test_trivial_family_raises(self):
        with pytest.raises(TriviallyTIntersectingError):
            lemma3_cover([{1, 2}, {1, 3}], 1, 2)

    def test_tiny_trivial_members_raise(self):
        with pytest.raises(TriviallyTIntersectingError):
            lemma3_cover([{1}], 1, 1)

    def test_non_intersecting_family_rejected(self):
        with pytest.raises(NotTIntersectingError):
            lemma3_cover([{1, 2}, {3, 4}], 1, 2)
        with pytest.raises(NotTIntersectingError):
            lemma3_cover([{1, 2, 3}, {3, 4, 5}], 2, 3)

    def test_oversized_member_rejected(self):
        with pytest.raises(ValueError):
            lemma3_cover([{1, 2, 3, 4}], 1, 3)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            lemma3_cover([], 1, 3)

    def test_randomized_instances_meet_guarantees(self):
        rng = random.Random(97)
        produced = 0
        attempts = 0
        while produced < 300 and attempts < 30000:
            attempts += 1
            candidate = random_cover_instance(rng)
            if candidate is None:
                continue
            family, t, r = candidate
            report = lemma3_cover(family, t, r)
            assert len(report.cover) <= 3 * r - 2 * t - 1
            assert all(len(a & report.cover) >= t + 1 for a in family)
            produced += 1
        assert produced == 300


class TestBoundaryWitnesses:
    def test_all_twos_witness_at_doubled_length(self):
        out = proposition_witnesses(8, 4)
        a1, a2, a3 = out["a1"], out["a2"], out["a3"]
        assert a1 == Partition((2, 2, 2, 2))
        assert a2 == Partition((1, 1, 1, 5))
        assert a3 == Partition((1, 1, 3, 3))
        assert not t_intersects(a1, a2, 1)
        assert not t_intersects(a1, a3, 1)

    def test_no_third_witness_below_length_four(self):
        # both t = 1 boundaries coincide at n = 2k, so the overlap pair
        # appears too; only the k >= 4 witness must be absent
        out = proposition_witnesses(6, 3)
        assert "a3" not in out
        assert set(out) == {"a1", "a2", "a", "b"}

    def test_exact_t_minus_one_overlap_pair(self):
        out = proposition_witnesses(9, 5, 2)
        a, b = out["a"], out["b"]
        assert a == Partition((1, 2, 2, 2, 2))
        assert b == Partition((1, 1, 1, 1, 5))
        assert multiset_common_count(a.parts, b.parts) == 1

    def test_no_witnesses_elsewhere(self):
        with pytest.raises(ValueError):
            proposition_witnesses(9, 3, 1)

    def test_witness_families_block_uniqueness(self):
        # at n = 2k and k <= 3 the star plus the all-twos member ties it
        members = enumerate_partitions(6, 3)
        a1 = Partition((2, 2, 2))
        star = [p for p in members if p.parts[0] == 1]
        swapped = [p for p in star if t_intersects(p, a1, 1)] + [a1]
        assert len(swapped) == len(star)
        assert all(t_intersects(x, y, 1) for x, y in combinations(swapped, 2))
